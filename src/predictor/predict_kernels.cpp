#include "src/predictor/predict_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/predictor/fitting.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define CLIZ_KERNELS_X86 1
#endif

namespace cliz {
namespace {

/// Linear-fit weights indexed by the two reference-validity bits
/// ((fid >> 1) & 3): row m = linear_fit(m & 1, (m >> 1) & 1), i.e.
/// {w(-h), w(+h)}.
constexpr double kLinearW[4][2] = {
    {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}};

// ---------------------------------------------------------------------------
// Scalar tier: the reference implementation every other tier must match bit
// for bit. The masked predict reproduces interp_predict exactly (coefficient
// row selected by the validity id, zero-coefficient terms skipped before the
// multiply so masked garbage never contributes); the interior kernels
// reproduce predict_line's fixed-coefficient accumulation order.
// ---------------------------------------------------------------------------

template <typename T>
inline T flat_predict_ref(const T* data, const InterpFlatRefs& r,
                          std::size_t i, bool cubic) {
  if (cubic) {
    const CubicFit& f = cubic_fit(r.fid[i]);
    double p = 0.0;
    if (f.p[0] != 0.0) p += f.p[0] * static_cast<double>(data[r.nb0[i]]);
    if (f.p[1] != 0.0) p += f.p[1] * static_cast<double>(data[r.nb1[i]]);
    if (f.p[2] != 0.0) p += f.p[2] * static_cast<double>(data[r.nb2[i]]);
    if (f.p[3] != 0.0) p += f.p[3] * static_cast<double>(data[r.nb3[i]]);
    return static_cast<T>(p);
  }
  const double* w = kLinearW[(r.fid[i] >> 1) & 3u];
  double p = 0.0;
  if (w[0] != 0.0) p += w[0] * static_cast<double>(data[r.nb1[i]]);
  if (w[1] != 0.0) p += w[1] * static_cast<double>(data[r.nb2[i]]);
  return static_cast<T>(p);
}

template <typename T>
void encode_flat_scalar(T* data, const InterpFlatRefs& r, std::size_t n,
                        bool cubic, const LinearQuantizer<T>& q,
                        std::uint32_t* codes, std::vector<T>& outliers) {
  for (std::size_t i = 0; i < n; ++i) {
    const T pred = flat_predict_ref(data, r, i, cubic);
    codes[i] = q.quantize(data[r.tgt[i]], pred, outliers);
  }
}

template <typename T>
void decode_flat_scalar(T* data, const InterpFlatRefs& r, std::size_t n,
                        bool cubic, const LinearQuantizer<T>& q,
                        const std::uint32_t* codes, std::span<const T> outliers,
                        std::size_t& cursor) {
  for (std::size_t i = 0; i < n; ++i) {
    const T pred = flat_predict_ref(data, r, i, cubic);
    data[r.tgt[i]] = q.recover(codes[i], pred, outliers, cursor);
  }
}

template <typename T>
void encode_interior_scalar(T* dp, std::size_t st, std::size_t h,
                            std::size_t s, std::size_t lo, std::size_t hi,
                            bool cubic, const LinearQuantizer<T>& q,
                            std::uint32_t* codes, std::vector<T>& outliers) {
  const std::size_t hs = h * st;
  const std::size_t h3 = 3 * h * st;
  if (cubic) {
    const CubicFit& f = cubic_fit(0xFu);
    const double c0 = f.p[0];
    const double c1 = f.p[1];
    const double c2 = f.p[2];
    const double c3 = f.p[3];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t o = (h + i * s) * st;
      double p = 0.0;
      p += c0 * static_cast<double>(dp[o - h3]);
      p += c1 * static_cast<double>(dp[o - hs]);
      p += c2 * static_cast<double>(dp[o + hs]);
      p += c3 * static_cast<double>(dp[o + h3]);
      codes[i] = q.quantize(dp[o], static_cast<T>(p), outliers);
    }
    return;
  }
  const double l0 = kLinearW[3][0];
  const double l1 = kLinearW[3][1];
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t o = (h + i * s) * st;
    double p = 0.0;
    p += l0 * static_cast<double>(dp[o - hs]);
    p += l1 * static_cast<double>(dp[o + hs]);
    codes[i] = q.quantize(dp[o], static_cast<T>(p), outliers);
  }
}

template <typename T>
void decode_interior_scalar(T* dp, std::size_t st, std::size_t h,
                            std::size_t s, std::size_t lo, std::size_t hi,
                            bool cubic, const LinearQuantizer<T>& q,
                            const std::uint32_t* codes,
                            std::span<const T> outliers, std::size_t& cursor) {
  const std::size_t hs = h * st;
  const std::size_t h3 = 3 * h * st;
  if (cubic) {
    const CubicFit& f = cubic_fit(0xFu);
    const double c0 = f.p[0];
    const double c1 = f.p[1];
    const double c2 = f.p[2];
    const double c3 = f.p[3];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t o = (h + i * s) * st;
      double p = 0.0;
      p += c0 * static_cast<double>(dp[o - h3]);
      p += c1 * static_cast<double>(dp[o - hs]);
      p += c2 * static_cast<double>(dp[o + hs]);
      p += c3 * static_cast<double>(dp[o + h3]);
      dp[o] = q.recover(codes[i], static_cast<T>(p), outliers, cursor);
    }
    return;
  }
  const double l0 = kLinearW[3][0];
  const double l1 = kLinearW[3][1];
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t o = (h + i * s) * st;
    double p = 0.0;
    p += l0 * static_cast<double>(dp[o - hs]);
    p += l1 * static_cast<double>(dp[o + hs]);
    dp[o] = q.recover(codes[i], static_cast<T>(p), outliers, cursor);
  }
}

CodeScan scan_codes_scalar(const std::uint32_t* codes, std::size_t n) {
  CodeScan r;
  for (std::size_t i = 0; i < n; ++i) {
    r.zeros += codes[i] == 0 ? 1u : 0u;
    r.max_code = std::max(r.max_code, codes[i]);
  }
  return r;
}

template <typename T>
void accum_add_scalar(T* dst, const T* src, const std::uint8_t* valid,
                      std::size_t n) {
  if (valid == nullptr) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i] != 0) dst[i] += src[i];
  }
}

template <typename T>
void accum_sub_scalar(T* dst, const T* src, const std::uint8_t* valid,
                      std::size_t n) {
  if (valid == nullptr) {
    for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i] != 0) dst[i] -= src[i];
  }
}

#ifdef CLIZ_KERNELS_X86

// ---------------------------------------------------------------------------
// SSE4.2 tier: two f64 lanes (f32 widened to two f64 lanes — all arithmetic
// is double, exactly like the scalar reference). No gathers at this tier;
// lane loads are scalar. llround is emulated on _mm_round_pd's
// round-to-nearest-even: the +-0.5 correction is exact because |scaled| is
// far below 2^52, and it only applies when roundeven moved toward zero.
// ---------------------------------------------------------------------------

struct Q2d {
  __m128d recon;  ///< candidate reconstructions (double; f32 already
                  ///< narrowed-and-rewidened so lanes are exact floats)
  __m128i code;   ///< q + radius in int32 lanes 0,1
  int ok;         ///< 2-bit lane mask: in-bound AND reconstruction-bound ok
};

__attribute__((target("sse4.2"))) inline __m128d llround2(__m128d scaled) {
  const __m128d re =
      _mm_round_pd(scaled, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m128d delta = _mm_sub_pd(scaled, re);
  const __m128d zero = _mm_setzero_pd();
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d pos =
      _mm_and_pd(_mm_and_pd(_mm_cmpeq_pd(delta, _mm_set1_pd(0.5)),
                            _mm_cmpgt_pd(scaled, zero)),
                 one);
  const __m128d neg =
      _mm_and_pd(_mm_and_pd(_mm_cmpeq_pd(delta, _mm_set1_pd(-0.5)),
                            _mm_cmplt_pd(scaled, zero)),
                 one);
  return _mm_sub_pd(_mm_add_pd(re, pos), neg);
}

__attribute__((target("sse4.2"))) inline Q2d quantize2_f64(
    __m128d v, __m128d p, double two_eb, double eb, double lim,
    std::uint32_t radius) {
  const __m128d te = _mm_set1_pd(two_eb);
  const __m128d scaled = _mm_div_pd(_mm_sub_pd(v, p), te);
  const __m128d absm =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m128d inb = _mm_cmplt_pd(_mm_and_pd(scaled, absm), _mm_set1_pd(lim));
  const __m128d qd = llround2(scaled);
  const __m128d recon = _mm_add_pd(p, _mm_mul_pd(te, qd));
  const __m128d err = _mm_and_pd(_mm_sub_pd(recon, v), absm);
  const __m128d bok = _mm_cmple_pd(err, _mm_set1_pd(eb));
  Q2d r;
  r.recon = recon;
  r.code = _mm_add_epi32(_mm_cvtpd_epi32(qd),
                         _mm_set1_epi32(static_cast<int>(radius)));
  r.ok = _mm_movemask_pd(_mm_and_pd(inb, bok));
  return r;
}

/// f32 variant: the reconstruction is narrowed to float (the scalar path's
/// static_cast<T>) and re-widened before the |recon - v| <= eb check, so the
/// check sees exactly the value that will be stored.
__attribute__((target("sse4.2"))) inline Q2d quantize2_f32(
    __m128d v, __m128d p, double two_eb, double eb, double lim,
    std::uint32_t radius) {
  const __m128d te = _mm_set1_pd(two_eb);
  const __m128d scaled = _mm_div_pd(_mm_sub_pd(v, p), te);
  const __m128d absm =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m128d inb = _mm_cmplt_pd(_mm_and_pd(scaled, absm), _mm_set1_pd(lim));
  const __m128d qd = llround2(scaled);
  const __m128d wide = _mm_add_pd(p, _mm_mul_pd(te, qd));
  const __m128d recon = _mm_cvtps_pd(_mm_cvtpd_ps(wide));
  const __m128d err = _mm_and_pd(_mm_sub_pd(recon, v), absm);
  const __m128d bok = _mm_cmple_pd(err, _mm_set1_pd(eb));
  Q2d r;
  r.recon = recon;
  r.code = _mm_add_epi32(_mm_cvtpd_epi32(qd),
                         _mm_set1_epi32(static_cast<int>(radius)));
  r.ok = _mm_movemask_pd(_mm_and_pd(inb, bok));
  return r;
}

/// Masked two-lane prediction (shared by f32/f64 once lanes are widened):
/// accumulates coefficient terms in scalar order with blend-skipped zero
/// coefficients; prediction is NOT narrowed here (callers narrow for f32).
__attribute__((target("sse4.2"))) inline __m128d predict2_cubic(
    const double x[4][2], std::uint8_t f0, std::uint8_t f1) {
  const double* tbl = detail::kCubicTable[0].p.data();
  const __m128d zero = _mm_setzero_pd();
  __m128d acc = zero;
  for (unsigned j = 0; j < 4; ++j) {
    const __m128d c = _mm_set_pd(tbl[f1 * 4u + j], tbl[f0 * 4u + j]);
    const __m128d x2 = _mm_set_pd(x[j][1], x[j][0]);
    acc = _mm_blendv_pd(acc, _mm_add_pd(acc, _mm_mul_pd(c, x2)),
                        _mm_cmpneq_pd(c, zero));
  }
  return acc;
}

__attribute__((target("sse4.2"))) inline __m128d predict2_linear(
    const double x[2][2], std::uint8_t f0, std::uint8_t f1) {
  const unsigned m0 = (f0 >> 1) & 3u;
  const unsigned m1 = (f1 >> 1) & 3u;
  const __m128d zero = _mm_setzero_pd();
  __m128d acc = zero;
  for (unsigned j = 0; j < 2; ++j) {
    const __m128d c = _mm_set_pd(kLinearW[m1][j], kLinearW[m0][j]);
    const __m128d x2 = _mm_set_pd(x[j][1], x[j][0]);
    acc = _mm_blendv_pd(acc, _mm_add_pd(acc, _mm_mul_pd(c, x2)),
                        _mm_cmpneq_pd(c, zero));
  }
  return acc;
}

/// Lane-k escape/commit epilogue of the flat encode: commits the
/// reconstruction + code for ok lanes and takes the scalar escape path (push
/// the original element, code 0) otherwise, in ascending lane order. The
/// escape copies the element from memory, not from its widened lane, so a
/// signalling NaN keeps its bits exactly as in the scalar quantize().
template <typename T>
inline void commit2(T* data, const std::uint64_t* tgt, std::size_t i,
                    const double* recon, const std::uint32_t* cds, int ok,
                    std::uint32_t* codes, std::vector<T>& outliers) {
  for (unsigned k = 0; k < 2; ++k) {
    if ((ok >> k) & 1) {
      data[tgt[i + k]] = static_cast<T>(recon[k]);
      codes[i + k] = cds[k];
    } else {
      outliers.push_back(data[tgt[i + k]]);
      codes[i + k] = 0;
    }
  }
}

#define CLIZ_SSE42_FLAT_ENCODE(NAME, T, QUANT2)                               \
  __attribute__((target("sse4.2"))) void NAME(                                \
      T* data, const InterpFlatRefs& r, std::size_t n, bool cubic,            \
      const LinearQuantizer<T>& q, std::uint32_t* codes,                      \
      std::vector<T>& outliers) {                                             \
    const double two_eb = 2.0 * q.error_bound();                              \
    const double eb = q.error_bound();                                        \
    const double lim = static_cast<double>(q.radius()) - 1;                   \
    const std::uint64_t* nb[4] = {r.nb0, r.nb1, r.nb2, r.nb3};                \
    std::size_t i = 0;                                                        \
    for (; i + 2 <= n; i += 2) {                                              \
      __m128d acc;                                                            \
      if (cubic) {                                                            \
        double x[4][2];                                                       \
        for (unsigned j = 0; j < 4; ++j) {                                    \
          x[j][0] = static_cast<double>(data[nb[j][i]]);                      \
          x[j][1] = static_cast<double>(data[nb[j][i + 1]]);                  \
        }                                                                     \
        acc = predict2_cubic(x, r.fid[i], r.fid[i + 1]);                      \
      } else {                                                                \
        double x[2][2];                                                       \
        x[0][0] = static_cast<double>(data[r.nb1[i]]);                        \
        x[0][1] = static_cast<double>(data[r.nb1[i + 1]]);                    \
        x[1][0] = static_cast<double>(data[r.nb2[i]]);                        \
        x[1][1] = static_cast<double>(data[r.nb2[i + 1]]);                    \
        acc = predict2_linear(x, r.fid[i], r.fid[i + 1]);                     \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm_cvtps_pd(_mm_cvtpd_ps(acc));              \
      const __m128d v =                                                       \
          _mm_set_pd(static_cast<double>(data[r.tgt[i + 1]]),                 \
                     static_cast<double>(data[r.tgt[i]]));                    \
      const Q2d qr = QUANT2(v, acc, two_eb, eb, lim, q.radius());             \
      double rc[2];                                                           \
      _mm_storeu_pd(rc, qr.recon);                                            \
      const std::uint32_t cds[2] = {                                          \
          static_cast<std::uint32_t>(_mm_cvtsi128_si32(qr.code)),             \
          static_cast<std::uint32_t>(_mm_extract_epi32(qr.code, 1))};         \
      commit2(data, r.tgt, i, rc, cds, qr.ok, codes, outliers);               \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      codes[i] = q.quantize(data[r.tgt[i]],                                   \
                            flat_predict_ref(data, r, i, cubic), outliers);   \
    }                                                                         \
  }

CLIZ_SSE42_FLAT_ENCODE(encode_flat_sse42_f64, double, quantize2_f64)
CLIZ_SSE42_FLAT_ENCODE(encode_flat_sse42_f32, float, quantize2_f32)
#undef CLIZ_SSE42_FLAT_ENCODE

#define CLIZ_SSE42_FLAT_DECODE(NAME, T)                                       \
  __attribute__((target("sse4.2"))) void NAME(                                \
      T* data, const InterpFlatRefs& r, std::size_t n, bool cubic,            \
      const LinearQuantizer<T>& q, const std::uint32_t* codes,                \
      std::span<const T> outliers, std::size_t& cursor) {                     \
    const double two_eb = 2.0 * q.error_bound();                              \
    const int radius = static_cast<int>(q.radius());                          \
    const std::uint64_t* nb[4] = {r.nb0, r.nb1, r.nb2, r.nb3};                \
    std::size_t i = 0;                                                        \
    for (; i + 2 <= n; i += 2) {                                              \
      if (codes[i] == 0 || codes[i + 1] == 0) {                               \
        /* escape lanes consume the outlier stream in serial order */         \
        for (unsigned k = 0; k < 2; ++k) {                                    \
          const T pred = flat_predict_ref(data, r, i + k, cubic);             \
          data[r.tgt[i + k]] =                                                \
              q.recover(codes[i + k], pred, outliers, cursor);                \
        }                                                                     \
        continue;                                                             \
      }                                                                       \
      __m128d acc;                                                            \
      if (cubic) {                                                            \
        double x[4][2];                                                       \
        for (unsigned j = 0; j < 4; ++j) {                                    \
          x[j][0] = static_cast<double>(data[nb[j][i]]);                      \
          x[j][1] = static_cast<double>(data[nb[j][i + 1]]);                  \
        }                                                                     \
        acc = predict2_cubic(x, r.fid[i], r.fid[i + 1]);                      \
      } else {                                                                \
        double x[2][2];                                                       \
        x[0][0] = static_cast<double>(data[r.nb1[i]]);                        \
        x[0][1] = static_cast<double>(data[r.nb1[i + 1]]);                    \
        x[1][0] = static_cast<double>(data[r.nb2[i]]);                        \
        x[1][1] = static_cast<double>(data[r.nb2[i + 1]]);                    \
        acc = predict2_linear(x, r.fid[i], r.fid[i + 1]);                     \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm_cvtps_pd(_mm_cvtpd_ps(acc));              \
      const __m128i ci = _mm_set_epi32(0, 0, static_cast<int>(codes[i + 1]),  \
                                       static_cast<int>(codes[i]));           \
      const __m128d qd =                                                      \
          _mm_cvtepi32_pd(_mm_sub_epi32(ci, _mm_set1_epi32(radius)));         \
      const __m128d recon =                                                   \
          _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(two_eb), qd));               \
      double rc[2];                                                           \
      _mm_storeu_pd(rc, recon);                                               \
      data[r.tgt[i]] = static_cast<T>(rc[0]);                                 \
      data[r.tgt[i + 1]] = static_cast<T>(rc[1]);                             \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      const T pred = flat_predict_ref(data, r, i, cubic);                     \
      data[r.tgt[i]] = q.recover(codes[i], pred, outliers, cursor);           \
    }                                                                         \
  }

CLIZ_SSE42_FLAT_DECODE(decode_flat_sse42_f64, double)
CLIZ_SSE42_FLAT_DECODE(decode_flat_sse42_f32, float)
#undef CLIZ_SSE42_FLAT_DECODE

#define CLIZ_SSE42_INTERIOR_ENCODE(NAME, T, QUANT2)                           \
  __attribute__((target("sse4.2"))) void NAME(                                \
      T* dp, std::size_t st, std::size_t h, std::size_t s, std::size_t lo,    \
      std::size_t hi, bool cubic, const LinearQuantizer<T>& q,                \
      std::uint32_t* codes, std::vector<T>& outliers) {                       \
    const double two_eb = 2.0 * q.error_bound();                              \
    const double eb = q.error_bound();                                        \
    const double lim = static_cast<double>(q.radius()) - 1;                   \
    const std::size_t hs = h * st;                                            \
    const std::size_t h3 = 3 * h * st;                                        \
    const std::size_t ss = s * st;                                            \
    const CubicFit& f = cubic_fit(0xFu);                                      \
    const __m128d zero = _mm_setzero_pd();                                    \
    std::size_t i = lo;                                                       \
    for (; i + 2 <= hi; i += 2) {                                             \
      const std::size_t o0 = (h + i * s) * st;                                \
      const std::size_t o1 = o0 + ss;                                         \
      __m128d acc = zero;                                                     \
      if (cubic) {                                                            \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[0]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 - h3]),      \
                                       static_cast<double>(dp[o0 - h3]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[1]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 - hs]),      \
                                       static_cast<double>(dp[o0 - hs]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[2]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 + hs]),      \
                                       static_cast<double>(dp[o0 + hs]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[3]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 + h3]),      \
                                       static_cast<double>(dp[o0 + h3]))));   \
      } else {                                                                \
        const __m128d half = _mm_set1_pd(0.5);                                \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(half,                                             \
                            _mm_set_pd(static_cast<double>(dp[o1 - hs]),      \
                                       static_cast<double>(dp[o0 - hs]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(half,                                             \
                            _mm_set_pd(static_cast<double>(dp[o1 + hs]),      \
                                       static_cast<double>(dp[o0 + hs]))));   \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm_cvtps_pd(_mm_cvtpd_ps(acc));              \
      const __m128d v = _mm_set_pd(static_cast<double>(dp[o1]),               \
                                   static_cast<double>(dp[o0]));              \
      const Q2d qr = QUANT2(v, acc, two_eb, eb, lim, q.radius());             \
      double rc[2];                                                           \
      _mm_storeu_pd(rc, qr.recon);                                            \
      const std::uint32_t cds[2] = {                                          \
          static_cast<std::uint32_t>(_mm_cvtsi128_si32(qr.code)),             \
          static_cast<std::uint32_t>(_mm_extract_epi32(qr.code, 1))};         \
      const std::size_t oo[2] = {o0, o1};                                     \
      for (unsigned k = 0; k < 2; ++k) {                                      \
        if ((qr.ok >> k) & 1) {                                               \
          dp[oo[k]] = static_cast<T>(rc[k]);                                  \
          codes[i + k] = cds[k];                                              \
        } else {                                                              \
          outliers.push_back(dp[oo[k]]); /* memory copy keeps sNaN bits */    \
          codes[i + k] = 0;                                                   \
        }                                                                     \
      }                                                                       \
    }                                                                         \
    encode_interior_scalar(dp, st, h, s, i, hi, cubic, q, codes, outliers);   \
  }

CLIZ_SSE42_INTERIOR_ENCODE(encode_interior_sse42_f64, double, quantize2_f64)
CLIZ_SSE42_INTERIOR_ENCODE(encode_interior_sse42_f32, float, quantize2_f32)
#undef CLIZ_SSE42_INTERIOR_ENCODE

#define CLIZ_SSE42_INTERIOR_DECODE(NAME, T)                                   \
  __attribute__((target("sse4.2"))) void NAME(                                \
      T* dp, std::size_t st, std::size_t h, std::size_t s, std::size_t lo,    \
      std::size_t hi, bool cubic, const LinearQuantizer<T>& q,                \
      const std::uint32_t* codes, std::span<const T> outliers,                \
      std::size_t& cursor) {                                                  \
    const double two_eb = 2.0 * q.error_bound();                              \
    const int radius = static_cast<int>(q.radius());                          \
    const std::size_t hs = h * st;                                            \
    const std::size_t h3 = 3 * h * st;                                        \
    const std::size_t ss = s * st;                                            \
    const CubicFit& f = cubic_fit(0xFu);                                      \
    const __m128d zero = _mm_setzero_pd();                                    \
    std::size_t i = lo;                                                       \
    for (; i + 2 <= hi; i += 2) {                                             \
      if (codes[i] == 0 || codes[i + 1] == 0) {                               \
        decode_interior_scalar(dp, st, h, s, i, i + 2, cubic, q, codes,       \
                               outliers, cursor);                             \
        continue;                                                             \
      }                                                                       \
      const std::size_t o0 = (h + i * s) * st;                                \
      const std::size_t o1 = o0 + ss;                                         \
      __m128d acc = zero;                                                     \
      if (cubic) {                                                            \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[0]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 - h3]),      \
                                       static_cast<double>(dp[o0 - h3]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[1]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 - hs]),      \
                                       static_cast<double>(dp[o0 - hs]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[2]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 + hs]),      \
                                       static_cast<double>(dp[o0 + hs]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(_mm_set1_pd(f.p[3]),                              \
                            _mm_set_pd(static_cast<double>(dp[o1 + h3]),      \
                                       static_cast<double>(dp[o0 + h3]))));   \
      } else {                                                                \
        const __m128d half = _mm_set1_pd(0.5);                                \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(half,                                             \
                            _mm_set_pd(static_cast<double>(dp[o1 - hs]),      \
                                       static_cast<double>(dp[o0 - hs]))));   \
        acc = _mm_add_pd(                                                     \
            acc, _mm_mul_pd(half,                                             \
                            _mm_set_pd(static_cast<double>(dp[o1 + hs]),      \
                                       static_cast<double>(dp[o0 + hs]))));   \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm_cvtps_pd(_mm_cvtpd_ps(acc));              \
      const __m128i ci = _mm_set_epi32(0, 0, static_cast<int>(codes[i + 1]),  \
                                       static_cast<int>(codes[i]));           \
      const __m128d qd =                                                      \
          _mm_cvtepi32_pd(_mm_sub_epi32(ci, _mm_set1_epi32(radius)));         \
      const __m128d recon =                                                   \
          _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(two_eb), qd));               \
      double rc[2];                                                           \
      _mm_storeu_pd(rc, recon);                                               \
      dp[o0] = static_cast<T>(rc[0]);                                         \
      dp[o1] = static_cast<T>(rc[1]);                                         \
    }                                                                         \
    decode_interior_scalar(dp, st, h, s, i, hi, cubic, q, codes, outliers,    \
                           cursor);                                           \
  }

CLIZ_SSE42_INTERIOR_DECODE(decode_interior_sse42_f64, double)
CLIZ_SSE42_INTERIOR_DECODE(decode_interior_sse42_f32, float)
#undef CLIZ_SSE42_INTERIOR_DECODE

__attribute__((target("sse4.2"))) CodeScan scan_codes_sse42(
    const std::uint32_t* codes, std::size_t n) {
  CodeScan r;
  const __m128i zero = _mm_setzero_si128();
  __m128i vmax = zero;
  std::size_t zeros = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i v;
    std::memcpy(&v, codes + i, sizeof(v));
    zeros += static_cast<unsigned>(__builtin_popcount(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, zero)))));
    vmax = _mm_max_epu32(vmax, v);
  }
  alignas(16) std::uint32_t mx[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(mx), vmax);
  r.max_code = std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]));
  r.zeros = zeros;
  for (; i < n; ++i) {
    r.zeros += codes[i] == 0 ? 1u : 0u;
    r.max_code = std::max(r.max_code, codes[i]);
  }
  return r;
}

#define CLIZ_SSE42_ACCUM_F32(NAME, VOP)                                       \
  __attribute__((target("sse4.2"))) void NAME(                                \
      float* dst, const float* src, const std::uint8_t* valid,                \
      std::size_t n) {                                                        \
    std::size_t i = 0;                                                        \
    if (valid == nullptr) {                                                   \
      for (; i + 4 <= n; i += 4) {                                            \
        _mm_storeu_ps(dst + i,                                                \
                      VOP(_mm_loadu_ps(dst + i), _mm_loadu_ps(src + i)));     \
      }                                                                       \
      for (; i < n; ++i) dst[i] = VOP##_ss1(dst[i], src[i]);                  \
      return;                                                                 \
    }                                                                         \
    for (; i + 4 <= n; i += 4) {                                              \
      std::uint32_t v4;                                                       \
      std::memcpy(&v4, valid + i, 4);                                         \
      const __m128i vb = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(                 \
          static_cast<int>(v4)));                                             \
      const __m128 keep =                                                     \
          _mm_castsi128_ps(_mm_cmpeq_epi32(vb, _mm_setzero_si128()));         \
      const __m128 d = _mm_loadu_ps(dst + i);                                 \
      _mm_storeu_ps(dst + i,                                                  \
                    _mm_blendv_ps(VOP(d, _mm_loadu_ps(src + i)), d, keep));   \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      if (valid[i] != 0) dst[i] = VOP##_ss1(dst[i], src[i]);                  \
    }                                                                         \
  }

#define CLIZ_SSE42_ACCUM_F64(NAME, VOP)                                       \
  __attribute__((target("sse4.2"))) void NAME(                                \
      double* dst, const double* src, const std::uint8_t* valid,              \
      std::size_t n) {                                                        \
    std::size_t i = 0;                                                        \
    if (valid == nullptr) {                                                   \
      for (; i + 2 <= n; i += 2) {                                            \
        _mm_storeu_pd(dst + i,                                                \
                      VOP(_mm_loadu_pd(dst + i), _mm_loadu_pd(src + i)));     \
      }                                                                       \
      for (; i < n; ++i) dst[i] = VOP##_sd1(dst[i], src[i]);                  \
      return;                                                                 \
    }                                                                         \
    for (; i + 2 <= n; i += 2) {                                              \
      const __m128i vb = _mm_cvtepu8_epi64(_mm_cvtsi32_si128(                 \
          valid[i] | (valid[i + 1] << 8)));                                   \
      const __m128d keep =                                                    \
          _mm_castsi128_pd(_mm_cmpeq_epi64(vb, _mm_setzero_si128()));         \
      const __m128d d = _mm_loadu_pd(dst + i);                                \
      _mm_storeu_pd(dst + i,                                                  \
                    _mm_blendv_pd(VOP(d, _mm_loadu_pd(src + i)), d, keep));   \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      if (valid[i] != 0) dst[i] = VOP##_sd1(dst[i], src[i]);                  \
    }                                                                         \
  }

#define _mm_add_ps_ss1(a, b) ((a) + (b))
#define _mm_sub_ps_ss1(a, b) ((a) - (b))
#define _mm_add_pd_sd1(a, b) ((a) + (b))
#define _mm_sub_pd_sd1(a, b) ((a) - (b))
CLIZ_SSE42_ACCUM_F32(accum_add_sse42_f32, _mm_add_ps)
CLIZ_SSE42_ACCUM_F32(accum_sub_sse42_f32, _mm_sub_ps)
CLIZ_SSE42_ACCUM_F64(accum_add_sse42_f64, _mm_add_pd)
CLIZ_SSE42_ACCUM_F64(accum_sub_sse42_f64, _mm_sub_pd)
#undef _mm_add_ps_ss1
#undef _mm_sub_ps_ss1
#undef _mm_add_pd_sd1
#undef _mm_sub_pd_sd1
#undef CLIZ_SSE42_ACCUM_F32
#undef CLIZ_SSE42_ACCUM_F64

#endif  // CLIZ_KERNELS_X86

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch tables. Rows are indexed by SimdTier; off x86 both rows point at
// the scalar reference. The active tier is clamped to the detected one by
// cpu_features, so the SSE4.2 row is never selected on a machine that
// cannot execute it.
// ---------------------------------------------------------------------------

template <>
const InterpKernelTable<double>& interp_kernels_for<double>(SimdTier tier) {
  static const InterpKernelTable<double> tables[kNumSimdTiers] = {
      {&encode_interior_scalar<double>, &decode_interior_scalar<double>,
       &encode_flat_scalar<double>, &decode_flat_scalar<double>},
#ifdef CLIZ_KERNELS_X86
      {&encode_interior_sse42_f64, &decode_interior_sse42_f64,
       &encode_flat_sse42_f64, &decode_flat_sse42_f64},
#else
      {&encode_interior_scalar<double>, &decode_interior_scalar<double>,
       &encode_flat_scalar<double>, &decode_flat_scalar<double>},
#endif
  };
  return tables[static_cast<std::size_t>(tier)];
}

template <>
const InterpKernelTable<float>& interp_kernels_for<float>(SimdTier tier) {
  static const InterpKernelTable<float> tables[kNumSimdTiers] = {
      {&encode_interior_scalar<float>, &decode_interior_scalar<float>,
       &encode_flat_scalar<float>, &decode_flat_scalar<float>},
#ifdef CLIZ_KERNELS_X86
      {&encode_interior_sse42_f32, &decode_interior_sse42_f32,
       &encode_flat_sse42_f32, &decode_flat_sse42_f32},
#else
      {&encode_interior_scalar<float>, &decode_interior_scalar<float>,
       &encode_flat_scalar<float>, &decode_flat_scalar<float>},
#endif
  };
  return tables[static_cast<std::size_t>(tier)];
}

template <>
const AccumKernelTable<double>& accum_kernels_for<double>(SimdTier tier) {
  static const AccumKernelTable<double> tables[kNumSimdTiers] = {
      {&accum_add_scalar<double>, &accum_sub_scalar<double>},
#ifdef CLIZ_KERNELS_X86
      {&accum_add_sse42_f64, &accum_sub_sse42_f64},
#else
      {&accum_add_scalar<double>, &accum_sub_scalar<double>},
#endif
  };
  return tables[static_cast<std::size_t>(tier)];
}

template <>
const AccumKernelTable<float>& accum_kernels_for<float>(SimdTier tier) {
  static const AccumKernelTable<float> tables[kNumSimdTiers] = {
      {&accum_add_scalar<float>, &accum_sub_scalar<float>},
#ifdef CLIZ_KERNELS_X86
      {&accum_add_sse42_f32, &accum_sub_sse42_f32},
#else
      {&accum_add_scalar<float>, &accum_sub_scalar<float>},
#endif
  };
  return tables[static_cast<std::size_t>(tier)];
}

CodeScan scan_codes_for(SimdTier tier, const std::uint32_t* codes,
                        std::size_t n) {
#ifdef CLIZ_KERNELS_X86
  if (tier >= SimdTier::kSse42) return scan_codes_sse42(codes, n);
#else
  (void)tier;
#endif
  return scan_codes_scalar(codes, n);
}

CodeScan scan_codes(const std::uint32_t* codes, std::size_t n) {
  return scan_codes_for(active_simd_tier(), codes, n);
}

}  // namespace cliz
