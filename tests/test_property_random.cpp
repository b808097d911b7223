// Randomized property tests: for a few hundred randomly drawn
// (shape, mask, pipeline, bound, data texture) combinations, the full
// CliZ codec must round-trip within the bound, reproduce fill values at
// masked points, and stay deterministic. Shapes run from 1-D to 5-D with
// unit-width dimensions, and some cases carry signalling NaN, +-Inf and
// +-FLT_MAX points that must come back bit for bit. Seeds are fixed, so
// failures are reproducible; the sweep goes far beyond the hand-picked
// cases in test_cliz.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/point_error.hpp"
#include "src/common/rng.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/metrics/metrics.hpp"
#include "src/ndarray/layout.hpp"

namespace cliz {
namespace {

struct RandomCase {
  Shape shape{DimVec{1}};
  NdArray<float> data{Shape{DimVec{1}}};
  std::optional<MaskMap> mask;
  PipelineConfig config = PipelineConfig::defaults(1);
  ClizOptions options;
  double eb = 1e-3;
};

RandomCase draw_case(std::uint64_t seed) {
  Rng rng(seed);
  RandomCase c;

  // Shape: 1-5 dims, total size <= 64k; about one dim in five has unit
  // width.
  constexpr std::size_t kMaxExtent[] = {0, 64, 64, 16, 12, 8};
  const std::size_t nd = 1 + rng.uniform_index(5);
  DimVec dims(nd);
  for (auto& d : dims) {
    d = rng.uniform() < 0.2 ? 1 : 1 + rng.uniform_index(kMaxExtent[nd]);
  }
  c.shape = Shape(dims);
  c.data = NdArray<float>(c.shape);

  // Data: mix of smooth waves, trends, periodic cycles and noise with a
  // random magnitude scale.
  const double scale = std::pow(10.0, rng.uniform(-2.0, 4.0));
  const double noise = rng.uniform(0.0, 0.2);
  const std::size_t period = 4 + rng.uniform_index(8);
  for (std::size_t i = 0; i < c.data.size(); ++i) {
    const auto coords = c.shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < nd; ++d) {
      v += std::sin(rng.uniform(0.02, 0.1) * 0 +
                    0.1 * static_cast<double>(coords[d]) +
                    static_cast<double>(d));
    }
    v += std::cos(2.0 * std::numbers::pi *
                  static_cast<double>(coords[0] % period) /
                  static_cast<double>(period));
    c.data[i] = static_cast<float>(scale * (v + noise * rng.normal()));
  }

  // Mask: none / random blobs / rows, with fill values planted.
  const auto mask_kind = rng.uniform_index(3);
  if (mask_kind > 0) {
    c.mask = MaskMap::all_valid(c.shape);
    const double invalid_frac = rng.uniform(0.05, 0.6);
    for (std::size_t i = 0; i < c.data.size(); ++i) {
      const bool invalid =
          mask_kind == 1
              ? rng.uniform() < invalid_frac
              : (i / std::max<std::size_t>(1, c.shape.dims().back())) % 3 == 0;
      if (invalid) {
        c.mask->mutable_data()[i] = 0;
        c.data[i] = 9.96921e36f;
      }
    }
  }

  // Non-finite and extreme values at a few valid points in a third of the
  // cases: they travel the outlier path and must come back bit for bit.
  if (rng.uniform() < 1.0 / 3.0) {
    const float kSpecial[] = {
        std::bit_cast<float>(std::uint32_t{0x7F800001}),  // signalling NaN
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest(),
    };
    const std::size_t n_special = 1 + rng.uniform_index(4);
    for (std::size_t k = 0; k < n_special; ++k) {
      const std::size_t i = rng.uniform_index(c.data.size());
      if (c.mask.has_value() && !c.mask->valid(i)) continue;
      c.data[i] = kSpecial[rng.uniform_index(std::size(kSpecial))];
    }
  }

  // Pipeline: random permutation, fusion, fitting, periodicity, classify.
  const auto perms = all_permutations(nd);
  const auto fusions = all_fusions(nd);
  c.config.permutation = perms[rng.uniform_index(perms.size())];
  c.config.fusion = fusions[rng.uniform_index(fusions.size())];
  c.config.fitting =
      rng.uniform() < 0.5 ? FittingKind::kLinear : FittingKind::kCubic;
  c.config.dynamic_fitting = rng.uniform() < 0.7;
  c.config.classify_bins = rng.uniform() < 0.5;
  c.config.time_dim = 0;
  c.config.period = rng.uniform() < 0.4 ? period : 0;

  c.options.classify = ClassifyParams{
      static_cast<unsigned>(rng.uniform_index(3)),
      static_cast<unsigned>(rng.uniform_index(3))};
  c.eb = scale * std::pow(10.0, rng.uniform(-5.0, -1.0));
  return c;
}

class RandomPipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPipelineFuzz, RoundTripHoldsBoundAndFills) {
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t seed = GetParam() * 1000 + i;
    const RandomCase c = draw_case(seed);
    const MaskMap* mask = c.mask.has_value() ? &*c.mask : nullptr;

    const ClizCompressor codec(c.config, c.options);
    const auto stream = codec.compress(c.data, c.eb, mask);
    const auto recon = ClizCompressor::decompress(stream);

    ASSERT_EQ(recon.shape(), c.data.shape()) << "seed " << seed;
    const auto stats = error_stats(c.data.flat(), recon.flat(), mask);
    ASSERT_LE(stats.max_abs_error, c.eb)
        << "seed " << seed << " config " << c.config.label();
    if (mask != nullptr) {
      for (std::size_t p = 0; p < recon.size(); ++p) {
        if (!mask->valid(p)) {
          ASSERT_EQ(recon[p], c.options.fill_value) << "seed " << seed;
        }
      }
    }

    // Determinism.
    ASSERT_EQ(codec.compress(c.data, c.eb, mask), stream)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- every predictor x lossless pair ------------------------------------
// The one randomized sweep over every registered backend pair. For each
// drawn case it checks: the bound at every valid point (point_error, so
// NaN/Inf must be bit-exact), fill values at masked points, decompress_into
// against decompress bit for bit, stream bytes at 1 vs 4 threads, and a
// random region of a CLK3-tiled encode against the same crop of its full
// decode.

struct BackendPair {
  PredictorBackend predictor;
  LosslessBackend lossless;
};

constexpr BackendPair kBackendPairs[] = {
    {PredictorBackend::kInterp, LosslessBackend::kLz},
    {PredictorBackend::kInterp, LosslessBackend::kStore},
    {PredictorBackend::kLorenzo1, LosslessBackend::kLz},
    {PredictorBackend::kLorenzo1, LosslessBackend::kStore},
    {PredictorBackend::kLorenzo2, LosslessBackend::kLz},
    {PredictorBackend::kLorenzo2, LosslessBackend::kStore},
    {PredictorBackend::kRegression, LosslessBackend::kLz},
    {PredictorBackend::kRegression, LosslessBackend::kStore},
};

/// Restores the entry thread count on scope exit, so a failing assertion
/// cannot leak a modified global setting into later tests.
struct ThreadCountGuard {
  int saved = hardware_threads();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

void expect_same_bits(std::span<const float> a, std::span<const float> b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << ": value " << i;
  }
}

/// Row-major crop [origin, origin + extent) of `full`.
std::vector<float> crop(const NdArray<float>& full, const DimVec& origin,
                        const DimVec& extent) {
  const Shape window(extent);
  std::vector<float> out(window.size());
  DimVec at(origin.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto local = window.coords(i);
    for (std::size_t d = 0; d < at.size(); ++d) at[d] = origin[d] + local[d];
    out[i] = full[full.shape().offset(at)];
  }
  return out;
}

class BackendPropertyFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BackendPropertyFuzz, BoundFillsIntoThreadsAndRegions) {
  const BackendPair pair = kBackendPairs[GetParam()];
  ThreadCountGuard guard;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = 77000 + GetParam() * 100 + i;
    const RandomCase c = draw_case(seed);
    const MaskMap* mask = c.mask.has_value() ? &*c.mask : nullptr;
    ClizOptions options = c.options;
    options.predictor = pair.predictor;
    options.lossless = pair.lossless;
    SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " shape " +
                 c.shape.to_string() + " config " + c.config.label());

    // Thread-count invariance of the stream bytes.
    set_thread_count(1);
    const ClizCompressor codec(c.config, options);
    const auto stream = codec.compress(c.data, c.eb, mask);
    set_thread_count(4);
    ASSERT_EQ(codec.compress(c.data, c.eb, mask), stream)
        << "stream differs at 4 threads";
    set_thread_count(guard.saved);

    // Bound at every valid point; fill at every masked one.
    const auto recon = ClizCompressor::decompress(stream);
    ASSERT_EQ(recon.shape(), c.shape);
    for (std::size_t p = 0; p < recon.size(); ++p) {
      if (mask != nullptr && !mask->valid(p)) {
        ASSERT_EQ(recon[p], options.fill_value) << "masked point " << p;
      } else {
        ASSERT_LE(point_error(c.data[p], recon[p]), c.eb)
            << "point " << p << ": " << c.data[p] << " -> " << recon[p];
      }
    }

    // decompress_into reproduces decompress bit for bit.
    CodecContext ctx;
    NdArray<float> into(c.shape);
    ClizCompressor::decompress_into(stream, ctx, into);
    expect_same_bits(into.flat(), recon.flat(), "decompress_into");

    // CLK3 tiles: a random window equals the crop of the full decode.
    Rng rng(seed ^ 0x5A5A);
    const std::size_t nd = c.shape.ndims();
    ChunkedOptions tiled;
    tiled.codec = options;
    tiled.tile.resize(nd);
    DimVec origin(nd);
    DimVec extent(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      const std::size_t n = c.shape.dim(d);
      tiled.tile[d] = rng.uniform_index(n + 1);  // 0 = full extent
      origin[d] = rng.uniform_index(n);
      extent[d] = 1 + rng.uniform_index(n - origin[d]);
    }
    const auto frame = chunked_compress(c.data, c.eb, c.config, mask, tiled);
    const auto full = chunked_decompress(frame);
    ASSERT_EQ(full.shape(), c.shape);
    std::vector<float> window(Shape(extent).size());
    const ChunkedReader reader(frame);
    (void)reader.decompress_region(origin, extent, std::span<float>(window));
    expect_same_bits(window, crop(full, origin, extent), "region");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, BackendPropertyFuzz,
    ::testing::Range<std::size_t>(0, std::size(kBackendPairs)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      const BackendPair& p = kBackendPairs[info.param];
      return std::string(predictor_backend_name(p.predictor)) + "_" +
             lossless_backend_name(p.lossless);
    });

}  // namespace
}  // namespace cliz
