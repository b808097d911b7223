#include "src/core/stage_backends.hpp"

#include <algorithm>
#include <iterator>
#include <span>

#include "src/common/status.hpp"
#include "src/core/codec_context.hpp"
#include "src/predictor/interp_engine.hpp"
#include "src/predictor/lorenzo_nd.hpp"
#include "src/predictor/regression.hpp"

namespace cliz {

namespace {

// --- entropy stage (multi-Huffman) -----------------------------------------
// The serial and framed layouts share these pieces, so the framed tables are
// byte-identical to the serial prefix.

void encode_tables(std::size_t n_groups, CodecContext& ctx, ByteWriter& out) {
  ctx.reserve_trees(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    ctx.trees[g].rebuild_from_frequencies(ctx.freq[g]);
    ctx.tree_bytes.clear();
    ctx.trees[g].serialize(ctx.tree_bytes);
    out.put_block(ctx.tree_bytes.bytes());
  }
}

// Symbols [lo, hi) of the stream, appended to ctx.bits.
void encode_symbols(bool classified, std::size_t lo, std::size_t hi,
                    CodecContext& ctx) {
  if (classified) {
    for (std::size_t i = lo; i < hi; ++i) {
      ctx.trees[ctx.group[i]].encode(
          std::span<const std::uint32_t>(&ctx.shifted[i], 1), ctx.bits);
    }
  } else {
    ctx.trees[0].encode(
        std::span<const std::uint32_t>(ctx.codes.data() + lo, hi - lo),
        ctx.bits);
  }
}

void parse_tables(ByteReader& in, std::size_t n_tables,
                  EntropyDecodeState& state) {
  CodecContext& ctx = *state.ctx;
  ctx.reserve_trees(n_tables);
  for (std::size_t g = 0; g < n_tables; ++g) {
    ByteReader table_reader(in.get_block());
    ctx.trees[g].parse(table_reader);
  }
}

// The next `n` symbols from `bits`; the serial fetch passes the stream's
// shared reader, a framed segment a private one over its payload slice.
void decode_symbols(const EntropyDecodeState& state, BitReader& bits,
                    const std::uint64_t* offs, std::uint32_t* dst,
                    std::size_t n) {
  const CodecContext& ctx = *state.ctx;
  if (state.classification == nullptr) {
    ctx.trees[0].decode_batch(bits, dst, n);
    return;
  }
  const BinClassification& cls = *state.classification;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col =
        static_cast<std::size_t>(offs[i]) % state.plane;
    const HuffmanCodec& tree = ctx.trees[cls.group_of(col)];
    const std::uint32_t sym = tree.decode_one(bits);
    if (sym == state.escape) {
      dst[i] = 0;
      continue;
    }
    const int shift = cls.shift_of(col);
    dst[i] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(sym) + shift -
        static_cast<std::int64_t>(cls.params().j));
  }
}

// --- framed container (entropy byte bit 7) ---------------------------------

/// Version byte of the framed container layout; anything else is a stream
/// from a future build and rejected cleanly.
constexpr std::uint8_t kFramingLayoutId = 1;

/// Target symbols per segment. Fetch intervals (interp passes, or the whole
/// stream for the raster predictors) are sub-split into
/// max(1, len / kFrameSegmentSyms) near-equal pieces — deterministic and
/// thread-count invariant, sized so table/offset overhead stays small while
/// big passes still fan out across workers.
constexpr std::size_t kFrameSegmentSyms = std::size_t{1} << 15;

// --- predictor backends ----------------------------------------------------

// --- interpolation (id 0) --------------------------------------------------
// The original engine behind the registry: byte-identical to the
// pre-registry direct calls — the side block is the pass-fit table in its
// historical position, written with the same varint + raw bytes framing.

template <typename T>
void interp_predict_encode(T* work, const Shape& shape,
                           const PipelineConfig& config,
                           const LinearQuantizer<T>& quantizer,
                           const std::uint8_t* validity, CodecContext& ctx,
                           ByteWriter& out) {
  fused_axes_into(shape, config.fusion, ctx.axes);
  induced_axis_order_into(config.fusion, config.permutation, ctx.axis_order);
  auto& pass_fits = ctx.pass_fits;  // 1 = cubic, one entry per pass
  pass_fits.clear();
  interp_encode_lines(work, ctx.axes, ctx.axis_order, config.dynamic_fitting,
                      config.fitting, quantizer, validity, ctx.offsets,
                      ctx.codes, ctx.outliers<T>(), pass_fits, ctx.interp,
                      &ctx.fetch_marks);
  out.put_varint(pass_fits.size());
  out.put_bytes(pass_fits);
}

void interp_predict_parse(ByteReader& in, const Shape& /*shape*/,
                          const PipelineConfig& config,
                          const std::uint8_t* /*validity*/,
                          CodecContext& ctx) {
  const std::size_t n_passes = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_passes <= 64 * kMaxAxes, "corrupt pass count");
  ctx.pred_pass_fits = in.get_bytes(n_passes);
  CLIZ_REQUIRE(config.dynamic_fitting || n_passes == 0,
               "pass-fit table on a static-fitting stream");
}

template <typename T>
void interp_predict_decode(T* out, const Shape& shape,
                           const PipelineConfig& config,
                           const LinearQuantizer<T>& quantizer,
                           std::span<const T> outliers, std::size_t& cursor,
                           const std::uint8_t* validity, CodecContext& ctx,
                           const PredictorFetch& fetch) {
  fused_axes_into(shape, config.fusion, ctx.axes);
  induced_axis_order_into(config.fusion, config.permutation, ctx.axis_order);
  interp_decode_lines(out, ctx.axes, ctx.axis_order, config.dynamic_fitting,
                      config.fitting, ctx.pred_pass_fits, quantizer, outliers,
                      cursor, validity, ctx.interp, fetch);
}

// --- Lorenzo (ids 1, 2) ----------------------------------------------------
// No side block: the stencil is derived from the shape and the order baked
// into the wire id. The pipeline's permutation/fusion axes do not apply —
// the raster scan is its own traversal.

template <typename T, unsigned Order>
void lorenzo_predict_encode(T* work, const Shape& shape,
                            const PipelineConfig& /*config*/,
                            const LinearQuantizer<T>& quantizer,
                            const std::uint8_t* validity, CodecContext& ctx,
                            ByteWriter& /*out*/) {
  lorenzo_encode(work, shape, Order, quantizer, validity, ctx.offsets,
                 ctx.codes, ctx.outliers<T>(), ctx.lorenzo_terms, ctx.cancel);
  // The decode side fetches the whole code stream in one batch.
  if (!ctx.codes.empty()) ctx.fetch_marks.push_back(ctx.codes.size());
}

void lorenzo_predict_parse(ByteReader& /*in*/, const Shape& /*shape*/,
                           const PipelineConfig& /*config*/,
                           const std::uint8_t* /*validity*/,
                           CodecContext& /*ctx*/) {}

template <typename T, unsigned Order>
void lorenzo_predict_decode(T* out, const Shape& shape,
                            const PipelineConfig& /*config*/,
                            const LinearQuantizer<T>& quantizer,
                            std::span<const T> outliers, std::size_t& cursor,
                            const std::uint8_t* validity, CodecContext& ctx,
                            const PredictorFetch& fetch) {
  lorenzo_decode(out, shape, Order, quantizer, outliers, cursor, validity,
                 ctx.pred_offs, ctx.pred_codes, ctx.lorenzo_terms, fetch,
                 ctx.cancel);
}

// --- block regression (id 3) -----------------------------------------------
// Side block: varint block side, then one zigzag-varint coefficient tuple
// (intercept + one slope per dim) per occupied block in raster order.

template <typename T>
void regression_predict_encode(T* work, const Shape& shape,
                               const PipelineConfig& /*config*/,
                               const LinearQuantizer<T>& quantizer,
                               const std::uint8_t* validity, CodecContext& ctx,
                               ByteWriter& out) {
  regression_encode(work, shape, quantizer, validity, ctx.offsets, ctx.codes,
                    ctx.outliers<T>(), out);
  // The decode side fetches the whole code stream in one batch.
  if (!ctx.codes.empty()) ctx.fetch_marks.push_back(ctx.codes.size());
}

void regression_predict_parse(ByteReader& in, const Shape& shape,
                              const PipelineConfig& /*config*/,
                              const std::uint8_t* validity,
                              CodecContext& ctx) {
  regression_parse(in, shape, validity, ctx.reg_block_side, ctx.reg_qcoeffs,
                   ctx.limits.max_side_block_bytes);
}

template <typename T>
void regression_predict_decode(T* out, const Shape& shape,
                               const PipelineConfig& /*config*/,
                               const LinearQuantizer<T>& quantizer,
                               std::span<const T> outliers,
                               std::size_t& cursor,
                               const std::uint8_t* validity, CodecContext& ctx,
                               const PredictorFetch& fetch) {
  regression_decode(out, shape, quantizer, ctx.reg_block_side,
                    std::span<const std::int64_t>(ctx.reg_qcoeffs), outliers,
                    cursor, validity, ctx.pred_offs, ctx.pred_codes, fetch);
}

// Dense by wire id: kPredictorOps[id] is the backend the predictor byte
// names.
const PredictorBackendOps kPredictorOps[] = {
    {PredictorBackend::kInterp, "interp", &interp_predict_encode<float>,
     &interp_predict_encode<double>, interp_predict_parse,
     &interp_predict_decode<float>, &interp_predict_decode<double>},
    {PredictorBackend::kLorenzo1, "lorenzo1",
     &lorenzo_predict_encode<float, 1>, &lorenzo_predict_encode<double, 1>,
     lorenzo_predict_parse, &lorenzo_predict_decode<float, 1>,
     &lorenzo_predict_decode<double, 1>},
    {PredictorBackend::kLorenzo2, "lorenzo2",
     &lorenzo_predict_encode<float, 2>, &lorenzo_predict_encode<double, 2>,
     lorenzo_predict_parse, &lorenzo_predict_decode<float, 2>,
     &lorenzo_predict_decode<double, 2>},
    {PredictorBackend::kRegression, "regression",
     &regression_predict_encode<float>, &regression_predict_encode<double>,
     regression_predict_parse, &regression_predict_decode<float>,
     &regression_predict_decode<double>},
};

}  // namespace

void huffman_encode(bool classified, std::size_t n_groups, CodecContext& ctx,
                    ByteWriter& out) {
  encode_tables(n_groups, ctx, out);
  ctx.bits.reset();
  encode_symbols(classified, 0,
                 classified ? ctx.shifted.size() : ctx.codes.size(), ctx);
  out.put_block(ctx.bits.finish_view());
}

void huffman_parse(ByteReader& in, std::size_t n_tables,
                   EntropyDecodeState& state) {
  parse_tables(in, n_tables, state);
  state.bits.emplace(in.get_block());
}

void huffman_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                   std::uint32_t* dst, std::size_t n) {
  decode_symbols(state, *state.bits, offs, dst, n);
}

void huffman_decode_segment(const EntropyDecodeState& state,
                            std::span<const std::uint8_t> payload,
                            const std::uint64_t* offs, std::uint32_t* dst,
                            std::size_t n) {
  BitReader bits(payload);
  decode_symbols(state, bits, offs, dst, n);
}

void framed_entropy_encode(bool classified, std::size_t n_groups,
                           CodecContext& ctx, ByteWriter& out) {
  const std::size_t n_syms =
      classified ? ctx.shifted.size() : ctx.codes.size();

  // Segment boundaries: sub-split each recorded fetch interval so no
  // segment straddles a decode-side fetch call.
  auto& segs = ctx.frame_segments;
  segs.clear();
  std::size_t prev = 0;
  for (const std::size_t mark : ctx.fetch_marks) {
    CLIZ_REQUIRE(mark > prev && mark <= n_syms, "corrupt fetch marks");
    const std::size_t len = mark - prev;
    const std::size_t pieces =
        std::max<std::size_t>(1, len / kFrameSegmentSyms);
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t lo = prev + len * p / pieces;
      const std::size_t hi = prev + len * (p + 1) / pieces;
      segs.push_back({lo, hi - lo, 0, 0});
    }
    prev = mark;
  }
  CLIZ_REQUIRE(prev == n_syms, "fetch marks do not cover the code stream");

  // Tables are staged: the container's segment table precedes them in the
  // stream, but the segment byte lengths are only known after encoding.
  ctx.frame_tables.clear();
  encode_tables(n_groups, ctx, ctx.frame_tables);

  auto& payload = ctx.frame_payload;
  payload.clear();
  for (auto& seg : segs) {
    seg.byte_off = payload.size();
    ctx.bits.reset();
    encode_symbols(classified, seg.sym_base, seg.sym_base + seg.n_syms, ctx);
    const auto bytes = ctx.bits.finish_view();
    payload.insert(payload.end(), bytes.begin(), bytes.end());
    seg.n_bytes = payload.size() - seg.byte_off;
  }

  out.put_u8(kFramingLayoutId);
  out.put_varint(segs.size());
  for (const auto& seg : segs) {
    out.put_varint(seg.n_syms);
    out.put_varint(seg.n_bytes);
  }
  out.put_bytes(ctx.frame_tables.bytes());
  out.put_block(payload);
  ctx.stats.frame_segments = segs.size();
}

void framed_entropy_parse(ByteReader& in, std::size_t n_tables,
                          std::size_t n_codes, EntropyDecodeState& state) {
  CodecContext& ctx = *state.ctx;
  CLIZ_REQUIRE(in.get_u8() == kFramingLayoutId,
               "unknown entropy framing layout");
  const std::uint64_t n_segments = in.get_varint();
  // Governor first: the declared count sizes the segment table (and one
  // decode task per entry) — an inflated declaration is a limit refusal
  // even when it would also fail the structural cross-check below.
  CLIZ_REQUIRE_CODE(n_segments <= ctx.limits.max_frame_segments,
                    kLimitExceeded,
                    "declared framing segment count exceeds "
                    "ResourceLimits::max_frame_segments (stream offset " +
                        std::to_string(in.pos()) + ")");
  // Every segment holds >= 1 symbol, so the count is bounded by the code
  // count the predict stage recorded (validated against the shape already).
  CLIZ_REQUIRE(n_segments <= n_codes, "corrupt framing segment count");
  auto& segs = ctx.frame_segments;
  segs.clear();
  segs.reserve(static_cast<std::size_t>(n_segments));
  std::size_t sym_base = 0;
  std::size_t byte_off = 0;
  for (std::uint64_t i = 0; i < n_segments; ++i) {
    const std::uint64_t nsym = in.get_varint();
    const std::uint64_t nbyte = in.get_varint();
    CLIZ_REQUIRE(nsym >= 1 && nsym <= n_codes - sym_base,
                 "framing segment bounds out of range");
    CLIZ_REQUIRE(nbyte <= in.remaining(),
                 "framing segment bounds out of range");
    segs.push_back({sym_base, static_cast<std::size_t>(nsym), byte_off,
                    static_cast<std::size_t>(nbyte)});
    sym_base += static_cast<std::size_t>(nsym);
    byte_off += static_cast<std::size_t>(nbyte);
  }
  CLIZ_REQUIRE(sym_base == n_codes, "framing segment bounds out of range");
  parse_tables(in, n_tables, state);
  state.payload = in.get_block();
  // The per-segment lengths must tile the payload exactly; anything else
  // (truncated table, overlapping or dangling slices) is corruption.
  CLIZ_REQUIRE(byte_off == state.payload.size(),
               "framing segment bounds out of range");
  state.segments = segs;
}

const PredictorBackendOps* find_predictor_backend(std::uint8_t id) {
  if (id >= std::size(kPredictorOps)) return nullptr;
  return &kPredictorOps[id];
}

const PredictorBackendOps& predictor_backend_ops(PredictorBackend backend) {
  const PredictorBackendOps* ops =
      find_predictor_backend(static_cast<std::uint8_t>(backend));
  CLIZ_REQUIRE(ops != nullptr, "unregistered predictor backend");
  return *ops;
}

}  // namespace cliz
