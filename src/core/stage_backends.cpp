#include "src/core/stage_backends.hpp"

#include <iterator>
#include <span>

#include "src/common/status.hpp"
#include "src/core/codec_context.hpp"
#include "src/predictor/interp_engine.hpp"
#include "src/predictor/lorenzo_nd.hpp"
#include "src/predictor/regression.hpp"

namespace cliz {

namespace {

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
                      ctx.codes, ctx.outliers<T>(), pass_fits, ctx.interp);
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
  ctx.reserve_trees(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    ctx.trees[g].rebuild_from_frequencies(ctx.freq[g]);
    ctx.tree_bytes.clear();
    ctx.trees[g].serialize(ctx.tree_bytes);
    out.put_block(ctx.tree_bytes.bytes());
  }
  ctx.bits.reset();
  if (classified) {
    for (std::size_t i = 0; i < ctx.shifted.size(); ++i) {
      ctx.trees[ctx.group[i]].encode(
          std::span<const std::uint32_t>(&ctx.shifted[i], 1), ctx.bits);
    }
  } else {
    ctx.trees[0].encode(ctx.codes, ctx.bits);
  }
  out.put_block(ctx.bits.finish_view());
}

void huffman_parse(ByteReader& in, std::size_t n_tables,
                   EntropyDecodeState& state) {
  CodecContext& ctx = *state.ctx;
  ctx.reserve_trees(n_tables);
  for (std::size_t g = 0; g < n_tables; ++g) {
    ByteReader table_reader(in.get_block());
    ctx.trees[g].parse(table_reader);
  }
  state.bits.emplace(in.get_block());
}

void huffman_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                   std::uint32_t* dst, std::size_t n) {
  const CodecContext& ctx = *state.ctx;
  BitReader& bits = *state.bits;
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
