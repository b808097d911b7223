#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/core/bin_classify.hpp"
#include "src/core/pipeline.hpp"
#include "src/lossless/lossless.hpp"
#include "src/ndarray/shape.hpp"
#include "src/predictor/backend.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

class CodecContext;

/// In classified mode, shifted symbols (biased by +j) occupy
/// [1, 2*radius-1+2j]; the outlier escape is remapped above that range so a
/// shift can never collide with it.
inline std::uint32_t entropy_escape_symbol(std::uint32_t radius, unsigned j) {
  return 2 * radius + 2 * j + 2;
}

/// Decode-side state of one entropy stream, shared across fetch calls. The
/// classification fields are filled by the caller; `bits` is set up by
/// huffman_parse.
struct EntropyDecodeState {
  CodecContext* ctx = nullptr;
  std::optional<BitReader> bits;
  /// Non-null in classified mode; drives per-point group/shift resolution.
  const BinClassification* classification = nullptr;
  std::size_t plane = 0;       ///< classification column period
  std::uint32_t escape = 0;    ///< outlier escape symbol
};

// --- entropy stage: canonical multi-Huffman --------------------------------
// The coding tables (one per classification group, or the single table in
// unclassified mode) are rebuilt in place from the stage-3 censuses in
// ctx.freq into ctx.trees.

/// Serializes the per-group trees and the symbol payload (ctx.shifted /
/// ctx.group when classified, ctx.codes otherwise).
void huffman_encode(bool classified, std::size_t n_groups, CodecContext& ctx,
                    ByteWriter& out);

/// Parses the trees + payload block written by huffman_encode and positions
/// `state.bits` for fetches.
void huffman_parse(ByteReader& in, std::size_t n_tables,
                   EntropyDecodeState& state);

/// Decodes the next `n` symbols of the payload into `dst`; in
/// classified mode `offs` locates each point's column for group/shift
/// resolution.
void huffman_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                   std::uint32_t* dst, std::size_t n);

/// Type-erased symbol source handed to the predictor decode hooks (plain
/// function pointer + state, matching the registry's no-virtuals shape).
/// `fn` must fill `dst` with the next `n` quantization codes in stream
/// order; `offs` identifies the target of each code for classified entropy
/// sources.
struct PredictorFetch {
  void* self = nullptr;
  void (*fn)(void* self, const std::uint64_t* offs, std::uint32_t* dst,
             std::size_t n) = nullptr;
  void operator()(const std::uint64_t* offs, std::uint32_t* dst,
                  std::size_t n) const {
    fn(self, offs, dst, n);
  }
};

/// One entry of the predictor-stage backend registry, keyed by the wire id
/// in the high bits of the stream's predictor byte: plain function pointers
/// (no virtual dispatch, no per-call allocation), scratch in the
/// CodecContext.
///
/// The encode hook owns the stage's backend side block (written before the
/// generic outlier stream): the interpolation backend's pass-fit table, the
/// regression backend's block side + quantized plane coefficients, nothing
/// for Lorenzo. It fills ctx.offsets / ctx.codes / ctx.outliers<T>() (the
/// caller has cleared them) and mutates `work` to the reconstruction. The
/// parse hook is the side block's reader (state into the context); the
/// decode hook reconstructs every valid point, pulling codes through
/// `fetch`. Hooks come in f32/f64 pairs because the op table itself cannot
/// be a template.
struct PredictorBackendOps {
  PredictorBackend id;
  const char* name;
  void (*encode_f32)(float* work, const Shape& shape,
                     const PipelineConfig& config,
                     const LinearQuantizer<float>& quantizer,
                     const std::uint8_t* validity, CodecContext& ctx,
                     ByteWriter& out);
  void (*encode_f64)(double* work, const Shape& shape,
                     const PipelineConfig& config,
                     const LinearQuantizer<double>& quantizer,
                     const std::uint8_t* validity, CodecContext& ctx,
                     ByteWriter& out);
  void (*parse)(ByteReader& in, const Shape& shape,
                const PipelineConfig& config, const std::uint8_t* validity,
                CodecContext& ctx);
  void (*decode_f32)(float* out, const Shape& shape,
                     const PipelineConfig& config,
                     const LinearQuantizer<float>& quantizer,
                     std::span<const float> outliers, std::size_t& cursor,
                     const std::uint8_t* validity, CodecContext& ctx,
                     const PredictorFetch& fetch);
  void (*decode_f64)(double* out, const Shape& shape,
                     const PipelineConfig& config,
                     const LinearQuantizer<double>& quantizer,
                     std::span<const double> outliers, std::size_t& cursor,
                     const std::uint8_t* validity, CodecContext& ctx,
                     const PredictorFetch& fetch);
};

/// Registry lookup by the stream's stored id; nullptr for unknown ids.
[[nodiscard]] const PredictorBackendOps* find_predictor_backend(
    std::uint8_t id);

/// Lookup by enum for encode-side callers; throws on an unregistered value.
[[nodiscard]] const PredictorBackendOps& predictor_backend_ops(
    PredictorBackend backend);

}  // namespace cliz
