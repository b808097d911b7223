// libFuzzer target over the decode surface: every input is thrown at the
// stream dispatcher (plain CliZ and chunked frames, both sample widths).
// The only acceptable outcomes are a decoded array or a cliz::Error —
// crashes, sanitizer reports, and unbounded allocations are findings. The
// resource governor runs with tight budgets so the fuzzer spends its time
// in parser logic rather than waiting on the allocator.
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> stream(data, size);
  cliz::ResourceLimits limits;
  limits.max_output_bytes = std::uint64_t{1} << 26;  // 64 MiB
  limits.max_extents = std::uint64_t{1} << 24;
  limits.max_chunks = 1u << 12;
  limits.max_side_block_bytes = std::uint64_t{1} << 24;
  try {
    if (cliz::is_chunked_stream(stream)) {
      cliz::ChunkedScratch scratch;
      scratch.pool.set_governor(limits, nullptr);
      (void)cliz::chunked_decompress(stream, &scratch);
    } else {
      cliz::CodecContext ctx;
      ctx.limits = limits;
      try {
        (void)cliz::ClizCompressor::decompress(stream, ctx);
      } catch (const cliz::Error&) {
        // Retry as float64: the width byte routes the two variants.
        (void)cliz::ClizCompressor::decompress_f64(stream, ctx);
      }
    }
  } catch (const cliz::Error&) {
    // Clean rejection: the contract for hostile bytes.
  }
  return 0;
}
