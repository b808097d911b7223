#pragma once

// The retired per-pass framed entropy container (entropy byte bit 7) is
// kept on disk as two frozen fixtures written by the last build that
// encoded it: tests/data/framed_plain.cliz and tests/data/framed_tiled.clks.
// framed_plain.cliz is the framed stream of wide_field() under
// classified_config() at kEb; this header rebuilds that input so tests can
// re-encode it serially and diff the two pre-lossless streams, which
// differ first at the entropy byte. Test-only header — lives beside the
// tests, not in src/. Users must define CLIZ_GOLDEN_DIR.

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault_injection.hpp"
#include "src/common/rng.hpp"
#include "src/core/cliz.hpp"
#include "src/lossless/lossless.hpp"

namespace cliz::framed_fixture {

constexpr double kEb = 1e-3;
/// CRC32C of framed_plain.cliz: the framed row that locked the container's
/// encoder bytes before it was retired.
constexpr std::uint32_t kPlainCrc = 0xD4A99503u;

/// Bytes of a committed fixture under tests/data (empty when missing).
inline std::vector<std::uint8_t> read(const char* file) {
  std::ifstream in(std::string(CLIZ_GOLDEN_DIR) + "/" + file,
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Wide-alphabet 3-D field: strong noise on a quarter of the columns
/// spreads the quantization codes over a few hundred bins (long Huffman
/// codes), while the exactly linear rest yields long runs of one code that
/// the LZ parse turns into matches. IEEE add/mul only, so it is
/// bit-identical across platforms.
inline NdArray<float> wide_field() {
  const Shape shape({24, 40, 48});
  NdArray<float> a(shape);
  Rng rng(6006);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double noise =
        i % 48 < 12 ? 0.4 * rng.uniform() * rng.uniform() : 0.0;
    const double v = 0.01 * static_cast<double>(i % 48) +
                     0.004 * static_cast<double>((i / 48) % 40) + noise;
    a[i] = static_cast<float>(v);
  }
  return a;
}

inline PipelineConfig classified_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.classify_bins = true;
  return c;
}

/// A serial re-encode of framed_plain.cliz's input, before the lossless
/// stage, and the offset of its entropy byte.
struct EntropyByte {
  std::vector<std::uint8_t> serial_raw;
  std::size_t pos = 0;
};

/// Finds the entropy byte as the first byte where the fixture's
/// pre-lossless stream and the serial re-encode differ (only bit 7 of that
/// byte separates them up to there).
inline EntropyByte locate_entropy_byte() {
  EntropyByte e;
  const auto framed_raw = lossless_decompress(read("framed_plain.cliz"));
  e.serial_raw = lossless_decompress(
      ClizCompressor(classified_config()).compress(wide_field(), kEb));
  e.pos = fault::first_divergence(e.serial_raw, framed_raw);
  return e;
}

}  // namespace cliz::framed_fixture
