// libFuzzer target over the encode side: arbitrary bytes go through both
// lossless backends (a fresh scratch and one reused across inputs, which
// keeps stale hash chains around) and through a Huffman encode/decode round
// trip. Every output must decode back to the input exactly; a mismatch
// aborts. The LZ match finder and the bit writer do unaligned 8-byte
// loads and stores near buffer ends, which is what ASan watches for here.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/huffman/huffman.hpp"
#include "src/lossless/lossless.hpp"

namespace {

void require(bool ok) {
  if (!ok) std::abort();
}

void lossless_roundtrip(std::span<const std::uint8_t> in,
                        cliz::LosslessBackend backend,
                        cliz::LosslessScratch& scratch) {
  const auto fresh = cliz::lossless_compress(in, backend);
  require(cliz::lossless_decompress(fresh) ==
          std::vector<std::uint8_t>(in.begin(), in.end()));
  std::vector<std::uint8_t> reused;
  cliz::lossless_compress_into(in, scratch, reused, backend);
  require(reused == fresh);
}

/// Reads the input as 16-bit symbols offset by the first byte's choice of
/// base (bytes near 0, quantizer bins near 2^16, or sparse 32-bit values),
/// so the encoder sees dense, escape-plus-top and wide alphabets.
std::vector<std::uint32_t> huffman_symbols(std::span<const std::uint8_t> in) {
  std::vector<std::uint32_t> symbols;
  if (in.empty()) return symbols;
  const unsigned mode = in[0] % 3;
  for (std::size_t i = 1; i + 1 < in.size(); i += 2) {
    const std::uint32_t v = (std::uint32_t{in[i]} << 8) | in[i + 1];
    switch (mode) {
      case 0:
        symbols.push_back(v & 0xFF);
        break;
      case 1:
        symbols.push_back(in[i] == 0 ? 0 : 65536 - (v & 0x3FF));
        break;
      default:
        symbols.push_back(v * 65537u);
        break;
    }
  }
  return symbols;
}

void huffman_roundtrip(std::span<const std::uint8_t> in) {
  const auto symbols = huffman_symbols(in);
  const auto codec = cliz::HuffmanCodec::from_symbols(symbols);
  cliz::BitWriter bits;
  codec.encode(symbols, bits);
  require(codec.encoded_bits(symbols) == bits.bit_count());
  const auto payload = bits.finish();

  cliz::ByteWriter table;
  codec.serialize(table);
  cliz::ByteReader table_reader(table.bytes());
  const auto decoder = cliz::HuffmanCodec::deserialize(table_reader);
  cliz::BitReader reader(payload);
  std::vector<std::uint32_t> decoded(symbols.size());
  decoder.decode_batch(reader, decoded.data(), decoded.size());
  require(decoded == symbols);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static cliz::LosslessScratch scratch;
  const std::span<const std::uint8_t> in(data, size);
  lossless_roundtrip(in, cliz::LosslessBackend::kLz, scratch);
  lossless_roundtrip(in, cliz::LosslessBackend::kStore, scratch);
  huffman_roundtrip(in);
  return 0;
}
