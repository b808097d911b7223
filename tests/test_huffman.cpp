#include "src/huffman/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"

namespace cliz {
namespace {

std::vector<std::uint32_t> roundtrip(const std::vector<std::uint32_t>& syms) {
  const auto codec = HuffmanCodec::from_symbols(syms);
  ByteWriter table;
  codec.serialize(table);
  BitWriter bits;
  codec.encode(syms, bits);
  const auto payload = bits.finish();

  ByteReader tr(table.bytes());
  const auto decoder = HuffmanCodec::deserialize(tr);
  BitReader br(payload);
  std::vector<std::uint32_t> out;
  out.reserve(syms.size());
  for (std::size_t i = 0; i < syms.size(); ++i) {
    out.push_back(decoder.decode_one(br));
  }
  return out;
}

TEST(Huffman, UniformAlphabetRoundTrip) {
  std::vector<std::uint32_t> syms;
  for (std::uint32_t v = 0; v < 64; ++v) {
    for (int k = 0; k < 5; ++k) syms.push_back(v);
  }
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, SkewedDistributionRoundTrip) {
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 20000; ++i) {
    // Geometric-ish: mostly 32768 (bin 0) with exponential tails, matching
    // real quantization-bin statistics.
    const double u = rng.uniform();
    const int mag = static_cast<int>(std::floor(-std::log2(1.0 - u) * 1.2));
    const int sign = rng.uniform() < 0.5 ? -1 : 1;
    syms.push_back(static_cast<std::uint32_t>(32768 + sign * mag));
  }
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, SkewedCodesShorterThanRareCodes) {
  std::unordered_map<std::uint32_t, std::uint64_t> freq{
      {1, 1000}, {2, 10}, {3, 10}, {4, 1}};
  const auto codec = HuffmanCodec::from_frequencies(freq);
  const std::vector<std::uint32_t> common{1};
  const std::vector<std::uint32_t> rare{4};
  EXPECT_LT(codec.encoded_bits(common), codec.encoded_bits(rare));
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint32_t> syms(100, 7);
  EXPECT_EQ(roundtrip(syms), syms);
  const auto codec = HuffmanCodec::from_symbols(syms);
  EXPECT_EQ(codec.alphabet_size(), 1u);
  // One-symbol codes still cost one bit each.
  EXPECT_EQ(codec.encoded_bits(syms), 100u);
}

TEST(Huffman, EmptyInputProducesEmptyCodec) {
  const auto codec = HuffmanCodec::from_symbols({});
  EXPECT_EQ(codec.alphabet_size(), 0u);
  BitWriter bits;
  codec.encode({}, bits);  // no-op
  EXPECT_EQ(bits.bit_count(), 0u);
}

TEST(Huffman, LargeSymbolValues) {
  std::vector<std::uint32_t> syms{0, 0xFFFFFFFFu, 0x80000000u, 0, 42,
                                  0xFFFFFFFFu};
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, RandomAlphabetsRoundTrip) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    std::vector<std::uint32_t> syms(5000);
    const std::uint32_t alphabet = 1u << (4 + 3 * seed % 12);
    for (auto& s : syms) {
      s = static_cast<std::uint32_t>(rng.uniform_index(alphabet));
    }
    EXPECT_EQ(roundtrip(syms), syms) << "seed " << seed;
  }
}

TEST(Huffman, UnknownSymbolThrowsOnEncode) {
  const std::vector<std::uint32_t> syms{1, 2, 3};
  const auto codec = HuffmanCodec::from_symbols(syms);
  const std::vector<std::uint32_t> bad{99};
  BitWriter bits;
  EXPECT_THROW(codec.encode(bad, bits), Error);
  EXPECT_THROW((void)codec.encoded_bits(bad), Error);
}

TEST(Huffman, PayloadBitsMatchesEncodedBits) {
  Rng rng(17);
  std::vector<std::uint32_t> syms(3000);
  std::unordered_map<std::uint32_t, std::uint64_t> freq;
  for (auto& s : syms) {
    s = static_cast<std::uint32_t>(rng.uniform_index(50));
    ++freq[s];
  }
  const auto codec = HuffmanCodec::from_symbols(syms);
  EXPECT_EQ(codec.payload_bits(freq), codec.encoded_bits(syms));
}

TEST(Huffman, NearEntropyOnSkewedData) {
  // A heavily skewed stream must code close to its empirical entropy.
  std::vector<std::uint32_t> syms;
  std::unordered_map<std::uint32_t, std::uint64_t> freq;
  const std::vector<std::pair<std::uint32_t, int>> spec{
      {0, 9000}, {1, 500}, {2, 300}, {3, 150}, {4, 50}};
  for (const auto& [sym, count] : spec) {
    for (int i = 0; i < count; ++i) syms.push_back(sym);
    freq[sym] = static_cast<std::uint64_t>(count);
  }
  double entropy_bits = 0.0;
  const double total = static_cast<double>(syms.size());
  for (const auto& [sym, f] : freq) {
    const double p = static_cast<double>(f) / total;
    entropy_bits += -static_cast<double>(f) * std::log2(p);
  }
  const auto codec = HuffmanCodec::from_symbols(syms);
  const double coded = static_cast<double>(codec.encoded_bits(syms));
  // Huffman cannot beat one bit per symbol; within that floor it must sit
  // close to the entropy (redundancy < 1 bit/symbol by Huffman's theorem).
  const double floor_bits =
      std::max(entropy_bits, static_cast<double>(syms.size()));
  EXPECT_GE(coded, entropy_bits);
  EXPECT_LT(coded, floor_bits + static_cast<double>(syms.size()) * 0.25);
}

// Property: for any encodable stream, encoded_bits() must equal the bit
// count encode() actually emits — the size estimator and the emitter may
// never drift apart (the stream layout depends on the estimate). Runs over
// distributions chosen to populate every decode path: near-uniform (short
// codes, pair-table hits), geometric skew (mixed lengths), Fibonacci skew
// (codes past the 11-bit fast-table width), and a single-symbol alphabet.
TEST(Huffman, EncodedBitsMatchesEmittedBitsProperty) {
  std::vector<std::vector<std::uint32_t>> streams;

  {
    Rng rng(21);
    std::vector<std::uint32_t> syms(4096);
    for (auto& s : syms) {
      s = static_cast<std::uint32_t>(rng.uniform_index(1 << 10));
    }
    streams.push_back(std::move(syms));
  }
  {
    Rng rng(22);
    std::vector<std::uint32_t> syms(4096);
    for (auto& s : syms) {
      const double u = rng.uniform();
      const int mag = static_cast<int>(std::floor(-std::log2(1.0 - u)));
      s = static_cast<std::uint32_t>(32768 + mag);
    }
    streams.push_back(std::move(syms));
  }
  {
    // Fibonacci frequencies force code lengths well past kTableBits.
    std::vector<std::uint32_t> syms;
    std::uint64_t a = 1;
    std::uint64_t b = 1;
    for (std::uint32_t s = 0; s < 40 && b < (1ull << 40); ++s) {
      for (std::uint64_t k = 0; k < (a < 64 ? a : 64); ++k) {
        syms.push_back(s);
      }
      const std::uint64_t next = a + b;
      a = b;
      b = next;
    }
    streams.push_back(std::move(syms));
  }
  streams.emplace_back(std::vector<std::uint32_t>(257, 9u));

  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& syms = streams[i];
    const auto codec = HuffmanCodec::from_symbols(syms);
    BitWriter bits;
    codec.encode(syms, bits);
    EXPECT_EQ(codec.encoded_bits(syms), bits.bit_count())
        << "stream " << i;

    // The batched decoder (pair-augmented fast table + wide peek) must
    // read back exactly what the bit-at-a-time decoder does.
    const auto payload = bits.finish();
    BitReader batch_reader(payload);
    std::vector<std::uint32_t> batched(syms.size());
    codec.decode_batch(batch_reader, batched.data(), batched.size());
    EXPECT_EQ(batched, syms) << "stream " << i;

    BitReader one_reader(payload);
    std::vector<std::uint32_t> singles;
    singles.reserve(syms.size());
    for (std::size_t k = 0; k < syms.size(); ++k) {
      singles.push_back(codec.decode_one(one_reader));
    }
    EXPECT_EQ(singles, batched) << "stream " << i;
  }
}

TEST(Huffman, DecodeBatchTruncatedPayloadThrows) {
  const std::vector<std::uint32_t> syms{1, 2, 3, 4, 5, 6, 7, 8};
  const auto codec = HuffmanCodec::from_symbols(syms);
  BitWriter bits;
  codec.encode(syms, bits);
  auto payload = bits.finish();
  if (!payload.empty()) payload.pop_back();
  BitReader r(payload);
  std::vector<std::uint32_t> out(syms.size());
  EXPECT_THROW(codec.decode_batch(r, out.data(), out.size()), Error);
}

TEST(Huffman, CorruptTableThrows) {
  ByteWriter w;
  w.put_varint(2);
  w.put_varint(5);
  w.put_varint(0);  // code length 0 is invalid
  w.put_varint(1);
  w.put_varint(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(HuffmanCodec::deserialize(r), Error);
}

TEST(Huffman, DuplicateSymbolTableRejected) {
  // Regression (found by ASan fuzzing): a zero symbol delta after the first
  // entry means duplicate symbols, which would desynchronize the canonical
  // code assignment and overflow the fast decode table.
  ByteWriter w;
  w.put_varint(3);
  w.put_varint(5);
  w.put_varint(2);
  w.put_varint(0);  // duplicate of symbol 5
  w.put_varint(2);
  w.put_varint(1);
  w.put_varint(2);
  ByteReader r(w.bytes());
  EXPECT_THROW(HuffmanCodec::deserialize(r), Error);
}

TEST(Huffman, TruncatedPayloadThrows) {
  const std::vector<std::uint32_t> syms{1, 2, 3, 4, 5, 6, 7, 8};
  const auto codec = HuffmanCodec::from_symbols(syms);
  BitReader empty({});
  EXPECT_THROW((void)codec.decode_one(empty), Error);
}

TEST(Huffman, DecodeWithEmptyTableThrows) {
  const auto codec = HuffmanCodec::from_symbols({});
  std::vector<std::uint8_t> bytes{0xFF};
  BitReader r(bytes);
  EXPECT_THROW((void)codec.decode_one(r), Error);
}

TEST(Huffman, PathologicalSkewStaysWithinLengthCap) {
  // Fibonacci-like frequencies force maximal code lengths; the rebuild
  // loop must cap them without breaking decodability.
  std::unordered_map<std::uint32_t, std::uint64_t> freq;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::uint32_t s = 0; s < 80; ++s) {
    freq[s] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
    if (b > (1ull << 55)) break;
  }
  const auto codec = HuffmanCodec::from_frequencies(freq);
  std::vector<std::uint32_t> syms;
  for (const auto& [sym, f] : freq) syms.push_back(sym);
  EXPECT_EQ(roundtrip(syms), syms);
}

// --- differential checks against the binary-search encoder --------------
// encode() and encoded_bits() look codes up in a direct-indexed table over
// the alphabet's symbol range, falling back to binary search for symbols
// outside it. The reference below is the encoder that table replaced: it
// rebuilds the canonical codes from the serialized table alone, finds each
// symbol by binary search and writes its code one bit at a time.

struct ReferenceEncoder {
  std::vector<std::uint32_t> symbols;  // ascending
  std::vector<std::uint64_t> codes;    // parallel to symbols
  std::vector<int> lengths;

  explicit ReferenceEncoder(const HuffmanCodec& codec) {
    ByteWriter table;
    codec.serialize(table);
    ByteReader in(table.bytes());
    const std::uint64_t n = in.get_varint();
    std::uint32_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      prev += static_cast<std::uint32_t>(in.get_varint());
      symbols.push_back(prev);
      lengths.push_back(static_cast<int>(in.get_varint()));
    }
    // Canonical assignment: by (length, symbol), consecutive codes, one
    // left shift per length step.
    std::vector<std::size_t> order(symbols.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return lengths[a] != lengths[b] ? lengths[a] < lengths[b]
                                      : symbols[a] < symbols[b];
    });
    codes.assign(symbols.size(), 0);
    std::uint64_t code = 0;
    int len = 0;
    for (const std::size_t i : order) {
      code <<= lengths[i] - len;
      len = lengths[i];
      codes[i] = code++;
    }
  }

  [[nodiscard]] std::size_t index_of(std::uint32_t s) const {
    const auto it = std::lower_bound(symbols.begin(), symbols.end(), s);
    EXPECT_TRUE(it != symbols.end() && *it == s) << "symbol " << s;
    return static_cast<std::size_t>(it - symbols.begin());
  }

  std::vector<std::uint8_t> encode(const std::vector<std::uint32_t>& syms,
                                   std::uint64_t* total_bits) const {
    BitWriter bits;
    *total_bits = 0;
    for (const std::uint32_t s : syms) {
      const std::size_t k = index_of(s);
      for (int b = lengths[k] - 1; b >= 0; --b) {
        bits.put_bit(((codes[k] >> b) & 1u) != 0);
      }
      *total_bits += static_cast<std::uint64_t>(lengths[k]);
    }
    return bits.finish();
  }

  [[nodiscard]] int max_length() const {
    return lengths.empty() ? 0
                           : *std::max_element(lengths.begin(), lengths.end());
  }
};

/// Encodes `syms` with `codec` and with the reference, asserting equal
/// bytes and bit counts, and that the payload decodes back.
void expect_matches_reference(const HuffmanCodec& codec,
                              const std::vector<std::uint32_t>& syms,
                              const char* what) {
  SCOPED_TRACE(what);
  const ReferenceEncoder ref(codec);
  std::uint64_t ref_bits = 0;
  const auto expected = ref.encode(syms, &ref_bits);
  BitWriter bits;
  codec.encode(syms, bits);
  EXPECT_EQ(codec.encoded_bits(syms), ref_bits);
  const auto payload = bits.finish();
  ASSERT_EQ(payload, expected);
  BitReader r(payload);
  std::vector<std::uint32_t> decoded(syms.size());
  codec.decode_batch(r, decoded.data(), decoded.size());
  EXPECT_EQ(decoded, syms);
}

/// Laplacian-ish quantization codes around `center`.
std::vector<std::uint32_t> quant_codes(Rng& rng, std::size_t n,
                                       std::uint32_t center, double scale) {
  std::vector<std::uint32_t> syms(n);
  for (auto& s : syms) {
    const double u = rng.uniform();
    const auto mag = static_cast<std::int64_t>(
        std::floor(-std::log2(1.0 - u) * scale));
    const std::int64_t sign = rng.uniform() < 0.5 ? -1 : 1;
    s = static_cast<std::uint32_t>(static_cast<std::int64_t>(center) +
                                   sign * mag);
  }
  return syms;
}

TEST(Huffman, DenseAlphabetsMatchReference) {
  Rng rng(301);
  for (const double scale : {0.5, 3.0, 40.0}) {
    const auto syms = quant_codes(rng, 20000, 32768, scale);
    expect_matches_reference(HuffmanCodec::from_symbols(syms), syms,
                             "quant codes");
  }
  std::vector<std::uint32_t> bytes(5000);
  for (auto& b : bytes) b = static_cast<std::uint32_t>(rng.uniform_index(256));
  expect_matches_reference(HuffmanCodec::from_symbols(bytes), bytes, "bytes");
}

TEST(Huffman, SparseAlphabetsMatchReference) {
  // Symbol ranges far wider than the census: the binary-search fallback.
  Rng rng(302);
  std::vector<std::uint32_t> alphabet(300);
  for (auto& a : alphabet) a = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<std::uint32_t> syms(4000);
  for (auto& s : syms) s = alphabet[rng.uniform_index(alphabet.size())];
  expect_matches_reference(HuffmanCodec::from_symbols(syms), syms,
                           "random 32-bit symbols");

  const std::vector<std::uint32_t> extremes{0, 0xFFFFFFFFu, 7, 0x80000000u,
                                            0, 7, 7, 0xFFFFFFFEu};
  expect_matches_reference(HuffmanCodec::from_symbols(extremes), extremes,
                           "extremes");
}

TEST(Huffman, EscapeNextToTopOfRangeMatchesReference) {
  // Quantizer codes span [0, 2*radius) with 0 the escape: a few escapes
  // sit far below bins near 2*radius = 65536.
  Rng rng(303);
  for (const std::size_t n : {std::size_t{3000}, std::size_t{70000}}) {
    auto syms = quant_codes(rng, n, 65500, 6.0);
    for (auto& s : syms) s = std::min<std::uint32_t>(s, 65535);
    for (std::size_t i = 0; i < syms.size(); i += 97) syms[i] = 0;
    const auto codec = HuffmanCodec::from_symbols(syms);
    expect_matches_reference(codec, syms, "escape + top bins");
    EXPECT_TRUE(codec.contains(0));
    EXPECT_TRUE(codec.contains(65535));
    EXPECT_FALSE(codec.contains(1));
    EXPECT_FALSE(codec.contains(65536));
    BitWriter bits;
    EXPECT_THROW(codec.encode(std::vector<std::uint32_t>{1}, bits), Error);
  }
}

TEST(Huffman, MaxLengthCodesMatchReference) {
  // Fibonacci frequencies over 58 symbols build a caterpillar tree whose
  // deepest codes are exactly kMaxCodeLength = 57 bits; 70 symbols
  // overflow it and take the frequency-halving path.
  for (const std::uint32_t n_symbols : {58u, 70u}) {
    std::unordered_map<std::uint32_t, std::uint64_t> freq;
    std::uint64_t a = 1;
    std::uint64_t b = 1;
    for (std::uint32_t s = 0; s < n_symbols; ++s) {
      freq[1000 + s] = a;
      const std::uint64_t next = a + b;
      a = b;
      b = next;
    }
    const auto codec = HuffmanCodec::from_frequencies(freq);
    const int max_length = ReferenceEncoder(codec).max_length();
    if (n_symbols == 58) {
      EXPECT_EQ(max_length, 57);
    } else {
      EXPECT_LE(max_length, 57);
    }
    std::vector<std::uint32_t> syms;
    for (std::uint32_t s = 0; s < n_symbols; ++s) {
      for (std::uint32_t k = 0; k <= s % 3; ++k) syms.push_back(1000 + s);
    }
    expect_matches_reference(codec, syms, "57-bit codes");
  }
}

TEST(Huffman, RebuiltAndParsedCodecsMatchReference) {
  // One codec rebuilt across dense, sparse and dense alphabets must not
  // keep a stale table; a parsed codec (no direct table) encodes the same.
  Rng rng(304);
  HuffmanCodec codec;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint32_t> syms =
        round == 1 ? std::vector<std::uint32_t>{5, 900000, 5, 17, 900000}
                   : quant_codes(rng, 5000, 100 + 50000 * round, 4.0);
    std::unordered_map<std::uint32_t, std::uint64_t> freq;
    for (const std::uint32_t s : syms) ++freq[s];
    codec.rebuild_from_frequencies(freq);
    expect_matches_reference(codec, syms, "rebuilt");

    ByteWriter table;
    codec.serialize(table);
    ByteReader in(table.bytes());
    expect_matches_reference(HuffmanCodec::deserialize(in), syms, "parsed");
  }
}

}  // namespace
}  // namespace cliz
