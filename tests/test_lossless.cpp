#include "src/lossless/lossless.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"

namespace cliz {
namespace {

void expect_roundtrip(const std::vector<std::uint8_t>& input) {
  const auto compressed = lossless_compress(input);
  const auto output = lossless_decompress(compressed);
  ASSERT_EQ(output.size(), input.size());
  EXPECT_EQ(output, input);
}

TEST(Lossless, EmptyInput) { expect_roundtrip({}); }

TEST(Lossless, TinyInputs) {
  expect_roundtrip({0x42});
  expect_roundtrip({1, 2, 3});
  expect_roundtrip({0, 0, 0, 0});
}

TEST(Lossless, AllZeros) {
  expect_roundtrip(std::vector<std::uint8_t>(100000, 0));
}

TEST(Lossless, AllZerosCompressWell) {
  const std::vector<std::uint8_t> input(100000, 0);
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 100);
}

TEST(Lossless, RepeatingPatternCompresses) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 5000; ++i) {
    const char* chunk = "climate-data-chunk-";
    input.insert(input.end(), chunk, chunk + std::strlen(chunk));
  }
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 10);
  expect_roundtrip(input);
}

TEST(Lossless, RandomBytesStoredNotInflated) {
  Rng rng(3);
  std::vector<std::uint8_t> input(65536);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto compressed = lossless_compress(input);
  // Stored fallback: tiny header only.
  EXPECT_LE(compressed.size(), input.size() + 16);
  expect_roundtrip(input);
}

TEST(Lossless, TextLikeDataRoundTrip) {
  Rng rng(4);
  std::vector<std::uint8_t> input;
  const std::string words[] = {"temperature", "salinity", "pressure",
                               "humidity", " ", "\n"};
  for (int i = 0; i < 20000; ++i) {
    const auto& w = words[rng.uniform_index(6)];
    input.insert(input.end(), w.begin(), w.end());
  }
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 2);
  expect_roundtrip(input);
}

TEST(Lossless, LongMatchesBeyondMaxMatchLength) {
  // A run longer than the coder's max match must split correctly.
  std::vector<std::uint8_t> input(1 << 16, 0xAA);
  expect_roundtrip(input);
}

TEST(Lossless, MatchesAcrossWindowBoundary) {
  // Pattern repeats at distance > 64 KiB: the window-limited matcher must
  // still round-trip (just with fresh literals).
  std::vector<std::uint8_t> block(70000);
  Rng rng(5);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.uniform_index(4));
  std::vector<std::uint8_t> input = block;
  input.insert(input.end(), block.begin(), block.end());
  expect_roundtrip(input);
}

class LosslessSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LosslessSizeSweep, MixedContentRoundTrip) {
  Rng rng(100 + GetParam());
  std::vector<std::uint8_t> input(GetParam());
  for (std::size_t i = 0; i < input.size(); ++i) {
    // Mix of runs and noise.
    input[i] = (i / 64) % 3 == 0
                   ? 0x55
                   : static_cast<std::uint8_t>(rng.uniform_index(16));
  }
  expect_roundtrip(input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LosslessSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 63, 64, 65,
                                           255, 256, 257, 4095, 4096, 65535,
                                           65536, 65537, 200000));

TEST(Lossless, CorruptModeByteThrows) {
  std::vector<std::uint8_t> bad{9, 4, 1, 2, 3, 4};
  EXPECT_THROW(lossless_decompress(bad), Error);
}

TEST(Lossless, TruncatedStreamThrows) {
  const std::vector<std::uint8_t> input(1000, 7);
  auto compressed = lossless_compress(input);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(lossless_decompress(compressed), Error);
}

TEST(Lossless, EmptyStreamThrows) {
  EXPECT_THROW(lossless_decompress({}), Error);
}

// --- block-split container (mode 4) -------------------------------------
// Inputs of 1 MiB and up are cut into fixed 256 KiB blocks compressed
// independently (and in parallel); the partition is purely size-based, so
// the container must be byte-identical at every thread count.

std::vector<std::uint8_t> block_split_input(std::size_t n) {
  Rng rng(42);
  std::vector<std::uint8_t> input(n);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = (i / 96) % 3 == 0
                   ? 0x33
                   : static_cast<std::uint8_t>(rng.uniform_index(24));
  }
  return input;
}

TEST(Lossless, BlockSplitRoundTrip) {
  // 1 MiB + change: crosses the split threshold with an uneven tail block.
  const auto input = block_split_input((1u << 20) + 12345);
  const auto compressed = lossless_compress(input);
  ASSERT_FALSE(compressed.empty());
  EXPECT_EQ(compressed[0], 4) << "expected the block-split container";
  EXPECT_LT(compressed.size(), input.size());
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST(Lossless, BlockSplitExactMultipleRoundTrip) {
  const auto input = block_split_input(1u << 20);
  const auto compressed = lossless_compress(input);
  ASSERT_FALSE(compressed.empty());
  EXPECT_EQ(compressed[0], 4);
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST(Lossless, BlockSplitThreadCountInvariant) {
  const auto input = block_split_input((1u << 20) + 777);
  const int saved = hardware_threads();
  set_thread_count(1);
  const auto serial = lossless_compress(input);
  set_thread_count(4);
  const auto parallel = lossless_compress(input);
  set_thread_count(saved);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(lossless_decompress(parallel), input);
}

TEST(Lossless, BlockSplitCorruptBlockThrows) {
  const auto input = block_split_input(1u << 20);
  auto compressed = lossless_compress(input);
  ASSERT_EQ(compressed[0], 4);
  // Flip a byte deep inside a block payload: either the inner frame's CRC
  // or the outer whole-payload CRC must reject it.
  compressed[compressed.size() / 2] ^= 0xFF;
  EXPECT_THROW(lossless_decompress(compressed), Error);
}

TEST(Lossless, BlockSplitTruncatedThrows) {
  const auto input = block_split_input(1u << 20);
  auto compressed = lossless_compress(input);
  ASSERT_EQ(compressed[0], 4);
  compressed.resize(compressed.size() - compressed.size() / 4);
  EXPECT_THROW(lossless_decompress(compressed), Error);
}

TEST(Lossless, BlockSplitScratchReuseMatches) {
  const auto input = block_split_input((1u << 20) + 4096);
  const auto reference = lossless_compress(input);
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  lossless_compress_into(input, scratch, out);
  EXPECT_EQ(out, reference);
  // Second call through the same scratch (steady state) must not drift.
  lossless_compress_into(input, scratch, out);
  EXPECT_EQ(out, reference);
  std::vector<std::uint8_t> round;
  lossless_decompress_into(out, scratch, round);
  EXPECT_EQ(round, input);
}

TEST(Lossless, FloatPayloadRoundTrip) {
  // The real use: serialized quantization streams.
  Rng rng(6);
  std::vector<float> values(20000);
  for (auto& v : values) {
    v = static_cast<float>(rng.normal() * 0.01 + 280.0);
  }
  std::vector<std::uint8_t> input(values.size() * sizeof(float));
  std::memcpy(input.data(), values.data(), input.size());
  expect_roundtrip(input);
}

// --- differential checks against the byte-at-a-time greedy parse -------
// The match finder keeps the exact greedy parse (same hash, chain depth,
// window and tie-break) but walks it faster: int32 chains, a skip for
// candidates that cannot beat the current best, 8-byte match extension,
// an array byte census. The reference below is the compressor it
// replaced, frame assembly included, so whole frames compare byte for
// byte.

namespace reference {

constexpr std::size_t kWindow = 1u << 16;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1u << 12;
constexpr int kMaxChain = 64;
constexpr std::size_t kBlockSize = std::size_t{1} << 18;
constexpr std::size_t kBlockSplitThreshold = std::size_t{1} << 20;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;
}

void put_section(ByteWriter& out, std::span<const std::uint8_t> bytes) {
  if (bytes.size() >= 32) {
    const std::vector<std::uint32_t> symbols(bytes.begin(), bytes.end());
    std::unordered_map<std::uint32_t, std::uint64_t> freq;
    for (const std::uint32_t s : symbols) ++freq[s];
    const auto codec = HuffmanCodec::from_frequencies(freq);
    ByteWriter table;
    codec.serialize(table);
    const std::size_t huff_size =
        table.size() + (codec.encoded_bits(symbols) + 7) / 8;
    if (huff_size + 8 < bytes.size()) {
      BitWriter bits;
      codec.encode(symbols, bits);
      out.put_u8(1);
      out.put_varint(bytes.size());
      out.put_block(table.bytes());
      out.put_block(bits.finish());
      return;
    }
  }
  out.put_u8(0);
  out.put_block(bytes);
}

std::vector<std::uint8_t> compress_single(std::span<const std::uint8_t> in) {
  const std::size_t n = in.size();
  BitWriter flags;
  std::vector<std::uint8_t> literals;
  ByteWriter matches;
  std::size_t n_ops = 0;
  std::vector<std::int64_t> head(1u << 16, -1);
  std::vector<std::int64_t> prev(n, -1);
  const auto insert = [&](std::size_t pos) {
    const std::uint32_t h = hash4(in.data() + pos);
    prev[pos] = head[h];
    head[h] = static_cast<std::int64_t>(pos);
  };
  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      std::int64_t cand = head[hash4(in.data() + i)];
      int chain = 0;
      const std::size_t limit = std::min(kMaxMatch, n - i);
      while (cand >= 0 && chain++ < kMaxChain &&
             i - static_cast<std::size_t>(cand) <= kWindow) {
        const auto c = static_cast<std::size_t>(cand);
        std::size_t len = 0;
        while (len < limit && in[c + len] == in[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len == limit) break;
        }
        cand = prev[c];
      }
    }
    if (best_len >= kMinMatch) {
      flags.put_bit(true);
      matches.put_varint(best_len - kMinMatch);
      matches.put_varint(best_dist - 1);
      const std::size_t end = std::min(i + best_len, n - kMinMatch + 1);
      for (std::size_t p = i; p < end; ++p) insert(p);
      i += best_len;
    } else {
      flags.put_bit(false);
      literals.push_back(in[i]);
      if (i + kMinMatch <= n) insert(i);
      ++i;
    }
    ++n_ops;
  }

  const std::uint32_t crc = crc32c(in);
  ByteWriter lz;
  lz.put_u8(3);
  lz.put_varint(n);
  lz.put(crc);
  lz.put_varint(n_ops);
  lz.put_block(flags.finish());
  put_section(lz, literals);
  put_section(lz, matches.bytes());
  if (lz.size() < n + 2 + sizeof(crc)) {
    return {lz.bytes().begin(), lz.bytes().end()};
  }
  ByteWriter stored;
  stored.put_u8(2);
  stored.put_varint(n);
  stored.put(crc);
  stored.put_bytes(in);
  return {stored.bytes().begin(), stored.bytes().end()};
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> in) {
  const std::size_t n = in.size();
  if (n < kBlockSplitThreshold) return compress_single(in);
  const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
  ByteWriter frame;
  frame.put_u8(4);
  frame.put_varint(n);
  frame.put(crc32c(in));
  frame.put_varint(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t lo = b * kBlockSize;
    frame.put_block(
        compress_single(in.subspan(lo, std::min(kBlockSize, n - lo))));
  }
  return {frame.bytes().begin(), frame.bytes().end()};
}

}  // namespace reference

void expect_matches_reference(const std::vector<std::uint8_t>& input,
                              const char* what) {
  SCOPED_TRACE(what);
  const auto frame = lossless_compress(input);
  ASSERT_EQ(frame, reference::compress(input)) << "size " << input.size();
  EXPECT_EQ(lossless_decompress(frame), input);
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n,
                                       std::size_t alphabet) {
  std::vector<std::uint8_t> b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_index(alphabet));
  return b;
}

TEST(Lossless, ParseMatchesReferenceOnBasicInputs) {
  Rng rng(401);
  expect_matches_reference(std::vector<std::uint8_t>(100000, 0), "zeros");
  for (const std::size_t period : {1u, 3u, 7u, 64u, 1000u, 5000u}) {
    std::vector<std::uint8_t> periodic(60000);
    const auto motif = random_bytes(rng, period, 256);
    for (std::size_t i = 0; i < periodic.size(); ++i) {
      periodic[i] = motif[i % period];
    }
    expect_matches_reference(periodic, "periodic");
  }
  expect_matches_reference(random_bytes(rng, 65536, 256), "random");
  // Low-entropy noise fills every hash chain past its 64-deep limit.
  expect_matches_reference(random_bytes(rng, 80000, 2), "binary noise");
  expect_matches_reference(random_bytes(rng, 80000, 5), "5-ary noise");
  for (std::size_t n = 0; n < 40; ++n) {
    expect_matches_reference(random_bytes(rng, n, 3), "tiny");
  }
}

TEST(Lossless, ParseMatchesReferenceAtMatchLengthBounds) {
  Rng rng(402);
  // Copies of exactly kMinMatch - 1, kMinMatch and kMinMatch + 1 bytes in
  // random data (only the latter two can become matches).
  for (const std::size_t len : {3u, 4u, 5u, 8u, 9u, 15u, 16u, 17u}) {
    auto input = random_bytes(rng, 20000, 256);
    for (std::size_t at = 1000; at + len < input.size(); at += 777) {
      std::copy_n(input.begin() + static_cast<std::ptrdiff_t>(at - 500),
                  len, input.begin() + static_cast<std::ptrdiff_t>(at));
    }
    expect_matches_reference(input, "short copies");
  }
  // Runs straddling kMaxMatch = 4096, alone and at the end of the input.
  for (const std::size_t run : {4095u, 4096u, 4097u, 4100u, 8192u, 8193u}) {
    auto input = random_bytes(rng, 3000, 256);
    input.insert(input.end(), run, 0x7E);
    expect_matches_reference(input, "run at end");
    input.insert(input.end(), 2000, 0x11);
    expect_matches_reference(input, "run inside");
  }
  // A copy of kMaxMatch + a few bytes of random data.
  auto input = random_bytes(rng, 5000, 256);
  const std::vector<std::uint8_t> head(input.begin(), input.begin() + 4103);
  input.insert(input.end(), head.begin(), head.end());
  expect_matches_reference(input, "long copy");
}

TEST(Lossless, ParseMatchesReferenceAtWindowBound) {
  // Random bytes repeated at distance kWindow - 1, kWindow (still in the
  // window) and kWindow + 1 (out of it). Their 4-byte prefixes occur
  // nowhere else, so the far copy is the only candidate; the zero run in
  // between keeps the frame in LZ mode either way.
  Rng rng(403);
  for (const std::size_t dist : {65535u, 65536u, 65537u}) {
    const auto head = random_bytes(rng, 3000, 256);
    std::vector<std::uint8_t> input(head.begin(), head.end());
    input.resize(dist, 0);
    input.insert(input.end(), head.begin(), head.end());
    ASSERT_EQ(lossless_compress(input)[0], 3) << "expected an LZ frame";
    expect_matches_reference(input, "window");
  }
}

TEST(Lossless, ParseMatchesReferenceOnBlockSplitInput) {
  Rng rng(404);
  std::vector<std::uint8_t> input;
  while (input.size() < (std::size_t{1} << 20) + 54321) {
    const auto kind = rng.uniform_index(3);
    const auto chunk = random_bytes(rng, 5000, kind == 0 ? 256 : 4);
    input.insert(input.end(), chunk.begin(), chunk.end());
    if (kind == 2) input.insert(input.end(), 3000, 0);
  }
  expect_matches_reference(input, "block split");
  EXPECT_EQ(lossless_compress(input)[0], 4);
}

TEST(Lossless, ScratchReuseAcrossSizesMatchesReference) {
  // The chain tables are reused without clearing between calls: a large
  // input followed by smaller ones must not see stale positions.
  Rng rng(405);
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  for (const std::size_t n : {300000u, 1000u, 70000u, 5u, 200000u}) {
    const auto input = random_bytes(rng, n, 6);
    lossless_compress_into(input, scratch, out);
    EXPECT_EQ(out, reference::compress(input)) << "size " << n;
  }
}

}  // namespace
}  // namespace cliz
