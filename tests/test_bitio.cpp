#include "src/common/bitio.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"

namespace cliz {
namespace {

TEST(BitIo, SingleBitsRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (const bool b : pattern) w.put_bit(b);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (const bool b : pattern) EXPECT_EQ(r.get_bit(), b);
}

TEST(BitIo, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.put_bits(0x5, 3);
  w.put_bits(0xABCD, 16);
  w.put_bits(0x1FFFFFFFFFFFFFull, 53);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(3), 0x5u);
  EXPECT_EQ(r.get_bits(16), 0xABCDu);
  EXPECT_EQ(r.get_bits(53), 0x1FFFFFFFFFFFFFull);
}

class BitWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthSweep, RandomValuesRoundTrip) {
  const int width = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(width));
  std::vector<std::uint64_t> values(200);
  const std::uint64_t mask =
      width == 64 ? ~0ull : (1ull << width) - 1;
  for (auto& v : values) v = rng.next_u64() & mask;

  BitWriter w;
  for (const auto v : values) w.put_bits(v, width);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.get_bits(width), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitWidthSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 15, 16, 17, 31,
                                           32, 33, 48, 57));

TEST(BitIo, BitCountTracksWrites) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  w.put_bits(0, 10);
  EXPECT_EQ(w.bit_count(), 10u);
  w.put_bits(0, 60);
  EXPECT_EQ(w.bit_count(), 70u);
}

TEST(BitIo, FinishPadsToByte) {
  BitWriter w;
  w.put_bit(true);
  const auto bytes = w.finish();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x80);  // MSB-first
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.put_bits(0xFF, 8);
  const auto bytes = w.finish();
  BitReader r(bytes);
  r.get_bits(8);
  EXPECT_THROW(r.get_bit(), Error);
}

TEST(BitIo, EmptyReaderThrowsImmediately) {
  BitReader r({});
  EXPECT_THROW(r.get_bit(), Error);
}

TEST(BitIo, LongStreamCrossesWordBoundaries) {
  Rng rng(99);
  std::vector<bool> bits(10000);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.uniform() < 0.5;
  BitWriter w;
  for (const bool b : bits) w.put_bit(b);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(r.get_bit(), bits[i]) << "at bit " << i;
  }
}

// --- differential check against the bit-at-a-time writer ---------------
// put_bits shifts whole fields into the accumulator and flushes one 64-bit
// word at a time. The reference below is the writer it replaced: one
// put_bit per bit, most significant first. Both must emit the same bytes
// for every width, alignment and padding.

void reference_put_bits(BitWriter& w, std::uint64_t v, int n) {
  for (int i = n - 1; i >= 0; --i) w.put_bit(((v >> i) & 1u) != 0);
}

TEST(BitIo, PutBitsMatchesBitAtATimeReference) {
  Rng rng(2024);
  BitWriter fast;
  BitWriter ref;
  for (int round = 0; round < 4; ++round) {
    fast.reset();
    ref.reset();
    for (int op = 0; op < 3000; ++op) {
      if (rng.uniform_index(5) == 0) {
        const bool b = (rng.next_u64() & 1u) != 0;
        fast.put_bit(b);
        ref.put_bit(b);
        continue;
      }
      const int width = static_cast<int>(rng.uniform_index(65));  // 0..64
      // Bits above `width` are garbage the writer must ignore.
      const std::uint64_t v = rng.next_u64();
      fast.put_bits(v, width);
      reference_put_bits(ref, v, width);
      ASSERT_EQ(fast.bit_count(), ref.bit_count()) << "op " << op;
    }
    const auto a = fast.finish_view();
    const auto b = ref.finish_view();
    ASSERT_EQ(std::vector<std::uint8_t>(a.begin(), a.end()),
              std::vector<std::uint8_t>(b.begin(), b.end()))
        << "round " << round;
  }
}

TEST(BitIo, PutBitsEveryWidthAtEveryAlignment) {
  for (int lead = 0; lead < 64; ++lead) {
    for (int width = 0; width <= 64; ++width) {
      BitWriter fast;
      BitWriter ref;
      const std::uint64_t lead_bits = 0x5A5A5A5A5A5A5A5Aull;
      fast.put_bits(lead_bits, lead);
      reference_put_bits(ref, lead_bits, lead);
      const std::uint64_t v =
          0xF0E1D2C3B4A59687ull ^ (static_cast<std::uint64_t>(width) << 7);
      fast.put_bits(v, width);
      reference_put_bits(ref, v, width);
      fast.put_bit(true);
      ref.put_bit(true);
      ASSERT_EQ(fast.finish(), ref.finish())
          << "lead " << lead << " width " << width;
    }
  }
}

}  // namespace
}  // namespace cliz
