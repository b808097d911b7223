// Golden-stream corpus: compressed frames committed to the repository
// (tests/data/) that every future revision must keep decoding — and, since
// CliZ streams are deterministic, keep reproducing bit-for-bit on
// compression. A format or codec change that alters streams fails here
// first; if the change is intentional, regenerate the corpus by running
// this binary with CLIZ_REGEN_GOLDEN=1 and commit the new files.
//
// The synthetic inputs are rebuilt in-process from the repo PRNG using
// only IEEE add/mul arithmetic (no libm transcendentals), so the corpus
// and the checks are bit-identical across platforms and libc versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"
#include "tests/framed_fixture.hpp"

namespace cliz {
namespace {

constexpr double kEb = 1e-3;
constexpr float kFill = 9.96921e36f;

std::string golden_path(const char* file) {
  return std::string(CLIZ_GOLDEN_DIR) + "/" + file;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden file " << path
                  << " (regenerate the corpus with CLIZ_REGEN_GOLDEN=1)";
    return {};
  }
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- deterministic inputs (IEEE arithmetic only) -------------------------

/// Smooth-ish 2-D field: linear trends + a small integer texture + noise.
NdArray<float> plain_field() {
  const Shape shape({40, 48});
  NdArray<float> a(shape);
  Rng rng(1001);
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 48; ++c) {
      const double v = 0.03 * static_cast<double>(r) -
                       0.015 * static_cast<double>(c) +
                       0.25 * static_cast<double>((r + c) % 9) +
                       0.05 * rng.uniform();
      a[r * 48 + c] = static_cast<float>(v);
    }
  }
  return a;
}

struct MaskedField {
  NdArray<float> data;
  MaskMap mask;
};

/// 3-D field with a land/sea-style mask on every 13th point.
MaskedField masked_field() {
  const Shape shape({16, 12, 14});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(2002);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 13 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = kFill;
      continue;
    }
    const double v = 0.1 * static_cast<double>(i % 14) -
                     0.07 * static_cast<double>((i / 14) % 12) +
                     0.04 * rng.uniform();
    data[i] = static_cast<float>(v);
  }
  return {std::move(data), std::move(mask)};
}

/// 3-D field with an exact period-6 seasonal signal along dim 0.
NdArray<float> periodic_field() {
  const Shape shape({36, 10, 12});
  NdArray<float> a(shape);
  Rng rng(3003);
  for (std::size_t t = 0; t < 36; ++t) {
    // Parabolic bump over the 6-step season: 0, 5, 8, 9, 8, 5 (scaled).
    const double season =
        0.1 * static_cast<double>((t % 6) * (11 - (t % 6)));
    for (std::size_t p = 0; p < 120; ++p) {
      const double v = season + 0.02 * static_cast<double>(p % 12) +
                       0.03 * rng.uniform();
      a[t * 120 + p] = static_cast<float>(v);
    }
  }
  return a;
}

/// 3-D field for the chunked frame (odd extent: uneven slabs).
NdArray<float> chunked_field() {
  const Shape shape({30, 12, 10});
  NdArray<float> a(shape);
  Rng rng(4004);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double v = 0.05 * static_cast<double>(i % 120) -
                     0.002 * static_cast<double>(i / 120) +
                     0.03 * rng.uniform();
    a[i] = static_cast<float>(v);
  }
  return a;
}

PipelineConfig masked_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.dynamic_fitting = true;
  c.classify_bins = true;
  return c;
}

PipelineConfig periodic_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.period = 6;
  c.time_dim = 0;
  return c;
}

std::vector<std::uint8_t> make_chunked_stream() {
  ChunkedOptions opts;
  opts.chunks = 4;
  return chunked_compress(chunked_field(), kEb, PipelineConfig::defaults(3),
                          nullptr, opts);
}

// --- corpus maintenance (must be declared first: bootstraps a fresh
// checkout when run with CLIZ_REGEN_GOLDEN=1) ----------------------------

TEST(GoldenStreams, Regenerate) {
  if (std::getenv("CLIZ_REGEN_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set CLIZ_REGEN_GOLDEN=1 to rewrite the corpus";
  }
  write_file(golden_path("golden_plain.cliz"),
             ClizCompressor(PipelineConfig::defaults(2))
                 .compress(plain_field(), kEb));
  const auto mf = masked_field();
  write_file(golden_path("golden_masked.cliz"),
             ClizCompressor(masked_config()).compress(mf.data, kEb,
                                                      &mf.mask));
  write_file(golden_path("golden_periodic.cliz"),
             ClizCompressor(periodic_config())
                 .compress(periodic_field(), kEb));
  write_file(golden_path("golden_chunked.clks"), make_chunked_stream());
}

// --- the locks ----------------------------------------------------------

TEST(GoldenStreams, PlainStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto data = plain_field();

  CodecContext ctx;
  NdArray<float> out(data.shape());
  ClizCompressor::decompress_into(stream, ctx, out);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb),
            stream)
      << "compressor output drifted from the committed stream";
}

TEST(GoldenStreams, MaskedStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_masked.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto field = masked_field();

  const auto out = ClizCompressor::decompress(stream);
  ASSERT_EQ(out.shape(), field.data.shape());
  EXPECT_LE(
      error_stats(field.data.flat(), out.flat(), &field.mask).max_abs_error,
      kEb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!field.mask.valid(i)) {
      ASSERT_EQ(out[i], kFill) << "masked point " << i;
    }
  }

  EXPECT_EQ(
      ClizCompressor(masked_config()).compress(field.data, kEb, &field.mask),
      stream)
      << "compressor output drifted from the committed stream";
}

TEST(GoldenStreams, PeriodicStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_periodic.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto data = periodic_field();

  CodecContext ctx;
  NdArray<float> out(data.shape());
  ClizCompressor::decompress_into(stream, ctx, out);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  EXPECT_EQ(ClizCompressor(periodic_config()).compress(data, kEb), stream)
      << "compressor output drifted from the committed stream";
}

TEST(GoldenStreams, ChunkedFrameDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_chunked.clks"));
  ASSERT_FALSE(stream.empty());
  const auto data = chunked_field();

  ASSERT_TRUE(is_chunked_stream(stream));
  EXPECT_EQ(chunked_sample_bytes(stream), 4u);

  ChunkedScratch scratch;
  NdArray<float> out(data.shape());
  chunked_decompress_into(stream, out, &scratch);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  EXPECT_EQ(make_chunked_stream(), stream)
      << "chunked frame drifted from the committed stream";
}

// --- thread-count invariance --------------------------------------------
// The line-parallel engine, block-split lossless backend, and chunked path
// partition work by size only, never by worker count, so every stream must
// come out byte-identical at any thread setting — and identical to the
// committed corpus above. Running the whole corpus at several counts also
// drives the std::thread backend under TSan (this binary matches the
// thread-sanitize job's test regex).

/// Restores the entry thread count on scope exit so a failing assertion
/// cannot leak a modified global setting into later tests.
struct ThreadCountGuard {
  int saved = hardware_threads();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

TEST(GoldenStreams, StreamsAreThreadCountInvariant) {
  const auto data = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();
  const std::vector<std::uint8_t> golden_plain =
      read_file(golden_path("golden_plain.cliz"));
  const std::vector<std::uint8_t> golden_masked =
      read_file(golden_path("golden_masked.cliz"));
  const std::vector<std::uint8_t> golden_periodic =
      read_file(golden_path("golden_periodic.cliz"));
  const std::vector<std::uint8_t> golden_chunked =
      read_file(golden_path("golden_chunked.clks"));
  ASSERT_FALSE(golden_plain.empty());

  ThreadCountGuard guard;
  const int max_threads = std::max(4, guard.saved);
  for (const int threads : {1, 2, max_threads}) {
    set_thread_count(threads);
    EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb),
              golden_plain)
        << "plain stream differs at " << threads << " thread(s)";
    EXPECT_EQ(
        ClizCompressor(masked_config()).compress(mf.data, kEb, &mf.mask),
        golden_masked)
        << "masked stream differs at " << threads << " thread(s)";
    EXPECT_EQ(ClizCompressor(periodic_config()).compress(periodic, kEb),
              golden_periodic)
        << "periodic stream differs at " << threads << " thread(s)";
    EXPECT_EQ(make_chunked_stream(), golden_chunked)
        << "chunked frame differs at " << threads << " thread(s)";
  }
}

/// Big enough to cross both the line-parallel grain (4096 targets per
/// pass) and the lossless block-split threshold (1 MiB of residuals would
/// need a huge field, so this locks the line-parallel path; the block
/// split has its own invariance lock in test_lossless.cpp). Round-trips
/// and compares streams across thread counts without a committed fixture.
TEST(GoldenStreams, LargeFieldThreadCountInvariant) {
  const Shape shape({48, 96, 80});
  NdArray<float> big(shape);
  Rng rng(5005);
  for (std::size_t i = 0; i < big.size(); ++i) {
    const double v = 0.02 * static_cast<double>(i % 96) -
                     0.01 * static_cast<double>((i / 96) % 80) +
                     0.05 * rng.uniform();
    big[i] = static_cast<float>(v);
  }
  PipelineConfig cfg = PipelineConfig::defaults(3);
  cfg.dynamic_fitting = true;

  ThreadCountGuard guard;
  set_thread_count(1);
  const auto serial = ClizCompressor(cfg).compress(big, kEb);
  for (const int threads : {2, std::max(4, guard.saved)}) {
    set_thread_count(threads);
    EXPECT_EQ(ClizCompressor(cfg).compress(big, kEb), serial)
        << "stream differs at " << threads << " thread(s)";
  }

  const auto out = ClizCompressor::decompress(serial);
  EXPECT_LE(error_stats(big.flat(), out.flat()).max_abs_error, kEb);
}

// --- CRC32C locks for encoder paths the corpus does not pin -------------
// The committed streams above are all huffman + lz. These digests pin the
// other encoder paths without multi-MB fixtures: a change to the bit
// writer, the Huffman encode table or the LZ parse that
// alters any output byte fails here. A deliberate format change updates
// the digests together with the corpus.

using framed_fixture::classified_config;
using framed_fixture::wide_field;

/// CRC32C of a compressed stream whose lossless frame carries `mode`.
std::uint32_t stream_crc(const PipelineConfig& config,
                         const ClizOptions& options, const NdArray<float>& data,
                         std::uint8_t mode, const MaskMap* mask = nullptr) {
  const auto stream =
      ClizCompressor(config, options).compress(data, kEb, mask);
  EXPECT_FALSE(stream.empty());
  EXPECT_EQ(stream.empty() ? -1 : stream[0], mode) << "lossless frame mode";
  return crc32c(stream);
}

// Lossless frame modes (docs/FORMAT.md).
constexpr std::uint8_t kStored = 2;
constexpr std::uint8_t kLz = 3;
constexpr std::uint8_t kRle = 5;

TEST(GoldenStreams, HuffmanStoreStreamsLocked) {
  ClizOptions opts;
  opts.lossless = LosslessBackend::kStore;
  EXPECT_EQ(
      stream_crc(PipelineConfig::defaults(2), opts, plain_field(), kStored),
      0xC5FDCD39u);
  EXPECT_EQ(
      stream_crc(PipelineConfig::defaults(3), opts, wide_field(), kStored),
      0x06D8252Cu);
  // All-constant data: the quant stream is one symbol, so the store
  // backend's RLE frame beats the stored one.
  NdArray<float> flat(Shape({32, 32}));
  for (std::size_t i = 0; i < flat.size(); ++i) flat[i] = 1.5f;
  EXPECT_EQ(stream_crc(PipelineConfig::defaults(2), opts, flat, kRle),
            0xC718F434u);
}

TEST(GoldenStreams, ClassifiedMultiHuffmanStreamsLocked) {
  ClizOptions store;
  store.lossless = LosslessBackend::kStore;
  EXPECT_EQ(stream_crc(classified_config(), store, wide_field(), kStored),
            0xA38AD7F3u);
  EXPECT_EQ(stream_crc(classified_config(), {}, wide_field(), kLz),
            0x06752771u);
  EXPECT_EQ(stream_crc(PipelineConfig::defaults(3), {}, wide_field(), kLz),
            0x03CD6146u);
  // The framed row of this lock (0xD4A99503) is the frozen fixture
  // framed_plain.cliz now; RetiredFramedStreamIsUnsupported checks it.
}

/// Deterministic bytes past the block-split threshold: runs, short and
/// long repeats at varied distances, and noise.
std::vector<std::uint8_t> block_split_bytes() {
  const std::size_t n = (std::size_t{1} << 20) + (std::size_t{1} << 18) + 999;
  std::vector<std::uint8_t> b(n);
  Rng rng(7007);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t phase = (i / 4096) % 4;
    if (phase == 0) {
      b[i] = static_cast<std::uint8_t>(rng.next_u64());
    } else if (phase == 1 && i >= 3000) {
      b[i] = b[i - 3000 + (rng.uniform_index(50) == 0 ? 1 : 0)];
    } else if (phase == 2) {
      b[i] = static_cast<std::uint8_t>((i / 37) % 5);
    } else {
      b[i] = static_cast<std::uint8_t>(rng.uniform_index(12));
    }
  }
  return b;
}

TEST(GoldenStreams, LzBlockSplitFrameLocked) {
  const auto input = block_split_bytes();
  const auto frame = lossless_compress(input);
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame[0], 4) << "expected the block-split container";
  EXPECT_EQ(frame.size(), 642597u);
  EXPECT_EQ(crc32c(frame), 0x23C3BEA0u);
  EXPECT_EQ(lossless_decompress(frame), input);
}

// --- v1 compatibility fixtures ------------------------------------------
// Frozen copies of the corpus as the checksum-less v1 code wrote it.
// Unlike the golden_* locks these are decode-only: v2 writers must keep
// *reading* v1 streams, not reproducing them.

TEST(GoldenStreams, V1PlainStreamStillDecodes) {
  const auto stream = read_file(golden_path("v1_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto data = plain_field();
  CodecContext ctx;
  NdArray<float> out(data.shape());
  ClizCompressor::decompress_into(stream, ctx, out);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
}

TEST(GoldenStreams, V1MaskedStreamStillDecodes) {
  const auto stream = read_file(golden_path("v1_masked.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto field = masked_field();
  const auto out = ClizCompressor::decompress(stream);
  ASSERT_EQ(out.shape(), field.data.shape());
  EXPECT_LE(
      error_stats(field.data.flat(), out.flat(), &field.mask).max_abs_error,
      kEb);
}

TEST(GoldenStreams, V1PeriodicStreamStillDecodes) {
  const auto stream = read_file(golden_path("v1_periodic.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto data = periodic_field();
  const auto out = ClizCompressor::decompress(stream);
  ASSERT_EQ(out.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
}

TEST(GoldenStreams, V1ChunkedFrameStillDecodes) {
  const auto stream = read_file(golden_path("v1_chunked.clks"));
  ASSERT_FALSE(stream.empty());
  const auto data = chunked_field();
  ASSERT_TRUE(is_chunked_stream(stream));
  EXPECT_EQ(chunked_sample_bytes(stream), 4u);
  ChunkedScratch scratch;
  NdArray<float> out(data.shape());
  chunked_decompress_into(stream, out, &scratch);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
}

// --- retired tANS fixtures ----------------------------------------------
// Frozen streams of the retired tANS entropy coder (entropy id 1):
// plain_field() as a plain stream, and chunked_field() as a CLK3 frame of
// three 10x12x10 tANS tiles. Decode-only like the v1 fixtures, with the
// opposite contract: every decode entry point refuses them as kUnsupported
// and names tANS, instead of misreading the payload.

/// Runs `decode`, which must throw kUnsupported with a message naming tANS.
template <typename Decode>
void expect_retired_tans(Decode&& decode) {
  try {
    decode();
    ADD_FAILURE() << "retired tANS stream decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported) << e.what();
    EXPECT_NE(std::string(e.what()).find("tANS"), std::string::npos)
        << e.what();
  }
}

TEST(GoldenStreams, RetiredTansStreamIsUnsupported) {
  const auto stream = read_file(golden_path("tans_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  expect_retired_tans([&] { (void)ClizCompressor::decompress(stream); });
  // The context-reusing entry point refuses before touching the output.
  CodecContext ctx;
  NdArray<float> out(plain_field().shape());
  expect_retired_tans(
      [&] { ClizCompressor::decompress_into(stream, ctx, out); });
}

TEST(GoldenStreams, RetiredTansTilesAreUnsupported) {
  const auto frame = read_file(golden_path("tans_tiled.clks"));
  ASSERT_FALSE(frame.empty());
  ASSERT_TRUE(is_chunked_stream(frame));
  // The tile index is entropy-agnostic and still parses; decoding any tile
  // is what refuses.
  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.tiles().size(), 3u);
  EXPECT_EQ(reader.sample_bytes(), 4u);
  const std::size_t origin[] = {8, 2, 3};  // straddles tiles 0 and 1
  const std::size_t extent[] = {4, 5, 6};
  std::vector<float> window(4 * 5 * 6);
  expect_retired_tans([&] {
    (void)reader.decompress_region(origin, extent, std::span<float>(window));
  });
  expect_retired_tans([&] { (void)chunked_decompress(frame); });
}

// The retired per-pass framed entropy container (entropy byte bit 7):
// framed_plain.cliz and framed_tiled.clks are frozen streams written by the
// last build that encoded it. This build refuses them as unsupported.

template <typename Decode>
void expect_retired_framing(Decode&& decode) {
  try {
    decode();
    ADD_FAILURE() << "retired framed stream decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported) << e.what();
    EXPECT_NE(std::string(e.what()).find("framed"), std::string::npos)
        << e.what();
  }
}

TEST(GoldenStreams, RetiredFramedStreamIsUnsupported) {
  const auto stream = read_file(golden_path("framed_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  // The fixture keeps the bytes the framed lock row used to pin.
  EXPECT_EQ(crc32c(stream), framed_fixture::kPlainCrc);
  // Up to the entropy byte it is the serial stream of the same input; the
  // byte itself differs only in bit 7.
  const auto entropy = framed_fixture::locate_entropy_byte();
  ASSERT_LT(entropy.pos, entropy.serial_raw.size());
  EXPECT_EQ(entropy.serial_raw[entropy.pos], 0x01u);  // huffman, classified
  EXPECT_EQ(lossless_decompress(stream).at(entropy.pos), 0x81u);

  expect_retired_framing([&] { (void)ClizCompressor::decompress(stream); });
  // The context-reusing entry point refuses before touching the output.
  CodecContext ctx;
  NdArray<float> out(wide_field().shape());
  out[0] = 42.0f;
  expect_retired_framing(
      [&] { ClizCompressor::decompress_into(stream, ctx, out); });
  EXPECT_EQ(out[0], 42.0f);
}

TEST(GoldenStreams, RetiredFramedTilesAreUnsupported) {
  const auto frame = read_file(golden_path("framed_tiled.clks"));
  ASSERT_FALSE(frame.empty());
  ASSERT_TRUE(is_chunked_stream(frame));
  // The tile index is entropy-agnostic and still parses; decoding any tile
  // is what refuses.
  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.tiles().size(), 3u);
  EXPECT_EQ(reader.sample_bytes(), 4u);
  const std::size_t origin[] = {8, 2, 3};  // straddles tiles 0 and 1
  const std::size_t extent[] = {4, 5, 6};
  std::vector<float> window(4 * 5 * 6);
  expect_retired_framing([&] {
    (void)reader.decompress_region(origin, extent, std::span<float>(window));
  });
  expect_retired_framing([&] { (void)chunked_decompress(frame); });
}

}  // namespace
}  // namespace cliz
