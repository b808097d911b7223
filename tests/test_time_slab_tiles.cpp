// Time-slab tiles: a simulation that emits one time slice at a time
// compresses its slices as CLK3 tiles whose extent along time is the slab
// length and whose spatial extent is the full field. These tests pin that
// workflow: every slab round-trips within the bound, a window read decodes
// only the slabs it overlaps, a persistent spatial mask keeps its fill
// values, periodic extraction runs per slab exactly when the slab holds at
// least two periods, and misuse or a damaged frame is refused.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/mask.hpp"

namespace cliz {
namespace {

/// `n` synthetic snapshots of `spatial` stacked along dim 0, with an
/// annual (12-step) cycle.
NdArray<float> make_series(const Shape& spatial, std::size_t n,
                           std::uint64_t seed) {
  DimVec dims{n};
  for (const std::size_t d : spatial.dims()) dims.push_back(d);
  const Shape shape(dims);
  NdArray<float> s(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = shape.coords(i);
    const double season =
        std::cos(2.0 * std::numbers::pi * static_cast<double>(c[0]) / 12.0);
    s[i] = static_cast<float>(
        std::sin(0.2 * static_cast<double>(c[1])) +
        0.5 * season * std::cos(0.1 * static_cast<double>(c[2])) +
        0.005 * rng.normal());
  }
  return s;
}

PipelineConfig series_config(std::size_t period) {
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = period;
  config.time_dim = 0;
  return config;
}

std::vector<std::uint8_t> slab_frame(const NdArray<float>& data,
                                     std::size_t per_slab, double eb,
                                     const PipelineConfig& config,
                                     const MaskMap* mask = nullptr) {
  ChunkedOptions opts;
  opts.tile = {per_slab, 0, 0};
  return chunked_compress(data, eb, config, mask, opts);
}

/// Copies time steps [t0, t0 + n) of `data` into their own array.
NdArray<float> time_slab(const NdArray<float>& data, std::size_t t0,
                         std::size_t n) {
  DimVec dims = data.shape().dims();
  dims[0] = n;
  NdArray<float> slab{Shape(dims)};
  const std::size_t plane = data.size() / data.shape().dim(0);
  std::memcpy(slab.data(), data.data() + t0 * plane,
              n * plane * sizeof(float));
  return slab;
}

void expect_within_bound(const NdArray<float>& original,
                         const NdArray<float>& recon, double eb) {
  ASSERT_EQ(recon.shape(), original.shape());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_LE(std::abs(static_cast<double>(recon[i]) -
                       static_cast<double>(original[i])),
              eb)
        << "i=" << i;
  }
}

struct SlabCase {
  std::size_t n_snapshots;
  std::size_t per_slab;
};

class TimeSlabSweep : public ::testing::TestWithParam<SlabCase> {};

TEST_P(TimeSlabSweep, RoundTripWithinBound) {
  const auto& [n, per_slab] = GetParam();
  const Shape spatial({14, 18});
  const double eb = 1e-3;
  const auto data = make_series(spatial, n, 1);
  const auto frame = slab_frame(data, per_slab, eb, series_config(0));

  const ChunkedReader reader(frame);
  const std::size_t n_slabs = (n + per_slab - 1) / per_slab;
  ASSERT_EQ(reader.tiles().size(), n_slabs);
  for (std::size_t k = 0; k < n_slabs; ++k) {
    const TileRecord& t = reader.tiles()[k];
    EXPECT_EQ(t.origin, (DimVec{k * per_slab, 0, 0}));
    EXPECT_EQ(t.extent,
              (DimVec{std::min(per_slab, n - k * per_slab), 14, 18}));
  }

  const auto recon = chunked_decompress(frame);
  expect_within_bound(data, recon, eb);

  // The newest slab alone, read through the index, is the same bits.
  const std::size_t t0 = (n_slabs - 1) * per_slab;
  const DimVec lo{t0, 0, 0};
  const DimVec ext{n - t0, 14, 18};
  std::vector<float> win(ext[0] * spatial.size());
  const RegionStats rs =
      reader.decompress_region(lo, ext, std::span<float>(win));
  EXPECT_EQ(rs.tiles_decoded, 1u);
  EXPECT_EQ(std::memcmp(win.data(), recon.data() + t0 * spatial.size(),
                        win.size() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(Cases, TimeSlabSweep,
                         ::testing::Values(SlabCase{1, 12},
                                           SlabCase{5, 12},
                                           SlabCase{12, 12},
                                           SlabCase{13, 12},
                                           SlabCase{36, 12},
                                           SlabCase{37, 5},
                                           SlabCase{24, 24}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n_snapshots) +
                                  "_slab" +
                                  std::to_string(info.param.per_slab);
                         });

TEST(TimeSlabTiles, WindowReadsDecodeOnlyOverlappingSlabs) {
  const Shape spatial({8, 8});
  const auto data = make_series(spatial, 9, 2);
  const auto frame = slab_frame(data, 4, 1e-2, series_config(0));
  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.tiles().size(), 3u);  // 4 + 4 + 1 steps
  EXPECT_EQ(reader.tiles()[2].extent[0], 1u);

  const auto full = chunked_decompress(frame);
  const auto read = [&](std::size_t t0, std::size_t n) {
    const DimVec lo{t0, 0, 0};
    const DimVec ext{n, 8, 8};
    std::vector<float> win(n * spatial.size());
    const RegionStats rs =
        reader.decompress_region(lo, ext, std::span<float>(win));
    EXPECT_EQ(std::memcmp(win.data(), full.data() + t0 * spatial.size(),
                          win.size() * sizeof(float)),
              0)
        << "t0=" << t0;
    return rs.tiles_decoded;
  };
  EXPECT_EQ(read(4, 4), 1u);  // exactly the middle slab
  EXPECT_EQ(read(8, 1), 1u);  // the trailing one-step slab
  EXPECT_EQ(read(3, 2), 2u);  // straddles a slab boundary
  EXPECT_EQ(read(0, 9), 3u);
}

TEST(TimeSlabTiles, MaskedSlabsKeepFillValues) {
  // A persistent spatial mask shared by every snapshot.
  const Shape spatial({10, 12});
  auto spatial_mask = MaskMap::all_valid(spatial);
  for (std::size_t i = 0; i < spatial_mask.size(); i += 3) {
    spatial_mask.mutable_data()[i] = 0;
  }
  const double eb = 1e-3;
  auto data = make_series(spatial, 14, 3);
  const MaskMap mask = MaskMap::broadcast(spatial_mask, data.shape());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!mask.valid(i)) data[i] = 9.96921e36f;
  }
  const auto frame = slab_frame(data, 6, eb, series_config(0), &mask);
  const auto recon = chunked_decompress(frame);
  ASSERT_EQ(recon.shape(), data.shape());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (mask.valid(i)) {
      ASSERT_LE(std::abs(static_cast<double>(recon[i]) -
                         static_cast<double>(data[i])),
                eb)
          << "i=" << i;
    } else {
      ASSERT_EQ(recon[i], 9.96921e36f) << "i=" << i;
    }
  }
}

TEST(TimeSlabTiles, PeriodicPipelinePerTwoYearSlab) {
  // 48 monthly snapshots in 24-step slabs: each slab holds two periods, so
  // every tile is exactly the periodic pipeline's stream for that slab.
  const Shape spatial({12, 12});
  const double eb = 1e-3;
  const auto data = make_series(spatial, 48, 4);
  const PipelineConfig config = series_config(12);
  const auto frame = slab_frame(data, 24, eb, config);
  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.tiles().size(), 2u);
  const ClizCompressor codec(config);
  const ClizCompressor period_free(series_config(0));
  for (const TileRecord& t : reader.tiles()) {
    const auto slab = time_slab(data, t.origin[0], t.extent[0]);
    const auto expected = codec.compress(slab, eb);
    // The comparison below only tells the pipelines apart if they differ.
    ASSERT_NE(expected, period_free.compress(slab, eb));
    ASSERT_EQ(t.n_bytes, expected.size());
    EXPECT_EQ(std::memcmp(frame.data() + t.offset, expected.data(),
                          expected.size()),
              0)
        << "slab at t=" << t.origin[0];
  }
  expect_within_bound(data, chunked_decompress(frame), eb);
}

TEST(TimeSlabTiles, SlabShorterThanTwoPeriodsDropsPeriodicity) {
  // 36 snapshots in 24-step slabs: the trailing 12-step slab holds one
  // period only and must be written by the period-free pipeline.
  const Shape spatial({12, 12});
  const double eb = 1e-3;
  const auto data = make_series(spatial, 36, 5);
  const auto frame = slab_frame(data, 24, eb, series_config(12));
  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.tiles().size(), 2u);
  const TileRecord& tail = reader.tiles()[1];
  ASSERT_EQ(tail.extent[0], 12u);
  const auto expected = ClizCompressor(series_config(0))
                            .compress(time_slab(data, 24, 12), eb);
  ASSERT_EQ(tail.n_bytes, expected.size());
  EXPECT_EQ(std::memcmp(frame.data() + tail.offset, expected.data(),
                        expected.size()),
            0);
  expect_within_bound(data, chunked_decompress(frame), eb);
}

TEST(TimeSlabTiles, MisuseRejected) {
  const Shape spatial({8, 8});
  const auto data = make_series(spatial, 6, 6);
  const auto code_of = [&](auto&& call) {
    try {
      call();
      return -1;
    } catch (const Error& e) {
      return static_cast<int>(e.code());
    }
  };
  // Non-positive bound.
  EXPECT_EQ(code_of([&] { (void)slab_frame(data, 3, 0.0, series_config(0)); }),
            static_cast<int>(ErrorCode::kBadArgument));
  // Tile arity does not match the data.
  EXPECT_EQ(code_of([&] {
              ChunkedOptions opts;
              opts.tile = {3, 0};
              (void)chunked_compress(data, 1e-3, series_config(0), nullptr,
                                     opts);
            }),
            static_cast<int>(ErrorCode::kBadArgument));
  // A spatial-only mask is not the series' shape.
  const auto spatial_mask = MaskMap::all_valid(spatial);
  EXPECT_THROW(
      (void)slab_frame(data, 3, 1e-3, series_config(0), &spatial_mask),
      Error);
}

TEST(TimeSlabTiles, CorruptFrameThrows) {
  const Shape spatial({8, 8});
  const auto data = make_series(spatial, 8, 7);
  const auto frame = slab_frame(data, 4, 1e-2, series_config(0));
  auto truncated = frame;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)chunked_decompress(truncated), Error);
  EXPECT_THROW((void)ChunkedReader(truncated), Error);
  EXPECT_THROW((void)chunked_decompress({}), Error);
  EXPECT_THROW((void)ChunkedReader(std::span<const std::uint8_t>{}), Error);
}

}  // namespace
}  // namespace cliz
