#include "src/core/compressor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/cliz.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

NdArray<float> smooth_array(const DimVec& dims, std::uint64_t seed) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.1 * static_cast<double>(c[d]));
    }
    a[i] = static_cast<float>(v + 0.01 * rng.normal());
  }
  return a;
}

TEST(Registry, NamesAreStable) {
  const auto names = compressor_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "cliz");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_compressor("gzip"), Error);
  EXPECT_THROW((void)make_compressor(""), Error);
}

class RegistryRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryRoundTrip, CompressorHonoursBoundThroughInterface) {
  const auto comp = make_compressor(GetParam());
  EXPECT_EQ(comp->name(), GetParam());
  const auto data = smooth_array({20, 22, 24}, 7);
  const double eb = 1e-3;
  const auto stream = comp->compress(data, eb);
  const auto recon = comp->decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);
}

INSTANTIATE_TEST_SUITE_P(All, RegistryRoundTrip,
                         ::testing::Values("cliz", "sz3", "qoz", "zfp",
                                           "sperr", "sz2"));

TEST(Registry, ClizUsesMaskWhenProvided) {
  auto field = make_ssh(0.12, 600);
  auto comp = make_compressor("cliz");
  comp->set_time_dim(field.time_dim);

  const double eb = abs_bound_from_relative(field.data.flat(), 1e-3,
                                            field.mask_ptr());
  const auto blind = comp->compress(field.data, eb);
  comp->set_mask(field.mask_ptr());
  const auto masked = comp->compress(field.data, eb);
  EXPECT_LT(masked.size(), blind.size());

  const auto recon = comp->decompress(masked);
  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  EXPECT_LE(stats.max_abs_error, eb);
}

/// Smooth along `smooth_dim`, rough along the others: the tuner's traversal
/// order follows the smooth axis, so fields that differ in it tune apart.
NdArray<float> directional_field(const DimVec& dims, std::size_t smooth_dim,
                                 std::uint64_t seed) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      const double x = static_cast<double>(c[d]);
      v += d == smooth_dim ? std::sin(0.07 * x)
                           : 0.3 * std::sin(1.9 * x + static_cast<double>(d));
    }
    a[i] = static_cast<float>(v + 0.01 * rng.normal());
  }
  return a;
}

/// The pipeline the "cliz" adapter tunes for `data` (time dim 0).
PipelineConfig own_tune(const NdArray<float>& data, double eb,
                        const MaskMap* mask = nullptr) {
  AutotuneOptions opts;
  opts.time_dim = 0;
  return autotune(data, eb, mask, opts).best;
}

TEST(Registry, ClizReusesTunedPipelineAcrossCalls) {
  // Two same-shape fields whose own tunes differ: after tuning on A, the
  // adapter must compress B with A's pipeline, not B's.
  constexpr double kEb = 1e-3;
  const auto a = directional_field({16, 20, 24}, 1, 6);
  const auto b = directional_field({16, 20, 24}, 2, 7);
  const PipelineConfig tuned_a = own_tune(a, kEb);
  ASSERT_NE(tuned_a.label(), own_tune(b, kEb).label());

  auto comp = make_compressor("cliz");
  comp->set_time_dim(0);
  EXPECT_EQ(comp->compress(a, kEb), ClizCompressor(tuned_a).compress(a, kEb));
  EXPECT_EQ(comp->compress(b, kEb), ClizCompressor(tuned_a).compress(b, kEb));
}

TEST(Registry, ClizRetunesAfterMaskOrShapeChange) {
  constexpr double kEb = 1e-3;
  const auto a = directional_field({16, 20, 24}, 1, 6);
  const PipelineConfig tuned_a = own_tune(a, kEb);

  // set_mask drops the tuned pipeline: the next field is tuned afresh
  // (with the mask) instead of reusing A's.
  const auto b = directional_field({16, 20, 24}, 2, 7);
  auto mask = MaskMap::all_valid(b.shape());
  for (std::size_t i = 0; i < b.size(); i += 11) mask.mutable_data()[i] = 0;
  const PipelineConfig tuned_b = own_tune(b, kEb, &mask);
  ASSERT_NE(tuned_b.label(), tuned_a.label());
  auto comp = make_compressor("cliz");
  comp->set_time_dim(0);
  (void)comp->compress(a, kEb);
  comp->set_mask(&mask);
  EXPECT_EQ(comp->compress(b, kEb),
            ClizCompressor(tuned_b).compress(b, kEb, &mask));

  // A new shape is tuned afresh too.
  const auto c = directional_field({18, 20, 24}, 0, 8);
  const PipelineConfig tuned_c = own_tune(c, kEb);
  ASSERT_NE(tuned_c.label(), tuned_a.label());
  auto fresh = make_compressor("cliz");
  fresh->set_time_dim(0);
  (void)fresh->compress(a, kEb);
  EXPECT_EQ(fresh->compress(c, kEb), ClizCompressor(tuned_c).compress(c, kEb));
}

TEST(Registry, BaselinesIgnoreMask) {
  // set_mask on the SZ-family baselines must be a harmless no-op.
  const auto data = smooth_array({16, 16}, 9);
  const auto mask = MaskMap::from_fill_values(data);
  for (const auto& name : {"sz3", "qoz", "zfp", "sperr"}) {
    auto comp = make_compressor(name);
    comp->set_mask(&mask);
    comp->set_time_dim(0);
    const auto stream = comp->compress(data, 1e-3);
    const auto recon = comp->decompress(stream);
    EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3)
        << name;
  }
}

}  // namespace
}  // namespace cliz
