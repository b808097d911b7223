#include "src/core/autotune.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/cliz.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

TEST(Sampling, BlockSampleVolumeNearRate) {
  const Shape shape({60, 90, 120});
  NdArray<float> data(shape);
  for (const double rate : {0.1, 0.01, 0.001}) {
    const auto s = sample_blocks(data, nullptr, rate);
    const double got = static_cast<double>(s.data.size()) /
                       static_cast<double>(data.size());
    EXPECT_GT(got, rate / 8.0) << "rate " << rate;
    EXPECT_LT(got, rate * 8.0) << "rate " << rate;
  }
}

TEST(Sampling, BlockSampleCopiesActualValues) {
  const Shape shape({30, 30});
  NdArray<float> data(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i);
  }
  const auto s = sample_blocks(data, nullptr, 0.25);
  // Every sampled value must exist in the source.
  for (std::size_t i = 0; i < s.data.size(); ++i) {
    const float v = s.data[i];
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, static_cast<float>(data.size()));
    EXPECT_EQ(v, std::floor(v));
  }
}

TEST(Sampling, MaskCroppedConsistentlyWithData) {
  const Shape shape({24, 24});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool valid = (i / 24 + i % 24) % 3 != 0;
    mask.mutable_data()[i] = valid ? 1 : 0;
    data[i] = valid ? static_cast<float>(i) : 9.9e36f;
  }
  const auto s = sample_blocks(data, &mask, 0.25);
  ASSERT_TRUE(s.mask.has_value());
  for (std::size_t i = 0; i < s.data.size(); ++i) {
    if (s.mask->valid(i)) {
      EXPECT_LT(s.data[i], 1e6f);
    } else {
      EXPECT_GT(s.data[i], 1e30f);
    }
  }
}

TEST(Sampling, TimePreservingKeepsFullTimeExtent) {
  const Shape shape({48, 40, 40});
  NdArray<float> data(shape);
  const auto s = sample_time_preserving(data, nullptr, 0.05, 0);
  EXPECT_EQ(s.data.shape().dim(0), 48u);
  EXPECT_LT(s.data.shape().dim(1), 40u);
  const double got = static_cast<double>(s.data.size()) /
                     static_cast<double>(data.size());
  EXPECT_LT(got, 0.4);
}

TEST(Sampling, TimeRowsHaveFullLengthAndSkipMaskedRows) {
  const Shape shape({32, 8, 8});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  // Mask out half the columns entirely.
  for (std::size_t t = 0; t < 32; ++t) {
    for (std::size_t p = 0; p < 32; ++p) {
      mask.mutable_data()[t * 64 + p] = 0;
    }
  }
  const auto rows = sample_time_rows(data, &mask, 0, 8, 99);
  EXPECT_GE(rows.size(), 1u);
  for (const auto& r : rows) EXPECT_EQ(r.size(), 32u);
}

TEST(Sampling, InvalidRateThrows) {
  NdArray<float> data(Shape({8, 8}));
  EXPECT_THROW((void)sample_blocks(data, nullptr, 0.0), Error);
  EXPECT_THROW((void)sample_blocks(data, nullptr, 1.5), Error);
}

TEST(Autotune, SearchSpaceSizeMatchesPaper) {
  // SSH-like: periodic 3-D dataset -> 2 (period) x 2 (classify) x 6 (perm)
  // x 4 (fusion) x 2 (fitting) = 192 pipelines. Non-periodic -> 96.
  auto field = make_ssh(0.12, 500);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result =
      autotune(field.data, 1e-3, field.mask_ptr(), opts);
  ASSERT_TRUE(result.period.has_value());
  EXPECT_EQ(result.period->period, 12u);
  EXPECT_EQ(result.candidates.size(), 192u);
}

TEST(Autotune, NonPeriodicDatasetGetsHalfTheSpace) {
  auto field = make_hurricane_t(0.06, 501);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result = autotune(field.data, 1e-2, nullptr, opts);
  EXPECT_FALSE(result.period.has_value());
  EXPECT_EQ(result.candidates.size(), 96u);
}

TEST(Autotune, CandidatesSortedByEstimatedRatio) {
  auto field = make_ssh(0.12, 502);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_GE(result.candidates[i - 1].estimated_ratio,
              result.candidates[i].estimated_ratio);
  }
  EXPECT_EQ(result.best_estimated_ratio,
            result.candidates.front().estimated_ratio);
}

TEST(Autotune, TogglesShrinkSearchSpace) {
  auto field = make_ssh(0.12, 503);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  opts.consider_periodicity = false;
  opts.consider_classification = false;
  opts.consider_fusion = false;
  opts.consider_permutation = false;
  opts.consider_fitting = false;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  EXPECT_EQ(result.candidates.size(), 1u);
}

TEST(Autotune, BestConfigCompressesFullDataWithinBound) {
  auto field = make_ssh(0.12, 504);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  const ClizCompressor codec(result.best);
  const auto stream = codec.compress(field.data, 1e-3, field.mask_ptr());
  const auto recon = ClizCompressor::decompress(stream);
  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  EXPECT_LE(stats.max_abs_error, 1e-3);
}

TEST(Autotune, PeriodicPipelineChosenForStronglySeasonalData) {
  auto field = make_ssh(0.12, 505);
  AutotuneOptions opts;
  opts.sampling_rate = 0.05;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  EXPECT_EQ(result.best.period, 12u);
}

TEST(Autotune, RefinementRerankesTopCandidates) {
  auto field = make_ssh(0.15, 507);
  AutotuneOptions coarse;
  coarse.sampling_rate = 0.005;
  AutotuneOptions refined = coarse;
  refined.refine_top_k = 8;
  const auto r0 = autotune(field.data, 1e-3, field.mask_ptr(), coarse);
  const auto r1 = autotune(field.data, 1e-3, field.mask_ptr(), refined);

  // The refined pick must be at least as good on the FULL data.
  const auto size_of = [&](const PipelineConfig& c) {
    return ClizCompressor(c)
        .compress(field.data, 1e-3, field.mask_ptr())
        .size();
  };
  EXPECT_LE(size_of(r1.best), size_of(r0.best) * 102 / 100)
      << "refined pipeline clearly worse than the coarse pick";
  EXPECT_EQ(r1.candidates.size(), r0.candidates.size());
  // Refinement re-runs K trials, so it costs more time.
  EXPECT_GT(r1.tuning_seconds, r0.tuning_seconds * 0.8);
}

TEST(Autotune, RefinementDefaultOff) {
  AutotuneOptions opts;
  EXPECT_EQ(opts.refine_top_k, 0u);
}

TEST(Autotune, LowerSamplingRateIsFaster) {
  auto field = make_ssh(0.2, 506);
  AutotuneOptions coarse;
  coarse.sampling_rate = 0.001;
  AutotuneOptions fine;
  fine.sampling_rate = 0.1;
  const auto r_coarse = autotune(field.data, 1e-3, field.mask_ptr(), coarse);
  const auto r_fine = autotune(field.data, 1e-3, field.mask_ptr(), fine);
  EXPECT_LT(r_coarse.tuning_seconds, r_fine.tuning_seconds);
  EXPECT_LT(r_coarse.sample_points, r_fine.sample_points);
}

TEST(Autotune, CesmTBackendPickWithinOnePercentOfBestForcedBackend) {
  // Tuner regret on the backend axis, measured on the full field: the
  // stream the tuned options produce (adopted the way `clizc compress`
  // adopts them) must be within 1% of the smaller of the two forced
  // lossless backends on the tuned pipeline and predictor.
  const ClimateField field = make_dataset("CESM-T");
  const double eb =
      abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());
  AutotuneOptions opts;  // default 1% sampling rate, all axes on
  opts.time_dim = field.time_dim;
  const auto tuned = autotune(field.data, eb, field.mask_ptr(), opts);

  ClizOptions adopted;
  adopted.predictor = tuned.best_predictor;
  adopted.entropy = tuned.best_entropy;
  adopted.lossless = tuned.best_lossless;
  adopted.frame_passes = tuned.best_frame_passes;
  const auto size_with = [&](const ClizOptions& o) {
    return ClizCompressor(tuned.best, o)
        .compress(field.data, eb, field.mask_ptr())
        .size();
  };
  std::size_t best_forced = SIZE_MAX;
  for (const LosslessBackend lossless :
       {LosslessBackend::kLz, LosslessBackend::kStore}) {
    ClizOptions forced;
    forced.predictor = tuned.best_predictor;
    forced.lossless = lossless;
    best_forced = std::min(best_forced, size_with(forced));
  }
  const std::size_t tuned_size = size_with(adopted);
  EXPECT_LE(static_cast<double>(tuned_size),
            1.01 * static_cast<double>(best_forced))
      << "tuned " << tuned_size << " B vs best forced " << best_forced
      << " B (" << tuned.to_json() << ")";
}

TEST(Autotune, TrialsDoNotVerify) {
  // A verifying caller gets the same grid and picks, and no trial decodes
  // its throw-away sample stream to check the bound.
  auto field = make_ssh(0.12, 508);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  opts.refine_top_k = 2;
  AutotuneOptions verifying = opts;
  verifying.codec.verify_encode = true;
  const auto a = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  const auto b = autotune(field.data, 1e-3, field.mask_ptr(), verifying);

  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].config.label(), b.candidates[i].config.label());
    EXPECT_EQ(a.candidates[i].estimated_ratio,
              b.candidates[i].estimated_ratio);
    EXPECT_FALSE(b.candidates[i].stats.verified) << i;
  }
  ASSERT_EQ(a.predictor_candidates.size(), b.predictor_candidates.size());
  for (std::size_t i = 0; i < a.predictor_candidates.size(); ++i) {
    EXPECT_EQ(a.predictor_candidates[i].estimated_ratio,
              b.predictor_candidates[i].estimated_ratio);
    EXPECT_FALSE(b.predictor_candidates[i].stats.verified) << i;
  }
  ASSERT_EQ(a.backend_candidates.size(), b.backend_candidates.size());
  for (std::size_t i = 0; i < a.backend_candidates.size(); ++i) {
    EXPECT_EQ(a.backend_candidates[i].estimated_ratio,
              b.backend_candidates[i].estimated_ratio);
    EXPECT_FALSE(b.backend_candidates[i].stats.verified) << i;
  }
  EXPECT_EQ(a.best.label(), b.best.label());
  EXPECT_EQ(a.best_predictor, b.best_predictor);
  EXPECT_EQ(a.best_lossless, b.best_lossless);
  EXPECT_EQ(a.trials_run, b.trials_run);
}

TEST(Autotune, TrialsRunCountsOneTrialPerDistinctPrediction) {
  // 3-D: the 6 x 4 permutation x fusion pairs induce 11 distinct pass
  // orders (6 unfused, 2 + 2 with one pair fused, 1 fully fused), so each
  // of the 2 (period) x 2 (classify) x 2 (fitting) slices runs 11 trials;
  // the predictor (4) and lossless (2) grids add 6.
  auto ssh = make_ssh(0.12, 500);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto periodic = autotune(ssh.data, 1e-3, ssh.mask_ptr(), opts);
  ASSERT_TRUE(periodic.period.has_value());
  EXPECT_EQ(periodic.candidates.size(), 192u);
  EXPECT_EQ(periodic.trials_run, 88u + 4u + 2u);

  AutotuneOptions refined = opts;
  refined.refine_top_k = 3;
  EXPECT_EQ(autotune(ssh.data, 1e-3, ssh.mask_ptr(), refined).trials_run,
            88u + 3u + 4u + 2u);

  // sample_points counts fill points too; sample_valid_points does not.
  const SampledData s = sample_blocks(ssh.data, ssh.mask_ptr(), 0.02);
  EXPECT_EQ(periodic.sample_points, s.data.size());
  ASSERT_TRUE(s.mask.has_value());
  EXPECT_EQ(periodic.sample_valid_points, s.mask->count_valid());
  EXPECT_LT(periodic.sample_valid_points, periodic.sample_points);
  const std::string json = periodic.to_json();
  EXPECT_NE(json.find("\"trials_run\":94,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sample_valid_points\":" +
                      std::to_string(periodic.sample_valid_points)),
            std::string::npos)
      << json;

  auto hurricane = make_hurricane_t(0.06, 501);
  const auto plain = autotune(hurricane.data, 1e-2, nullptr, opts);
  EXPECT_EQ(plain.candidates.size(), 96u);
  EXPECT_EQ(plain.trials_run, 44u + 4u + 2u);
  EXPECT_EQ(plain.sample_valid_points, plain.sample_points);
}

/// Everything a predictor reads of a config: every field but the
/// permutation, plus the pass order the permutation induces over the fused
/// axes.
std::string prediction_key(const PipelineConfig& c) {
  return "order=" + perm_label(induced_axis_order(c.fusion, c.permutation)) +
         " fusion=" + c.fusion.label() +
         " fit=" + std::to_string(static_cast<int>(c.fitting)) +
         " period=" + std::to_string(c.period) +
         " classify=" + std::to_string(c.classify_bins ? 1 : 0);
}

/// Compresses every candidate of a tune on the sample its trial used. Each
/// member of a class must decode bit for bit to the reconstruction of the
/// class's first member, and its kLossless input must match that member's
/// except in the permutation bytes of the header and, for a periodic
/// config, of the nested template stream (its header and payload CRC; the
/// store backend keeps the two inputs aligned byte for byte). The tuner
/// must have given every member one ratio and run one trial per class.
void expect_classes_predict_identically(const ClimateField& field,
                                        std::size_t expected_classes) {
  const double eb =
      abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());
  AutotuneOptions opts;
  opts.time_dim = field.time_dim;
  const auto tuned = autotune(field.data, eb, field.mask_ptr(), opts);
  ASSERT_TRUE(tuned.period.has_value());
  const SampledData plain =
      sample_blocks(field.data, field.mask_ptr(), opts.sampling_rate);
  const SampledData periodic = sample_time_preserving(
      field.data, field.mask_ptr(), opts.sampling_rate, opts.time_dim);
  // An all-fill sample would reconstruct identically under any config.
  ASSERT_GT(plain.mask->count_valid(), plain.data.size() / 10);
  ASSERT_GT(periodic.mask->count_valid(), periodic.data.size() / 10);

  struct Representative {
    std::string label;
    std::vector<std::uint8_t> recon_bytes;
    std::vector<std::uint8_t> lossless_input;
    double ratio = 0.0;
  };
  std::map<std::string, Representative> classes;
  std::size_t members_checked = 0;
  ClizOptions stored;
  stored.lossless = LosslessBackend::kStore;
  CodecContext ctx;
  for (const PipelineCandidate& cand : tuned.candidates) {
    const SampledData& s = cand.config.period > 0 ? periodic : plain;
    const auto stream = ClizCompressor(cand.config, stored)
                            .compress(s.data, eb, s.mask_ptr(), ctx);
    const auto recon = ClizCompressor::decompress(stream);
    std::vector<std::uint8_t> bytes(recon.size() * sizeof(float));
    std::memcpy(bytes.data(), recon.data(), bytes.size());
    auto lossless_input = lossless_decompress(stream);
    ASSERT_EQ(lossless_input.size(),
              ctx.stats.at(CodecStage::kLossless).input_bytes);

    const auto [it, fresh] = classes.try_emplace(prediction_key(cand.config));
    Representative& rep = it->second;
    if (fresh) {
      rep = {cand.config.label(), std::move(bytes), std::move(lossless_input),
             cand.estimated_ratio};
      continue;
    }
    SCOPED_TRACE(cand.config.label() + " vs " + rep.label);
    EXPECT_TRUE(bytes == rep.recon_bytes);
    ASSERT_EQ(lossless_input.size(), rep.lossless_input.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < lossless_input.size(); ++i) {
      differing += lossless_input[i] != rep.lossless_input[i] ? 1 : 0;
    }
    const std::size_t nd = cand.config.permutation.size();
    EXPECT_LE(differing, cand.config.period > 0 ? 2 * nd + 4 : nd);
    EXPECT_EQ(cand.estimated_ratio, rep.ratio);
    ++members_checked;
  }
  EXPECT_EQ(classes.size(), expected_classes);
  EXPECT_EQ(members_checked, tuned.candidates.size() - expected_classes);
  EXPECT_EQ(tuned.trials_run, expected_classes +
                                  tuned.predictor_candidates.size() +
                                  tuned.backend_candidates.size());
}

TEST(Autotune, PermutationClassesPredictIdentically3D) {
  // Masked, periodic 3-D: 192 candidates in 88 classes.
  expect_classes_predict_identically(make_ssh(0.12, 509), 88);
}

TEST(Autotune, PermutationClassesPredictIdentically4D) {
  // Masked, periodic 4-D: 24 x 8 permutation x fusion pairs induce 49
  // distinct pass orders (24 + 3 x 6 + 3 x 2 + 1), so 1536 candidates
  // fall into 392 classes.
  const ClimateField field = make_soilliq(0.2, 510);
  expect_classes_predict_identically(field, 392);
}

TEST(Autotune, PicksAtDefaultGeneratorSeedsArePinned) {
  // r = 1e-3 picks of the tuner that ran one trial per candidate, at the
  // generators' default seeds and the default 1% rate.
  struct Pin {
    const char* dataset;
    const char* best;
  };
  for (const Pin& pin : {
           Pin{"SSH", "perm=201 fusion=no fit=cubic period=12 classify=no"},
           Pin{"CESM-T",
               "perm=012 fusion=0&1 fit=linear period=0 classify=no"},
           Pin{"Hurricane-T",
               "perm=012 fusion=no fit=cubic period=0 classify=no"},
       }) {
    SCOPED_TRACE(pin.dataset);
    const ClimateField field = make_dataset(pin.dataset);
    const double eb =
        abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());
    AutotuneOptions opts;
    opts.time_dim = field.time_dim;
    const auto tuned = autotune(field.data, eb, field.mask_ptr(), opts);
    EXPECT_EQ(tuned.best.label(), pin.best);
    EXPECT_EQ(tuned.best_predictor, PredictorBackend::kInterp);
    EXPECT_EQ(tuned.best_lossless, LosslessBackend::kLz);
  }
}

}  // namespace
}  // namespace cliz
