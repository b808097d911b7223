#pragma once

#include <optional>
#include <vector>

#include "src/core/cliz.hpp"
#include "src/core/mask.hpp"
#include "src/core/pipeline.hpp"
#include "src/fft/period.hpp"
#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Options steering the offline auto-tuning stage (paper VI-A).
struct AutotuneOptions {
  /// Target ratio between the sample volume and the full dataset volume.
  double sampling_rate = 0.01;
  /// Physical dim treated as time when probing periodicity.
  std::size_t time_dim = 0;
  /// Strategy toggles (the ablation benches flip these).
  bool consider_periodicity = true;
  bool consider_classification = true;
  bool consider_permutation = true;
  bool consider_fusion = true;
  bool consider_fitting = true;
  /// Rows sampled along the time dimension for FFT period detection.
  std::size_t period_probe_rows = 10;
  /// When > 0, re-evaluate the top-K candidates of the first pass on a
  /// sample 10x larger (capped at rate 1.0) and re-rank. Sharpens the
  /// close calls (e.g. the classification toggle) that small samples
  /// misjudge, at the cost of K extra trial compressions.
  std::size_t refine_top_k = 0;
  /// Seed for the deterministic row sampling.
  std::uint64_t seed = 42;
  /// Run the trial compressions with parallel_for over per-thread
  /// CodecContexts. The ranking is identical to the serial loop: trial
  /// results are gathered by index before the (stable) sort, so ties break
  /// the same way regardless of thread count.
  bool parallel_trials = true;
  /// After the pipeline search, trial the lossless backends (lz, store) on
  /// the winning configuration and record the best in best_lossless. Ties
  /// keep the default (lz), so a stream produced with the chosen backend
  /// only deviates from the golden default when it is strictly smaller on
  /// the sample.
  bool consider_backends = true;
  /// Before the lossless grid, trial every predictor backend on the winning
  /// pipeline (with the default lossless backend) and record the
  /// strict-best in best_predictor; the lossless grid then runs with that
  /// predictor. Sampled trials keep the 2-axis grid additive (4 + 2 trials)
  /// rather than multiplicative (8). Ties keep the default (interpolation =
  /// the golden byte-identical stream).
  bool consider_predictors = true;
  /// Codec options forwarded to the trial compressions. The lossless field
  /// seeds the backend grid's baseline (and is the final choice when
  /// consider_backends is false). verify_encode is ignored: trials never
  /// verify their throw-away sample streams.
  ClizOptions codec;
};

/// One tested pipeline with its estimated compression ratio on the sample.
/// Configs that induce the same pass order over the same fused axes (and
/// agree on period, classification and fitting) predict identically, so
/// only the first enumerated one runs a trial; the others copy its ratio
/// and stats.
struct PipelineCandidate {
  PipelineConfig config;
  double estimated_ratio = 0.0;
  /// Per-stage breakdown of the trial compression that produced
  /// estimated_ratio (refined candidates keep the stats of the refinement
  /// run).
  StageStats stats;
};

/// One tested predictor backend on the winning pipeline.
struct PredictorCandidate {
  PredictorBackend predictor = PredictorBackend::kInterp;
  double estimated_ratio = 0.0;
  /// Stats of this predictor's trial compression on the sample.
  StageStats stats;
};

/// One tested lossless backend on the winning pipeline.
struct BackendCandidate {
  LosslessBackend lossless = LosslessBackend::kLz;
  double estimated_ratio = 0.0;
  /// Stats of this backend's trial compression on the sample.
  StageStats stats;
};

/// Output of autotune().
struct AutotuneResult {
  PipelineConfig best;
  double best_estimated_ratio = 0.0;
  /// Every candidate tested, sorted by estimated ratio (best first).
  std::vector<PipelineCandidate> candidates;
  /// Entropy coder: always Huffman, kept for source compatibility.
  EntropyBackend best_entropy = EntropyBackend::kHuffman;
  /// Lossless backend for the winning pipeline (the default when the grid
  /// is disabled or nothing beat lz on the sample).
  LosslessBackend best_lossless = LosslessBackend::kLz;
  /// Predictor backend for the winning pipeline (interp unless a trial on
  /// the sample strictly beat it).
  PredictorBackend best_predictor = PredictorBackend::kInterp;
  /// Every predictor backend tested on `best`, in trial (wire-id) order
  /// (empty when consider_predictors is false).
  std::vector<PredictorCandidate> predictor_candidates;
  /// Every lossless backend tested on `best`, in trial order (empty when
  /// consider_backends is false).
  std::vector<BackendCandidate> backend_candidates;
  /// Always false: the per-pass framed entropy container is retired. The
  /// field stays for source compatibility only.
  bool best_frame_passes = false;
  double tuning_seconds = 0.0;
  /// Trial compressions actually run: one per distinct prediction in the
  /// pipeline grid (candidates that share a pass order share a trial),
  /// plus the refinement, predictor and lossless trials.
  std::size_t trials_run = 0;
  /// Points in the block sample, fill points included.
  std::size_t sample_points = 0;
  /// Valid (unmasked) points in that block sample; 0 means its trials
  /// ranked fill values only.
  std::size_t sample_valid_points = 0;
  /// FFT period estimate over the probed rows (nullopt: not periodic or
  /// periodicity not considered).
  std::optional<PeriodEstimate> period;

  /// Single JSON object with the chosen backends and the per-backend
  /// candidate ratios of both grids (keys stable for the bench tooling):
  /// {"best_predictor":..., "best_lossless":..., "best_estimated_ratio":...,
  ///  "trials_run":..., "sample_points":..., "sample_valid_points":...,
  ///  "predictor_candidates":{name: ratio, ...},
  ///  "backend_candidates":{lossless name: ratio, ...}}
  [[nodiscard]] std::string to_json() const;
};

/// A sampled sub-dataset (block sample) with its cropped mask.
struct SampledData {
  NdArray<float> data;
  std::optional<MaskMap> mask;

  [[nodiscard]] const MaskMap* mask_ptr() const {
    return mask.has_value() ? &*mask : nullptr;
  }
};

/// Paper VI-A block sampling: two blocks per dimension centred at 1/3 and
/// 2/3 of the extent (2^n blocks total), each side about
/// rate^(1/n)/2 of the full side, concatenated into one array.
SampledData sample_blocks(const NdArray<float>& data, const MaskMap* mask,
                          double sampling_rate);

/// Variant for periodicity candidates: the time dimension is kept at full
/// extent (so period extraction on the sample is meaningful — the paper's
/// "constant increase in sampling time") and the spatial sides shrink
/// further to keep the sampled volume at `sampling_rate`.
SampledData sample_time_preserving(const NdArray<float>& data,
                                   const MaskMap* mask, double sampling_rate,
                                   std::size_t time_dim);

/// Gathers up to `rows` full-length time rows at deterministic pseudo-random
/// spatial positions, skipping rows that contain masked points. Used for
/// FFT period detection (paper Fig. 8).
std::vector<std::vector<double>> sample_time_rows(const NdArray<float>& data,
                                                  const MaskMap* mask,
                                                  std::size_t time_dim,
                                                  std::size_t rows,
                                                  std::uint64_t seed);

/// Offline auto-tuning: detect periodicity, build the samples, try every
/// pipeline in the configured search space on the sample, and return the
/// best configuration plus the full ranked candidate list.
AutotuneResult autotune(const NdArray<float>& data, double abs_error_bound,
                        const MaskMap* mask, const AutotuneOptions& opts = {});

}  // namespace cliz
