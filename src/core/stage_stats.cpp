#include "src/core/stage_stats.hpp"

#include <cstdio>

#include "src/common/cpu_features.hpp"
#include "src/lossless/lossless.hpp"
#include "src/predictor/backend.hpp"

namespace cliz {

const char* codec_stage_name(CodecStage stage) {
  switch (stage) {
    case CodecStage::kPeriodic:
      return "periodic";
    case CodecStage::kPredict:
      return "predict";
    case CodecStage::kClassify:
      return "classify";
    case CodecStage::kEncode:
      return "encode";
    case CodecStage::kLossless:
      return "lossless";
  }
  return "?";
}

void StageStats::accumulate(const StageStats& other) {
  for (std::size_t i = 0; i < kNumCodecStages; ++i) {
    stages[i].seconds += other.stages[i].seconds;
    stages[i].input_bytes += other.stages[i].input_bytes;
    stages[i].output_bytes += other.stages[i].output_bytes;
  }
  code_count += other.code_count;
  outlier_count += other.outlier_count;
  total_seconds += other.total_seconds;
  verified = verified || other.verified;
  verify_downgrades += other.verify_downgrades;
  verify_seconds += other.verify_seconds;
  threads_used = threads_used > other.threads_used ? threads_used
                                                   : other.threads_used;
  simd_tier = simd_tier > other.simd_tier ? simd_tier : other.simd_tier;
  // Entropy does not sum; keep the outermost (residual) stream's value.
  if (code_entropy_bits == 0.0) code_entropy_bits = other.code_entropy_bits;
  // Backend ids describe the outermost stream and are not merged.
  chunks_requested += other.chunks_requested;
  chunks_effective += other.chunks_effective;
  tile_cache_hits += other.tile_cache_hits;
  tile_cache_misses += other.tile_cache_misses;
  tile_cache_evictions += other.tile_cache_evictions;
}

std::string StageStats::to_text() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "%-9s %10s %12s %12s %10s\n", "stage",
                "time (ms)", "in (bytes)", "out (bytes)", "MB/s");
  out += buf;
  for (std::size_t i = 0; i < kNumCodecStages; ++i) {
    const Stage& s = stages[i];
    std::snprintf(buf, sizeof(buf), "%-9s %10.3f %12zu %12zu %10.1f\n",
                  codec_stage_name(static_cast<CodecStage>(i)),
                  s.seconds * 1e3, s.input_bytes, s.output_bytes,
                  s.throughput_mbps());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "codes=%zu outliers=%zu entropy=%.3f bits/code total=%.3f ms "
                "threads=%d\n",
                code_count, outlier_count, code_entropy_bits,
                total_seconds * 1e3, threads_used);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "backends: predictor=%s lossless=%s simd=%s\n",
                predictor_backend_name(
                    static_cast<PredictorBackend>(predictor_backend)),
                lossless_backend_name(
                    static_cast<LosslessBackend>(lossless_backend)),
                simd_tier_name(static_cast<SimdTier>(simd_tier)));
  out += buf;
  if (chunks_requested > 0) {
    std::snprintf(buf, sizeof(buf), "chunks: requested=%zu effective=%zu%s\n",
                  chunks_requested, chunks_effective,
                  chunks_effective != chunks_requested ? " (clamped)" : "");
    out += buf;
  }
  if (tile_cache_hits + tile_cache_misses + tile_cache_evictions > 0) {
    std::snprintf(buf, sizeof(buf),
                  "tile cache: hits=%zu misses=%zu evictions=%zu\n",
                  tile_cache_hits, tile_cache_misses, tile_cache_evictions);
    out += buf;
  }
  if (verified) {
    std::snprintf(buf, sizeof(buf),
                  "verified=yes downgrades=%zu verify=%.3f ms\n",
                  verify_downgrades, verify_seconds * 1e3);
    out += buf;
  }
  return out;
}

std::string StageStats::to_json() const {
  char buf[768];
  std::string out = "{\"stages\":{";
  for (std::size_t i = 0; i < kNumCodecStages; ++i) {
    const Stage& s = stages[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"seconds\":%.6f,\"input_bytes\":%zu,"
                  "\"output_bytes\":%zu,\"mbps\":%.3f}",
                  i == 0 ? "" : ",",
                  codec_stage_name(static_cast<CodecStage>(i)), s.seconds,
                  s.input_bytes, s.output_bytes, s.throughput_mbps());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\"code_entropy_bits\":%.6f,\"code_count\":%zu,"
                "\"outlier_count\":%zu,\"total_seconds\":%.6f,"
                "\"verified\":%s,\"verify_downgrades\":%zu,"
                "\"verify_seconds\":%.6f,\"threads_used\":%d,"
                "\"predictor_backend\":\"%s\",\"lossless_backend\":\"%s\","
                "\"chunks_requested\":%zu,"
                "\"chunks_effective\":%zu,\"tile_cache_hits\":%zu,"
                "\"tile_cache_misses\":%zu,\"tile_cache_evictions\":%zu,"
                "\"simd_tier\":\"%s\"}",
                code_entropy_bits, code_count, outlier_count, total_seconds,
                verified ? "true" : "false", verify_downgrades,
                verify_seconds, threads_used,
                predictor_backend_name(
                    static_cast<PredictorBackend>(predictor_backend)),
                lossless_backend_name(
                    static_cast<LosslessBackend>(lossless_backend)),
                chunks_requested, chunks_effective, tile_cache_hits,
                tile_cache_misses, tile_cache_evictions,
                simd_tier_name(static_cast<SimdTier>(simd_tier)));
  out += buf;
  return out;
}

}  // namespace cliz
