#pragma once

// Benchmark harness shared by the workload runner (main.cpp) and its
// self-tests (selftest.cpp): percentile helpers, the correctness oracle,
// the in-memory span recorder, and the three workloads.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/mask.hpp"
#include "src/ndarray/ndarray.hpp"

namespace perfbench {

// ---------------------------------------------------------------- statistics

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

/// The highest percentile of a latency sample that still has at least
/// `kMinBeyond` samples beyond it, so a tail figure never rests on a handful
/// of points. Candidates are 99.9, 99, 95, 90, 75 and 50 (nearest rank:
/// the value at rank ceil(p/100 * n); the samples beyond are n - rank).
struct TailPercentile {
  bool available = false;  ///< false when fewer than 20 samples
  double pct = 0.0;        ///< which percentile was reported
  double value = 0.0;
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples above the reported rank
};
inline constexpr std::size_t kMinBeyond = 10;
TailPercentile tail_percentile(std::vector<double> v);

// -------------------------------------------------------------------- oracle

/// Valid (unmasked) points of `recon` that miss the absolute bound `eb`
/// against `orig`. NaN-aware: a finite original needs a finite
/// reconstruction within eb (the comparison is written so NaN never passes),
/// and a non-finite original needs a bit-identical reconstruction. A shape
/// mismatch counts every point.
std::size_t bound_violations(std::span<const float> orig,
                             std::span<const float> recon,
                             const cliz::MaskMap* mask, double eb);

/// Fills a decode buffer that is about to be reused with quiet NaN, so a
/// point the next decode leaves unwritten fails bound_violations instead of
/// passing on the value an earlier decode left there.
void poison(std::span<float> out);

/// True when `window` equals, bit for bit, the box [origin, origin+extent)
/// of the full row-major array `full`.
bool window_matches(const cliz::NdArray<float>& full,
                    std::span<const std::size_t> origin,
                    std::span<const std::size_t> extent,
                    std::span<const float> window);

// ------------------------------------------------------------------- tracing

/// In-memory span recorder for the benchmark's own calls into the library.
/// Spans carry a name, start, end, parent and a request id shared by every
/// span of one request; they are written out as Chrome trace-event JSON
/// (loadable by Perfetto) when the run ends. Disabled recorders do nothing,
/// not even read the clock. Single-threaded: the benchmark client is one
/// closed-loop thread.
class Tracer {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  std::size_t begin(std::string name, std::uint64_t request);
  void end(std::size_t index);

  /// Records an already-timed child of the innermost open span. Stage spans
  /// are built this way from a call's StageStats: they are laid end to end
  /// from `offset_s` after the parent's start, in pipeline order.
  void add_child(std::string name, double offset_s, double seconds);

  /// Attaches a numeric argument to a span (shown in the trace viewer).
  void arg(std::size_t index, const std::string& key, double value);

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] std::string chrome_json() const;

  struct LayerTime {
    std::string name;
    double self_s = 0.0;   ///< duration minus the time its children cover
    double total_s = 0.0;
    std::size_t spans = 0;
  };
  /// Self and total time per span name, in first-seen order.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

 private:
  struct Record {
    std::string name;
    double t0 = 0.0;  ///< seconds since the recorder was made
    double t1 = 0.0;
    std::size_t parent = kNone;
    std::uint64_t request = 0;
    std::string args;  ///< extra JSON members, comma-prefixed
  };
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op on a disabled recorder.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t request)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(std::move(name), request)
                                : Tracer::kNone) {}
  ~Span() {
    if (index_ != Tracer::kNone) tracer_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const std::string& key, double value) {
    if (index_ != Tracer::kNone) tracer_.arg(index_, key, value);
  }

 private:
  Tracer& tracer_;
  std::size_t index_;
};

// ----------------------------------------------------------------- workloads

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the archive and the trace file (created if missing).
  std::string out_dir = ".bench_out";
  /// Seconds between self-stops (SIGSTOP) at operation boundaries, so the
  /// supervising perfbench/run.py can time its host-speed probe while every
  /// thread of this process is frozen; 0 never stops. Only a parent that
  /// continues the process (SIGCONT) may set it.
  double pause_every_s = 0.0;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics, then (traced runs only) per-layer metrics.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines: percentiles with sample counts, self times.
  std::vector<std::string> report;
  /// Mean wall time of one timed operation, oracle included; a traced and
  /// an untraced run of the same seed differ in it by the tracing overhead.
  double op_mean_s = 0.0;
  /// Path of the written trace file (traced runs only).
  std::string trace_path;
};

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

/// Runs one workload for cfg.seconds after kSetupReps set-ups.
/// Throws std::invalid_argument for an unknown workload.
RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench
