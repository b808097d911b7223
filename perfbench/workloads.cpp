#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "src/climate/datasets.hpp"
#include "src/common/parallel.hpp"
#include "src/core/autotune.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/tile_cache.hpp"
#include "src/io/archive.hpp"
#include "src/metrics/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0,
                double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

/// Thread cap for a workload, never above the machine's hardware threads.
void cap_threads(int cap) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  cliz::set_thread_count(std::min(cap, hw > 0 ? hw : 1));
}

/// Stops this whole process (SIGSTOP) between operations, at most once every
/// `every_s`, so the supervising run.py can time its host-speed probe while
/// no thread of this process runs; run.py continues it with SIGCONT.
class Pauser {
 public:
  explicit Pauser(double every_s) : every_s_(every_s) {}
  void maybe() {
    if (every_s_ > 0.0 && seconds_since(last_) >= every_s_) now();
  }
  void now() {
    if (every_s_ <= 0.0) return;
    std::raise(SIGSTOP);
    last_ = Clock::now();
  }

 private:
  double every_s_;
  Clock::time_point last_ = Clock::now();
};

/// SplitMix64: the benchmark's only randomness, so a seed fixes every input.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// Zipf(s) over n items behind a seeded permutation: a few items take most
/// of the draws, which is what makes a tile cache worth having.
class Zipf {
 public:
  Zipf(std::size_t n, double s, Rng& rng) : cdf_(n), perm_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (auto& c : cdf_) c /= acc;
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t i = n; i-- > 1;) std::swap(perm_[i], perm_[rng.below(i + 1)]);
  }
  std::size_t draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
    return perm_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> perm_;
};

// Stage i of StageStats under the repository module that implements it.
constexpr std::array<const char*, cliz::kNumCodecStages> kStageLayer = {
    "periodic", "predictor", "bin_classify", "entropy", "lossless"};

/// Lays a call's StageStats out as child spans of the innermost open span,
/// in the order the stages run (compress top-down, decompress bottom-up).
void add_stage_spans(Tracer& tr, const cliz::StageStats& st, bool decode) {
  if (!tr.enabled()) return;
  double offset = 0.0;
  for (std::size_t k = 0; k < cliz::kNumCodecStages; ++k) {
    const std::size_t i = decode ? cliz::kNumCodecStages - 1 - k : k;
    const double s = st.stages[i].seconds;
    if (s <= 0.0) continue;
    tr.add_child(kStageLayer[i], offset, s);
    offset += s;
  }
}

/// Per-call StageStats sums of one direction.
struct StageSums {
  std::array<double, cliz::kNumCodecStages> seconds{};
  std::array<double, cliz::kNumCodecStages> in_bytes{};
  std::array<double, cliz::kNumCodecStages> out_bytes{};
  double codes = 0.0;
  double outliers = 0.0;
  double entropy_bits = 0.0;  ///< code_entropy_bits weighted by codes
  double wall = 0.0;          ///< benchmark-timed wall of the calls
  std::size_t calls = 0;

  void add(const cliz::StageStats& st, double wall_s) {
    for (std::size_t i = 0; i < cliz::kNumCodecStages; ++i) {
      seconds[i] += st.stages[i].seconds;
      in_bytes[i] += static_cast<double>(st.stages[i].input_bytes);
      out_bytes[i] += static_cast<double>(st.stages[i].output_bytes);
    }
    codes += static_cast<double>(st.code_count);
    outliers += static_cast<double>(st.outlier_count);
    entropy_bits += st.code_entropy_bits * static_cast<double>(st.code_count);
    wall += wall_s;
    ++calls;
  }
  [[nodiscard]] double stage_total() const {
    double s = 0.0;
    for (double v : seconds) s += v;
    return s;
  }
};

/// One field of a codec workload and everything measured on it.
struct FieldRun {
  std::string name;
  cliz::ClimateField field;
  double eb = 0.0;
  std::size_t raw_bytes = 0;
  std::size_t stream_bytes = 0;
  std::vector<double> compress_s;    ///< per call; includes autotune if tuned
  std::vector<double> decompress_s;  ///< per full decode
  StageSums comp;
  StageSums decomp;
  // Timed-loop tuner telemetry (tune_compress only), summed over calls.
  double tune_s = 0.0;
  double trials = 0.0;
  double trial_lossless_s = 0.0;
  double sample_points = 0.0;
  double est_ratio_err = 0.0;
  std::size_t tunes = 0;
};

FieldRun make_field_run(cliz::ClimateField field) {
  FieldRun r;
  r.name = field.name;
  r.eb = cliz::abs_bound_from_relative(field.data.flat(), 1e-3,
                                       field.mask_ptr());
  r.raw_bytes = field.data.size() * sizeof(float);
  r.field = std::move(field);
  return r;
}

/// Options for the compress call the tuner's choice implies, exactly as
/// `clizc compress` adopts them.
cliz::ClizOptions adopt(const cliz::AutotuneResult& t) {
  cliz::ClizOptions o;
  o.predictor = t.best_predictor;
  o.entropy = t.best_entropy;
  o.lossless = t.best_lossless;
  o.frame_passes = t.best_frame_passes;
  return o;
}

cliz::AutotuneResult tune(const cliz::ClimateField& f, double eb) {
  cliz::AutotuneOptions opts;  // default 1% sampling rate, all axes on
  opts.time_dim = f.time_dim;
  return cliz::autotune(f.data, eb, f.mask_ptr(), opts);
}

std::size_t trial_count(const cliz::AutotuneResult& t) {
  return t.candidates.size() + t.predictor_candidates.size() +
         t.backend_candidates.size();
}

double trial_lossless_seconds(const cliz::AutotuneResult& t) {
  const auto k = static_cast<unsigned>(cliz::CodecStage::kLossless);
  double s = 0.0;
  for (const auto& c : t.candidates) s += c.stats.stages[k].seconds;
  for (const auto& c : t.predictor_candidates) s += c.stats.stages[k].seconds;
  for (const auto& c : t.backend_candidates) s += c.stats.stages[k].seconds;
  return s;
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double op_wall = 0.0;  ///< wall of every timed operation, oracle included
};

void tail_line(std::vector<std::string>& report, const std::string& label,
               const std::vector<double>& seconds) {
  const TailPercentile tp = tail_percentile(seconds);
  std::vector<double> ms(seconds);
  for (double& v : ms) v *= 1e3;
  std::string line = label + ": p50 " + fmt("%.3f ms", median(ms));
  if (tp.available && tp.pct > 50.0) {
    line += fmt(", p%g %.3f ms (%.0f beyond)", tp.pct, tp.value * 1e3,
                static_cast<double>(tp.beyond));
  } else {
    line += ", no tail percentile above p50 with 10 samples beyond it";
  }
  line += fmt(", n=%.0f", static_cast<double>(seconds.size()));
  report.push_back(line);
}

// ------------------------------------------------------- codec workloads

/// Shared loop of tune_compress and fixed_pipeline: sweeps over the fields
/// until the time is up (at least one whole sweep), each operation one compress
/// of a field followed by `reads` full decodes, each bound-checked. Each
/// sweep visits the fields in a seeded order.
template <typename CompressFn, typename DecompressFn>
Totals codec_loop(std::vector<FieldRun>& fields, std::uint64_t seed,
                  double seconds, int reads, Tracer& tr, Pauser& pause,
                  std::uint64_t& request,
                  CompressFn&& compress_field,
                  DecompressFn&& decompress_field) {
  Totals tot;
  Rng rng{seed};
  std::vector<std::size_t> order(fields.size());
  std::vector<std::uint8_t> stream;  // reused, so compress_into can recycle it
  const auto start = Clock::now();
  for (std::size_t op = 0;; ++op) {
    if (op >= fields.size() && seconds_since(start) >= seconds) break;
    const std::size_t pos = op % fields.size();
    if (pos == 0) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i-- > 1;) {
        std::swap(order[i], order[rng.below(i + 1)]);
      }
    }
    FieldRun& f = fields[order[pos]];
    pause.maybe();
    ++tot.attempted;
    ++request;
    const auto t_op = Clock::now();
    try {
      Span root(tr, "roundtrip." + f.name, request);
      const auto t0 = Clock::now();
      compress_field(f, stream);
      f.compress_s.push_back(seconds_since(t0));
      std::size_t bad = 0;
      for (int r = 0; r < reads; ++r) {
        const auto t1 = Clock::now();
        const cliz::NdArray<float>& recon = decompress_field(f, stream);
        f.decompress_s.push_back(seconds_since(t1));
        Span s(tr, "oracle", request);
        bad += bound_violations(f.field.data.flat(), recon.flat(),
                                f.field.mask_ptr(), f.eb);
      }
      if (bad != 0) {
        ++tot.failed;
        std::fprintf(stderr, "perfbench: %s: %zu points past the bound\n",
                     f.name.c_str(), bad);
      }
      f.stream_bytes = stream.size();
    } catch (const std::exception& e) {
      ++tot.failed;
      std::fprintf(stderr, "perfbench: %s failed: %s\n", f.name.c_str(),
                   e.what());
    }
    tot.op_wall += seconds_since(t_op);
  }
  return tot;
}

/// Per-sweep value of a per-call quantity: the per-field mean, summed over
/// the workload's fields (so a last sweep cut short does not bias it).
template <typename Fn>
double per_sweep(const std::vector<FieldRun>& fields, Fn&& fn) {
  double s = 0.0;
  for (const auto& f : fields) s += fn(f);
  return s;
}

void codec_end_to_end(const std::vector<FieldRun>& fields, RunResult& res) {
  double raw = 0.0;
  double stream = 0.0;
  double c_med = 0.0;
  double d_med = 0.0;
  double log_d_med = 0.0;
  std::size_t n_med = 0;
  std::vector<double> all_decodes;
  for (const auto& f : fields) {
    if (f.compress_s.empty()) continue;
    raw += static_cast<double>(f.raw_bytes);
    stream += static_cast<double>(f.stream_bytes);
    c_med += median(f.compress_s);
    d_med += median(f.decompress_s);
    log_d_med += std::log(median(f.decompress_s));
    ++n_med;
    all_decodes.insert(all_decodes.end(), f.decompress_s.begin(),
                       f.decompress_s.end());
    res.report.push_back(
        f.name + fmt(": %.0f B -> %.0f B, compress p50 %.3f ms, decompress "
                     "p50 %.3f ms",
                     static_cast<double>(f.raw_bytes),
                     static_cast<double>(f.stream_bytes),
                     median(f.compress_s) * 1e3,
                     median(f.decompress_s) * 1e3) +
        fmt(", n=%.0f", static_cast<double>(f.compress_s.size())));
  }
  tail_line(res.report, "full-field read (decompress) latency, pooled",
            all_decodes);
  const double n_fields = static_cast<double>(n_med);
  // Per-field median decode latency, combined over the fields by geometric
  // mean: the fields differ in size, and a median over them would jump
  // between fields on small changes.
  const double read_p50 = n_med > 0 ? std::exp(log_d_med / n_fields) : 0.0;
  res.end_to_end = {
      {"compress_mbps", "MB/s", c_med > 0 ? raw / c_med / 1e6 : 0.0},
      {"decompress_mbps", "MB/s", d_med > 0 ? raw / d_med / 1e6 : 0.0},
      {"ratio", "x", stream > 0 ? raw / stream : 0.0},
      {"read_p50_ms", "ms", read_p50 * 1e3},
      {"reads_per_s", "1/s", d_med > 0 ? n_fields / d_med : 0.0},
  };
}

void add(std::vector<Metric>& m, const std::string& name,
         const std::string& unit, double v) {
  m.push_back({name, unit, v});
}

/// Per-layer metrics of the codec stages (zero on workloads without codec
/// calls in the timed loop).
void codec_layers(const std::vector<FieldRun>& fields, RunResult& res) {
  auto& m = res.per_layer;
  const auto mean = [](double sum, std::size_t n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  for (std::size_t i = 0; i < cliz::kNumCodecStages; ++i) {
    const std::string layer = kStageLayer[i];
    add(m, layer + ".compress_s", "s", per_sweep(fields, [&](const FieldRun& f) {
          return mean(f.comp.seconds[i], f.comp.calls);
        }));
    add(m, layer + ".decompress_s", "s",
        per_sweep(fields, [&](const FieldRun& f) {
          return mean(f.decomp.seconds[i], f.decomp.calls);
        }));
    add(m, layer + ".compress_in_bytes", "B",
        per_sweep(fields, [&](const FieldRun& f) {
          return mean(f.comp.in_bytes[i], f.comp.calls);
        }));
    add(m, layer + ".compress_out_bytes", "B",
        per_sweep(fields, [&](const FieldRun& f) {
          return mean(f.comp.out_bytes[i], f.comp.calls);
        }));
  }
  const auto k_ll = static_cast<unsigned>(cliz::CodecStage::kLossless);
  const auto k_enc = static_cast<unsigned>(cliz::CodecStage::kEncode);
  const double ll_in = per_sweep(fields, [&](const FieldRun& f) {
    return mean(f.comp.in_bytes[k_ll], f.comp.calls);
  });
  const double ll_out = per_sweep(fields, [&](const FieldRun& f) {
    return mean(f.comp.out_bytes[k_ll], f.comp.calls);
  });
  const double enc_out = per_sweep(fields, [&](const FieldRun& f) {
    return mean(f.comp.out_bytes[k_enc], f.comp.calls);
  });
  const double codes = per_sweep(
      fields, [&](const FieldRun& f) { return mean(f.comp.codes, f.comp.calls); });
  const double outliers = per_sweep(fields, [&](const FieldRun& f) {
    return mean(f.comp.outliers, f.comp.calls);
  });
  const double ent = per_sweep(fields, [&](const FieldRun& f) {
    return mean(f.comp.entropy_bits, f.comp.calls);
  });
  const double bits_per_code = codes > 0 ? enc_out * 8.0 / codes : 0.0;
  const double code_entropy = codes > 0 ? ent / codes : 0.0;
  add(m, "lossless.saved_frac", "frac", ll_in > 0 ? 1.0 - ll_out / ll_in : 0.0);
  add(m, "entropy.bits_per_code", "bit", bits_per_code);
  add(m, "entropy.code_entropy_bits", "bit", code_entropy);
  add(m, "entropy.excess_bits", "bit", bits_per_code - code_entropy);
  add(m, "predictor.outlier_frac", "frac", codes > 0 ? outliers / codes : 0.0);

  const double wall = per_sweep(fields, [&](const FieldRun& f) {
    return mean(f.comp.wall, f.comp.calls) + mean(f.decomp.wall, f.decomp.calls);
  });
  const double staged = per_sweep(fields, [&](const FieldRun& f) {
    return mean(f.comp.stage_total(), f.comp.calls) +
           mean(f.decomp.stage_total(), f.decomp.calls);
  });
  add(m, "codec.unattributed_frac", "frac",
      wall > 0 ? std::max(0.0, 1.0 - staged / wall) : 0.0);

  const auto tuned = [&](double FieldRun::*field) {
    return per_sweep(fields,
                     [&](const FieldRun& f) { return mean(f.*field, f.tunes); });
  };
  add(m, "autotune.self_s", "s", tuned(&FieldRun::tune_s));
  add(m, "autotune.trials", "count", tuned(&FieldRun::trials));
  add(m, "autotune.trial_lossless_s", "s", tuned(&FieldRun::trial_lossless_s));
  add(m, "autotune.sample_points", "count", tuned(&FieldRun::sample_points));
  std::size_t n_tuned = 0;
  for (const auto& f : fields) n_tuned += f.tunes > 0 ? 1 : 0;
  add(m, "autotune.est_ratio_err", "frac",
      n_tuned > 0 ? tuned(&FieldRun::est_ratio_err) /
                        static_cast<double>(n_tuned)
                  : 0.0);
}

void region_layers_zero(RunResult& res) {
  for (const char* n :
       {"io.open_s", "io.read_region_s"}) {
    add(res.per_layer, n, "s", 0.0);
  }
  add(res.per_layer, "chunked_reader.tiles_decoded_per_read", "count", 0.0);
  add(res.per_layer, "chunked_reader.bytes_touched_frac", "frac", 0.0);
  add(res.per_layer, "tile_cache.hit_rate", "frac", 0.0);
  add(res.per_layer, "tile_cache.evictions_per_read", "count", 0.0);
  add(res.per_layer, "tile_cache.resident_mb", "MB", 0.0);
}

// The codec workloads run on fixed fields: the generators at their default
// seeds, i.e. exactly what `clizc gen NAME` writes, standing in for the
// fixed Table III files. Other generator seeds change what the tuner picks
// (SOILLIQ tuning time ranges 0.3-3.2 s over twelve seeds, Hurricane-T
// compress speed 2x), which would swamp any code change; the workload seed
// orders the operations instead. One extra SOILLIQ draw keeps a known tuner
// weakness in view: at generator seed 16842 the tuner's fixed-position
// samples fall in the masked ocean (no valid point in the time-preserving
// sample, 3% in the block sample, against 30% of the field), it estimates
// 1748x and the realized ratio is 20x (29x at the default seed).
std::vector<cliz::ClimateField> table3_fields() {
  std::vector<cliz::ClimateField> out;
  for (const char* name :
       {"SSH", "CESM-T", "RELHUM", "SOILLIQ", "Tsfc", "Hurricane-T"}) {
    out.push_back(cliz::make_dataset(name));
  }
  out.push_back(cliz::make_soilliq(0.5, 16842));
  out.back().name += "#16842";
  return out;
}

// Ocean fields of the SSH model, each at its default generator seed and the
// next one.
std::vector<cliz::ClimateField> ocean_fields() {
  std::vector<cliz::ClimateField> out;
  for (std::uint64_t g = 0; g < 2; ++g) {
    out.push_back(cliz::make_ssh(0.25, 1001 + g));
    out.push_back(cliz::make_salt(0.25, 1007 + g));
    out.push_back(cliz::make_rho(0.25, 1008 + g));
    out.push_back(cliz::make_shf_qsw(0.25, 1009 + g));
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].name += "#" + std::to_string(i / 4);
  }
  return out;
}

template <typename SetupFn>
auto timed_setups(Tracer& tr, Pauser& pause, std::vector<double>& times,
                  SetupFn&& setup) {
  using State = decltype(setup());
  std::optional<State> state;
  for (int r = 0; r < kSetupReps; ++r) {
    state.reset();
    pause.now();
    Span s(tr, "setup", 0);
    const auto t0 = Clock::now();
    state.emplace(setup());
    times.push_back(seconds_since(t0));
  }
  return std::move(*state);
}

RunResult run_tune_compress(const RunConfig& cfg, Tracer& tr, Pauser& pause) {
  cap_threads(4);  // autotune trials run in parallel by default
  RunResult res;
  std::vector<double> setup_times;
  auto fields = timed_setups(tr, pause, setup_times, [&] {
    std::vector<FieldRun> fs;
    for (auto& f : table3_fields()) fs.push_back(make_field_run(std::move(f)));
    return fs;
  });

  std::uint64_t request = 0;
  cliz::NdArray<float> recon;
  // Three reads per compress: a tuned field is written once and read back
  // often, and with one decode per ~0.6 s operation the per-field decode
  // medians rest on too few samples to be steady.
  const Totals tot = codec_loop(
      fields, cfg.seed, cfg.seconds, 3, tr, pause, request,
      [&](FieldRun& f, std::vector<std::uint8_t>& stream) {
        const auto t0 = Clock::now();
        cliz::AutotuneResult tuned;
        {
          Span s(tr, "autotune", request);
          tuned = tune(f.field, f.eb);
          s.arg("trials", static_cast<double>(trial_count(tuned)));
        }
        const double tune_s = seconds_since(t0);
        cliz::CodecContext ctx;
        const auto t1 = Clock::now();
        {
          Span s(tr, "compress", request);
          stream = cliz::ClizCompressor(tuned.best, adopt(tuned))
                       .compress(f.field.data, f.eb, f.field.mask_ptr(), ctx);
          add_stage_spans(tr, ctx.stats, false);
        }
        f.comp.add(ctx.stats, seconds_since(t1));
        f.tune_s += tune_s;
        f.trials += static_cast<double>(trial_count(tuned));
        f.trial_lossless_s += trial_lossless_seconds(tuned);
        f.sample_points += static_cast<double>(tuned.sample_points);
        const double realized = static_cast<double>(f.raw_bytes) /
                                static_cast<double>(stream.size());
        f.est_ratio_err += std::fabs(tuned.best_estimated_ratio / realized - 1.0);
        ++f.tunes;
      },
      [&](FieldRun& f, const std::vector<std::uint8_t>& stream)
          -> const cliz::NdArray<float>& {
        cliz::CodecContext ctx;
        const auto t0 = Clock::now();
        {
          Span s(tr, "decompress", request);
          recon = cliz::ClizCompressor::decompress(stream, ctx);
          add_stage_spans(tr, ctx.stats, true);
        }
        f.decomp.add(ctx.stats, seconds_since(t0));
        return recon;
      });
  res.attempted = tot.attempted;
  res.failed = tot.failed;
  codec_end_to_end(fields, res);
  res.end_to_end.push_back({"setup_s", "s", median(setup_times)});
  if (cfg.trace) {
    codec_layers(fields, res);
    region_layers_zero(res);
  }
  res.op_mean_s = tot.op_wall / static_cast<double>(std::max<std::uint64_t>(1, tot.attempted));
  return res;
}

RunResult run_fixed_pipeline(const RunConfig& cfg, Tracer& tr, Pauser& pause) {
  cap_threads(1);
  RunResult res;
  struct State {
    cliz::PipelineConfig pipeline;
    cliz::ClizOptions options;
    std::vector<FieldRun> fields;
  };
  std::vector<double> setup_times;
  State st = timed_setups(tr, pause, setup_times, [&] {
    State s;
    const cliz::ClimateField ssh = cliz::make_dataset("SSH");
    const double eb = cliz::abs_bound_from_relative(ssh.data.flat(), 1e-3,
                                                    ssh.mask_ptr());
    const cliz::AutotuneResult tuned = tune(ssh, eb);
    s.pipeline = tuned.best;
    s.options = adopt(tuned);
    for (auto& f : ocean_fields()) s.fields.push_back(make_field_run(std::move(f)));
    return s;
  });

  const cliz::ClizCompressor codec(st.pipeline, st.options);
  cliz::CodecContext ctx;  // one context for every call of the loop
  std::vector<cliz::NdArray<float>> recon(st.fields.size());
  std::uint64_t request = 0;
  const Totals tot = codec_loop(
      st.fields, cfg.seed, cfg.seconds, 1, tr, pause, request,
      [&](FieldRun& f, std::vector<std::uint8_t>& stream) {
        const auto t0 = Clock::now();
        {
          Span s(tr, "compress", request);
          codec.compress_into(f.field.data, f.eb, f.field.mask_ptr(), ctx, stream);
          add_stage_spans(tr, ctx.stats, false);
        }
        f.comp.add(ctx.stats, seconds_since(t0));
      },
      [&](FieldRun& f, const std::vector<std::uint8_t>& stream)
          -> const cliz::NdArray<float>& {
        auto& out = recon[static_cast<std::size_t>(&f - st.fields.data())];
        if (out.shape().dims() != f.field.data.shape().dims()) {
          out = cliz::NdArray<float>(f.field.data.shape());
        }
        poison(out.flat());
        const auto t0 = Clock::now();
        {
          Span s(tr, "decompress", request);
          cliz::ClizCompressor::decompress_into(stream, ctx, out);
          add_stage_spans(tr, ctx.stats, true);
        }
        f.decomp.add(ctx.stats, seconds_since(t0));
        return out;
      });
  res.attempted = tot.attempted;
  res.failed = tot.failed;
  codec_end_to_end(st.fields, res);
  res.end_to_end.push_back({"setup_s", "s", median(setup_times)});
  if (cfg.trace) {
    codec_layers(st.fields, res);
    region_layers_zero(res);
  }
  res.op_mean_s = tot.op_wall / static_cast<double>(std::max<std::uint64_t>(1, tot.attempted));
  return res;
}

// ------------------------------------------------------------ region reads

struct Window {
  cliz::DimVec origin = cliz::DimVec(3, 0);
  cliz::DimVec extent = cliz::DimVec(3, 0);
  int kind = 0;  ///< 0 single-tile box, 1 lat/lon map, 2 all-time column
};

constexpr std::array<const char*, 3> kWindowKind = {"box", "map", "column"};

/// Seeded, skewed window sequence over a [time][lat][lon] variable tiled by
/// `tile`: half single-tile boxes, 30% one-timestep maps, 20% all-time
/// columns, each drawn from a Zipf(1.1) over tiles, timesteps or 64 column
/// spots.
///
/// The split, the exponent and the spot count are assumptions, not
/// measurements: no access log of climate archives is at hand. The split
/// makes the cheap one-tile box the most common read, so per-stream fixed
/// costs dominate, and still gives the rarest kind thousands of reads a run
/// for its own p50. The exponent makes a few tiles hot, so a cache that holds a
/// quarter of the variable sees hits, misses and evictions; uniform draws
/// would hit only in proportion to the budget. 64 spots stand for a fixed
/// set of stations that users come back to. Replace them once real access
/// logs are available.
class WindowStream {
 public:
  WindowStream(const cliz::DimVec& dims, const cliz::DimVec& tile,
               std::uint64_t seed)
      : dims_(dims), tile_(tile), rng_{seed},
        grid_{(dims[0] + tile[0] - 1) / tile[0], (dims[1] + tile[1] - 1) / tile[1],
              (dims[2] + tile[2] - 1) / tile[2]},
        tiles_(grid_[0] * grid_[1] * grid_[2], 1.1, rng_),
        times_(dims[0], 1.1, rng_),
        spots_(kSpots, 1.1, rng_) {
    // Each column stays inside one lat/lon tile cell, so every column read
    // costs the same tiles whichever spots the seed makes hot.
    for (auto& spot : spots_at_) {
      for (std::size_t d = 1; d < 3; ++d) {
        const std::size_t lo = rng_.below(grid_[d]) * tile_[d];
        const std::size_t ext = std::min(tile_[d], dims_[d] - lo);
        spot.extent[d] = std::min(kColumn, ext);
        spot.origin[d] = lo + rng_.below(ext - spot.extent[d] + 1);
      }
      spot.extent[0] = dims_[0];
    }
  }

  Window next() {
    Window w;
    const double u = rng_.uniform();
    if (u < 0.5) {
      w.kind = 0;
      std::size_t t = tiles_.draw(rng_);
      for (std::size_t d = 3; d-- > 0;) {
        const std::size_t g = t % grid_[d];
        t /= grid_[d];
        const std::size_t lo = g * tile_[d];
        const std::size_t ext = std::min(tile_[d], dims_[d] - lo);
        const std::size_t e = std::max<std::size_t>(1, ext / 2 + rng_.below(ext / 2 + 1));
        w.extent[d] = std::min(e, ext);
        w.origin[d] = lo + rng_.below(ext - w.extent[d] + 1);
      }
    } else if (u < 0.8) {
      w.kind = 1;
      w.origin = {times_.draw(rng_), 0, 0};
      w.extent = {1, dims_[1], dims_[2]};
    } else {
      w.kind = 2;
      const Window& spot = spots_at_[spots_.draw(rng_)];
      w.origin = spot.origin;
      w.extent = spot.extent;
    }
    return w;
  }

 private:
  static constexpr std::size_t kSpots = 64;
  static constexpr std::size_t kColumn = 16;
  cliz::DimVec dims_;
  cliz::DimVec tile_;
  Rng rng_;
  cliz::DimVec grid_;
  Zipf tiles_;
  Zipf times_;
  Zipf spots_;
  std::array<Window, kSpots> spots_at_{};
};

RunResult run_region_reads(const RunConfig& cfg, Tracer& tr, Pauser& pause) {
  cap_threads(4);
  RunResult res;
  const cliz::DimVec tile = {24, 32, 32};
  // About a quarter of the 31 MB decoded variable: hits, misses and
  // evictions all occur on the skewed window mix.
  const std::uint64_t cache_bytes = std::uint64_t{8} << 20;
  std::filesystem::create_directories(cfg.out_dir);
  const std::string path = cfg.out_dir + "/region-" + std::to_string(cfg.seed) +
                           "-" + std::to_string(::getpid()) + ".clza";

  struct State {
    cliz::ClimateField field;
    double eb = 0.0;
    std::uint64_t archive_bytes = 0;
    std::unique_ptr<cliz::ArchiveReader> reader;
    cliz::NdArray<float> full;
    std::size_t full_violations = 0;
  };
  std::vector<double> setup_times;
  std::vector<double> write_times;
  std::vector<double> open_times;
  State st = timed_setups(tr, pause, setup_times, [&] {
    State s;
    {
      Span sp(tr, "setup.generate", 0);
      s.field = cliz::make_ssh(0.5);
      s.eb = cliz::abs_bound_from_relative(s.field.data.flat(), 1e-3,
                                           s.field.mask_ptr());
    }
    cliz::AutotuneResult tuned;
    {
      Span sp(tr, "setup.autotune", 0);
      tuned = tune(s.field, s.eb);
    }
    // compress_mbps rests on these writes alone, so each set-up writes the
    // archive three times, each write replacing the last.
    for (int k = 0; k < 3; ++k) {
      Span sp(tr, "setup.archive_write", 0);
      const auto t0 = Clock::now();
      cliz::ArchiveWriter w(path);
      w.set_tile(tile);
      w.add_variable("SSH", s.field.data, s.eb, tuned.best, s.field.mask_ptr(),
                     {}, adopt(tuned));
      w.finish();
      write_times.push_back(seconds_since(t0));
    }
    s.archive_bytes = std::filesystem::file_size(path);
    {
      Span sp(tr, "setup.io_open", 0);
      const auto t0 = Clock::now();
      s.reader = std::make_unique<cliz::ArchiveReader>(path);
      open_times.push_back(seconds_since(t0));
    }
    {
      Span sp(tr, "setup.read_full", 0);
      s.full = s.reader->read("SSH");
    }
    {
      Span sp(tr, "setup.oracle", 0);
      s.full_violations = bound_violations(s.field.data.flat(), s.full.flat(),
                                           s.field.mask_ptr(), s.eb);
    }
    return s;
  });

  const cliz::DimVec dims = st.field.data.shape().dims();
  const double raw_bytes = static_cast<double>(st.field.data.size() * sizeof(float));
  WindowStream windows(dims, tile, cfg.seed);
  cliz::TileCache cache(cache_bytes);

  // The full decode made in set-up is the reference for every window; its
  // own bound check is one more checked operation.
  Totals tot;
  tot.attempted = 1;
  tot.failed = st.full_violations != 0 ? 1 : 0;
  if (st.full_violations != 0) {
    std::fprintf(stderr, "perfbench: full decode: %zu points past the bound\n",
                 st.full_violations);
  }

  std::vector<double> lat;
  std::array<std::vector<double>, 3> lat_kind;
  double window_bytes = 0.0;
  double tiles_decoded = 0.0;
  double touched_frac = 0.0;
  std::uint64_t request = 0;
  const auto stats0 = cache.stats();
  const auto start = Clock::now();
  while (lat.empty() || seconds_since(start) < cfg.seconds) {
    const Window w = windows.next();
    pause.maybe();
    ++tot.attempted;
    ++request;
    const auto t_op = Clock::now();
    try {
      Span root(tr, std::string("read.") + kWindowKind[w.kind], request);
      cliz::RegionStats rs;
      cliz::NdArray<float> out;
      const auto t0 = Clock::now();
      {
        Span s(tr, "io.read_region", request);
        out = st.reader->read_region("SSH", w.origin, w.extent, &cache, &rs);
        s.arg("tiles_decoded", static_cast<double>(rs.tiles_decoded));
        s.arg("tiles_from_cache", static_cast<double>(rs.tiles_from_cache));
      }
      const double dt = seconds_since(t0);
      bool ok = false;
      {
        Span s(tr, "oracle", request);
        ok = window_matches(st.full, w.origin, w.extent, out.flat());
      }
      if (!ok) {
        ++tot.failed;
        std::fprintf(stderr, "perfbench: window %zu differs from the full decode\n",
                     static_cast<std::size_t>(request));
      }
      lat.push_back(dt);
      lat_kind[w.kind].push_back(dt);
      window_bytes += static_cast<double>(out.size() * sizeof(float));
      tiles_decoded += static_cast<double>(rs.tiles_decoded);
      touched_frac += rs.frame_compressed_bytes > 0
                          ? static_cast<double>(rs.compressed_bytes_touched) /
                                static_cast<double>(rs.frame_compressed_bytes)
                          : 0.0;
    } catch (const std::exception& e) {
      ++tot.failed;
      std::fprintf(stderr, "perfbench: window read failed: %s\n", e.what());
    }
    tot.op_wall += seconds_since(t_op);
  }
  const auto stats1 = cache.stats();
  st.reader.reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);

  double read_total = 0.0;
  for (double v : lat) read_total += v;
  const double n = static_cast<double>(lat.size());
  res.attempted = tot.attempted;
  res.failed = tot.failed;
  res.end_to_end = {
      {"compress_mbps", "MB/s", raw_bytes / median(write_times) / 1e6},
      {"decompress_mbps", "MB/s", read_total > 0 ? window_bytes / read_total / 1e6 : 0.0},
      {"ratio", "x", raw_bytes / static_cast<double>(st.archive_bytes)},
      {"read_p50_ms", "ms", median(lat) * 1e3},
      {"reads_per_s", "1/s", read_total > 0 ? n / read_total : 0.0},
      {"setup_s", "s", median(setup_times)},
  };
  tail_line(res.report, "window read latency (read_p99_ms)", lat);
  for (std::size_t k = 0; k < 3; ++k) {
    tail_line(res.report, std::string("  ") + kWindowKind[k] + " windows", lat_kind[k]);
  }
  const double hits = static_cast<double>(stats1.hits - stats0.hits);
  const double misses = static_cast<double>(stats1.misses - stats0.misses);
  const double evictions = static_cast<double>(stats1.evictions - stats0.evictions);
  res.report.push_back(fmt("tile cache: %.0f hits, %.0f misses, %.0f evictions, %.0f B resident",
                           hits, misses, evictions, static_cast<double>(stats1.bytes)));
  if (cfg.trace) {
    codec_layers({}, res);
    auto& m = res.per_layer;
    add(m, "io.open_s", "s", median(open_times));
    add(m, "io.read_region_s", "s", n > 0 ? read_total / n : 0.0);
    add(m, "chunked_reader.tiles_decoded_per_read", "count", n > 0 ? tiles_decoded / n : 0.0);
    add(m, "chunked_reader.bytes_touched_frac", "frac", n > 0 ? touched_frac / n : 0.0);
    add(m, "tile_cache.hit_rate", "frac", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    add(m, "tile_cache.evictions_per_read", "count", n > 0 ? evictions / n : 0.0);
    add(m, "tile_cache.resident_mb", "MB", static_cast<double>(stats1.bytes) / 1e6);
  }
  res.op_mean_s = tot.op_wall / static_cast<double>(std::max<std::uint64_t>(1, tot.attempted));
  return res;
}

}  // namespace

// ---------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

namespace {

/// Value of the nearest-rank percentile `pct` of sorted samples, and the
/// number of samples beyond it.
double nearest_rank(const std::vector<double>& sorted, double pct,
                    std::size_t& beyond) {
  const std::size_t n = sorted.size();
  // The epsilon keeps 0.99 * 1000 = 990.0000000000001 at rank 990.
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  beyond = n - rank;
  return sorted[rank - 1];
}

}  // namespace

TailPercentile tail_percentile(std::vector<double> v) {
  TailPercentile tp;
  tp.n = v.size();
  if (v.empty()) return tp;
  std::sort(v.begin(), v.end());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    std::size_t beyond = 0;
    const double value = nearest_rank(v, pct, beyond);
    if (beyond >= kMinBeyond) {
      tp.available = true;
      tp.pct = pct;
      tp.value = value;
      tp.beyond = beyond;
      return tp;
    }
  }
  return tp;
}

// -------------------------------------------------------------------- oracle

std::size_t bound_violations(std::span<const float> orig,
                             std::span<const float> recon,
                             const cliz::MaskMap* mask, double eb) {
  if (orig.size() != recon.size()) return std::max(orig.size(), recon.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (mask != nullptr && !mask->valid(i)) continue;
    const float o = orig[i];
    const float r = recon[i];
    bool ok = false;
    if (std::isfinite(o)) {
      const double err = std::fabs(static_cast<double>(r) - static_cast<double>(o));
      ok = std::isfinite(r) && err <= eb;  // NaN compares false: never ok
    } else {
      ok = std::memcmp(&o, &r, sizeof(float)) == 0;
    }
    bad += ok ? 0 : 1;
  }
  return bad;
}

void poison(std::span<float> out) {
  std::fill(out.begin(), out.end(), std::numeric_limits<float>::quiet_NaN());
}

bool window_matches(const cliz::NdArray<float>& full,
                    std::span<const std::size_t> origin,
                    std::span<const std::size_t> extent,
                    std::span<const float> window) {
  const auto& dims = full.shape().dims();
  const std::size_t nd = dims.size();
  if (origin.size() != nd || extent.size() != nd) return false;
  std::size_t count = 1;
  for (std::size_t d = 0; d < nd; ++d) {
    if (extent[d] == 0 || origin[d] + extent[d] > dims[d]) return false;
    count *= extent[d];
  }
  if (window.size() != count) return false;
  const auto& strides = full.shape().strides();
  const std::size_t run = extent[nd - 1];
  std::vector<std::size_t> idx(nd, 0);  // position inside the window
  for (std::size_t w = 0; w < count; w += run) {
    std::size_t off = 0;
    for (std::size_t d = 0; d < nd; ++d) off += (origin[d] + idx[d]) * strides[d];
    if (std::memcmp(full.data() + off, window.data() + w, run * sizeof(float)) != 0) {
      return false;
    }
    for (std::size_t d = nd - 1; d-- > 0;) {
      if (++idx[d] < extent[d]) break;
      idx[d] = 0;
    }
  }
  return true;
}

// ------------------------------------------------------------------- tracing

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now() const { return seconds_since(origin_); }

std::size_t Tracer::begin(std::string name, std::uint64_t request) {
  if (!enabled_) return kNone;
  Record r;
  r.name = std::move(name);
  r.t0 = now();
  r.parent = open_.empty() ? kNone : open_.back();
  r.request = request;
  spans_.push_back(std::move(r));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  if (!enabled_ || index >= spans_.size()) return;
  spans_[index].t1 = now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add_child(std::string name, double offset_s, double seconds) {
  if (!enabled_ || open_.empty()) return;
  const Record& p = spans_[open_.back()];
  Record r;
  r.name = std::move(name);
  const double limit = now();  // the parent is still open
  r.t0 = std::min(p.t0 + offset_s, limit);
  r.t1 = std::min(r.t0 + seconds, limit);
  r.parent = open_.back();
  r.request = p.request;
  r.args = ",\"source\":\"StageStats\"";
  spans_.push_back(std::move(r));
}

void Tracer::arg(std::size_t index, const std::string& key, double value) {
  if (!enabled_ || index >= spans_.size()) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  spans_[index].args += ",\"" + key + "\":" + buf;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"name\":\"",
                  r.t0 * 1e6, (r.t1 - r.t0) * 1e6);
    out += head;
    out += r.name;
    char args[160];
    std::snprintf(args, sizeof(args),
                  "\",\"args\":{\"span\":%zu,\"parent\":%lld,\"request\":%llu",
                  i, r.parent == kNone ? -1LL : static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.request));
    out += args;
    out += r.args;
    out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
  }
  out += "]}\n";
  return out;
}

std::vector<Tracer::LayerTime> Tracer::layer_times() const {
  // Children of each span, to subtract the time they cover.
  std::vector<std::vector<std::size_t>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNone) kids[spans_[i].parent].push_back(i);
  }
  std::vector<LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::vector<std::pair<double, double>> iv;
    for (std::size_t k : kids[i]) {
      iv.emplace_back(std::max(r.t0, spans_[k].t0), std::min(r.t1, spans_[k].t1));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = r.t0;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    const double total = r.t1 - r.t0;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const LayerTime& l) { return l.name == r.name; });
    if (it == out.end()) {
      out.push_back({r.name, 0.0, 0.0, 0});
      it = out.end() - 1;
    }
    it->self_s += std::max(0.0, total - covered);
    it->total_s += total;
    ++it->spans;
  }
  return out;
}

// ----------------------------------------------------------------- workloads

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tune_compress",
                                                 "fixed_pipeline", "region_reads"};
  return names;
}

RunResult run_workload(const RunConfig& cfg) {
  Tracer tr(cfg.trace);
  Pauser pause(cfg.pause_every_s);
  RunResult res;
  if (cfg.workload == "tune_compress") {
    res = run_tune_compress(cfg, tr, pause);
  } else if (cfg.workload == "fixed_pipeline") {
    res = run_fixed_pipeline(cfg, tr, pause);
  } else if (cfg.workload == "region_reads") {
    res = run_region_reads(cfg, tr, pause);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  pause.now();  // one probe after the last operation
  res.end_to_end.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  res.report.push_back(fmt("error_rate %.6f (%.0f failed of %.0f attempted)",
                           res.attempted > 0 ? static_cast<double>(res.failed) /
                                                   static_cast<double>(res.attempted)
                                             : 0.0,
                           static_cast<double>(res.failed),
                           static_cast<double>(res.attempted)));
  if (cfg.trace) {
    for (const auto& l : tr.layer_times()) {
      res.report.push_back(fmt("self %.6f s  total %.6f s  spans %.0f  ", l.self_s,
                               l.total_s, static_cast<double>(l.spans)) +
                           l.name);
    }
    std::filesystem::create_directories(cfg.out_dir);
    res.trace_path = cfg.out_dir + "/trace-" + cfg.workload + "-" +
                     std::to_string(cfg.seed) + ".json";
    std::FILE* f = std::fopen(res.trace_path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot write " + res.trace_path);
    const std::string json = tr.chrome_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !ok) {
      throw std::runtime_error("cannot write " + res.trace_path);
    }
  }
  return res;
}

}  // namespace perfbench
