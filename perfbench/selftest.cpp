// Self-tests of the benchmark's own machinery: the percentile helper, the
// correctness oracle (bound check, reused-buffer poisoning and window
// compare, including a real tiled-archive region read) and the metric names
// every workload emits.
//
//   perfbench_selftest [--out DIR]     exit 0 when every check passes
//   perfbench_selftest --busy-stops N  stand-in workload for perfbench/run.py's
//                                      probe test: leaves threads spinning and
//                                      stops itself (SIGSTOP) N times

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/pipeline.hpp"
#include "src/io/archive.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void test_percentiles() {
  using perfbench::tail_percentile;
  auto tp = tail_percentile(one_to(1000));
  check(tp.available && tp.pct == 99.0 && tp.value == 990.0 && tp.beyond == 10 &&
            tp.n == 1000,
        "1000 samples report p99 = 990 with 10 beyond and n = 1000");
  tp = tail_percentile(one_to(999));
  check(tp.available && tp.pct == 95.0 && tp.beyond >= perfbench::kMinBeyond,
        "999 samples fall back to p95 (p99 would have only 9 beyond)");
  tp = tail_percentile(one_to(10000));
  check(tp.pct == 99.9 && tp.beyond == 10, "10000 samples report p99.9");
  tp = tail_percentile(one_to(20));
  check(tp.available && tp.pct == 50.0 && tp.beyond == 10,
        "20 samples report only p50");
  tp = tail_percentile(one_to(19));
  check(!tp.available && tp.n == 19, "19 samples report no tail percentile");
  check(perfbench::median({3, 1, 2}) == 2.0 && perfbench::median({4, 1, 3, 2}) == 2.5,
        "median of odd and even samples");
}

void test_bound_oracle() {
  using perfbench::bound_violations;
  const double eb = 1e-3;
  const std::vector<float> orig = {1.0f, -2.0f, 0.5f, 7.0f};
  // Smallest float past the bound above orig[0], and the float just inside.
  float past = static_cast<float>(1.0 + eb);
  while (std::fabs(static_cast<double>(past) - 1.0) <= eb) {
    past = std::nextafter(past, 2.0f);
  }
  const float inside = std::nextafter(past, 0.0f);
  std::vector<float> recon = orig;
  recon[0] = inside;
  check(bound_violations(orig, recon, nullptr, eb) == 0,
        "a point at the last float inside the bound passes");
  recon[0] = past;
  check(bound_violations(orig, recon, nullptr, eb) == 1,
        "a point one ulp past the bound is caught");
  recon = orig;
  recon[2] = std::numeric_limits<float>::quiet_NaN();
  check(bound_violations(orig, recon, nullptr, eb) == 1,
        "a NaN reconstruction never passes");
  recon[2] = std::numeric_limits<float>::infinity();
  check(bound_violations(orig, recon, nullptr, eb) == 1,
        "an Inf reconstruction of a finite value is caught");
  std::vector<float> nan_orig = orig;
  nan_orig[1] = std::numeric_limits<float>::quiet_NaN();
  recon = nan_orig;
  check(bound_violations(nan_orig, recon, nullptr, eb) == 0,
        "a NaN original reconstructed bit-identically passes");
  recon[1] = 0.0f;
  check(bound_violations(nan_orig, recon, nullptr, eb) == 1,
        "a NaN original reconstructed as a number is caught");
  // A mask hides the planted miss.
  cliz::NdArray<float> grid(cliz::Shape({4}), orig);
  grid[3] = 9.96921e36f;  // CESM fill value
  const cliz::MaskMap mask = cliz::MaskMap::from_fill_values(grid);
  recon = orig;
  recon[3] = 100.0f;
  check(bound_violations(orig, recon, &mask, eb) == 0,
        "masked points are not checked");
  check(bound_violations(orig, std::vector<float>(3), nullptr, eb) != 0,
        "a size mismatch is a failure");
}

void test_reused_buffer() {
  // fixed_pipeline decodes every field into the same buffer each sweep, so
  // from the second sweep on the buffer already holds a correct answer.
  const cliz::Shape shape({8, 12, 16});
  cliz::NdArray<float> data(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::cos(0.02 * static_cast<double>(i)));
  }
  const double eb = 1e-3;
  const cliz::ClizCompressor codec(cliz::PipelineConfig::defaults(3));
  cliz::CodecContext ctx;
  std::vector<std::uint8_t> stream;
  codec.compress_into(data, eb, nullptr, ctx, stream);
  cliz::NdArray<float> out(shape);
  cliz::ClizCompressor::decompress_into(stream, ctx, out);
  check(perfbench::bound_violations(data.flat(), out.flat(), nullptr, eb) == 0,
        "a decode into a fresh buffer honours the bound");
  // A faulty decoder that leaves one point unwritten.
  const std::size_t skipped = 101;
  const auto skipping_decode = [&](cliz::NdArray<float>& dst) {
    cliz::NdArray<float> tmp(shape);
    cliz::ClizCompressor::decompress_into(stream, ctx, tmp);
    for (std::size_t i = 0; i < tmp.size(); ++i) {
      if (i != skipped) dst[i] = tmp[i];
    }
  };
  skipping_decode(out);
  check(perfbench::bound_violations(data.flat(), out.flat(), nullptr, eb) == 0,
        "unpoisoned, a skipped point passes on the earlier decode's value");
  perfbench::poison(out.flat());
  skipping_decode(out);
  check(perfbench::bound_violations(data.flat(), out.flat(), nullptr, eb) == 1,
        "a point the decode skips in a poisoned reused buffer is caught");
}

void test_window_oracle(const std::string& out_dir) {
  // A small tiled archive read back through the real region path.
  const cliz::Shape shape({12, 20, 24});
  cliz::NdArray<float> data(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                                 0.001 * static_cast<double>(i % 17));
  }
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/selftest.clza";
  {
    cliz::ArchiveWriter w(path);
    w.set_tile({6, 8, 8});
    w.add_variable("v", data, 1e-3, cliz::PipelineConfig::defaults(3));
    w.finish();
  }
  bool ok_real = false;
  bool flipped_caught = false;
  {
    const cliz::ArchiveReader reader(path);
    const cliz::NdArray<float> full = reader.read("v");
    const cliz::DimVec origin = {3, 5, 7};
    const cliz::DimVec extent = {6, 10, 11};
    cliz::NdArray<float> win = reader.read_region("v", origin, extent);
    ok_real = perfbench::window_matches(full, origin, extent, win.flat());
    reinterpret_cast<unsigned char*>(win.data())[37] ^= 0x01;
    flipped_caught = !perfbench::window_matches(full, origin, extent, win.flat());
    const cliz::DimVec wider = {6, 10, 12};
    check(!perfbench::window_matches(full, origin, wider, win.flat()),
          "a window of the wrong extent does not match");
    check(perfbench::bound_violations(data.flat(), full.flat(), nullptr, 1e-3) == 0,
          "the full decode of the archive honours the bound");
  }
  std::filesystem::remove(path);
  check(ok_real, "a region read matches the crop of the full decode");
  check(flipped_caught, "a flipped byte in a region read is caught");
}

void test_metric_names(const std::string& out_dir) {
  const char* bad[] = {"", "a b", "x/y", "ms\"", "r\xc3\xa9"};
  bool rejects = true;
  for (const char* b : bad) rejects = rejects && !perfbench::valid_metric_name(b);
  check(rejects && perfbench::valid_metric_name("tile_cache.hit_rate-2"),
        "metric-name check accepts [A-Za-z0-9_.-]+ only");
  for (const auto& w : perfbench::workload_names()) {
    perfbench::RunConfig cfg;
    cfg.workload = w;
    cfg.seed = 7;
    cfg.seconds = 0.05;
    cfg.trace = true;
    cfg.out_dir = out_dir;
    const perfbench::RunResult res = perfbench::run_workload(cfg);
    bool names_ok = !res.end_to_end.empty() && !res.per_layer.empty();
    for (const auto* set : {&res.end_to_end, &res.per_layer}) {
      for (const auto& m : *set) {
        names_ok = names_ok && perfbench::valid_metric_name(m.name) &&
                   std::isfinite(m.value);
      }
    }
    check(names_ok, w + ": every emitted metric name matches [A-Za-z0-9_.-]+");
    check(res.failed == 0 && res.attempted > 0, w + ": short traced run has no failures");
    std::filesystem::remove(res.trace_path);
  }
}

/// A workload process whose library left busy threads behind, stopping for
/// the host-speed probe the way the runner does.
int busy_stops(int stops) {
  std::atomic<bool> done{false};
  std::vector<std::thread> busy;
  const unsigned n = 2 * std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    busy.emplace_back([&done] {
      while (!done.load(std::memory_order_relaxed)) {
      }
    });
  }
  for (int i = 0; i < stops; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::raise(SIGSTOP);
  }
  done = true;
  for (auto& t : busy) t.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--busy-stops") == 0) {
    return busy_stops(std::atoi(argv[2]));
  }
  std::string out_dir = ".bench_out";
  if (argc == 3 && std::strcmp(argv[1], "--out") == 0) out_dir = argv[2];
  test_percentiles();
  test_bound_oracle();
  test_reused_buffer();
  test_window_oracle(out_dir);
  test_metric_names(out_dir);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
