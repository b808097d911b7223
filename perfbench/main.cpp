// Workload runner: one process per workload run.
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//                 [--pause-every S]
//
// Prints one JSON object on stdout: attempted/failed counts, the end-to-end
// metrics, the per-layer metrics (traced runs), the mean operation time and
// a human-readable report. perfbench/run.py turns it into the benchmark's
// result line.

#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string metrics_json(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", ms[i].value);
    out += (i > 0 ? ",\"" : "\"") + ms[i].name + "\":{\"value\":" + v +
           ",\"unit\":\"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--pause-every S]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + opt).c_str());
    const std::string val = argv[++i];
    if (opt == "--workload") {
      cfg.workload = val;
    } else if (opt == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (opt == "--seconds") {
      cfg.seconds = std::atof(val.c_str());
    } else if (opt == "--trace") {
      cfg.trace = val == "1";
    } else if (opt == "--pause-every") {
      cfg.pause_every_s = std::atof(val.c_str());
    } else if (opt == "--out") {
      cfg.out_dir = val;
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (cfg.workload.empty()) usage("--workload is required");
  if (cfg.pause_every_s > 0.0) {
    // A runner that stops itself must not outlive the parent that continues
    // it (SIGKILL also ends a stopped process).
    prctl(PR_SET_PDEATHSIG, SIGKILL);
  }
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
  std::string report = "[";
  for (std::size_t i = 0; i < res.report.size(); ++i) {
    report += (i > 0 ? ",\"" : "\"") + escape(res.report[i]) + "\"";
  }
  report += "]";
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"attempted\":%llu,\"failed\":%llu,\"op_mean_s\":%.17g,",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed), res.op_mean_s);
  std::printf("%s\"end_to_end\":%s,\"per_layer\":%s,\"trace_path\":\"%s\","
              "\"report\":%s}\n",
              head, metrics_json(res.end_to_end).c_str(),
              metrics_json(res.per_layer).c_str(),
              escape(res.trace_path).c_str(), report.c_str());
  return 0;
}
