// Host-speed probe: times a fixed kernel that belongs to the benchmark, not
// the library.
//
//   perfbench_probe      reads pass counts from stdin, one a line; for each
//                        prints the median time in seconds of that many
//                        timed passes (after one untimed warm-up pass)
//
// perfbench/run.py keeps one probe process next to the workload process and
// asks it for a measurement each time the workload process has stopped
// itself (SIGSTOP) between operations. Every thread of the workload process
// is frozen then, so nothing the library leaves running (pool threads
// spinning after a parallel region, helper threads) can reach the probe.
// It links nothing from src/.
//
// The kernel mixes the codec's kinds of work: a streaming predict + quantize
// over floats into a histogram, then hash-chain byte matching.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Kernel {
 public:
  Kernel() : x_(1u << 20), hist_(1u << 16), bytes_(1u << 19), head_(1u << 16) {
    std::uint64_t s = 12345;
    const auto next = [&s] {  // SplitMix64
      std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    for (std::size_t i = 0; i < x_.size(); ++i) {
      x_[i] = static_cast<float>(std::sin(1e-3 * static_cast<double>(i)) +
                                 1e-3 * static_cast<double>(next() >> 11) * 0x1.0p-53);
    }
    for (auto& b : bytes_) b = static_cast<std::uint8_t>("climate data "[next() % 13]);
  }

  /// One timed pass over the kernel, in seconds.
  double time_once() {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (std::size_t i = 1; i + 1 < x_.size(); ++i) {
      const float p = 0.5f * (x_[i - 1] + x_[i + 1]);
      const long q = std::lround((x_[i] - p) * 500.0f);
      ++hist_[static_cast<std::uint32_t>(q) & 0xFFFFu];
    }
    std::fill(head_.begin(), head_.end(), 0u);
    for (std::uint32_t i = 0; i + 8 < bytes_.size(); ++i) {
      std::uint32_t v = 0;
      std::memcpy(&v, &bytes_[i], sizeof(v));
      const std::uint32_t h = (v * 2654435761u) >> 16;
      const std::uint32_t cand = head_[h];
      head_[h] = i;
      std::size_t len = 0;
      while (len < 8 && bytes_[cand + len] == bytes_[i + len]) ++len;
      acc += len;
    }
    sink_ = acc + hist_[acc & 0xFFFFu];
    return seconds_since(t0);
  }

 private:
  std::vector<float> x_;
  std::vector<std::uint32_t> hist_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint32_t> head_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace

int main() {
  Kernel kernel;
  std::vector<double> times;
  long passes = 0;
  while (std::scanf("%ld", &passes) == 1 && passes > 0) {
    kernel.time_once();  // warm-up: bring the probe's buffers back into cache
    times.clear();
    for (long i = 0; i < passes; ++i) times.push_back(kernel.time_once());
    const std::size_t mid = times.size() / 2;
    std::nth_element(times.begin(), times.begin() + mid, times.end());
    std::printf("%.9g\n", times[mid]);
    std::fflush(stdout);
  }
  return 0;
}
