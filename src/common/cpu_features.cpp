#include "src/common/cpu_features.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace cliz {

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kSse42:
      return "sse42";
  }
  return "?";
}

bool parse_simd_tier(const char* name, SimdTier& out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    out = SimdTier::kScalar;
    return true;
  }
  if (std::strcmp(name, "sse42") == 0) {
    out = SimdTier::kSse42;
    return true;
  }
  return false;
}

namespace {

SimdTier probe_cpu() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse4.2")) return SimdTier::kSse42;
#endif
  return SimdTier::kScalar;
}

/// Initial active tier: hardware detection, lowered by CLIZ_SIMD when set.
/// An unknown spelling or a request above the detected tier is ignored —
/// the override is a test/debug knob and must never select illegal
/// instructions or fail a production run.
SimdTier initial_tier() {
  const SimdTier detected = probe_cpu();
  SimdTier req = detected;
  if (!parse_simd_tier(std::getenv("CLIZ_SIMD"), req)) return detected;
  return req < detected ? req : detected;
}

std::atomic<SimdTier>& active_store() {
  static std::atomic<SimdTier> tier{initial_tier()};
  return tier;
}

}  // namespace

SimdTier detected_simd_tier() {
  static const SimdTier tier = probe_cpu();
  return tier;
}

SimdTier active_simd_tier() {
  return active_store().load(std::memory_order_relaxed);
}

void set_active_simd_tier(SimdTier tier) {
  const SimdTier cap = detected_simd_tier();
  active_store().store(tier < cap ? tier : cap, std::memory_order_relaxed);
}

}  // namespace cliz
