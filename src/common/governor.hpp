#pragma once

// Decode-side resource governor: budgets for header-declared sizes and a
// cooperative cancellation token. Both ride on ClizOptions / CodecContext
// into every layer that consumes untrusted bytes, so a hostile stream
// whose header declares a 2^50-element array (or a million chunks, or an
// absurd coefficient table) is rejected with ErrorCode::kLimitExceeded
// BEFORE any payload-proportional allocation — a decompression bomb
// becomes a cheap, clean refusal. The defaults are generous enough that
// trusted CLI use never notices them; a server tightens them per request.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/common/status.hpp"

namespace cliz {

/// Hard caps checked against *declared* header values before the decoder
/// allocates on their behalf. All limits are inclusive ("at most").
/// Zero-initialization is never special: a limit of 0 rejects everything,
/// which no caller wants — keep the defaults unless you mean it.
struct ResourceLimits {
  /// Reconstructed payload bytes (element count x sample width).
  std::uint64_t max_output_bytes = std::uint64_t{1} << 35;  // 32 GiB
  /// Product of declared dims. Mirrors Shape::kMaxElements (2^33) so the
  /// governor fires first, with kLimitExceeded, on anything Shape itself
  /// would refuse.
  std::uint64_t max_extents = std::uint64_t{1} << 33;
  /// Chunk count a CLK2 frame may declare.
  std::uint64_t max_chunks = std::uint64_t{1} << 20;
  /// Predictor side-block budget (e.g. regression coefficient bytes
  /// implied by the declared block side over the stream's shape).
  std::uint64_t max_side_block_bytes = std::uint64_t{1} << 31;  // 2 GiB
  /// Records a tolerant archive scan will salvage before giving up.
  std::uint64_t max_salvage_records = 65536;
  /// Variables a CLZA index may declare.
  std::uint64_t max_archive_variables = std::uint64_t{1} << 20;
  /// Compressed bytes one CLZA record may declare.
  std::uint64_t max_record_bytes = std::uint64_t{1} << 40;  // 1 TiB
  /// Byte budget of a decoded-tile cache (TileCache) built from these
  /// limits. Unlike the caps above this bounds a cache the *server* keeps,
  /// not a hostile declaration — but it lives here so one ResourceLimits
  /// describes the whole memory posture of a request-serving process.
  std::uint64_t max_tile_cache_bytes = std::uint64_t{256} << 20;  // 256 MiB
};

/// Cooperative cancellation with an optional deadline. A server thread (or
/// signal handler) calls cancel(); workers inside parallel_for bodies call
/// check() at chunk/line/fetch granularity and unwind with kCancelled /
/// kDeadlineExceeded within one granule. The token is shared by pointer
/// (const CancelToken*) so one token can govern a whole request tree;
/// nullptr everywhere means "never cancelled" at zero cost.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Safe from any thread, idempotent.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Arms (or re-arms) a deadline `budget` from now on the steady clock.
  template <typename Rep, typename Period>
  void set_deadline_after(std::chrono::duration<Rep, Period> budget) noexcept {
    const auto when = std::chrono::steady_clock::now() + budget;
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            when.time_since_epoch())
            .count(),
        std::memory_order_release);
  }

  /// True once cancel() ran or the deadline passed. The deadline branch
  /// reads the clock only when a deadline is armed.
  [[nodiscard]] bool cancel_requested() const noexcept {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const std::int64_t dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl == 0) return false;
    return std::chrono::steady_clock::now().time_since_epoch() >=
           std::chrono::nanoseconds(dl);
  }

  /// Throws kCancelled / kDeadlineExceeded when the token has fired; the
  /// per-granule checkpoint workers call inside parallel bodies.
  void check() const {
    if (cancelled_.load(std::memory_order_acquire)) {
      throw Error(ErrorCode::kCancelled, "cliz: operation cancelled");
    }
    const std::int64_t dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl != 0 && std::chrono::steady_clock::now().time_since_epoch() >=
                       std::chrono::nanoseconds(dl)) {
      throw Error(ErrorCode::kDeadlineExceeded, "cliz: deadline exceeded");
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Steady-clock nanoseconds since epoch; 0 = no deadline armed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

namespace detail {
/// Overflow-safe running product for extent checks: multiplies `acc` by
/// `factor`, returning false when the product would exceed `cap` (or
/// overflow). Callers reject before allocating.
inline bool checked_mul_within(std::uint64_t& acc, std::uint64_t factor,
                               std::uint64_t cap) noexcept {
  if (factor != 0 && acc > cap / factor) return false;
  acc *= factor;
  return acc <= cap;
}
}  // namespace detail

}  // namespace cliz
