#pragma once

// The one per-point error used by every bound check in the library: the
// verified encode (ClizOptions::verify_encode), error_stats / quality_report
// and therefore `clizc analyze`.
//
//  - a finite original is judged by |reconstructed - original|; a NaN
//    reconstruction of it counts as an infinite error (plain max/<= would
//    silently ignore the NaN);
//  - a NaN/Inf original travels through the outlier stream bit for bit, so
//    nothing less than a bit-exact copy counts: error 0 when the bits
//    match, +inf otherwise.
//
// A point is within bound `eb` exactly when point_error(...) <= eb.

#include <cmath>
#include <cstring>
#include <limits>

namespace cliz {

template <typename T>
inline double point_error(T original, T reconstructed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!std::isfinite(original)) {
    return std::memcmp(&original, &reconstructed, sizeof(T)) == 0 ? 0.0
                                                                  : kInf;
  }
  const double e = std::abs(static_cast<double>(reconstructed) -
                            static_cast<double>(original));
  return std::isnan(e) ? kInf : e;
}

}  // namespace cliz
