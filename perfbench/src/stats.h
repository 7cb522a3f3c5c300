// Order statistics the benchmark reports: medians and the "tail" — the
// highest percentile that still has at least ten samples beyond it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace zapc::perfbench {

/// Median (mean of the two middle samples for an even count); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// One tail figure with the rank it was read at.
struct Tail {
  double value = 0;
  double pct = 0;     // percentile of `value` in the sorted samples
  std::size_t n = 0;  // sample count it was read from
};

/// Highest-ranked sample that has at least `beyond` samples above it, on
/// the sorted samples (rank k of n sits at percentile 100·k/(n−1)).  With
/// `beyond` or fewer samples no rank qualifies; the highest sample is
/// returned instead, at percentile 100, so the figure still describes the
/// slow side of the distribution.
inline Tail tail(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t k =
      v.size() > beyond ? v.size() - 1 - beyond : v.size() - 1;
  t.value = v[k];
  t.pct = v.size() > 1 ? 100.0 * static_cast<double>(k) /
                             static_cast<double>(v.size() - 1)
                       : 100.0;
  return t;
}

}  // namespace zapc::perfbench
