// Host-speed calibration.  On a shared host, neighbours slow this
// process by up to 2x for tens of seconds at a time, and the slowdown
// shows in process CPU time as much as in wall time.  So the harness
// times a fixed kernel of its own right before every timed step, and
// scales each step's wall time by how fast the host ran the kernel
// around it.  The kernel is the benchmark's own code: a change to the
// simulator moves the scaled figures exactly as it moves the raw ones.
#pragma once

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "harness.h"
#include "stats.h"

namespace zapc::perfbench {

class HostSpeed {
 public:
  /// Kernel time on the reference host (the VM the README describes,
  /// quiet): there, scaled and raw figures agree.
  static constexpr double kReferenceMs = 4.8;
  /// Kernel samples the factor is the median of.
  static constexpr std::size_t kWindow = 9;

  /// Times one run of the kernel: map churn (allocation and pointer
  /// chasing, as in the event engine and the TCP stack) and a 16 MiB copy
  /// through the shared cache (as in capture, the codec and the SAN).
  /// Returns its wall ms.
  double sample() {
    if (src_.empty()) {
      src_.assign(16u << 20, 1);
      dst_.assign(16u << 20, 0);
    }
    Clock::time_point a = Clock::now();
    std::map<u64, u64> m;
    u64 x = 88172645463325252ull;
    for (u64 i = 0; i < 20000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      m[x & 0xFFFF] += i;
      if (m.size() > 4096) m.erase(m.begin());
    }
    std::memcpy(dst_.data(), src_.data(), src_.size());
    sink_ = m.size() + dst_[x % dst_.size()];
    const double ms = ms_between(a, Clock::now());
    window_.push_back(ms);
    if (window_.size() > kWindow) window_.pop_front();
    return ms;
  }

  /// Reference kernel time over the median of the last kWindow samples:
  /// a step's wall ms times this is its wall ms at reference host speed.
  double factor() const {
    if (window_.empty()) return 1;
    return kReferenceMs /
           median(std::vector<double>(window_.begin(), window_.end()));
  }

 private:
  std::vector<u8> src_, dst_;
  std::deque<double> window_;
  volatile u64 sink_ = 0;
};

}  // namespace zapc::perfbench
