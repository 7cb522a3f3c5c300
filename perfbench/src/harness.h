// Two-clock benchmark harness: drives the named workloads through the
// public core::Manager API and records every op on both clocks — wall
// time (what the C++ really spends) and virtual time (what the cost
// model charges).
//
// Every workload is a closed loop with one operator: the Manager runs
// one op at a time and the next op is issued only after the previous
// report arrived.  The seed picks op instants, destinations and chain
// lengths; the op count follows from --seconds, so the virtual-time
// figures of a (seed, seconds) pair are deterministic.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace zapc::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "bulk-snapshot", "mesh-migrate", "cow-delta-lazy"};
  return names;
}

struct Config {
  std::string workload;
  u64 seed = 1;
  int seconds = 20;
  /// Shrunken job sizes, op counts and set-ups (the harness's own tests).
  bool small = false;
  // ---- Negative controls -----------------------------------------------
  /// Arms one fault::FaultKind::SAN_WRITE_FAIL on the first checkpoint
  /// image write.
  bool inject_san_write_fail = false;
  /// Compares the run's first job result against a deliberately wrong
  /// reference.
  bool corrupt_first_result = false;
};

/// One op as the operator saw it.
struct OpRecord {
  std::string kind;  // "ckpt" | "restart" | "migrate"
  bool ok = false;
  bool warmup = false;  // excluded from the reported statistics
  double wall_ms = 0;   // Manager call → report callback
  double host = 1;      // HostSpeed::factor() when the op ran
  sim::Time downtime_us = 0;  // virtual: invocation → every pod resumed
  sim::Time latency_us = 0;   // virtual: invocation → op closed
  u32 attempts = 1;
};

/// Everything one pass of a workload produced.
struct RunOutput {
  std::vector<OpRecord> ops;
  std::vector<double> setup_s;
  std::vector<double> setup_host;  // HostSpeed::factor() of each set-up
  /// Wall ms (raw and at reference host speed) and virtual time of the
  /// job slices between ops.
  double run_wall_ms = 0;
  double run_wall_scaled_ms = 0;
  sim::Time run_vt = 0;
  /// Every HostSpeed kernel time of the run, ms.
  std::vector<double> host_kernel_ms;
  u64 attempted = 0;  // Manager ops issued + job results checked
  u64 failed = 0;     // failed ops + wrong job results
  u64 results_checked = 0;
  /// Every job result of the run matched its reference, no job was lost,
  /// and at least one result was checked.
  bool job_ok = true;
  double peak_rss_mb = 0;
  /// Virtual times and counts of the run, in op order: the traced and
  /// untraced runs of one (seed, seconds) must agree exactly.
  std::vector<u64> fingerprint;
};

/// The simulated testbed the figure benches use: `n` application nodes
/// plus a manager node, one Agent per application node, one Manager.
using Bed = bench::Testbed;

class Tracer;  // replay.h

/// Runs one pass of `cfg.workload`.  `tracer` null = untraced pass.
RunOutput run_workload(const Config& cfg, Tracer* tracer);

/// Process peak resident set so far, MiB.
double peak_rss_mb();

}  // namespace zapc::perfbench
