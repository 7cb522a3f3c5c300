// ClusterHealth: the Manager-side aggregate of the live introspection
// plane (DESIGN.md §9).
//
// Agents serving a coordinated operation publish periodic HEARTBEAT
// (liveness + innermost phase) and PROGRESS (streaming watermarks:
// bytes done vs. expected, modeled throughput, cost-model ETA) protocol
// messages.  The Manager feeds them in here; the model answers the
// operator questions the post-hoc evidence cannot: which pod is
// dragging the barrier *right now*, how far along is it, and when does
// it expect to finish.
//
// Straggler attribution: each pod's projected finish instant is its
// last report time plus its own ETA (finished pods pin to their actual
// completion time).  The pod whose projection lags the cluster median
// the most is the straggler; per-report lags also feed the
// `health.lag_us` histogram so the spread survives into the evidence
// export.  Lag and heartbeat-staleness thresholds raise deduplicated
// early warnings the Manager turns into trace events — attributed
// warnings ahead of the blind phase-deadline timeouts.
//
// Snapshots serialize to the `zapc.obs.health.v1` JSON schema
// (obs/json.h), which is what the Manager's status endpoint and
// zapc-top render.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/span.h"

namespace zapc::obs {

class Json;

/// Live view of one pod inside a coordinated operation, rebuilt from its
/// latest HEARTBEAT/PROGRESS reports.
struct PodHealth {
  std::string pod;
  std::string phase;      // innermost phase from the last report
  Time last_seen_us = 0;  // when the last report arrived (observer clock)
  u32 beacons = 0;        // reports received
  u64 bytes_done = 0;
  u64 bytes_expected = 0;
  u64 throughput_bps = 0;  // modeled instantaneous throughput
  Time eta_us = 0;         // agent's cost-model remaining-time estimate
  bool done = false;       // terminal (CKPT_DONE/RESTART_DONE) received
  Time done_at_us = 0;

  double pct_done() const {
    if (done) return 100.0;
    if (bytes_expected == 0) return 0.0;
    return 100.0 * static_cast<double>(bytes_done) /
           static_cast<double>(bytes_expected);
  }

  /// Projected completion instant (actual completion for finished pods;
  /// 0 when the pod has not reported yet).
  Time projected_finish_us() const {
    if (done) return done_at_us;
    return beacons == 0 ? 0 : last_seen_us + eta_us;
  }
};

/// One early warning raised by the policy thresholds.
struct HealthWarning {
  OpId op = 0;
  std::string pod;
  std::string phase;
  std::string what;  // "lag" or "stale"
  Time lag_us = 0;   // projection lag over the median ("lag" warnings)
  Time age_us = 0;   // heartbeat age ("stale" warnings)
};

/// Slowest-pod attribution; empty pod name = no data or no laggard.
struct Straggler {
  std::string pod;
  std::string phase;
  Time lag_us = 0;  // projection lag over the cluster median

  bool operator==(const Straggler&) const = default;
};
template <class F>
void json_io(F& f, Straggler& m) {
  f("pod", m.pod);
  f("phase", m.phase);
  f("lag_us", m.lag_us);
}

class ClusterHealth {
 public:
  struct Policy {
    /// Warn when a pod's projected finish lags the median by at least
    /// this much (0 = off).
    Time warn_lag_us = 0;
    /// Warn when a pod has not reported for this long while its peers
    /// still do (0 = off); the Manager sets a multiple of the cadence.
    Time stale_after_us = 0;
  };
  void set_policy(Policy p) { policy_ = p; }

  // ---- Feed (called by the Manager) ----------------------------------------
  void op_begin(OpId op, const std::string& kind, Time t,
                const std::vector<std::string>& pods);
  void heartbeat(OpId op, const std::string& pod, const std::string& phase,
                 Time t);
  void progress(OpId op, const std::string& pod, const std::string& phase,
                Time t, u64 bytes_done, u64 bytes_expected, u64 throughput_bps,
                Time eta_us);
  void pod_done(OpId op, const std::string& pod, Time t);
  void op_end(OpId op, Time t, bool ok);

  /// Warnings raised since the last call, deduplicated per
  /// op/pod/phase/kind so a sustained laggard warns once per phase.
  std::vector<HealthWarning> take_warnings();

  // ---- Queries --------------------------------------------------------------
  /// Median projected finish across the op's reporting pods (0 = none).
  Time median_finish_us(OpId op) const;
  /// How far this pod's projected finish trails the median (0 floor).
  Time lag_us(OpId op, const std::string& pod) const;
  /// Slowest-pod attribution for the op.
  Straggler straggler(OpId op) const;
  const PodHealth* pod(OpId op, const std::string& name) const;
  OpId latest_op() const { return latest_; }
  bool op_active(OpId op) const;

  /// zapc.obs.health.v1 snapshot of one op (0 = latest); `now` stamps
  /// the document and derives per-pod heartbeat ages.
  Json snapshot(Time now, OpId op = 0) const;

  void clear();

 private:
  struct OpHealth {
    std::string kind;  // "ckpt" or "restart"
    Time started_us = 0;
    Time ended_us = 0;
    bool active = false;
    bool ok = false;
    std::map<std::string, PodHealth> pods;
  };

  /// At most this many finished ops are retained for late queries.
  static constexpr std::size_t kMaxOps = 8;

  OpHealth* find_op(OpId op);
  const OpHealth* find_op(OpId op) const;
  void check_thresholds(OpId op, OpHealth& oh, Time t);
  void warn_once(const HealthWarning& w);

  std::map<OpId, OpHealth> ops_;
  OpId latest_ = 0;
  Policy policy_;
  std::vector<HealthWarning> pending_;
  std::set<std::string> warned_;  // "op/pod/phase/kind" dedup keys
};

}  // namespace zapc::obs
