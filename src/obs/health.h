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
// Snapshots are HealthDoc views, one field list written as the
// `zapc.obs.health.v1` JSON document the Manager's status endpoint serves
// and zapc-top reads back strictly.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/span.h"

namespace zapc::obs {

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

// ---- The zapc.obs.health.v1 document --------------------------------------

/// One pod's row: its PodHealth plus what the snapshot derives from it.
struct PodStatus {
  std::string phase;
  u32 beacons = 0;
  double pct_done = 0;
  u64 bytes_done = 0;
  u64 bytes_expected = 0;
  u64 throughput_bps = 0;
  Time eta_us = 0;
  bool done = false;
  Time last_seen_us = 0;
  Time heartbeat_age_us = 0;  // 0 until the pod first reports
  Time lag_us = 0;
};
template <class F>
void json_io(F& f, PodStatus& m) {
  f("phase", m.phase);
  f("beacons", m.beacons);
  f("pct_done", m.pct_done);
  f("bytes_done", m.bytes_done);
  f("bytes_expected", m.bytes_expected);
  f("throughput_bps", m.throughput_bps);
  f("eta_us", m.eta_us);
  f("done", m.done);
  f("last_seen_us", m.last_seen_us);
  f("heartbeat_age_us", m.heartbeat_age_us);
  f("lag_us", m.lag_us);
}

/// How a finished op ended.
struct OpOutcome {
  Time ended_us = 0;
  bool ok = false;
};
template <class F>
void json_io(F& f, OpOutcome& m) {
  f("ended_us", m.ended_us);
  f("ok", m.ok);
}

/// The op a snapshot describes, when the model knows it.
struct OpStatus {
  std::string kind;  // "ckpt" or "restart"
  bool active = false;
  Time started_us = 0;
  std::optional<OpOutcome> outcome;  // once the op is no longer active
  Time median_finish_us = 0;
  std::map<std::string, PodStatus> pods;
  Straggler straggler;  // omitted while nobody lags
};
template <class F>
void json_io(F& f, OpStatus& m) {
  f("kind", m.kind);
  f("active", m.active);
  f("started_us", m.started_us);
  f.group(m.outcome);
  f.check(m.active != m.outcome.has_value(),
          "ended_us: not present exactly when the op is finished");
  f("median_finish_us", m.median_finish_us);
  f("pods", m.pods);
  f.opt("straggler", m.straggler);
}

/// One supervised node as the failure detector sees it.
struct NodeLiveness {
  std::string node;
  std::string state;  // super::node_state_name
  Time beacon_age_us = 0;
  u32 false_alarms = 0;
  u32 beacons = 0;
};
template <class F>
void json_io(F& f, NodeLiveness& m) {
  f("node", m.node);
  f("state", m.state);
  f("beacon_age_us", m.beacon_age_us);
  f("false_alarms", m.false_alarms);
  f("beacons", m.beacons);
}

/// The supervisor's most recent recovery.
struct LastRecovery {
  bool ok = false;
  std::string dead_nodes;  // comma-joined names that triggered it
  Time detect_us = 0;      // confirmation instant
  Time restored_us = 0;    // success instant (0 on failure)
  Time mttr_us = 0;        // restored − detect
  u32 attempts = 0;
};
template <class F>
void json_io(F& f, LastRecovery& m) {
  f("ok", m.ok);
  f("dead_nodes", m.dead_nodes);
  f("detect_us", m.detect_us);
  f("restored_us", m.restored_us);
  f("mttr_us", m.mttr_us);
  f("attempts", m.attempts);
}

/// The "supervisor" section (super/supervisor.h), present whenever a
/// Supervisor is attached to the Manager.
struct SupervisorStatus {
  std::string state;  // "idle", "recovering" or "degraded"
  u32 recoveries = 0;
  u32 attempts_remaining = 0;
  u64 catalog_entries = 0;
  std::vector<NodeLiveness> nodes;
  std::optional<LastRecovery> last_recovery;
};
template <class F>
void json_io(F& f, SupervisorStatus& m) {
  f("state", m.state);
  f("recoveries", m.recoveries);
  f("attempts_remaining", m.attempts_remaining);
  f("catalog_entries", m.catalog_entries);
  f("nodes", m.nodes);
  f.opt("last_recovery", m.last_recovery);
}

/// A zapc.obs.health.v1 snapshot.  An op the model does not know (or no
/// op yet) leaves only the stamp and the id.
struct HealthDoc {
  Time t_us = 0;
  OpId op_id = 0;
  std::optional<OpStatus> op;
  std::optional<SupervisorStatus> supervisor;
};
template <class F>
void json_io(F& f, HealthDoc& m) {
  f.constant("schema", kHealthSchemaVersion);
  f("t_us", m.t_us);
  f("op_id", m.op_id);
  f.group(m.op);
  f.opt("supervisor", m.supervisor);
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

  /// Snapshot of one op (0 = latest); `now` stamps the document and
  /// derives per-pod heartbeat ages.
  HealthDoc snapshot(Time now, OpId op = 0) const;

  void clear();

 private:
  struct OpHealth {
    std::string kind;  // "ckpt" or "restart"
    Time started_us = 0;
    std::optional<OpOutcome> outcome;  // set when the op ends
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
