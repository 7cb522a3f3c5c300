// Self-healing supervisor (DESIGN.md §12): the autonomic loop that turns
// "a node died" into "the application is running again" with zero
// operator action.
//
// Four cooperating pieces, all driven from the Manager's node:
//
//   failure detector   — node-level HEARTBEAT beacons (SUPERVISE_CMD puts
//                        each agent in supervised mode) aged against
//                        suspect/dead thresholds, with flap damping and
//                        per-node quarantine after repeated false alarms
//                        so a slow or blacked-out-but-alive node cannot
//                        start a recovery storm.
//   committed catalog  — super/catalog.h: the newest *restorable* image
//                        set, appended only from the Manager's commit
//                        hook (never a half-drained COW op).
//   recovery orchestr. — on confirmed death: abort any in-flight op,
//                        re-map the dead node's pods onto surviving
//                        agents from the catalog, and issue one
//                        coordinated replace-existing restart of the
//                        whole application; bounded attempts with
//                        exponential jittered backoff, one recovery at a
//                        time, near-simultaneous deaths coalesced.
//   checkpoint policy  — periodic supervisor-triggered checkpoints so
//                        the catalog always holds a recent set (lost
//                        work is bounded by the interval).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/manager.h"
#include "super/catalog.h"
#include "util/rng.h"

namespace zapc::super {

/// Per-node liveness as the failure detector sees it.
enum class NodeState : u8 {
  ALIVE = 0,
  SUSPECT = 1,      // heartbeat age crossed the suspect threshold
  DEAD = 2,         // age crossed the dead threshold — recovery territory
  QUARANTINED = 3,  // flapped too often; alarms damped, thresholds dilated
};

const char* node_state_name(NodeState s);

class Supervisor {
 public:
  /// One supervised agent: its control endpoint and the node it lives on
  /// (the injector and the status pane both speak node names).
  struct AgentRef {
    net::SockAddr addr;
    std::string node_name;
  };

  struct Options {
    /// Node-beacon cadence shipped to every agent via SUPERVISE_CMD.
    sim::Time heartbeat_us = 50 * sim::kMillisecond;
    /// Heartbeat-age thresholds; 0 = derive from the cadence (4x / 16x).
    /// The dead threshold is deliberately generous: an injected slow
    /// node dilates its beacon loop up to ~9x, and slow must never read
    /// as dead (it reads as SUSPECT flapping → quarantine instead).
    sim::Time suspect_after_us = 0;
    sim::Time dead_after_us = 0;
    /// Flap damping: SUSPECT→ALIVE transitions (false alarms) tolerated
    /// before the node is quarantined for `quarantine_us`.
    u32 max_false_alarms = 3;
    sim::Time quarantine_us = 5 * sim::kSecond;
    /// While quarantined the dead threshold is dilated by this factor —
    /// alarms are damped, real death is still (slowly) detected.
    u32 quarantine_dead_multiplier = 4;
    /// Periodic checkpoint policy; 0 = no supervisor checkpoints.
    sim::Time ckpt_interval_us = 0;
    /// Fractional jitter applied to every periodic-checkpoint tick.  An
    /// exactly periodic freeze cadence can phase-lock with the guests'
    /// retransmission timers (RTO backoff is a multiple of the base RTO,
    /// so once one freeze eats a window, every exponentially backed-off
    /// retransmit can land on a later freeze) and starve a connection
    /// forever; the jitter breaks the resonance.
    double ckpt_jitter = 0.1;
    /// Recovery orchestrator: bounded attempts, exponential jittered
    /// backoff between them.
    u32 max_recovery_attempts = 4;
    sim::Time recovery_backoff_us = 100 * sim::kMillisecond;
    double recovery_backoff_factor = 2.0;
    double recovery_jitter = 0.2;
    /// Confirmation → first restart attempt: the wait coalesces
    /// near-simultaneous failures into ONE recovery op and gives an
    /// aborted in-flight op time to tear down.
    sim::Time coalesce_us = 20 * sim::kMillisecond;
    /// Templates for the ops the supervisor issues (deadlines, retry,
    /// COW, heartbeats...).  trigger/detect_us/replace_existing are
    /// overwritten by the supervisor.
    core::Manager::CkptOptions ckpt;
    core::Manager::RestartOptions restart;
  };

  /// Supervisor lifecycle state (the §12 state machine).
  enum class State : u8 {
    IDLE = 0,        // watching; periodic checkpoints flowing
    RECOVERING = 1,  // confirmed death; restart attempts in flight
    DEGRADED = 2,    // recovery exhausted/impossible; operator needed
  };

  /// `node` is the node the supervisor (and Manager) run on.  `trace`
  /// optional, same stream the Manager writes.
  Supervisor(os::Node& node, core::Manager& manager,
             std::vector<AgentRef> agents, Options opts,
             core::Trace* trace = nullptr);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Arms the loop: registers the Manager hooks (commit → catalog,
  /// status extra), puts every agent in supervised mode, starts the
  /// detector and — when an interval is configured — the periodic
  /// checkpoint policy.  `targets` is the job's checkpoint target set
  /// (re-mapped automatically after a recovery moves pods).
  void start(std::vector<core::Manager::Target> targets);

  // ---- Introspection ---------------------------------------------------------
  State state() const { return state_; }
  NodeState node_state(const std::string& node_name) const;
  const Catalog& catalog() const { return catalog_; }
  /// The most recent recovery; empty until a death is confirmed.
  const std::optional<obs::LastRecovery>& last_recovery() const {
    return last_recovery_;
  }
  u32 recoveries() const { return recoveries_; }
  u32 attempts_remaining() const;
  /// Current checkpoint target set (reflects post-recovery placement).
  const std::vector<core::Manager::Target>& targets() const {
    return targets_;
  }
  /// The "supervisor" section of the health snapshot.
  obs::SupervisorStatus status() const;

  /// Effective thresholds (defaults resolved against the cadence).
  sim::Time suspect_after_us() const { return suspect_after_; }
  sim::Time dead_after_us() const { return dead_after_; }

 private:
  struct NodeInfo {
    AgentRef ref;
    std::unique_ptr<core::MsgChannel> ch;
    NodeState state = NodeState::ALIVE;
    sim::Time last_seen_us = 0;
    u32 false_alarms = 0;
    sim::Time quarantine_until_us = 0;
    u32 beacons = 0;
  };

  void connect_agent(NodeInfo& ni);
  void on_beacon(NodeInfo& ni);
  void on_channel_closed(NodeInfo& ni);
  void detector_tick();
  void declare_dead(NodeInfo& ni);
  void ckpt_tick();
  void on_commit(const core::Manager::CheckpointReport& report,
                 const std::vector<core::Manager::Target>& targets);
  void gc_superseded_generations();
  void recovery_attempt();
  void recovery_done(const core::Manager::RestartReport& r,
                     std::vector<core::Manager::Target> restart_targets);
  void give_up(const std::string& why);
  sim::Time backoff_delay(u32 attempt);
  void trace(const std::string& what);
  template <typename Fn>
  void after(sim::Time delay, Fn&& fn);

  os::Node& node_;
  core::Manager& manager_;
  core::Trace* trace_;
  Options opts_;
  sim::Time suspect_after_ = 0;
  sim::Time dead_after_ = 0;
  Catalog catalog_;
  std::vector<NodeInfo> nodes_;
  std::vector<core::Manager::Target> targets_;
  /// pod → base checkpoint URI.  The periodic policy appends "@<epoch>"
  /// to it: every committed set lives at its own immutable paths, so a
  /// later op that aborts after a *partial* commit can never mix epochs
  /// under a catalog entry's URIs.
  std::map<std::string, std::string> ckpt_uris_;
  u64 ckpt_epoch_ = 0;  // generation counter for the periodic policy
  State state_ = State::IDLE;
  bool started_ = false;
  sim::Time detect_us_ = 0;  // current recovery's confirmation instant
  u32 attempt_ = 0;          // current recovery attempt (1-based)
  u32 recoveries_ = 0;       // successful recoveries so far
  std::optional<obs::LastRecovery> last_recovery_;
  Rng rng_{0x5093D5ull};
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace zapc::super
