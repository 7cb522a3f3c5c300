// Manager: the front-end client orchestrating coordinated checkpoint and
// restart (paper §4).
//
// "A checkpoint is initiated by invoking the Manager with a list of
// tuples of the form «node, pod, URI»."  The Manager broadcasts the
// checkpoint command, collects the per-pod meta-data, issues the single
// 'continue' barrier, and gathers completion reports.  For restart it
// derives the schedule (roles + overlap discards) from the meta-data and
// distributes the modified tables with the restart command.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/channel.h"
#include "core/protocol.h"
#include "core/schedule.h"
#include "core/trace.h"
#include "obs/health.h"
#include "obs/ledger.h"
#include "os/node.h"
#include "util/rng.h"

namespace zapc::core {

class Manager {
 public:
  /// Watchdog deadlines for the phases of a coordinated operation.  Each
  /// is a duration from the phase's start; 0 disables that deadline (wait
  /// forever), which is the default and preserves the old blocking
  /// behaviour.  On expiry the Manager aborts the op, naming the stalled
  /// peers and phase in the failure reason and postmortem.
  struct Deadlines {
    sim::Time connect_us = 0;  // command sent → every channel established
    sim::Time meta_us = 0;     // invocation → all META_REPORTs received
    sim::Time done_us = 0;     // sync point → all CKPT_DONEs received
    sim::Time restart_us = 0;  // invocation → all RESTART_DONEs received
    /// Shipped to agents: abort if CONTINUE hasn't arrived this long
    /// after the local standalone checkpoint finished (a stalled Manager
    /// or peer must not leave a pod suspended forever).
    sim::Time agent_barrier_us = 0;
    /// Shipped to agents: fail a stream:// restart if the checkpoint
    /// stream hasn't fully arrived this long after the command.
    sim::Time agent_stream_us = 0;
    /// Background epilogue: downtime end → every pending EPILOGUE_DONE
    /// received, for a COW checkpoint's drains (`drain_us`) and a lazy
    /// restart's cold-region fills (`lazy_us`).  A stuck epilogue must
    /// not be allowed to hang the op forever.
    sim::Time drain_us = 0;
    sim::Time lazy_us = 0;
  };

  /// Whole-operation retry for *transient* failures (deadline expiry,
  /// lost channel, storage hiccup, agent barrier watchdog).  Disabled by
  /// default.  Retries re-run the entire coordinated op with a fresh
  /// op_id after an exponential, jittered backoff; non-transient failures
  /// (protocol/decode errors) and unsafe retries (a MIGRATE that already
  /// passed the sync point) report failure immediately.
  struct RetryPolicy {
    u32 max_retries = 0;  // extra attempts after the first
    sim::Time backoff_us = 50 * sim::kMillisecond;  // delay before retry 1
    double backoff_factor = 2.0;  // growth per subsequent retry
    double jitter = 0.2;          // ± fraction applied to each delay
  };

  /// «node, pod, URI» tuple: which agent, which pod, where the image goes
  /// (checkpoint) or comes from (restart).  `vip` is optional (0 =
  /// unknown); supplying it lets the send-queue redirect optimization
  /// work on the first checkpoint of a job (otherwise the Manager only
  /// knows pod addresses from a previous checkpoint's meta-data).
  struct Target {
    net::SockAddr agent;
    std::string pod_name;
    std::string uri;
    net::IpAddr vip{};
  };

  struct CheckpointReport {
    bool ok = false;
    std::string error;
    obs::OpId op_id = 0;  // causal-trace id of this coordinated op
    u32 attempts = 1;     // 1 = succeeded/failed without retrying
    std::vector<CkptDone> agents;          // per-pod completion reports
    std::map<std::string, ckpt::NetMeta> metas;  // pod name → meta-data
    sim::Time total_us = 0;     // invocation → all pods reported done
    sim::Time sync_us = 0;      // invocation → continue broadcast (barrier)
    u64 max_image_bytes = 0;    // largest pod image (paper Fig. 6c metric)
    u64 max_network_bytes = 0;
    u64 max_net_ckpt_us = 0;    // slowest network-state checkpoint
    /// Invocation → every pod resumed (= total_us in blocking mode; in
    /// COW mode the op latency additionally covers the background
    /// drains, so downtime_us <= total_us).  DESIGN.md §11.
    sim::Time downtime_us = 0;
    u64 max_drain_us = 0;       // slowest background drain (COW mode)
    u64 max_dirtied_bytes = 0;  // worst COW tax across pods
  };
  using CheckpointDoneFn = std::function<void(CheckpointReport)>;

  struct RestartReport {
    bool ok = false;
    std::string error;
    obs::OpId op_id = 0;
    u32 attempts = 1;
    std::vector<RestartDone> agents;
    sim::Time total_us = 0;
    u64 max_connectivity_us = 0;
    u64 max_net_restore_us = 0;
    /// Invocation → every pod resumed.  Equals total_us for monolithic
    /// restarts; with lazy restores the op latency additionally covers
    /// the background cold-region fills, so downtime_us <= total_us.
    sim::Time downtime_us = 0;
    u64 max_lazy_us = 0;    // slowest lazy window (0 = no lazy restore)
    u64 lazy_faults = 0;    // demand faults across all pods
    u64 lazy_bytes = 0;     // cold bytes filled after resume
  };
  using RestartDoneFn = std::function<void(RestartReport)>;

  explicit Manager(os::Node& node, Trace* trace = nullptr);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Per-checkpoint knobs beyond the target list and mode.
  struct CkptOptions {
    /// Migration send-queue redirect optimization (only meaningful with
    /// CkptMode::MIGRATE and agent:// URIs).
    bool redirect_send_queues = false;
    bool fs_snapshot = false;  // take a SAN snapshot of the pod dir
    /// Incremental checkpoints: agents emit deltas over their previous
    /// SAN image where possible, forcing a full image every `chain_cap`
    /// deltas.
    bool incremental = false;
    u32 chain_cap = 8;
    /// ckpt::kCodec* bits (zero elision / dedup) for the image encoder.
    u32 codec_flags = 0;
    /// Migration: stream image chunks as serialization produces them.
    bool pipelined_stream = false;
    /// Phase watchdogs (all disabled by default).
    Deadlines deadlines{};
    /// Whole-op retry on transient failure (disabled by default).
    RetryPolicy retry{};
    /// Introspection plane (DESIGN.md §9): agents publish
    /// HEARTBEAT/PROGRESS beacons every this many virtual microseconds
    /// while the op runs.  0 = plane off (no beacon traffic at all).
    sim::Time heartbeat_us = 0;
    /// Early-warning threshold: raise a health.warn trace event (and
    /// count mgr.health.early_warnings) when a pod's projected finish
    /// lags the cluster median by at least this much.  0 = off.
    sim::Time warn_lag_us = 0;
    /// COW concurrent checkpoint (DESIGN.md §11): agents mark snapshots
    /// copy-on-write inside the stop-the-world window and drain the
    /// image to the SAN after their pod resumes; the op completes on
    /// the EPILOGUE_DONE reports.  Agents fall back to a blocking
    /// checkpoint where the mode does not apply (migration, non-SAN
    /// destinations, pipelined streaming).
    bool cow = false;
    /// Who initiated the op, recorded on its ledger rows: "manual"
    /// (operator/test code) or "supervisor" (DESIGN.md §12).
    std::string trigger = "manual";
  };

  /// Coordinated checkpoint of all targets.
  void checkpoint(std::vector<Target> targets, CkptMode mode,
                  CheckpointDoneFn done, CkptOptions opts);
  void checkpoint(std::vector<Target> targets, CkptMode mode,
                  CheckpointDoneFn done) {
    checkpoint(std::move(targets), mode, std::move(done), CkptOptions());
  }

  /// Per-restart knobs beyond the target list and meta-data.
  struct RestartOptions {
    Deadlines deadlines{};
    RetryPolicy retry{};
    /// Introspection plane cadence + early-warning lag (see CkptOptions).
    sim::Time heartbeat_us = 0;
    sim::Time warn_lag_us = 0;
    /// Who initiated the op (see CkptOptions::trigger).
    std::string trigger = "manual";
    /// Supervisor recovery: the virtual instant the failure was
    /// confirmed.  Non-zero makes a successful restart's ledger row
    /// carry mttr_us = end − detect_us (DESIGN.md §12).
    sim::Time detect_us = 0;
    /// Supervisor recovery: agents destroy a pod already hosting the
    /// target vip before restoring instead of failing EXISTS — a
    /// recovery restarts surviving pods in place too.
    bool replace_existing = false;
    /// Pipelined restore (DESIGN.md §13): agents stream the image from
    /// the SAN and overlap fetch, decode and rebuild instead of charging
    /// them serially.
    bool pipelined = false;
    /// Lazy demand-paged restore (requires pipelined): only the hot
    /// working set restores before resume; cold regions fill in the
    /// background or on first touch.
    bool lazy = false;
    /// Share of region bytes (‰) restored eagerly under lazy mode; 0 =
    /// agent default (250‰).
    u32 lazy_hot_permille = 0;
  };

  /// Coordinated restart.  `metas` must hold the checkpoint meta-data per
  /// pod name; pass {} to use the metas cached from the last checkpoint
  /// this Manager ran.
  void restart(std::vector<Target> targets,
               std::map<std::string, ckpt::NetMeta> metas,
               RestartDoneFn done, RestartOptions opts);
  void restart(std::vector<Target> targets,
               std::map<std::string, ckpt::NetMeta> metas,
               RestartDoneFn done) {
    restart(std::move(targets), std::move(metas), std::move(done),
            RestartOptions());
  }

  /// One endpoint of a live migration: which agent currently hosts the
  /// pod, where it should go, and its virtual address.
  struct MigrateTarget {
    net::SockAddr from_agent;
    net::SockAddr to_agent;
    std::string pod_name;
    net::IpAddr vip;
  };

  struct MigrateReport {
    bool ok = false;
    std::string error;
    CheckpointReport checkpoint;
    RestartReport restart;
    sim::Time total_us = 0;
  };
  using MigrateDoneFn = std::function<void(MigrateReport)>;

  struct MigrateOptions {
    /// Stream image chunks to the destination as serialization produces
    /// them (overlapping serialize and transfer) instead of
    /// materializing the full image before the first byte moves.
    bool pipelined_stream = true;
    /// ckpt::kCodec* bits for the streamed image.
    u32 codec_flags = 0;
    /// Applied to both the checkpoint and restart halves.
    Deadlines deadlines{};
    RetryPolicy retry{};
  };

  /// Live migration in one call (paper §1: "directly stream checkpoint
  /// data from one set of nodes to another"): coordinated MIGRATE
  /// checkpoint with direct agent-to-agent streaming and the send-queue
  /// redirect optimization, followed by the coordinated restart on the
  /// destination agents.
  void migrate(std::vector<MigrateTarget> targets, MigrateDoneFn done,
               MigrateOptions opts);
  void migrate(std::vector<MigrateTarget> targets, MigrateDoneFn done) {
    migrate(std::move(targets), std::move(done), MigrateOptions());
  }

  /// Meta-data cached from the last successful checkpoint.
  const std::map<std::string, ckpt::NetMeta>& last_metas() const {
    return last_metas_;
  }

  bool busy() const {
    return ckpt_op_ != nullptr || restart_op_ != nullptr;
  }

  // ---- Introspection plane (DESIGN.md §9) ----------------------------------

  /// Live per-pod health aggregated from agent beacons.  Populated only
  /// for ops run with `heartbeat_us > 0`.
  const obs::ClusterHealth& health() const { return health_; }

  /// zapc.obs.health.v1 snapshot of one op (0 = latest), serialized: the
  /// document the status endpoint serves, supervisor section included.
  std::string health_json(obs::OpId op = 0) const;

  /// Opens the queryable status endpoint: any client connecting to
  /// `port` on this node may send HEALTH_QUERY and receives a
  /// HEALTH_SNAPSHOT reply with the zapc.obs.health.v1 document
  /// (tools/zapc_top.cpp is the reference client).
  void serve_status(u16 port);

  // ---- Op ledger (DESIGN.md §10) --------------------------------------------

  /// Attaches the append-only run ledger.  Every coordinated op writes
  /// exactly one line per attempt at its terminal path — success,
  /// terminal abort, and the abort preceding a retry (flagged
  /// will_retry) — including the critical-path attribution computed from
  /// the op's span tree when tracing is on.  nullptr detaches.
  void set_ledger(obs::Ledger* ledger) { ledger_ = ledger; }
  obs::Ledger* ledger() const { return ledger_; }

  // ---- Self-healing supervisor hooks (DESIGN.md §12) ------------------------

  /// Fired after every fully committed SNAPSHOT checkpoint (all images
  /// renamed into place, COW drains included) with the success report
  /// and the op's targets — the supervisor's committed-image catalog
  /// appends from here, so a half-drained op can never enter it.
  using CommitFn =
      std::function<void(const CheckpointReport&, const std::vector<Target>&)>;
  void set_on_commit(CommitFn fn) { commit_fn_ = std::move(fn); }

  /// The "supervisor" section of every health snapshot (zapc-top
  /// renders it as the supervisor pane).
  using SupervisorStatusFn = std::function<obs::SupervisorStatus()>;
  void set_supervisor_status(SupervisorStatusFn fn) {
    supervisor_status_ = std::move(fn);
  }

  /// Aborts whatever coordinated op is in flight (no-op when idle) — the
  /// checkpoint first when a checkpoint and a restart overlap.  The
  /// failure is non-transient on purpose: the Manager's own retry
  /// machinery stands down and the caller — the recovery orchestrator —
  /// owns what happens next.
  void abort_current(const std::string& why);

 private:
  enum class OpKind : u8 { CKPT, RESTART };

  struct Peer {
    Target target;
    std::unique_ptr<MsgChannel> ch;
    bool meta_received = false;  // checkpoint only
    bool done_received = false;
    CkptDone ckpt_done;        // checkpoint: the pod's CKPT_DONE
    RestartDone restart_done;  // restart: the pod's RESTART_DONE
    /// Background epilogue (COW drain / lazy fill): set once the
    /// EPILOGUE_DONE promised by the DONE report has arrived.
    bool epilogue_received = false;
    EpilogueDone epilogue;

    /// The DONE report left a background epilogue that has not closed.
    bool awaiting_epilogue() const {
      return done_received &&
             (ckpt_done.drain_pending || restart_done.lazy_pending) &&
             !epilogue_received;
    }
  };

  /// Everything an attempt is started from, moved verbatim into a retry.
  struct OpInputs {
    OpKind kind{};
    std::vector<Target> targets;
    CkptMode mode{};  // checkpoint
    CkptOptions ckpt;
    CheckpointDoneFn ckpt_done;
    /// Restart: per-target modified meta-data (plan output) and the new
    /// virtual → real placement.
    std::vector<ckpt::NetMeta> peer_metas;
    std::vector<std::pair<net::IpAddr, net::IpAddr>> locations;
    RestartOptions restart;
    RestartDoneFn restart_done;
  };

  /// One coordinated op, checkpoint or restart: broadcast the command,
  /// gather per-pod reports, close on the last DONE — or, when a pod
  /// left a background epilogue running, on the last EPILOGUE_DONE.
  struct OpState {
    OpInputs in;
    std::vector<Peer> peers;
    u32 attempt = 1;
    sim::Time t_start = 0;
    sim::Time t_sync = 0;  // checkpoint: continue broadcast
    /// Instant every pod had resumed (all DONEs in): the op's downtime
    /// ends here even while epilogues are in flight.
    sim::Time t_downtime_end = 0;
    bool redirect = false;   // checkpoint: send-queue redirect in use
    bool continued = false;  // checkpoint: past the sync point
    bool finished = false;
    CheckpointReport report;  // checkpoint: metas gathered so far
    obs::OpId op_id = 0;
    obs::SpanId span_root = 0;           // "mgr.ckpt" / "mgr.restart"
    obs::SpanId span_meta_wait = 0;      // checkpoint: invocation → sync
    obs::SpanId span_done_wait = 0;      // checkpoint: sync → all done
    obs::SpanId span_epilogue_wait = 0;  // all done → all epilogues in
    sim::EventId connect_deadline = 0;   // 0 = not armed
    sim::EventId phase_deadline = 0;     // every other watchdog

    bool is_ckpt() const { return in.kind == OpKind::CKPT; }
    const Deadlines& deadlines() const {
      return is_ckpt() ? in.ckpt.deadlines : in.restart.deadlines;
    }
  };

  std::unique_ptr<OpState>& slot(OpKind kind) {
    return kind == OpKind::CKPT ? ckpt_op_ : restart_op_;
  }
  /// The running (unfinished) op `id` of `kind`, or nullptr.
  OpState* live(OpKind kind, obs::OpId id);

  /// (Re)starts an attempt: creates the op state, then connects and
  /// broadcasts the commands.
  void begin_attempt(OpInputs in, u32 attempt);
  void connect_and_send(OpState& op);
  void on_msg(OpState& op, std::size_t idx, Bytes msg);
  void on_done(OpState& op, Peer& peer, bool ok, const std::string& error,
               bool transient);
  /// Checkpoint: the single 'continue' barrier once all meta-data is in.
  void maybe_continue(OpState& op);
  void maybe_finish(OpState& op);
  /// Schedules the `phase` watchdog `us` from now (0 = disarmed); the
  /// connect deadline has its own slot, every other phase shares one.
  void arm_deadline(OpState& op, sim::Time us, const std::string& phase);
  void cancel_deadlines(OpState& op);
  void deadline_expired(OpState& op, const std::string& phase);
  /// Checkpoint: removes the peers' half-written `<uri>.tmp` objects
  /// after an abort.
  void gc_tmp(const OpState& op);
  /// Aborts the op: tells the agents, then retries the whole op or
  /// reports the failure.
  void fail(OpState& op, const std::string& why, bool transient);
  /// Hands a failure report of `in`'s kind to its done callback.
  void report_failure(OpInputs& in, const std::string& why, obs::OpId op,
                      u32 attempts);

  /// Backoff delay before retry number `attempt` (1-based), jittered.
  sim::Time retry_delay(const RetryPolicy& p, u32 attempt);

  /// Drains ClusterHealth early warnings into counters + causal-trace
  /// events (under the active op's root span) and the ops trace.
  void health_drain_warnings(obs::OpId op, obs::SpanId root);

  /// Writes the op's ledger line (no-op with no ledger attached).  Must
  /// run after the op's spans are closed — the critical-path attribution
  /// reads the finished tree — and before the op state is reset.
  void write_ledger(const OpState& op, const std::string& outcome,
                    const std::string& error, bool transient,
                    bool will_retry);
  /// Fills the attribution + straggler half of a ledger entry from the
  /// span stream and live health model; counts attribution failures.
  void ledger_attribute(obs::LedgerEntry& e);
  /// The health snapshot both health_json() and the endpoint serve.
  obs::HealthDoc health_doc(obs::OpId op) const;
  /// Status-endpoint connection handler (HEALTH_QUERY → HEALTH_SNAPSHOT).
  void status_on_msg(MsgChannel* ch, Bytes msg);

  /// Causally-tagged trace event for the active coordinated op.
  void trace_op(const std::string& what, obs::OpId op, obs::SpanId parent);
  /// Span stream behind the trace (nullptr when tracing is off).
  obs::SpanRecorder* rec() {
    return trace_ != nullptr ? &trace_->recorder() : nullptr;
  }

  os::Node& node_;
  Trace* trace_;
  /// One checkpoint and one restart may run concurrently (a COW drain
  /// overlapping a restart); each kind has its own slot.
  std::unique_ptr<OpState> ckpt_op_;
  std::unique_ptr<OpState> restart_op_;
  std::map<std::string, ckpt::NetMeta> last_metas_;
  bool last_redirect_ = false;  // last checkpoint used the redirect opt.
  // Pods whose destination agents were advertised for the redirect (only
  // their connections have redirect records to wait for at restart).
  std::set<net::IpAddr> last_redirect_covered_;
  /// Jitter source for retry backoff; fixed seed keeps runs reproducible.
  Rng retry_rng_{0x5eedD15Cull};
  /// Live introspection-plane model fed by agent beacons.
  obs::ClusterHealth health_;
  /// Append-only per-op run ledger (not owned); nullptr = off.
  obs::Ledger* ledger_ = nullptr;
  /// Supervisor hooks (DESIGN.md §12); empty = off.
  CommitFn commit_fn_;
  SupervisorStatusFn supervisor_status_;
  /// Status endpoint (serve_status); connections live until peer close.
  std::unique_ptr<MsgServer> status_server_;
  std::list<std::unique_ptr<MsgChannel>> status_conns_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace zapc::core
