// Agent: the per-node ZapC service (paper §4).
//
// "The Agents receive these commands and carry them out on their local
// nodes."  An Agent hosts pods, executes the local checkpoint procedure
// (suspend → block network → network-state checkpoint → report meta-data
// → standalone checkpoint → barrier → resume/destroy) and the local
// restart procedure (create pod → recover connectivity → restore network
// state → standalone restart → resume), receives directly streamed
// checkpoint images from peer agents, and collects redirected send-queue
// data for the migration optimization.
#pragma once

#include <array>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "core/channel.h"
#include "core/connectivity.h"
#include "core/cost_model.h"
#include "core/protocol.h"
#include "core/trace.h"
#include "os/node.h"
#include "pod/pod.h"

namespace zapc::core {

/// Order of the two checkpoint phases.  The paper argues for
/// NETWORK_FIRST: reporting meta-data early lets the standalone
/// checkpoint overlap the Manager barrier (Figure 2).  NETWORK_LAST
/// exists for the ablation benchmark.
enum class CkptOrdering : u8 { NETWORK_FIRST, NETWORK_LAST };

class Agent {
 public:
  static constexpr u16 kDefaultPort = 7077;

  explicit Agent(os::Node& node, u16 port = kDefaultPort,
                 CostModel costs = {}, Trace* trace = nullptr);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Control endpoint of this agent (real node address + port).
  net::SockAddr addr() const;
  os::Node& node() { return node_; }

  // ---- Pod hosting ---------------------------------------------------------
  pod::Pod& create_pod(net::IpAddr vip, const std::string& name);
  pod::Pod* find_pod(const std::string& name);
  Status destroy_pod(const std::string& name);
  std::size_t pod_count() const { return pods_.size(); }

  /// Whether any checkpoint/restart operation is currently in flight.
  bool busy() const;

  /// Received agent:// migration streams still held in memory.  A stream
  /// is released once the restore that consumed it has finished OK and
  /// its coordinated op closed; an aborted restore keeps it so a
  /// whole-op retry can restart from it.
  std::size_t retained_streams() const { return streams_.size(); }

  /// Image bytes this agent's checkpoint ops still hold: encoded images
  /// not yet handed to the SAN or a stream channel, plus captured region
  /// buffers not yet encoded.  0 once every op has delivered its image.
  std::size_t held_ckpt_bytes() const;

  /// Checkpoint phase ordering (ablation hook; default NETWORK_FIRST).
  void set_ordering(CkptOrdering o) { ordering_ = o; }
  CkptOrdering ordering() const { return ordering_; }

 private:
  /// An op's phases (Figures 1 and 3, the COW drain, the lazy window).
  enum class Phase : u8 {
    SUSPEND, NETCKPT, STANDALONE, STREAM, COWMARK, BARRIER, DRAIN,
    CONNECTIVITY, NETSTATE, RESTORE, LAZY,
  };
  static constexpr std::size_t kPhaseCount = 11;

  struct OpenPhase {
    Phase id;
    obs::SpanId span;  // 0 when tracing is off
    sim::Time start;
  };

  /// Introspection-plane watermark for the phase currently in flight:
  /// what the next HEARTBEAT/PROGRESS beacon reports (DESIGN.md §9).
  /// `end` is the projected completion instant with the injected
  /// slow-node multiplier applied, so a straggler's ETA is honest.
  struct Watermark {
    std::string phase;   // innermost phase name ("ckpt.standalone", ...)
    sim::Time start = 0; // when the costed wait began
    sim::Time end = 0;   // projected completion (control phase: start)
    u64 bytes = 0;       // bytes this phase moves (0 = control phase)
  };

  /// Why an op ends early, as its teardown reports it.
  enum class Cause : u8 {
    FAILED,     // failed here; not worth retrying the whole op
    TRANSIENT,  // failed here; the Manager may retry the whole op
    ABORTED,    // the Manager ended it (ABORT, or its channel closed)
  };

  /// An op's QoS-metered SAN transfers (DESIGN.md §13): the COW drain, or
  /// the pipelined restore fetch and then the lazy fills, one stream at a
  /// time.  `last_share` spans them: a fill stamps a receipt on a new grant.
  struct SanXfer {
    u64 stream = 0;            // VirtualSAN stream id (0 = not registered)
    double last_share = -1.0;  // last granted share (QoS receipt dedup)
    sim::Time t_start = 0;     // when the current transfer opened
    u64 steps = 0;             // chunks the current transfer issued
    u64 busy_us = 0;           // total costed chunk time
    u64 bytes = 0;
    u64 throttled_us = 0;  // chunk time spent under foreground traffic
    u64 contended_us = 0;  // chunk time spent sharing with other drains
  };

  /// One transfer run by san_step: `total` bytes in `chunk`-byte steps
  /// (0 = one step for the whole transfer, even an empty one), each
  /// costed by `cost` at the share the SAN grants when the step starts.
  struct SanLeg {
    std::string_view what;  // agent.qos receipt leg, under the inner phase
    u64 total;
    u64 chunk;
    sim::Time (CostModel::*cost)(u64, double) const;
    std::function<bool()> live = nullptr;       // per step; false stops
    std::function<sim::Time()> tail = nullptr;  // after the last chunk
    std::function<void()> done;  // once the stream is released
  };

  /// What every op this agent serves carries besides its command.
  struct OpBase {
    MsgChannel* mgr = nullptr;
    sim::Time t_start = 0;
    bool finished = false;
    bool aborted = false;  // torn down, on any failure; stops a lazy window
    obs::SpanId span_root = 0;  // "ckpt" / "restart"; 0 when tracing is off
    // Open phases, innermost last (two: ckpt.stream in ckpt.standalone).
    std::vector<OpenPhase> phases;
    // What each closed phase observed in its histogram (0: not closed).
    std::array<u64, kPhaseCount> took{};
    u64 took_us(Phase ph) const { return took[static_cast<std::size_t>(ph)]; }
    obs::SpanId inner_span() const {
      return phases.empty() ? 0 : phases.back().span;
    }
    sim::Time t_epilogue = 0;  // the background epilogue began (0: none)
    SanXfer san;  // drain: BACKGROUND; restore fetch, lazy fills: FOREGROUND
    Watermark wm;    // introspection plane (cmd.heartbeat_us > 0)
    u32 hb_seq = 0;  // beacons published so far
  };

  struct CkptOp : OpBase {
    CheckpointCmd cmd;
    // Fixed at ckpt_begin: the parsed destination (an error here fails
    // the op only when the image is delivered) and the phase ordering.
    Result<Uri> dest = Status(Err::INVALID, "no destination");
    CkptOrdering ordering = CkptOrdering::NETWORK_FIRST;
    u8 steps = 0;  // checkpoint steps started (ckpt_next)
    sim::Time t_standalone_done = 0;  // barrier entered (0: not yet)
    ckpt::PodImage image;
    // The encoded image until a SAN commit takes it over; encoded_size
    // outlives that hand-off for the done messages and traces.
    Bytes encoded_image;
    u64 encoded_size = 0;
    std::vector<RedirectData> redirects;  // to ship to peer agents
    u64 queued_bytes = 0;
    bool continue_received = false;
    // Incremental / streaming bookkeeping.
    bool is_delta = false;   // this image is a delta over the prior one
    u64 logical_bytes = 0;   // full pre-codec state size (all regions)
    bool delivered = false;  // image already shipped (pipelined stream)
    // COW concurrent checkpoint (DESIGN.md §11): the stop-the-world
    // window only marks the snapshot; serialization + SAN writeout run
    // in a background drain after the pod resumes.
    bool cow = false;            // COW mode applies to this op
    bool drain_pending = false;  // pod resumed, drain still in flight
    u64 dirtied_bytes = 0;  // COW tax accrued during the drain
    // Two-phase SAN commit: the image is staged at `san_tmp` during the
    // standalone phase and renamed to `san_final` only after the
    // continue barrier, so an abort never clobbers the last good image.
    std::string san_tmp;
    std::string san_final;
    // Id of the Manager's 'mgr.continue' EVENT (from the CONTINUE
    // message): the cross-node parent of this agent's resume records.
    obs::SpanId continue_event = 0;
  };

  struct RestartOp : OpBase {
    RestartCmd cmd;
    sim::Time t_conn_done = 0;
    sim::Time t_net_done = 0;
    ckpt::PodImage image;
    pod::Pod* pod = nullptr;
    std::unique_ptr<ConnectivityRestore> connectivity;
    ckpt::SockMap socks;
    // stream:// source: the consumed stream's tag and opening op.
    std::string stream_tag;
    obs::OpId stream_op = 0;
    // Pipelined / lazy restore (DESIGN.md §13).
    struct ColdRegion {
      i32 vpid = 0;
      std::string name;
      u64 bytes = 0;
    };
    std::vector<ColdRegion> cold;  // lazily-deferred regions, fill order
    sim::Time t_downtime_end = 0;  // pod resumed (downtime over)
    u64 hot_bytes = 0;        // region bytes restored before resume
    u64 lazy_total_bytes = 0; // region bytes deferred past resume
    u64 lazy_filled_bytes = 0;
    u64 lazy_faults = 0;
    u64 lazy_fault_bytes = 0;
    std::size_t lazy_remaining = 0;  // cold regions not yet filled
  };

  struct Conn {
    std::unique_ptr<MsgChannel> ch;
    std::shared_ptr<CkptOp> ckpt;
    std::shared_ptr<RestartOp> restart;
    bool dead = false;
  };

  void on_accept(std::unique_ptr<MsgChannel> ch);
  void on_msg(Conn* conn, Bytes msg);
  void on_closed(Conn* conn);
  void reap_conns();

  // Checkpoint steps (Figure 1, agent side).
  void ckpt_begin(Conn* conn, CheckpointCmd cmd);
  /// Runs the next step: network, standalone (in op order), barrier.
  void ckpt_next(const std::shared_ptr<CkptOp>& op);
  /// Ends the suspend phase and enters `ph`: the step's pod, or nullptr
  /// when the op is over, the agent crashed at `ph` or the pod vanished.
  pod::Pod* ckpt_step(const std::shared_ptr<CkptOp>& op, Phase ph);
  void ckpt_network(const std::shared_ptr<CkptOp>& op);
  void ckpt_standalone(const std::shared_ptr<CkptOp>& op);
  /// CKPT_DONE with the (possibly partial) phase durations, so aborted
  /// ledger lines still carry attribution-grade timings.
  CkptDone ckpt_report(const CkptOp& op);
  /// Encodes the op's image and drops the region buffers it shares with
  /// the pod, so a resumed pod never clones one (DESIGN.md §14).
  void encode_op_image(CkptOp& op);
  void ckpt_standalone_done(const std::shared_ptr<CkptOp>& op);
  void ckpt_maybe_finish(const std::shared_ptr<CkptOp>& op);
  // COW checkpoint (DESIGN.md §11): mark, then drain after the resume.
  void ckpt_cowmark(const std::shared_ptr<CkptOp>& op);
  void ckpt_drain(const std::shared_ptr<CkptOp>& op);
  void ckpt_drain_commit(const std::shared_ptr<CkptOp>& op);
  /// The drain's EPILOGUE_DONE fields, shared by its commit and failure.
  EpilogueDone drain_report(const CkptOp& op);
  /// Two-phase SAN commit shared by the blocking and COW paths: stages
  /// the image at `<path>.tmp` and checks its size (once per op); with
  /// `publish`, renames it into place and advances the pod's incremental
  /// chain.  A failure never clobbers the last committed image.
  Status commit_image(CkptOp& op, const std::string& path, bool publish);
  /// Moves the pod's incremental chain onto a just-committed image.
  void advance_chain(const CkptOp& op);
  void deliver_image(const std::shared_ptr<CkptOp>& op);
  /// Captures header + processes into op->image, deciding full vs delta
  /// from the command and this agent's per-pod incremental state.
  void capture_standalone(const std::shared_ptr<CkptOp>& op, pod::Pod& pod);
  /// Pipelined agent:// delivery, started with the standalone phase.
  void ckpt_stream(const std::shared_ptr<CkptOp>& op);
  /// The one agent:// sender: STREAM_OPEN, the image in chunks,
  /// STREAM_CLOSE and the redirects, then `on_sent`.  Pipelined, a chunk
  /// is due once its serialize slice elapses; otherwise all go out now.
  /// Returns the pipelined schedule's span; an unreachable target aborts.
  sim::Time stream_image(const std::shared_ptr<CkptOp>& op, bool pipelined,
                         std::function<void()> on_sent);
  /// Ships redirected send queues to the peers' receiving agents; `raw`
  /// is the open stream channel.
  void ship_redirects(const std::shared_ptr<CkptOp>& op, MsgChannel* raw);

  // Restart phases (Figure 3, agent side).
  void restart_begin(Conn* conn, RestartCmd cmd);
  /// Decodes `image_bytes` (borrowed, read synchronously and not kept)
  /// and starts the restore.
  void restart_with_image(const std::shared_ptr<RestartOp>& op,
                          const Bytes& image_bytes);
  void restart_connectivity_done(const std::shared_ptr<RestartOp>& op,
                                 Status st, ckpt::SockMap map);
  void restart_wait_redirects(const std::shared_ptr<RestartOp>& op,
                              sim::Time waited);
  void restart_net_state(const std::shared_ptr<RestartOp>& op);
  void restart_standalone(const std::shared_ptr<RestartOp>& op);
  /// Resumes the restored pod and opens its lazy window, if any.
  void restart_resume(const std::shared_ptr<RestartOp>& op);
  void restart_lazy_fill(const std::shared_ptr<RestartOp>& op,
                         std::size_t idx);
  void restart_lazy_fault(const std::shared_ptr<RestartOp>& op, i32 vpid,
                          const std::string& name);
  void restart_lazy_finish(const std::shared_ptr<RestartOp>& op);
  /// True while the lazy window for `op` should keep running (pod alive,
  /// not aborted, agent not crashed).
  bool lazy_live(const std::shared_ptr<RestartOp>& op);
  /// The restore's end: RESTART_DONE on success, the teardown otherwise.
  void restart_finish(const std::shared_ptr<RestartOp>& op, Status st);
  /// RESTART_DONE with the phase timings so far.
  RestartDone restart_report(const RestartOp& op);

  // The op skeleton both kinds share (DESIGN.md §13).
  /// Opens the op's root span under the Manager's and starts its beacons.
  template <typename Op>
  void open_root(const std::shared_ptr<Op>& op, const char* name);
  /// Opens phase `ph` now: its span under the op's root, and the
  /// watermark of `bytes` moved by `cost` from now (0, 0: control phase).
  template <typename Op>
  void enter(Op& op, Phase ph, sim::Time cost = 0, u64 bytes = 0);
  /// Re-watermarks the innermost phase with `cost` and `bytes`, then runs
  /// `next` once `cost` elapses, unless the op is over.
  template <typename Op, typename Fn>
  void charge(const std::shared_ptr<Op>& op, sim::Time cost, u64 bytes,
              Fn&& next);
  /// Closes phase `ph` if open: observes its histogram (`observed`, or
  /// else its duration), records that in op.took and ends its span.
  void leave(OpBase& op, Phase ph, std::optional<u64> observed = {});
  /// The one teardown (DESIGN.md §13): flags, SAN stream and held bytes,
  /// log and postmortem, open phases and root, the kind's failure report.
  /// A Manager abort also takes down a finished restore's pod.
  template <typename Op>
  void teardown(const std::shared_ptr<Op>& op, const std::string& why,
                Cause cause = Cause::FAILED);
  /// The one epilogue finisher (COW drain, lazy window): leaves phase
  /// `ph` if open, closes the root the DONE left open, sends `dd`.
  template <typename Op>
  void epilogue_done(const std::shared_ptr<Op>& op, Phase ph,
                     EpilogueDone dd);

  // Introspection plane: periodic HEARTBEAT/PROGRESS beacons while an
  // op runs, stamped into the causal trace under the op's root span.
  template <typename Op>
  void beacon(const std::shared_ptr<Op>& op);
  template <typename Op>
  void publish_beacon(const Op& op);

  // Supervised mode (DESIGN.md §12): node-level liveness beacons
  // (op_id=0) on the supervisor's channel, even between ops.
  void supervise_begin(Conn* conn, SuperviseCmd cmd);
  void supervise_tick();
  /// True while an injected HEARTBEAT_BLACKOUT covers this node: beacons
  /// are silently dropped, the channel stays alive.
  bool beacons_blacked_out() const;

  /// Consults the fault injector for a crash-at-phase fault.  On a hit
  /// the agent "dies": the node detaches from the fabric and every
  /// pending callback of this agent is dropped.  Returns true if the
  /// caller should stop immediately.
  bool fault_crashed(const char* phase);
  /// The agent dies: it releases its SAN streams, runs nothing more, and
  /// its node detaches from the fabric.
  void die(const std::string& why);

  /// Causally-tagged trace event for a coordinated op this agent serves
  /// (op 0: node-level).
  void trace_op(const std::string& what, obs::OpId op, obs::SpanId parent);
  // The one QoS-metered SAN transfer step.  san_open registers the
  // stream; each san_step grants, costs, accounts and watermarks one
  // chunk and schedules the next; the last one (after any tail) releases
  // the stream and runs `done`.  Every other exit releases through
  // san_release.
  void san_open(SanXfer& x, os::SanStreamClass cls);
  template <typename Op>
  void san_step(const std::shared_ptr<Op>& op,
                const std::shared_ptr<const SanLeg>& leg, u64 off,
                bool tail_paid = false);
  void san_release(SanXfer& x);
  /// Span stream behind the trace (nullptr when tracing is off).
  obs::SpanRecorder* rec() {
    return trace_ != nullptr ? &trace_->recorder() : nullptr;
  }
  /// Closes `span` now; 0 or an already-closed id is a no-op.
  void end_span(obs::SpanId span);
  /// Causal-trace context for handing down into filter/TCP/netckpt.
  template <typename Op>
  obs::ObsTag tag(const Op& op, obs::SpanId parent);
  std::string who() const { return "agent@" + node_.name(); }
  /// Applies the injected SLOW_NODE cost multiplier (fault/fault.h) to a
  /// modeled delay; identity when no fault is armed.
  sim::Time slowdown(sim::Time delay) const;
  template <typename Fn>
  void after(sim::Time delay, Fn&& fn);

  os::Node& node_;
  u16 port_;
  CostModel costs_;
  Trace* trace_;
  CkptOrdering ordering_ = CkptOrdering::NETWORK_FIRST;
  bool crashed_ = false;  // injected crash: this agent runs nothing more
  std::unique_ptr<MsgServer> server_;
  std::list<Conn> conns_;

  std::map<std::string, std::unique_ptr<pod::Pod>> pods_;

  // Incremental checkpoint chain state, per pod.  `base` holds the
  // region generations of the most recent image so the next delta knows
  // what the chain already contains; `chain_uris` guards against a delta
  // overwriting one of its own ancestors on the SAN.
  struct IncrState {
    std::string last_uri;            // URI of the most recent image
    std::set<std::string> chain_uris;  // SAN paths of the current chain
    u32 chain_len = 0;               // deltas since the last full image
    u32 delta_seq = 0;
    ckpt::DeltaBaseline base;
    bool valid = false;
    // Observed workload write rate: logical bytes whose generation moved
    // between the last two captures, per second.  Feeds the COW dirty
    // tax (CostModel::cow_dirty_rate) so an idle pod pays ~nothing.
    sim::Time last_capture_at = 0;
    u64 observed_dirty_bps = 0;
  };
  std::map<std::string, IncrState> incr_;

  // Streamed checkpoint images (direct migration) by tag.
  struct Stream {
    Bytes data;
    bool complete = false;
    obs::OpId op_id = 0;  // Operation that opened the stream.
  };
  std::map<std::string, Stream> streams_;
  // Restarts waiting for a stream to finish arriving.
  std::map<std::string, std::shared_ptr<RestartOp>> waiting_restarts_;

  // Redirected send-queue data awaiting restore.
  std::vector<RedirectData> redirects_;

  // Supervised mode (DESIGN.md §12): the supervisor's channel and beacon
  // cadence.  The channel is owned by conns_; on_closed clears the
  // pointer when the supervisor goes away.
  MsgChannel* supervise_ch_ = nullptr;
  sim::Time supervise_hb_us_ = 0;
  u32 supervise_seq_ = 0;

  // Outbound agent→agent channels (streaming / redirect).
  std::list<std::unique_ptr<MsgChannel>> out_channels_;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace zapc::core
