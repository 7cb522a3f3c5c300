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

#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>

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

  /// Checkpoint phase ordering (ablation hook; default NETWORK_FIRST).
  void set_ordering(CkptOrdering o) { ordering_ = o; }
  CkptOrdering ordering() const { return ordering_; }

 private:
  /// Introspection-plane watermark for the phase currently in flight:
  /// what the next HEARTBEAT/PROGRESS beacon reports (DESIGN.md §9).
  /// `end` is the projected completion instant with the injected
  /// slow-node multiplier applied, so a straggler's ETA is honest.
  struct Watermark {
    std::string phase;   // innermost phase name ("ckpt.standalone", ...)
    sim::Time start = 0; // when the costed wait began
    sim::Time end = 0;   // projected completion (0 = control phase)
    u64 bytes = 0;       // bytes this phase moves (0 = control phase)
    void enter(std::string p, sim::Time s = 0, sim::Time e = 0, u64 b = 0) {
      phase = std::move(p);
      start = s;
      end = e;
      bytes = b;
    }
  };

  struct CkptOp {
    CheckpointCmd cmd;
    MsgChannel* mgr = nullptr;
    sim::Time t_start = 0;
    sim::Time t_standalone_done = 0;
    ckpt::PodImage image;
    Bytes encoded_image;
    std::vector<RedirectData> redirects;  // to ship to peer agents
    u64 queued_bytes = 0;
    bool continue_received = false;
    bool standalone_done = false;
    bool finished = false;
    bool aborted = false;
    // Incremental / streaming bookkeeping.
    bool is_delta = false;   // this image is a delta over the prior one
    u64 logical_bytes = 0;   // full pre-codec state size (all regions)
    bool delivered = false;  // image already shipped (pipelined stream)
    // COW concurrent checkpoint (DESIGN.md §11): the stop-the-world
    // window only marks the snapshot; serialization + SAN writeout run
    // in a background drain after the pod resumes.
    bool cow = false;            // COW mode applies to this op
    bool drain_pending = false;  // pod resumed, drain still in flight
    sim::Time t_drain_start = 0;
    u64 dirtied_bytes = 0;  // COW tax accrued during the drain
    // SAN QoS bookkeeping (DESIGN.md §13): the drain is a BACKGROUND
    // stream; chunks issued while foreground restart/migration traffic
    // holds the SAN run at the QoS floor and are accounted as throttled.
    u64 san_stream = 0;      // VirtualSAN stream id (0 = not registered)
    u64 throttled_us = 0;    // drain time spent under foreground traffic
    u64 contended_us = 0;    // drain time spent sharing with other drains
    u64 drain_busy_us = 0;   // total costed chunk time
    u64 drained_bytes = 0;
    double last_share = -1.0;  // last granted share (QoS receipt dedup)
    // Two-phase SAN commit: the image is staged at `san_tmp` during the
    // standalone phase and renamed to `san_final` only after the
    // continue barrier, so an abort never clobbers the last good image.
    std::string san_tmp;
    std::string san_final;
    // Id of the Manager's 'mgr.continue' EVENT (from the CONTINUE
    // message): the cross-node parent of this agent's resume records.
    obs::SpanId continue_event = 0;
    // Phase spans (Figure 2 breakdown); 0 when tracing is off.
    obs::SpanId span_root = 0;        // "ckpt"
    obs::SpanId span_suspend = 0;     // "ckpt.suspend"
    obs::SpanId span_netckpt = 0;     // "ckpt.netckpt"
    obs::SpanId span_standalone = 0;  // "ckpt.standalone"
    obs::SpanId span_stream = 0;      // "ckpt.stream" (pipelined delivery)
    obs::SpanId span_barrier = 0;     // "ckpt.barrier"
    obs::SpanId span_cowmark = 0;     // "ckpt.cowmark" (COW mode)
    obs::SpanId span_drain = 0;       // "ckpt.drain" (COW mode)
    // Introspection plane (cmd.heartbeat_us > 0).
    Watermark wm;
    u32 hb_seq = 0;  // beacons published so far
    // Per-phase durations as measured (shipped in CKPT_DONE for the
    // Manager's op ledger); 0 for phases not reached.
    u64 suspend_us = 0;
    u64 netckpt_us = 0;
    u64 standalone_us = 0;
    u64 cowmark_us = 0;
  };

  struct RestartOp {
    RestartCmd cmd;
    MsgChannel* mgr = nullptr;
    sim::Time t_start = 0;
    sim::Time t_conn_done = 0;
    sim::Time t_net_done = 0;
    ckpt::PodImage image;
    pod::Pod* pod = nullptr;
    std::unique_ptr<ConnectivityRestore> connectivity;
    ckpt::SockMap socks;
    bool finished = false;
    bool ok = false;       // finished with the pod restored
    bool aborted = false;  // Manager abort: stops a running lazy window
    // stream:// source: the consumed stream's tag and opening op.
    std::string stream_tag;
    obs::OpId stream_op = 0;
    obs::SpanId span_root = 0;          // "restart"
    obs::SpanId span_connectivity = 0;  // "restart.connectivity"
    obs::SpanId span_netstate = 0;      // "restart.netstate"
    obs::SpanId span_standalone = 0;    // "restart.standalone"
    // Pipelined / lazy restore (DESIGN.md §13).
    struct ColdRegion {
      i32 vpid = 0;
      std::string name;
      u64 bytes = 0;
    };
    std::vector<ColdRegion> cold;  // lazily-deferred regions, fill order
    sim::Time t_downtime_end = 0;  // pod resumed (downtime over)
    sim::Time t_fetch_start = 0;
    u64 fetch_stream = 0;     // FOREGROUND SAN stream id during eager fetch
    u64 fetch_us = 0;         // eager streaming duration
    u64 hot_bytes = 0;        // region bytes restored before resume
    u64 lazy_total_bytes = 0; // region bytes deferred past resume
    u64 lazy_filled_bytes = 0;
    u64 lazy_faults = 0;
    u64 lazy_fault_bytes = 0;
    std::size_t lazy_remaining = 0;  // cold regions not yet filled
    bool lazy_done_sent = false;
    double last_share = -1.0;  // last granted share (QoS receipt dedup)
    obs::SpanId span_lazy = 0;  // "restart.lazy"
    // Introspection plane (cmd.heartbeat_us > 0).
    Watermark wm;
    u32 hb_seq = 0;
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

  // Checkpoint phases (Figure 1, agent side).
  void ckpt_begin(Conn* conn, CheckpointCmd cmd);
  void ckpt_network(const std::shared_ptr<CkptOp>& op);
  void ckpt_standalone(const std::shared_ptr<CkptOp>& op);
  // NETWORK_LAST ablation path: standalone state first, network last.
  void ckpt_standalone_pre(const std::shared_ptr<CkptOp>& op);
  void ckpt_network_post(const std::shared_ptr<CkptOp>& op);
  void ckpt_standalone_done(const std::shared_ptr<CkptOp>& op);
  void ckpt_maybe_finish(const std::shared_ptr<CkptOp>& op);
  // COW concurrent checkpoint (DESIGN.md §11): snapshot-mark inside the
  // stop-the-world window, then serialize + commit to the SAN in a
  // background drain after the pod resumes.
  void ckpt_cowmark(const std::shared_ptr<CkptOp>& op);
  void ckpt_drain(const std::shared_ptr<CkptOp>& op);
  void ckpt_drain_chunk(const std::shared_ptr<CkptOp>& op, std::size_t off);
  void ckpt_drain_commit(const std::shared_ptr<CkptOp>& op);
  void ckpt_drain_fail(const std::shared_ptr<CkptOp>& op,
                       const std::string& why, bool transient);
  /// The drain's EPILOGUE_DONE, with the fields its commit and its
  /// failure share.
  EpilogueDone drain_epilogue(const CkptOp& op, bool ok);
  /// Two-phase SAN commit shared by the blocking and COW paths: stages
  /// the image at `<path>.tmp` and verifies its size (once per op), then
  /// with `publish` renames it into place and advances the pod's
  /// incremental chain.  A failure leaves at worst a `.tmp` for the GC —
  /// the last committed image is never clobbered.
  Status commit_image(CkptOp& op, const std::string& path, bool publish);
  /// Moves the pod's incremental chain onto a just-committed image.
  void advance_chain(const CkptOp& op);
  /// `transient` marks failures the Manager may safely retry (storage
  /// hiccup, barrier watchdog) in the CKPT_DONE report.
  void ckpt_abort(const std::shared_ptr<CkptOp>& op, const std::string& why,
                  bool transient = false);
  void deliver_image(const std::shared_ptr<CkptOp>& op);
  /// Captures header + processes into op->image, deciding full vs delta
  /// from the command and this agent's per-pod incremental state.
  void capture_standalone(const std::shared_ptr<CkptOp>& op, pod::Pod& pod);
  /// Pipelined delivery for agent:// destinations: schedules each chunk's
  /// send at the virtual time its serialization slice completes, so the
  /// wire transfer overlaps serialization instead of following it.
  void ckpt_stream(const std::shared_ptr<CkptOp>& op,
                   const net::SockAddr& endpoint, const std::string& tag);
  /// Ships redirected send queues to the peers' receiving agents
  /// (migration optimization); `raw` is the already-open stream channel.
  void ship_redirects(const std::shared_ptr<CkptOp>& op, MsgChannel* raw,
                      const net::SockAddr& stream_endpoint);

  // Restart phases (Figure 3, agent side).
  void restart_begin(Conn* conn, RestartCmd cmd);
  void restart_with_image(const std::shared_ptr<RestartOp>& op,
                          Bytes image_bytes);
  void restart_connectivity_done(const std::shared_ptr<RestartOp>& op,
                                 Status st, ckpt::SockMap map);
  void restart_wait_redirects(const std::shared_ptr<RestartOp>& op,
                              sim::Time waited);
  void restart_net_state(const std::shared_ptr<RestartOp>& op);
  void restart_standalone(const std::shared_ptr<RestartOp>& op);
  // Pipelined restore (DESIGN.md §13): the image streams from the SAN in
  // chunks, each costing max(fetch, decode, rebuild) instead of their
  // sum; with cmd.lazy only the hot working set streams before resume.
  void restart_stream_chunk(const std::shared_ptr<RestartOp>& op, u64 off,
                            u64 total);
  void restart_resume(const std::shared_ptr<RestartOp>& op);
  // Lazy window: background fills of the cold regions (plus demand
  // faults raised by the running pod), ending in an EPILOGUE_DONE.
  void restart_lazy_begin(const std::shared_ptr<RestartOp>& op);
  void restart_lazy_fill(const std::shared_ptr<RestartOp>& op,
                         std::size_t idx);
  void restart_lazy_fault(const std::shared_ptr<RestartOp>& op, i32 vpid,
                          const std::string& name);
  void restart_lazy_finish(const std::shared_ptr<RestartOp>& op);
  /// True while the lazy window for `op` should keep running (pod alive,
  /// not aborted, agent not crashed).
  bool lazy_live(const std::shared_ptr<RestartOp>& op);
  void restart_finish(const std::shared_ptr<RestartOp>& op, Status st);
  /// Manager-initiated teardown: a failed *coordinated* restart means
  /// even a pod this agent restored successfully must be destroyed
  /// (mirror of the checkpoint abort).
  void restart_abort(const std::shared_ptr<RestartOp>& op,
                     const std::string& why);

  // Introspection plane: periodic HEARTBEAT/PROGRESS beacons while an
  // op runs, stamped into the causal trace under the op's root span.
  void ckpt_beacon(const std::shared_ptr<CkptOp>& op);
  void restart_beacon(const std::shared_ptr<RestartOp>& op);
  void publish_beacon(MsgChannel* mgr, obs::OpId op_id,
                      const std::string& pod, u32 seq, const Watermark& wm,
                      obs::SpanId parent);

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

  void trace(const std::string& what);
  /// Causally-tagged trace event for a coordinated op this agent serves.
  void trace_op(const std::string& what, obs::OpId op, obs::SpanId parent);
  /// Consults the SAN QoS scheduler for `stream`'s current share and, if
  /// the grant changed since `last_share`, stamps a "qos: ..." receipt
  /// into the trace (the validator checks these when a drain window
  /// overlaps restart traffic).  Returns the granted share.
  double san_grant(u64 stream, const char* what, obs::OpId op_id,
                   obs::SpanId parent, double& last_share);
  /// Span stream behind the trace (nullptr when tracing is off).
  obs::SpanRecorder* rec() {
    return trace_ != nullptr ? &trace_->recorder() : nullptr;
  }
  /// Causal-trace context for handing down into filter/TCP/netckpt.
  obs::ObsTag tag(obs::OpId op, obs::SpanId parent);
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
