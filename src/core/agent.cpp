#include "core/agent.h"

#include <algorithm>
#include <type_traits>

#include "core/netckpt.h"
#include "fault/fault.h"
#include "net/tcp.h"
#include "obs/event.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/vtime.h"
#include "util/log.h"

namespace zapc::core {
namespace {

namespace ev = obs::ev;

constexpr std::size_t kStreamChunk = 256 * 1024;

/// Default share of region bytes restored eagerly when a lazy restart
/// does not pin one (RestartCmd::lazy_hot_permille == 0): the hot
/// quarter of the working set, by touch count.
constexpr u32 kDefaultHotPermille = 250;

/// Drops a captured image's region buffers, which it shares with the pod
/// (DESIGN.md §14): from here on the pod writes them without cloning.
void drop_regions(ckpt::PodImage& image) {
  for (auto& p : image.processes) p.regions.clear();
}

/// Region bytes an image holds, before any codec.
u64 region_bytes(const ckpt::PodImage& image) {
  u64 n = 0;
  for (const auto& p : image.processes) {
    for (const auto& [name, r] : p.regions) n += r.size();
  }
  return n;
}

/// Span name and histogram of each Agent::Phase, in enum order.  A
/// histogram observes its span's duration unless leave() is handed
/// another figure (a costed phase's unslowed cost, DESIGN.md §13).
struct PhaseInfo {
  const char* span;
  const char* histogram;
};
constexpr PhaseInfo kPhases[] = {
    {"ckpt.suspend", "agent.ckpt.suspend_us"},
    {"ckpt.netckpt", "agent.ckpt.netckpt_us"},
    {"ckpt.standalone", "agent.ckpt.standalone_us"},
    {"ckpt.stream", "agent.ckpt.stream_us"},
    {"ckpt.cowmark", "agent.ckpt.cowmark_us"},
    {"ckpt.barrier", "agent.ckpt.barrier_wait_us"},
    {"ckpt.drain", "agent.ckpt.drain_us"},
    {"restart.connectivity", "agent.restart.connectivity_us"},
    {"restart.netstate", "agent.restart.netstate_us"},
    {"restart.standalone", "agent.restart.standalone_us"},
    {"restart.lazy", "agent.restart.lazy_us"},
};

}  // namespace

Agent::Agent(os::Node& node, u16 port, CostModel costs, Trace* trace)
    : node_(node), port_(port), costs_(costs), trace_(trace) {
  server_ = std::make_unique<MsgServer>(
      node_.host_stack(), port_,
      [this](std::unique_ptr<MsgChannel> ch) { on_accept(std::move(ch)); });
}

Agent::~Agent() { *alive_ = false; }

net::SockAddr Agent::addr() const {
  return net::SockAddr{node_.addr(), port_};
}

sim::Time Agent::slowdown(sim::Time delay) const {
  if (fault::injector().enabled()) {
    double m = fault::injector().local_cost_multiplier(node_.name());
    if (m != 1.0) {
      delay = static_cast<sim::Time>(static_cast<double>(delay) * m);
    }
  }
  return delay;
}

template <typename Fn>
void Agent::after(sim::Time delay, Fn&& fn) {
  node_.engine().schedule(
      slowdown(delay),
      [this, alive = std::weak_ptr<bool>(alive_),
       f = std::forward<Fn>(fn)]() mutable {
        if (auto a = alive.lock(); !a || !*a) return;
        if (crashed_) return;  // a crashed agent runs nothing further
        f();
      });
}

bool Agent::fault_crashed(const char* phase) {
  if (crashed_ || !fault::injector().enabled()) return false;
  if (!fault::injector().crash_at_phase(node_.name(), phase)) return false;
  die("injected crash at " + std::string(phase));
  return true;
}

void Agent::die(const std::string& why) {
  crashed_ = true;
  // A dead node must not keep a grant on the cluster-wide SAN: release
  // any stream its in-flight ops registered so survivors get the full
  // pipe back.
  for (auto& c : conns_) {
    if (c.ckpt != nullptr) san_release(c.ckpt->san);
    if (c.restart != nullptr) san_release(c.restart->san);
  }
  ZLOG_WARN("agent@" << node_.name() << ": " << why);
  node_.fail();
}

void Agent::trace_op(const std::string& what, obs::OpId op,
                     obs::SpanId parent) {
  if (trace_ != nullptr) {
    trace_->add(node_.now(), "agent@" + node_.name(), what, parent, op);
  }
}

template <typename Op>
obs::ObsTag Agent::tag(const Op& op, obs::SpanId parent) {
  return obs::ObsTag{rec(), who(), op.cmd.pod_name, op.cmd.op_id, parent,
                     [this] { return node_.now(); }};
}

void Agent::end_span(obs::SpanId span) {
  if (obs::SpanRecorder* r = rec()) r->end_at(node_.now(), span);
}

// ---- The op skeleton (DESIGN.md §13) ---------------------------------------

template <typename Op>
void Agent::open_root(const std::shared_ptr<Op>& op, const char* name) {
  if (obs::SpanRecorder* r = rec()) {
    // cmd.parent_span is the Manager's root span: with a shared recorder
    // (Testbed/Trace) the agent's subtree hangs off the Manager's op.
    op->span_root = r->begin_at(op->t_start, name, who(),
                                op->cmd.parent_span, op->cmd.op_id);
  }
  if (op->cmd.heartbeat_us > 0) {
    after(op->cmd.heartbeat_us, [this, op] { beacon(op); });
  }
}

template <typename Op>
void Agent::enter(Op& op, Phase ph, sim::Time cost, u64 bytes) {
  const char* name = kPhases[static_cast<std::size_t>(ph)].span;
  const sim::Time now = node_.now();
  obs::SpanRecorder* r = rec();
  op.phases.push_back(
      {ph,
       r == nullptr ? 0
                    : r->begin_at(now, name, who(), op.span_root, op.cmd.op_id),
       now});
  op.wm = {name, now, now + slowdown(cost), bytes};
}

template <typename Op, typename Fn>
void Agent::charge(const std::shared_ptr<Op>& op, sim::Time cost, u64 bytes,
                   Fn&& next) {
  op->wm = {op->wm.phase, node_.now(), node_.now() + slowdown(cost), bytes};
  after(cost, [op, f = std::forward<Fn>(next)]() mutable {
    if (!op->finished) f();
  });
}

void Agent::leave(OpBase& op, Phase ph, std::optional<u64> observed) {
  static_assert(std::size(kPhases) == kPhaseCount);
  auto it = std::find_if(op.phases.begin(), op.phases.end(),
                         [ph](const OpenPhase& p) { return p.id == ph; });
  if (it == op.phases.end()) return;
  const auto i = static_cast<std::size_t>(ph);
  op.took[i] = observed.value_or(node_.now() - it->start);
  obs::metrics().histogram(kPhases[i].histogram).observe(op.took[i]);
  end_span(it->span);
  op.phases.erase(it);
}

template <typename Op>
void Agent::teardown(const std::shared_ptr<Op>& op, const std::string& why,
                     Cause cause) {
  constexpr bool kCkpt = std::is_same_v<Op, CkptOp>;
  const bool live = !op->finished;
  const bool ordered = cause == Cause::ABORTED;
  if (!live && (kCkpt || !ordered)) return;
  const char* kind = ordered ? "restart_abort" : nullptr;  // postmortem
  bool drain = false;  // past its barrier a checkpoint loses only the drain
  if constexpr (kCkpt) {
    drain = op->drain_pending;
    kind = drain ? "ckpt_drain_fail" : "ckpt_abort";
    op->drain_pending = false;
    drop_regions(op->image);
    op->encoded_image = Bytes{};
    // GC the staged half of a never-committed two-phase write.
    if (!op->san_tmp.empty() && node_.san().remove(op->san_tmp).is_ok()) {
      obs::metrics().counter("ckpt.commit.gc_tmp").inc();
    }
    op->san_tmp.clear();
  } else if (op->pod != nullptr) {
    op->pod->set_lazy_fault_handler(nullptr);  // stops the lazy window
  }
  op->finished = op->aborted = true;
  san_release(op->san);
  if (live && kind != nullptr) {
    ZLOG_WARN(who() << ": " << kind << " of " << op->cmd.pod_name << ": "
                    << why);
    // Dumped before the phases close: the postmortem's `phase` is the
    // phase still open at the moment of death.
    obs::dump_op_failure(rec(), kind, op->cmd.op_id, who(), why,
                         node_.now());
  }
  for (const OpenPhase& p : op->phases) end_span(p.span);
  op->phases.clear();
  end_span(op->span_root);

  // The kind's failure report.
  auto failed = [&](auto done) {
    done.error = why;
    done.transient = cause == Cause::TRANSIENT;
    return done;
  };
  if constexpr (kCkpt) {
    // The pod runs on: a failed drain loses only this checkpoint attempt,
    // and closes the epilogue its CKPT_DONE left open.
    if (drain) {
      return epilogue_done(op, Phase::DRAIN, failed(drain_report(*op)));
    }
    // Gracefully resume the application (paper §4).
    if (pod::Pod* pod = find_pod(op->cmd.pod_name)) {
      pod->filter().clear_obs_tag();
      pod->filter().unblock_addr(pod->vip());
      if (pod->suspended()) pod->resume();
    }
    if (op->mgr != nullptr) {
      (void)op->mgr->send(encode(failed(ckpt_report(*op))));
    }
  } else {
    std::erase_if(waiting_restarts_,
                  [&op](const auto& w) { return w.second == op; });
    // A Manager abort means the coordinated restart failed as a whole:
    // even a pod this agent restored must go.
    if (op->pod != nullptr) {
      if (ordered) op->connectivity.reset();  // holds references into it
      if (find_pod(op->cmd.pod_name) == op->pod) {
        (void)destroy_pod(op->cmd.pod_name);
        if (ordered) {
          trace_op(ev::Text(ev::kDestroy).kv(ev::kPod, op->cmd.pod_name),
                   op->cmd.op_id, op->span_root);
        }
      }
      op->pod = nullptr;
    }
    if (!ordered && op->mgr != nullptr) {
      (void)op->mgr->send(encode(failed(restart_report(*op))));
    }
  }
}

template <typename Op>
void Agent::epilogue_done(const std::shared_ptr<Op>& op, Phase ph,
                          EpilogueDone dd) {
  dd.op_id = op->cmd.op_id;
  dd.pod_name = op->cmd.pod_name;
  dd.epilogue_us = op->t_epilogue > 0 ? node_.now() - op->t_epilogue : 0;
  leave(*op, ph, dd.epilogue_us);
  end_span(op->span_root);
  if (op->mgr != nullptr && op->mgr->open()) {
    (void)op->mgr->send(encode(dd));
  }
}

// ---- QoS-metered SAN transfers (DESIGN.md §13) ------------------------------

void Agent::san_open(SanXfer& x, os::SanStreamClass cls) {
  x.stream = node_.san().stream_begin(cls);
  x.t_start = node_.now();
  x.steps = 0;
}

void Agent::san_release(SanXfer& x) {
  node_.san().stream_end(x.stream);  // no-op once released
  x.stream = 0;
}

template <typename Op>
void Agent::san_step(const std::shared_ptr<Op>& op,
                     const std::shared_ptr<const SanLeg>& leg, u64 off,
                     bool tail_paid) {
  SanXfer& x = op->san;
  if (leg->live && !leg->live()) return san_release(x);
  if (off >= leg->total && (x.steps > 0 || leg->chunk != 0)) {
    if (leg->tail && !tail_paid) {
      // The tail is charged with the grant still held; then the step
      // runs once more to release and finish.
      after(leg->tail(), [this, op, leg, off] {
        san_step(op, leg, off, /*tail_paid=*/true);
      });
      return;
    }
    san_release(x);
    return leg->done();
  }
  const u64 n = leg->chunk == 0 ? leg->total - off
                                : std::min(leg->chunk, leg->total - off);
  // Each chunk is costed against the share the SAN grants this stream
  // right now: foreground restart or migration traffic squeezes drains
  // to the background floor (pause-resume) and concurrent drains split
  // the rest.  An agent.qos receipt is stamped only on grant transitions,
  // so the trace stays bounded; the validator checks them where a drain
  // window overlaps restart traffic.
  const double share = node_.san().stream_share(x.stream);
  if (share != x.last_share) {
    x.last_share = share;
    trace_op(ev::Text(ev::kQos)
                 .kv(ev::kLeg, leg->what)
                 .kv("share_pct", static_cast<u64>(share * 100.0 + 0.5))
                 .kv("fg", node_.san().active_foreground())
                 .kv("drains", node_.san().active_drains()),
             op->cmd.op_id, op->inner_span());
  }
  const sim::Time cost = (costs_.*leg->cost)(n, share);
  ++x.steps;
  x.busy_us += cost;
  x.bytes += n;
  if (node_.san().foreground_active()) x.throttled_us += cost;
  if (node_.san().active_drains() > 1) x.contended_us += cost;
  const sim::Time eta = slowdown((costs_.*leg->cost)(leg->total - off, share));
  op->wm = {op->wm.phase, x.t_start, node_.now() + eta, leg->total};
  after(cost, [this, op, leg, next = off + n] { san_step(op, leg, next); });
}

// ---- Introspection plane (DESIGN.md §9) --------------------------------------

bool Agent::beacons_blacked_out() const {
  return fault::injector().enabled() &&
         fault::injector().heartbeat_blackout(node_.name(), node_.now());
}

template <typename Op>
void Agent::beacon(const std::shared_ptr<Op>& op) {
  if (op->finished || op->aborted) return;
  ++op->hb_seq;
  publish_beacon(*op);
  // after() dilates the interval on an injected slow node — its
  // userspace beacon loop is slow like everything else there, and each
  // (rarer) beacon still carries an honest watermark.
  after(op->cmd.heartbeat_us, [this, op] { beacon(op); });
}

template <typename Op>
void Agent::publish_beacon(const Op& op) {
  if (beacons_blacked_out()) return;
  const sim::Time now = node_.now();
  const Watermark& wm = op.wm;
  MsgChannel* mgr = op.mgr;
  HeartbeatMsg hb;
  hb.op_id = op.cmd.op_id;
  hb.pod_name = op.cmd.pod_name;
  hb.phase = wm.phase;
  hb.t_us = now;
  hb.seq = op.hb_seq;
  if (mgr != nullptr && mgr->open()) (void)mgr->send(encode(hb));
  obs::metrics().counter("agent.hb.sent").inc();

  // Watermarks accompany the beacon only while a byte-moving phase is
  // in flight; control phases (suspend, barrier) have nothing to meter.
  if (wm.bytes == 0 || wm.end <= wm.start) {
    trace_op(ev::Text(ev::kHeartbeat).kv("seq", hb.seq).kv("phase", wm.phase),
             hb.op_id, op.span_root);
    return;
  }
  const sim::Time extent = wm.end - wm.start;
  const sim::Time elapsed = now >= wm.end ? extent : now - wm.start;
  ProgressMsg pm;
  pm.op_id = hb.op_id;
  pm.pod_name = hb.pod_name;
  pm.phase = wm.phase;
  pm.t_us = now;
  pm.bytes_expected = wm.bytes;
  pm.bytes_done = static_cast<u64>(static_cast<double>(wm.bytes) *
                                   static_cast<double>(elapsed) /
                                   static_cast<double>(extent));
  pm.throughput_bps = static_cast<u64>(static_cast<double>(wm.bytes) *
                                       static_cast<double>(sim::kSecond) /
                                       static_cast<double>(extent));
  pm.eta_us = now >= wm.end ? 0 : wm.end - now;
  if (mgr != nullptr && mgr->open()) (void)mgr->send(encode(pm));
  obs::metrics().counter("agent.progress.sent").inc();
  trace_op(ev::Text(ev::kHeartbeat)
               .kv("seq", hb.seq)
               .kv("phase", wm.phase)
               .kv("done", pm.bytes_done)
               .kv("total", pm.bytes_expected)
               .kv("eta", obs::vtime_us(pm.eta_us)),
           hb.op_id, op.span_root);
}

// ---- Supervised mode (DESIGN.md §12) ----------------------------------------

void Agent::supervise_begin(Conn* conn, SuperviseCmd cmd) {
  supervise_ch_ = conn->ch.get();
  supervise_hb_us_ = cmd.heartbeat_us;
  trace_op(ev::Text(ev::kSupervised).kv("hb_us", supervise_hb_us_), 0, 0);
  if (supervise_hb_us_ > 0) supervise_tick();
}

void Agent::supervise_tick() {
  if (supervise_hb_us_ == 0 || supervise_ch_ == nullptr) return;
  const sim::Time now = node_.now();
  // The beacon loop is where a randomly-timed node death lands: the
  // whole node goes away, not just this agent's beacons.
  if (fault::injector().enabled() &&
      fault::injector().crash_due(node_.name(), now)) {
    return die("injected node crash at t=" + std::to_string(now) + "us");
  }
  if (!beacons_blacked_out() && supervise_ch_->open()) {
    HeartbeatMsg hb;
    hb.op_id = 0;  // node-level, not tied to a coordinated op
    hb.phase = busy() ? "busy" : "idle";
    hb.t_us = now;
    hb.seq = ++supervise_seq_;
    (void)supervise_ch_->send(encode(hb));
    obs::metrics().counter("agent.node_hb.sent").inc();
  }
  // after() dilates the cadence on an injected slow node — exactly the
  // signal the detector's discrimination thresholds must tolerate.
  after(supervise_hb_us_, [this] { supervise_tick(); });
}

// ---- Pod hosting ---------------------------------------------------------------

pod::Pod& Agent::create_pod(net::IpAddr vip, const std::string& name) {
  auto p = std::make_unique<pod::Pod>(node_, vip, name);
  pod::Pod& ref = *p;
  pods_[name] = std::move(p);
  return ref;
}

pod::Pod* Agent::find_pod(const std::string& name) {
  auto it = pods_.find(name);
  return it == pods_.end() ? nullptr : it->second.get();
}

Status Agent::destroy_pod(const std::string& name) {
  return pods_.erase(name) > 0 ? Status::ok() : Status(Err::NO_ENT, name);
}

bool Agent::busy() const {
  for (const auto& c : conns_) {
    if ((c.ckpt && !c.ckpt->finished) ||
        (c.restart && !c.restart->finished)) {
      return true;
    }
  }
  return !waiting_restarts_.empty();
}

// ---- Connection handling ---------------------------------------------------------

std::size_t Agent::held_ckpt_bytes() const {
  std::size_t n = 0;
  for (const auto& c : conns_) {
    if (c.ckpt == nullptr) continue;
    n += c.ckpt->encoded_image.size() + region_bytes(c.ckpt->image);
  }
  return n;
}

void Agent::on_accept(std::unique_ptr<MsgChannel> ch) {
  conns_.push_back(Conn{std::move(ch), nullptr, nullptr, false});
  Conn* conn = &conns_.back();
  conn->ch->set_on_msg([this, conn](Bytes msg) { on_msg(conn, std::move(msg)); });
  conn->ch->set_on_closed([this, conn] { on_closed(conn); });
}

void Agent::on_msg(Conn* conn, Bytes msg) {
  if (crashed_) return;
  auto type = peek_type(msg);
  if (!type) return;
  switch (type.value()) {
    case MsgType::CHECKPOINT_CMD: {
      auto cmd = decode<CheckpointCmd>(msg);
      if (cmd) ckpt_begin(conn, std::move(cmd).value());
      break;
    }
    case MsgType::CONTINUE: {
      if (conn->ckpt) {
        auto cont = decode<ContinueMsg>(msg);
        conn->ckpt->continue_received = true;
        // The Manager's 'continue' EVENT id is the cross-node parent of
        // everything this agent does from here on (unblock, resume,
        // first retransmit) — the causal edge of the Figure-2 barrier.
        if (cont) conn->ckpt->continue_event = cont.value().continue_event;
        ckpt_maybe_finish(conn->ckpt);
      }
      break;
    }
    case MsgType::RESTART_CMD: {
      auto cmd = decode<RestartCmd>(msg);
      if (cmd) restart_begin(conn, std::move(cmd).value());
      break;
    }
    case MsgType::STREAM_OPEN: {
      auto m = decode<StreamOpen>(msg);
      if (m) {
        Stream s;
        s.op_id = m.value().op_id;
        streams_[m.value().tag] = std::move(s);
      }
      break;
    }
    case MsgType::STREAM_CHUNK: {
      auto m = decode<StreamChunk>(msg);
      if (m) {
        const ByteView& chunk = m.value().data;
        append_bytes(streams_[m.value().tag].data, chunk.data, chunk.size);
      }
      break;
    }
    case MsgType::STREAM_CLOSE: {
      auto m = decode<StreamClose>(msg);
      if (!m) break;
      const std::string& tag = m.value().tag;
      streams_[tag].complete = true;
      trace_op(ev::Text(ev::kStreamIn)
                   .kv("tag", tag)
                   .kv("bytes", streams_[tag].data.size()),
               streams_[tag].op_id, 0);
      auto wit = waiting_restarts_.find(tag);
      if (wit != waiting_restarts_.end()) {
        auto op = wit->second;
        waiting_restarts_.erase(wit);
        op->stream_op = streams_[tag].op_id;
        restart_with_image(op, streams_[tag].data);
      }
      break;
    }
    case MsgType::REDIRECT_DATA: {
      auto m = decode<RedirectData>(msg);
      if (m) redirects_.push_back(std::move(m).value());
      break;
    }
    case MsgType::ABORT: {
      if (conn->ckpt) teardown(conn->ckpt, "manager abort", Cause::ABORTED);
      if (conn->restart) {
        teardown(conn->restart, "manager abort", Cause::ABORTED);
      }
      break;
    }
    case MsgType::SUPERVISE_CMD: {
      auto cmd = decode<SuperviseCmd>(msg);
      if (cmd) supervise_begin(conn, cmd.value());
      break;
    }
    default:
      break;
  }
}

void Agent::on_closed(Conn* conn) {
  // Paper §4: "an Agent failure will be readily detected by the Manager
  // ... Similarly a failure of the Manager itself will be noted by the
  // Agents.  In both cases, the operation will be gracefully aborted, and
  // the application will resume its execution."
  if (conn->ckpt) {
    teardown(conn->ckpt, "manager connection lost", Cause::ABORTED);
  }
  // A finished restore is left alone on channel close (the normal end of
  // a successful op); an unfinished one means the Manager died mid-op.
  if (conn->restart && !conn->restart->finished) {
    teardown(conn->restart, "manager connection lost", Cause::ABORTED);
  }
  // The Manager closes the channel once the coordinated op is over: a
  // restore that finished OK and was never aborted is done with its
  // migration stream.  (An aborted one keeps it for a whole-op retry;
  // a newer stream reusing the tag is not this restore's to drop.)
  if (conn->restart && conn->restart->finished && !conn->restart->aborted) {
    auto it = streams_.find(conn->restart->stream_tag);
    if (it != streams_.end() && it->second.op_id == conn->restart->stream_op) {
      streams_.erase(it);
    }
  }
  if (conn->ch.get() == supervise_ch_) {
    supervise_ch_ = nullptr;  // supervisor went away; beacons stop
    supervise_hb_us_ = 0;
  }
  conn->dead = true;
  after(0, [this] { reap_conns(); });
}

void Agent::reap_conns() {
  conns_.remove_if([](const Conn& c) { return c.dead; });
}

// ---- Checkpoint (Figure 1) ----------------------------------------------------------

void Agent::ckpt_begin(Conn* conn, CheckpointCmd cmd) {
  auto op = std::make_shared<CkptOp>();
  op->cmd = std::move(cmd);
  op->mgr = conn->ch.get();
  op->t_start = node_.now();
  op->dest = parse_uri(op->cmd.dest_uri);
  op->ordering = ordering_;
  conn->ckpt = op;
  if (fault_crashed("ckpt.begin")) return;

  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) {
    CkptDone done = ckpt_report(*op);
    done.error = "no such pod";
    op->finished = true;
    (void)op->mgr->send(encode(done));
    return;
  }

  open_root(op, "ckpt");
  enter(*op, Phase::SUSPEND);

  // COW eligibility (DESIGN.md §11): snapshots to the SAN under
  // NETWORK_FIRST ordering only; anything else (migration, pipelined
  // streaming, the ablation ordering) silently falls back to the
  // blocking checkpoint.
  if (op->cmd.cow && op->cmd.mode == CkptMode::SNAPSHOT &&
      !op->cmd.pipelined && op->ordering == CkptOrdering::NETWORK_FIRST) {
    op->cow = op->dest && op->dest.value().scheme == "san";
    if (op->cow) op->san_final = op->dest.value().path;
  }

  // Step 1: suspend the pod and block its network.
  trace_op(ev::Text(ev::kSuspend).kv(ev::kPod, op->cmd.pod_name),
           op->cmd.op_id, op->span_root);
  pod->suspend();
  pod->filter().set_obs_tag(tag(*op, op->inner_span()));
  pod->filter().block_addr(pod->vip());
  charge(op, costs_.suspend_cost(pod->process_count()), 0,
         [this, op] { ckpt_next(op); });
}

void Agent::ckpt_next(const std::shared_ptr<CkptOp>& op) {
  // NETWORK_FIRST reports the meta-data first, so the standalone step
  // overlaps the Manager's barrier (Figure 2); NETWORK_LAST reverses.
  const bool net_first = op->ordering == CkptOrdering::NETWORK_FIRST;
  switch (op->steps++) {
    case 0:
      return net_first ? ckpt_network(op) : ckpt_standalone(op);
    case 1:
      if (!net_first) return ckpt_network(op);
      return op->cow ? ckpt_cowmark(op) : ckpt_standalone(op);
    default:
      if (!net_first) encode_op_image(*op);  // see ckpt_standalone
      return ckpt_standalone_done(op);
  }
}

pod::Pod* Agent::ckpt_step(const std::shared_ptr<CkptOp>& op, Phase ph) {
  if (op->finished) return nullptr;
  if (fault_crashed(kPhases[static_cast<std::size_t>(ph)].span)) {
    return nullptr;
  }
  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) {
    teardown(op, "pod vanished");
    return nullptr;
  }
  leave(*op, Phase::SUSPEND);
  enter(*op, ph);
  return pod;
}

void Agent::capture_standalone(const std::shared_ptr<CkptOp>& op,
                               pod::Pod& pod) {
  op->image.header = ckpt::Standalone::save_header(pod);
  op->image.header.codec_flags =
      op->cmd.codec_flags & (ckpt::kCodecZeroElide | ckpt::kCodecDedup);

  // Delta eligibility: incremental snapshots to the SAN only, with a
  // valid baseline, an un-exhausted chain, and a destination that would
  // not overwrite one of the chain's own images.
  const ckpt::DeltaBaseline* baseline = nullptr;
  if (op->cmd.incremental && op->cmd.mode == CkptMode::SNAPSHOT) {
    auto it = incr_.find(op->cmd.pod_name);
    if (op->dest && op->dest.value().scheme == "san" && it != incr_.end() &&
        it->second.valid && it->second.chain_len < op->cmd.chain_cap &&
        it->second.chain_uris.count(op->dest.value().path) == 0) {
      baseline = &it->second.base;
      op->is_delta = true;
      op->image.header.codec_flags |= ckpt::kCodecDelta;
      op->image.header.delta_seq = it->second.delta_seq + 1;
      op->image.header.base_uri = it->second.last_uri;
    }
  }
  op->image.processes = ckpt::Standalone::save_processes(pod, baseline);
  op->logical_bytes = 0;
  for (const auto& p : op->image.processes) {
    for (const auto& [name, meta] : p.manifest) {
      op->logical_bytes += meta.size;
    }
  }

  // Observe the workload's write rate: logical bytes whose generation
  // moved since the previous capture, over the wall time between the
  // two.  This feeds the COW dirty tax, so an idle pod's drain pays
  // ~nothing while a hot one pays up to the flat model rate.
  IncrState& ist = incr_[op->cmd.pod_name];
  if (ist.valid && ist.last_capture_at > 0 &&
      node_.now() > ist.last_capture_at) {
    u64 moved = 0;
    for (const auto& p : op->image.processes) {
      auto git = ist.base.gens.find(p.vpid);
      for (const auto& [name, meta] : p.manifest) {
        bool dirty = true;
        if (git != ist.base.gens.end()) {
          auto bit = git->second.find(name);
          dirty = bit == git->second.end() || bit->second != meta.gen;
        }
        if (dirty) moved += meta.size;
      }
    }
    ist.observed_dirty_bps =
        moved * sim::kSecond / (node_.now() - ist.last_capture_at);
  }
  ist.last_capture_at = node_.now();
}

void Agent::ckpt_network(const std::shared_ptr<CkptOp>& op) {
  pod::Pod* pod = ckpt_step(op, Phase::NETCKPT);
  if (pod == nullptr) return;

  // Step 2: network-state checkpoint (sockets + kernel-bypass device).
  Status st = NetCheckpoint::save(*pod, op->image.meta, op->image.sockets,
                                  tag(*op, op->inner_span()));
  if (!st) return teardown(op, st.to_string());
  if (gm::GmDevice* dev = pod->gm_device_if_present()) {
    op->image.has_gm_device = true;
    op->image.gm_state = dev->extract_state();
    op->queued_bytes += op->image.gm_state.size();
  }
  for (const auto& s : op->image.sockets) {
    op->queued_bytes += s.byte_size();
  }
  const sim::Time cost =
      costs_.net_ckpt_cost(op->image.sockets.size(), op->queued_bytes);
  charge(op, cost, op->queued_bytes, [this, op, cost] {
    leave(*op, Phase::NETCKPT, cost);
    MetaReport report;
    report.op_id = op->cmd.op_id;
    report.pod_name = op->cmd.pod_name;
    report.meta = op->image.meta;
    report.net_ckpt_us = cost;
    (void)op->mgr->send(encode(report));
    // Step 2a: meta-data reported; under NETWORK_FIRST the standalone
    // checkpoint proceeds at once (the barrier overlaps it).
    ckpt_next(op);
  });
}

void Agent::ckpt_standalone(const std::shared_ptr<CkptOp>& op) {
  pod::Pod* pod = ckpt_step(op, Phase::STANDALONE);
  if (pod == nullptr) return;

  // Step 3: standalone pod checkpoint (Zap substrate).
  capture_standalone(op, *pod);
  u64 bytes = 0;
  if (op->ordering == CkptOrdering::NETWORK_LAST) {
    // NETWORK_LAST's one real difference: the network state is not saved
    // yet, so there is no image to encode.  This step charges the raw
    // region bytes, neither redirects nor pipelines, and ckpt_next
    // encodes once the network step is done.
    bytes = region_bytes(op->image);
  } else {
    // Migration redirect optimization (paper §5): every connected TCP
    // socket whose peer's destination agent is known ships its (possibly
    // empty) send queue straight to that agent, so the restoring side can
    // deterministically wait for it.  Any other send queue stays in the
    // image and restores through the normal resend path.
    if (op->cmd.redirect_send_queues && op->cmd.mode == CkptMode::MIGRATE) {
      const auto& peers = op->cmd.peer_agents;
      for (auto& s : op->image.sockets) {
        if (s.proto != net::Proto::TCP || !s.connected ||
            std::none_of(peers.begin(), peers.end(), [&s](const auto& p) {
              return p.first == s.remote.ip;
            })) {
          continue;
        }
        op->redirects.push_back(RedirectData{op->cmd.op_id, s.remote.ip,
                                             s.remote, s.local, s.pcb_acked,
                                             std::move(s.send_queue)});
        s.send_queue.clear();
        s.send_queue_redirected = true;
      }
    }
    encode_op_image(*op);
    bytes = op->encoded_size;
    // Pipelined migration streaming: hand chunks to the wire as their
    // serialization slices complete instead of materializing-then-sending.
    if (op->cmd.pipelined && op->dest && op->dest.value().scheme == "agent") {
      return ckpt_stream(op);
    }
  }

  const sim::Time cost =
      costs_.standalone_ckpt_cost(bytes, op->image.processes.size());
  charge(op, cost, bytes, [this, op, cost] {
    leave(*op, Phase::STANDALONE, cost);
    ckpt_next(op);
  });
}

void Agent::encode_op_image(CkptOp& op) {
  // An image bound for a SAN path overwritten before is written into the
  // storage that path's last commit displaced (DESIGN.md §8.2).
  Bytes spare;
  if (op.dest && op.dest.value().scheme == "san") {
    spare = node_.san().take_spare(op.dest.value().path);
  }
  op.encoded_image = ckpt::encode_image(op.image, std::move(spare));
  op.encoded_size = op.encoded_image.size();
  drop_regions(op.image);
}

void Agent::ckpt_stream(const std::shared_ptr<CkptOp>& op) {
  const sim::Time t0 = node_.now();
  const sim::Time took = stream_image(op, /*pipelined=*/true, [this, op, t0] {
    // The stream is the standalone step: one figure for both phases.
    const u64 us = node_.now() - t0;
    leave(*op, Phase::STREAM, us);
    leave(*op, Phase::STANDALONE, us);
    op->delivered = true;
    ckpt_next(op);
  });
  if (op->aborted) return;
  enter(*op, Phase::STREAM, took, op->encoded_size);
}

sim::Time Agent::stream_image(const std::shared_ptr<CkptOp>& op,
                              bool pipelined, std::function<void()> on_sent) {
  const Uri& dest = op->dest.value();
  auto ch = connect_channel(node_.host_stack(), dest.endpoint);
  if (ch == nullptr) {
    teardown(op, "cannot reach stream target");
    return 0;
  }
  MsgChannel* raw = ch.get();
  out_channels_.push_back(std::move(ch));
  (void)raw->send(encode(StreamOpen{op->cmd.op_id, dest.path}));

  // Pipelined, the per-process control overhead is charged once, up
  // front; after that each chunk becomes sendable when its serialization
  // slice elapses and enters the (simulated) TCP pipe then, so transfer
  // overlaps the remaining serialization: the stream takes about
  // max(serialize, transfer) plus one chunk's fill (DESIGN.md §7.4)
  // where the materialize path pays serialize + transfer.
  sim::Time at = pipelined ? costs_.per_process * op->image.processes.size()
                           : 0;
  const std::size_t total = op->encoded_image.size();
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(kStreamChunk, total - off);
    const bool last = off + n >= total;
    auto send = [this, op, raw, off, n, last,
                 fin = last ? on_sent : nullptr] {
      if (op->aborted) return;
      const std::string& tag = op->dest.value().path;
      (void)raw->send(encode(
          StreamChunk{tag, ByteView{op->encoded_image.data() + off, n}}));
      if (!last) return;
      // Every byte is in the channel now; the op keeps only the size.
      op->encoded_image = Bytes{};
      (void)raw->send(encode(StreamClose{tag}));
      ship_redirects(op, raw);
      if (fin) fin();
    };
    off += n;
    if (!pipelined) {
      send();
      continue;
    }
    at += costs_.serialize_cost(n);
    after(at, std::move(send));
  } while (off < total);
  return at;
}

void Agent::ckpt_standalone_done(const std::shared_ptr<CkptOp>& op) {
  op->t_standalone_done = node_.now();
  enter(*op, Phase::BARRIER);
  // COW mode stages nothing here: serialization and the SAN write both
  // happen in the background drain, after the pod has resumed.
  if (!op->delivered && !op->cow) deliver_image(op);
  ckpt_maybe_finish(op);
  // Barrier watchdog: a stalled Manager (or a peer agent holding up the
  // barrier) must not leave this pod suspended forever.  The resulting
  // CKPT_DONE is marked transient — the whole op is safe to retry.
  if (!op->finished && !op->aborted && !op->continue_received &&
      op->cmd.barrier_wait_us > 0) {
    after(op->cmd.barrier_wait_us, [this, op] {
      if (op->finished || op->aborted || op->continue_received) return;
      teardown(op, "continue barrier deadline expired (manager stalled)",
               Cause::TRANSIENT);
    });
  }
}

// ---- COW concurrent checkpoint (DESIGN.md §11) -------------------------------

void Agent::ckpt_cowmark(const std::shared_ptr<CkptOp>& op) {
  pod::Pod* pod = ckpt_step(op, Phase::COWMARK);
  if (pod == nullptr) return;

  // The in-memory capture IS the COW snapshot: the image shares the
  // pod's region buffers, and a region the resumed pod writes while the
  // image still holds it is cloned first, so the snapshot keeps this
  // instant's contents (DESIGN.md §11, §14).  Only the page-table walk
  // is charged to the stop-the-world window; serialization waits for
  // the background drain.
  capture_standalone(op, *pod);

  const sim::Time cost = costs_.cow_mark_cost(op->image.processes.size());
  charge(op, cost, 0, [this, op, cost] {
    leave(*op, Phase::COWMARK, cost);
    ckpt_next(op);
  });
}

void Agent::ckpt_drain(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  if (fault_crashed("ckpt.drain")) return;
  san_open(op->san, os::SanStreamClass::BACKGROUND);
  op->t_epilogue = node_.now();
  enter(*op, Phase::DRAIN);
  encode_op_image(*op);
  san_step(op,
           std::make_shared<const SanLeg>(SanLeg{
               .what = ev::kLegDrain,
               .total = op->encoded_size,
               .chunk = kStreamChunk,
               .cost = &CostModel::qos_drain_chunk_cost,
               .live = [op] { return !op->aborted; },
               // COW tax, part 1: pages the running pod dirtied while the
               // drain was in flight were each copied before their first
               // overwrite; that copy is charged to the drain (never to
               // downtime), at the workload's observed write rate.
               .tail =
                   [this, op] {
                     u64 rate = costs_.cow_dirty_rate(
                         incr_[op->cmd.pod_name].observed_dirty_bps);
                     op->dirtied_bytes = costs_.cow_dirty_bytes(
                         node_.now() - op->san.t_start, op->logical_bytes,
                         rate);
                     return costs_.cow_copy_cost(op->dirtied_bytes);
                   },
               .done = [this, op] { ckpt_drain_commit(op); },
           }),
           0);
}

void Agent::ckpt_drain_commit(const std::shared_ptr<CkptOp>& op) {
  // The blocking path's two-phase commit in one go: nothing to wait for,
  // the pod has long resumed.
  Status st = commit_image(*op, op->san_final, /*publish=*/true);
  if (!st) return teardown(op, st.message(), Cause::TRANSIENT);

  op->drain_pending = false;
  op->finished = true;
  EpilogueDone dd = drain_report(*op);
  dd.ok = true;
  dd.image_bytes = op->encoded_size;
  obs::metrics().histogram("agent.ckpt.cow_dirtied_bytes")
      .observe(op->dirtied_bytes);
  epilogue_done(op, Phase::DRAIN, std::move(dd));
}

EpilogueDone Agent::drain_report(const CkptOp& op) {
  EpilogueDone dd;
  dd.dirtied_bytes = op.dirtied_bytes;
  dd.throttled_us = op.san.throttled_us;
  dd.contended_us = op.san.contended_us;
  dd.granted_bps =
      op.san.busy_us > 0 ? op.san.bytes * sim::kSecond / op.san.busy_us : 0;
  return dd;
}

Status Agent::commit_image(CkptOp& op, const std::string& path,
                           bool publish) {
  if (op.san_tmp.empty()) {
    op.san_tmp = staging_path(path);
    op.san_final = path;
    // The SAN takes the encoded buffer over: staging copies no bytes.
    Status wst = node_.san().write(op.san_tmp, std::move(op.encoded_image));
    if (!wst) {
      op.san_tmp.clear();
      return Status(Err::IO, "image write failed: " + wst.message());
    }
    // Size verification catches short/torn writes pre-commit.
    auto size = node_.san().size_of(op.san_tmp);
    if (!size || size.value() != op.encoded_size) {
      (void)node_.san().remove(op.san_tmp);
      op.san_tmp.clear();
      return Status(Err::IO, "image verification failed (torn write)");
    }
  }
  if (!publish) return Status::ok();
  Status cst = node_.san().rename(op.san_tmp, op.san_final);
  if (!cst) return Status(Err::IO, "image commit failed: " + cst.message());
  op.san_tmp.clear();
  obs::metrics().counter("ckpt.commit.committed").inc();
  // Only a committed image advances the incremental chain — an aborted
  // delta must not become the next base.
  if (op.cmd.mode == CkptMode::SNAPSHOT) advance_chain(op);
  return Status::ok();
}

void Agent::advance_chain(const CkptOp& op) {
  IncrState& ist = incr_[op.cmd.pod_name];
  if (op.is_delta) {
    ist.chain_len += 1;
    ist.delta_seq = op.image.header.delta_seq;
  } else {
    ist.chain_uris.clear();
    ist.chain_len = 0;
    ist.delta_seq = 0;
  }
  ist.chain_uris.insert(op.san_final);
  ist.last_uri = op.cmd.dest_uri;
  ist.base = ckpt::DeltaBaseline::from_images(op.image.processes);
  ist.valid = true;
  // COW tax, part 2: regions dirtied during a drain are stale in this
  // baseline.  Poison their recorded generations (no live region ever
  // reaches ~0) so the next incremental delta re-emits them instead of
  // wrongly treating them as clean.
  u64 budget = op.dirtied_bytes;
  for (const auto& p : op.image.processes) {
    for (const auto& [name, meta] : p.manifest) {
      if (budget == 0) break;
      ist.base.gens[p.vpid][name] = ~u64{0};
      budget -= std::min(budget, meta.size);
    }
    if (budget == 0) break;
  }
}

void Agent::ship_redirects(const std::shared_ptr<CkptOp>& op,
                           MsgChannel* raw) {
  // Redirected send queues go to the agents receiving the peers'
  // streams.
  for (auto& rd : op->redirects) {
    net::SockAddr peer_agent{};
    for (const auto& [vip, a] : op->cmd.peer_agents) {
      if (vip == rd.dst_pod_vip) peer_agent = a;
    }
    if (peer_agent.port == 0) continue;  // peer not migrating
    MsgChannel* target = raw;
    if (peer_agent != op->dest.value().endpoint) {
      auto ch2 = connect_channel(node_.host_stack(), peer_agent);
      if (ch2 == nullptr) continue;
      target = ch2.get();
      out_channels_.push_back(std::move(ch2));
    }
    (void)target->send(encode(rd));
  }
}

void Agent::deliver_image(const std::shared_ptr<CkptOp>& op) {
  if (fault_crashed("ckpt.deliver")) return;
  if (!op->dest) return teardown(op, op->dest.status().to_string());
  const Uri& dest = op->dest.value();
  if (dest.scheme == "san") {
    // Two-phase commit: stage the image now; it only replaces the
    // previous image in ckpt_maybe_finish, after the continue barrier.
    // Until then an abort or crash leaves the last committed image
    // untouched, and the incremental chain state — updated at commit —
    // stays in sync with what is actually on the SAN.
    Status st = commit_image(*op, dest.path, /*publish=*/false);
    if (!st) teardown(op, st.message(), Cause::TRANSIENT);
    return;
  }
  if (dest.scheme == "agent") {
    // Direct streaming to the destination agent — "enabling direct
    // migration of a distributed application to a new set of nodes
    // without saving and restoring state from secondary storage" (§1).
    // The standalone charge already paid for serialization, so every
    // chunk goes out now (see ckpt_stream for the pipelined schedule).
    stream_image(op, /*pipelined=*/false, nullptr);
    return;
  }
  teardown(op, "unsupported checkpoint destination " + op->cmd.dest_uri);
}

void Agent::ckpt_maybe_finish(const std::shared_ptr<CkptOp>& op) {
  if (op->finished || op->aborted || op->drain_pending) return;
  // Steps 3a/4a: finish only after the standalone checkpoint completed
  // AND the Manager's continue arrived (the single synchronization).
  if (op->t_standalone_done == 0 || !op->continue_received) return;
  if (fault_crashed("ckpt.barrier")) return;

  // Commit point: the staged image atomically replaces the previous one
  // only now, past the barrier.  Only a committed image advances the
  // incremental chain — an aborted delta must not become the next base.
  if (!op->san_tmp.empty()) {
    Status st = commit_image(*op, op->san_final, /*publish=*/true);
    if (!st) return teardown(op, st.message(), Cause::TRANSIENT);
  }
  // COW mode: the pod resumes now, but the op stays open — the image
  // drains to the SAN in the background and EPILOGUE_DONE closes it.
  if (op->cow) {
    op->drain_pending = true;
  } else {
    op->finished = true;
  }

  leave(*op, Phase::BARRIER);
  // A COW op's root span stays open until its drain's EPILOGUE_DONE.
  if (!op->cow) end_span(op->span_root);

  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod != nullptr) {
    if (op->cmd.fs_snapshot) {
      // "A file-system snapshot (if desired) may be taken immediately
      // prior to reactivating the pod."
      node_.san().snapshot("pods/" + op->cmd.pod_name + "/",
                           "snapshots/" + op->cmd.pod_name + "/");
    }
    if (op->cmd.mode == CkptMode::SNAPSHOT) {
      pod->filter().clear_obs_tag();
      pod->filter().unblock_addr(pod->vip());
      pod->resume();
      // Parented under the Manager's 'continue' EVENT: the cross-node
      // causal edge (barrier release → this pod's unblock/resume).
      trace_op(ev::Text(ev::kResume).kv(ev::kPod, op->cmd.pod_name),
               op->cmd.op_id, op->continue_event);
      // Suppressed retransmissions resume on their own once the filter
      // opens; tag each established socket so the first one extends the
      // causal tree down to the wire.
      net::Stack& stack = pod->stack();
      for (net::SockId sid : stack.all_socket_ids()) {
        if (net::TcpSocket* t = stack.find_tcp(sid)) {
          if (t->state() == net::TcpState::ESTABLISHED) {
            t->tag_next_retransmit(tag(*op, op->continue_event));
          }
        }
      }
    } else {
      pod->filter().clear_obs_tag();
      (void)destroy_pod(op->cmd.pod_name);
      trace_op(ev::Text(ev::kDestroy).kv(ev::kPod, op->cmd.pod_name),
               op->cmd.op_id, op->continue_event);
    }
  }

  CkptDone done = ckpt_report(*op);
  done.ok = true;
  done.image_bytes = op->encoded_size;
  done.network_bytes = op->image.network_bytes();
  done.logical_bytes = op->logical_bytes;
  done.delta_seq = op->is_delta ? op->image.header.delta_seq : 0;
  done.drain_pending = op->cow;
  done.cowmark_us = op->took_us(Phase::COWMARK);
  (void)op->mgr->send(encode(done));

  // Downtime is over; start draining the snapshot to the SAN.
  if (op->cow) ckpt_drain(op);
}

CkptDone Agent::ckpt_report(const CkptOp& op) {
  CkptDone done;
  done.op_id = op.cmd.op_id;
  done.pod_name = op.cmd.pod_name;
  done.total_us = node_.now() - op.t_start;
  done.suspend_us = op.took_us(Phase::SUSPEND);
  done.netckpt_us = op.took_us(Phase::NETCKPT);
  done.standalone_us = op.took_us(Phase::STANDALONE);
  done.barrier_us =
      op.t_standalone_done > 0 ? node_.now() - op.t_standalone_done : 0;
  return done;
}

// ---- Restart (Figure 3) ---------------------------------------------------------------

void Agent::restart_begin(Conn* conn, RestartCmd cmd) {
  auto op = std::make_shared<RestartOp>();
  op->cmd = std::move(cmd);
  op->mgr = conn->ch.get();
  op->t_start = node_.now();
  conn->restart = op;
  if (fault_crashed("restart.begin")) return;
  open_root(op, "restart");
  op->wm = Watermark{"restart"};

  // Apply the virtual→real location updates ("substituting the
  // destination network addresses in place of the original addresses").
  for (const auto& [vip, real] : op->cmd.locations) {
    node_.locations().set(vip, real);
  }

  auto uri = parse_uri(op->cmd.source_uri);
  if (!uri) return restart_finish(op, uri.status());

  if (uri.value().scheme == "san") {
    // Both paths decode straight from the committed object.  Pipelined
    // restore charges its fetch leg per chunk through san_step; the
    // bytes themselves land instantly (simulation logic).
    auto data = node_.san().view(uri.value().path);
    if (!data) return restart_finish(op, data.status());
    restart_with_image(op, *data.value());
    return;
  }
  if (uri.value().scheme == "stream") {
    op->stream_tag = uri.value().path;
    auto it = streams_.find(uri.value().path);
    if (it != streams_.end() && it->second.complete) {
      op->stream_op = it->second.op_id;
      restart_with_image(op, it->second.data);
    } else {
      // The checkpoint stream is still arriving; resume when complete.
      waiting_restarts_[uri.value().path] = op;
      if (op->cmd.stream_wait_us > 0) {
        after(op->cmd.stream_wait_us, [this, op, stag = uri.value().path] {
          auto wit = waiting_restarts_.find(stag);
          if (wit == waiting_restarts_.end() || wit->second != op) return;
          if (op->finished) return;
          waiting_restarts_.erase(wit);
          restart_finish(op, Status(Err::TIMED_OUT,
                                    "checkpoint stream " + stag +
                                        " not delivered within deadline"));
        });
      }
    }
    return;
  }
  restart_finish(op, Status(Err::INVALID, "unsupported restart source"));
}

void Agent::restart_with_image(const std::shared_ptr<RestartOp>& op,
                               const Bytes& image_bytes) {
  if (op->finished) return;
  if (fault_crashed("restart.connectivity")) return;
  auto image = ckpt::decode_image(image_bytes);
  if (!image) return restart_finish(op, image.status());
  op->image = std::move(image).value();
  ev::Text created(ev::kCreate);
  created.kv(ev::kPod, op->cmd.pod_name).kv("bytes", image_bytes.size());

  // Delta image: walk the base chain back to the full root (all bases
  // live on the cluster-wide SAN, so any node can compose), then overlay
  // the deltas oldest-first.
  if (op->image.header.is_delta()) {
    std::vector<ckpt::PodImage> chain;  // newest delta first
    std::size_t depth = 0;
    while (op->image.header.is_delta()) {
      if (++depth > 64) {
        return restart_finish(op,
                              Status(Err::PROTO, "delta chain too deep"));
      }
      auto base_uri = parse_uri(op->image.header.base_uri);
      if (!base_uri || base_uri.value().scheme != "san") {
        return restart_finish(
            op, Status(Err::PROTO, "delta base must be on the SAN: " +
                                       op->image.header.base_uri));
      }
      auto data = node_.san().view(base_uri.value().path);
      if (!data) return restart_finish(op, data.status());
      auto base = ckpt::decode_image(*data.value());
      if (!base) return restart_finish(op, base.status());
      chain.push_back(std::move(op->image));
      op->image = std::move(base).value();
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      auto composed = ckpt::compose_delta(std::move(op->image), *it);
      if (!composed) return restart_finish(op, composed.status());
      op->image = std::move(composed).value();
    }
    obs::metrics().counter("agent.restart.deltas_composed").inc(depth);
    created.kv("delta_depth", depth);
  }

  if (node_.find_domain(op->image.header.vip) != nullptr) {
    if (!op->cmd.replace_existing) {
      return restart_finish(
          op, Status(Err::EXISTS, "vip already hosted on this node"));
    }
    // Supervisor recovery: the surviving pod is superseded by the
    // committed image — tear it down and restore in its place.
    for (auto it = pods_.begin(); it != pods_.end(); ++it) {
      if (it->second->vip() == op->image.header.vip) {
        created.kv("replaced", it->first);
        pods_.erase(it);
        break;
      }
    }
    if (node_.find_domain(op->image.header.vip) != nullptr) {
      return restart_finish(
          op, Status(Err::EXISTS, "vip hosted by a foreign domain"));
    }
  }

  // Step 1: create a new pod.
  op->pod = &create_pod(op->image.header.vip, op->cmd.pod_name);
  ckpt::Standalone::restore_header(*op->pod, op->image.header);
  trace_op(created, op->cmd.op_id, op->span_root);

  // Step 2: recover network connectivity.
  std::set<net::SockId> referenced;
  for (const auto& p : op->image.processes) {
    for (const auto& [fd, sid] : p.fds) referenced.insert(sid);
  }
  std::set<net::SockId> unreferenced;
  for (const auto& s : op->image.sockets) {
    if (referenced.count(s.old_id) == 0) unreferenced.insert(s.old_id);
  }

  enter(*op, Phase::CONNECTIVITY);
  op->connectivity = std::make_unique<ConnectivityRestore>(
      *op->pod, op->cmd.meta, op->image.sockets, std::move(unreferenced),
      30 * sim::kSecond,
      [this, op](Status st, ckpt::SockMap map) {
        restart_connectivity_done(op, std::move(st), std::move(map));
      });
  op->connectivity->set_obs_tag(tag(*op, op->inner_span()));
  op->connectivity->start();
}

void Agent::restart_connectivity_done(const std::shared_ptr<RestartOp>& op,
                                      Status st, ckpt::SockMap map) {
  if (op->finished) return;
  if (!st) return restart_finish(op, st);
  op->socks = std::move(map);
  op->t_conn_done = node_.now();
  leave(*op, Phase::CONNECTIVITY, op->t_conn_done - op->t_start);
  restart_wait_redirects(op, /*waited=*/0);
}

void Agent::restart_wait_redirects(const std::shared_ptr<RestartOp>& op,
                                   sim::Time waited) {
  if (op->finished) return;
  // Migration redirect: every connection tagged redirect_expected must
  // have its (possibly empty) peer send-queue record before the socket
  // state is restored, or restored data would be misordered.
  bool all_here = true;
  for (const auto& e : op->cmd.meta.entries) {
    if (!e.redirect_expected) continue;
    const ckpt::SocketImage* img = nullptr;
    for (const auto& s : op->image.sockets) {
      if (s.old_id == e.sock) img = &s;
    }
    if (img == nullptr) continue;
    bool found = false;
    for (const auto& rd : redirects_) {
      if (rd.dst_pod_vip == op->pod->vip() && rd.dst_local == img->local &&
          rd.dst_remote == img->remote) {
        found = true;
      }
    }
    if (!found) all_here = false;
  }
  if (all_here) {
    restart_net_state(op);
    return;
  }
  if (waited > 30 * sim::kSecond) {
    return restart_finish(
        op, Status(Err::TIMED_OUT, "redirected send-queue data missing"));
  }
  after(sim::kMillisecond, [this, op, waited] {
    restart_wait_redirects(op, waited + sim::kMillisecond);
  });
}

void Agent::restart_net_state(const std::shared_ptr<RestartOp>& op) {
  if (op->finished) return;
  if (fault_crashed("restart.netstate")) return;
  enter(*op, Phase::NETSTATE);
  // Step 3: restore the network state of every socket (and the
  // kernel-bypass device, if the pod had one).
  if (op->image.has_gm_device) {
    Status st = op->pod->gm_device().reinstate(op->image.gm_state);
    if (!st) return restart_finish(op, st);
  }
  u64 restored_bytes = 0;
  for (const auto& img : op->image.sockets) {
    auto mit = op->socks.find(img.old_id);
    if (mit == op->socks.end()) {
      return restart_finish(
          op, Status(Err::NO_ENT, "socket " + std::to_string(img.old_id) +
                                      " not re-created"));
    }
    u32 discard = 0;
    for (const auto& e : op->cmd.meta.entries) {
      if (e.sock == img.old_id) discard = e.discard_send;
    }
    // Redirected send-queue data destined for this socket (already sent
    // by the peer's agent); trim the overlap against our recv.
    Bytes extra;
    for (auto it = redirects_.begin(); it != redirects_.end();) {
      if (it->dst_pod_vip == op->pod->vip() && it->dst_local == img.local &&
          it->dst_remote == img.remote) {
        u32 skip = img.pcb_recv - it->sender_acked;
        if (skip & 0x80000000u) skip = 0;
        std::size_t s = std::min<std::size_t>(skip, it->data.size());
        extra.insert(extra.end(), it->data.begin() + static_cast<long>(s),
                     it->data.end());
        it = redirects_.erase(it);
      } else {
        ++it;
      }
    }
    restored_bytes += img.byte_size() + extra.size();
    Status st =
        NetCheckpoint::restore_socket(*op->pod, mit->second, img, discard,
                                      extra, tag(*op, op->inner_span()));
    if (!st) return restart_finish(op, st);
  }

  const sim::Time cost =
      costs_.net_restore_cost(op->image.sockets.size(), restored_bytes);
  charge(op, cost, restored_bytes, [this, op, cost] {
    op->t_net_done = node_.now();
    leave(*op, Phase::NETSTATE, cost);
    restart_standalone(op);
  });
}

void Agent::restart_standalone(const std::shared_ptr<RestartOp>& op) {
  if (op->finished) return;
  if (fault_crashed("restart.standalone")) return;
  enter(*op, Phase::RESTORE);
  // Step 4: standalone restart.  The *logic* (rebuilding processes, fd
  // tables, region bytes) happens instantly either way; what differs is
  // how the virtual time is charged.  The image is sized and the lazy
  // cold set ranked first: restore_processes moves the region bytes out
  // of the image into the pod.
  const u64 image_bytes = region_bytes(op->image);
  // Lazy pipelined restore (DESIGN.md §13): rank regions by the
  // working-set signal persisted in the manifest; the cold tail is
  // deferred past resume and filled in the background / on demand fault.
  std::vector<RestartOp::ColdRegion> cold;
  if (op->cmd.pipelined && op->cmd.lazy && image_bytes > 0) {
    u32 permille = op->cmd.lazy_hot_permille != 0 ? op->cmd.lazy_hot_permille
                                                  : kDefaultHotPermille;
    if (permille > 1000) permille = 1000;
    u64 hot_budget = image_bytes / 1000 * permille +
                     image_bytes % 1000 * permille / 1000;
    struct Ranked {
      i32 vpid;
      const std::string* name;
      u64 bytes;
      u64 touches;
      u64 gen;
    };
    std::vector<Ranked> ranked;
    for (const auto& p : op->image.processes) {
      for (const auto& [name, r] : p.regions) {
        auto mit = p.manifest.find(name);
        ranked.push_back(
            {p.vpid, &name, r.size(),
             mit != p.manifest.end() ? mit->second.touches : 0,
             mit != p.manifest.end() ? mit->second.gen : 0});
      }
    }
    // Hottest first: most-touched, then most-recently-written; ties
    // break deterministically on (vpid, name).
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) {
                if (a.touches != b.touches) return a.touches > b.touches;
                if (a.gen != b.gen) return a.gen > b.gen;
                if (a.vpid != b.vpid) return a.vpid < b.vpid;
                return *a.name < *b.name;
              });
    u64 hot = 0;
    std::size_t i = 0;
    for (; i < ranked.size(); ++i) {
      if (hot > 0 && hot + ranked[i].bytes > hot_budget) break;
      hot += ranked[i].bytes;
    }
    for (; i < ranked.size(); ++i) {
      cold.push_back({ranked[i].vpid, *ranked[i].name, ranked[i].bytes});
    }
  }

  Status st = ckpt::Standalone::restore_processes(*op->pod,
                                                  op->image.processes,
                                                  op->socks);
  if (!st) return restart_finish(op, st);

  if (!op->cmd.pipelined) {
    // Monolithic path: fetch + decode + rebuild charged serially as one
    // blocking byte term.
    const sim::Time cost = costs_.standalone_restart_cost(
        image_bytes, op->image.processes.size());
    return charge(op, cost, image_bytes, [this, op, cost] {
      leave(*op, Phase::RESTORE, cost);
      restart_resume(op);
    });
  }

  op->cold = std::move(cold);
  for (const auto& c : op->cold) op->lazy_total_bytes += c.bytes;
  op->hot_bytes = image_bytes - op->lazy_total_bytes;
  op->lazy_remaining = op->cold.size();
  if (!op->cold.empty()) {
    for (const auto& c : op->cold) {
      op->pod->mark_lazy_pending(c.vpid, c.name);
    }
    std::weak_ptr<RestartOp> wop = op;
    op->pod->set_lazy_fault_handler(
        [this, wop](i32 vpid, const std::string& name) {
          if (auto sp = wop.lock()) restart_lazy_fault(sp, vpid, name);
        });
  }

  san_open(op->san, os::SanStreamClass::FOREGROUND);
  // Per-process control overhead up front, then the hot set streams
  // through the fetch → decode → rebuild pipeline chunk by chunk, each
  // costing max(fetch, decode, rebuild) instead of their sum.
  sim::Time fixed = costs_.restart_fixed +
                    costs_.per_process * op->image.processes.size();
  auto leg = std::make_shared<const SanLeg>(SanLeg{
      .what = ev::kLegRestore,
      .total = op->hot_bytes,
      .chunk = kStreamChunk,
      .cost = &CostModel::restart_chunk_cost,
      .live = [op] { return !op->finished && op->pod != nullptr; },
      .done =
          [this, op] {
            // The phase's figure is the SAN fetch time only.
            leave(*op, Phase::RESTORE, node_.now() - op->san.t_start);
            restart_resume(op);
          },
  });
  after(fixed, [this, op, leg] { san_step(op, leg, 0); });
}

void Agent::restart_resume(const std::shared_ptr<RestartOp>& op) {
  op->pod->resume();
  op->t_downtime_end = node_.now();
  // Downtime is over; the resume announces the cold regions the lazy
  // window still owes the pod.
  ev::Text resumed(ev::kResume);
  resumed.kv(ev::kPod, op->cmd.pod_name);
  if (op->lazy_remaining > 0) resumed.kv(ev::kLazyRegions, op->lazy_remaining);
  trace_op(resumed, op->cmd.op_id, op->span_root);
  restart_finish(op, Status::ok());
  // The lazy window: background fills of the cold regions (plus demand
  // faults raised by the running pod), ending in an EPILOGUE_DONE.
  if (op->lazy_remaining == 0 || !lazy_live(op)) return;
  if (fault_crashed("restart.lazy")) return;
  op->t_epilogue = node_.now();
  enter(*op, Phase::LAZY);
  restart_lazy_fill(op, 0);
}

// ---- Lazy restore window (DESIGN.md §13) -------------------------------------

bool Agent::lazy_live(const std::shared_ptr<RestartOp>& op) {
  return !crashed_ && !op->aborted && op->pod != nullptr &&
         find_pod(op->cmd.pod_name) == op->pod;
}

void Agent::restart_lazy_fill(const std::shared_ptr<RestartOp>& op,
                              std::size_t idx) {
  if (!lazy_live(op)) return;
  // Skip regions a demand fault already filled.
  while (idx < op->cold.size() &&
         !op->pod->lazy_pending(op->cold[idx].vpid, op->cold[idx].name)) {
    ++idx;
  }
  if (idx >= op->cold.size()) {
    if (op->lazy_remaining == 0) restart_lazy_finish(op);
    return;
  }
  const RestartOp::ColdRegion& c = op->cold[idx];
  // Claim the region now so a racing demand fault cannot double-fill it;
  // the fill completes (and its cost elapses) before the next one starts.
  op->pod->clear_lazy_pending(c.vpid, c.name);
  san_open(op->san, os::SanStreamClass::FOREGROUND);
  const obs::SpanId span = op->inner_span();  // outlives a teardown
  san_step(op,
           std::make_shared<const SanLeg>(SanLeg{
               .what = ev::kLegLazyFill,
               .total = c.bytes,
               .chunk = 0,  // one step per region
               .cost = &CostModel::lazy_fill_cost,
               .done =
                   [this, op, idx, span] {
                     const RestartOp::ColdRegion& done = op->cold[idx];
                     op->lazy_filled_bytes += done.bytes;
                     if (op->lazy_remaining > 0) --op->lazy_remaining;
                     trace_op(ev::Text(ev::kLazyFill)
                                  .kv(ev::kPod, op->cmd.pod_name)
                                  .kv(ev::kVpid, done.vpid)
                                  .kv(ev::kRegion, done.name)
                                  .kv("bytes", done.bytes),
                              op->cmd.op_id, span);
                     restart_lazy_fill(op, idx + 1);
                   },
           }),
           0);
}

void Agent::restart_lazy_fault(const std::shared_ptr<RestartOp>& op,
                               i32 vpid, const std::string& name) {
  if (!lazy_live(op)) return;
  os::Process* proc = op->pod->find_process(vpid);
  if (proc == nullptr) return;
  auto rit = proc->regions().find(name);
  u64 bytes = rit == proc->regions().end() ? 0 : rit->second.size();
  op->pod->clear_lazy_pending(vpid, name);
  if (op->lazy_remaining > 0) --op->lazy_remaining;
  // The faulting process eats the trap plus a priority fetch of its
  // region at whatever share the SAN grants foreground traffic right
  // now — the lazy tax, charged to its in-flight step (never hidden).
  u64 s = node_.san().stream_begin(os::SanStreamClass::FOREGROUND);
  double share = node_.san().stream_share(s);
  node_.san().stream_end(s);
  sim::Time tax = costs_.lazy_fault_fixed + costs_.lazy_fill_cost(bytes, share);
  op->pod->charge_fault_tax(tax);
  op->lazy_faults += 1;
  op->lazy_fault_bytes += bytes;
  op->lazy_filled_bytes += bytes;
  obs::metrics().histogram("agent.restart.lazy_fault_us").observe(tax);
  trace_op(ev::Text(ev::kLazyFault)
               .kv(ev::kPod, op->cmd.pod_name)
               .kv(ev::kVpid, vpid)
               .kv(ev::kRegion, name)
               .kv("bytes", bytes)
               .kv("tax_us", tax),
           op->cmd.op_id, op->inner_span());
  if (op->lazy_remaining == 0 && op->san.stream == 0) restart_lazy_finish(op);
}

void Agent::restart_lazy_finish(const std::shared_ptr<RestartOp>& op) {
  if (op->phases.empty()) return;  // the lazy window already closed
  obs::metrics().histogram("agent.restart.lazy_faults")
      .observe(op->lazy_faults);
  EpilogueDone ld;
  ld.ok = true;
  ld.lazy_bytes = op->lazy_filled_bytes;
  ld.faults = op->lazy_faults;
  ld.fault_bytes = op->lazy_fault_bytes;
  epilogue_done(op, Phase::LAZY, std::move(ld));
}

void Agent::restart_finish(const std::shared_ptr<RestartOp>& op, Status st) {
  if (op->finished) return;
  if (!st) {
    // Timeouts (stream never arrived, redirects missing) are worth a
    // whole-op retry; decode/protocol errors are not.
    return teardown(op, st.message(),
                    st.err() == Err::TIMED_OUT ? Cause::TRANSIENT
                                               : Cause::FAILED);
  }
  op->finished = true;
  RestartDone done = restart_report(*op);
  done.ok = true;
  // With cold regions still to fill, the root span stays open until the
  // lazy window's EPILOGUE_DONE (mirror of the COW drain).
  done.lazy_pending = op->lazy_remaining > 0;
  if (!done.lazy_pending) end_span(op->span_root);
  if (op->mgr != nullptr) (void)op->mgr->send(encode(done));
}

RestartDone Agent::restart_report(const RestartOp& op) {
  const sim::Time now = node_.now();
  RestartDone done;
  done.op_id = op.cmd.op_id;
  done.pod_name = op.cmd.pod_name;
  done.total_us = now - op.t_start;
  done.connectivity_us =
      op.t_conn_done > op.t_start ? op.t_conn_done - op.t_start : 0;
  done.net_restore_us =
      op.t_net_done > op.t_conn_done ? op.t_net_done - op.t_conn_done : 0;
  done.standalone_us =
      op.t_net_done > 0 && now > op.t_net_done ? now - op.t_net_done : 0;
  done.downtime_us =
      op.t_downtime_end > 0 ? op.t_downtime_end - op.t_start : done.total_us;
  done.hot_bytes = op.hot_bytes;
  done.lazy_bytes = op.lazy_total_bytes;
  done.fetch_us = op.cmd.pipelined ? op.took_us(Phase::RESTORE) : 0;
  return done;
}

}  // namespace zapc::core
