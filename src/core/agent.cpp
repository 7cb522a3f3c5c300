#include "core/agent.h"

#include <algorithm>

#include "core/netckpt.h"
#include "fault/fault.h"
#include "net/tcp.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/vtime.h"
#include "util/log.h"

namespace zapc::core {
namespace {

/// Parses "san://<path>", "agent://<ip>:<port>/<tag>", "stream://<tag>".
struct Uri {
  std::string scheme;
  std::string path;        // san path or stream tag
  net::SockAddr endpoint;  // agent scheme only
};

Result<Uri> parse_uri(const std::string& s) {
  auto sep = s.find("://");
  if (sep == std::string::npos) return Status(Err::INVALID, "bad uri " + s);
  Uri u;
  u.scheme = s.substr(0, sep);
  std::string rest = s.substr(sep + 3);
  if (u.scheme == "san" || u.scheme == "stream") {
    u.path = rest;
    return u;
  }
  if (u.scheme == "agent") {
    auto slash = rest.find('/');
    if (slash == std::string::npos) {
      return Status(Err::INVALID, "agent uri missing tag: " + s);
    }
    u.path = rest.substr(slash + 1);
    std::string hostport = rest.substr(0, slash);
    auto colon = hostport.find(':');
    if (colon == std::string::npos) {
      return Status(Err::INVALID, "agent uri missing port: " + s);
    }
    auto ip = net::IpAddr::parse(hostport.substr(0, colon));
    if (!ip) return ip.status();
    u.endpoint.ip = ip.value();
    u.endpoint.port = static_cast<u16>(
        std::stoul(hostport.substr(colon + 1)));
    return u;
  }
  return Status(Err::INVALID, "unknown uri scheme: " + s);
}

constexpr std::size_t kStreamChunk = 256 * 1024;

/// Default share of region bytes restored eagerly when a lazy restart
/// does not pin one (RestartCmd::lazy_hot_permille == 0): the hot
/// quarter of the working set, by touch count.
constexpr u32 kDefaultHotPermille = 250;

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
  crashed_ = true;
  // A dead node must not keep a grant on the cluster-wide SAN: release
  // any stream its in-flight ops registered so survivors get the full
  // pipe back.
  for (auto& c : conns_) {
    if (c.ckpt != nullptr && c.ckpt->san_stream != 0) {
      node_.san().stream_end(c.ckpt->san_stream);
      c.ckpt->san_stream = 0;
    }
    if (c.restart != nullptr && c.restart->fetch_stream != 0) {
      node_.san().stream_end(c.restart->fetch_stream);
      c.restart->fetch_stream = 0;
    }
  }
  ZLOG_WARN("agent@" << node_.name() << ": injected crash at " << phase);
  node_.fail();
  return true;
}

void Agent::trace(const std::string& what) {
  if (trace_ != nullptr) {
    trace_->add(node_.now(), "agent@" + node_.name(), what);
  }
}

void Agent::trace_op(const std::string& what, obs::OpId op,
                     obs::SpanId parent) {
  if (trace_ != nullptr) {
    trace_->add(node_.now(), "agent@" + node_.name(), what, parent, op);
  }
}

obs::ObsTag Agent::tag(obs::OpId op, obs::SpanId parent) {
  return obs::ObsTag{rec(), who(), op, parent,
                     [this] { return node_.now(); }};
}

double Agent::san_grant(u64 stream, const char* what, obs::OpId op_id,
                        obs::SpanId parent, double& last_share) {
  double share = node_.san().stream_share(stream);
  // Receipts only on grant *transitions*, so the trace stays bounded: a
  // steady-state drain stamps one receipt, and each squeeze/release by
  // foreground traffic stamps one more.
  if (share != last_share) {
    last_share = share;
    trace_op("qos: " + std::string(what) + " granted " +
                 std::to_string(static_cast<int>(share * 100.0 + 0.5)) +
                 "% of SAN (" +
                 std::to_string(node_.san().active_foreground()) +
                 " foreground, " + std::to_string(node_.san().active_drains()) +
                 " drains)",
             op_id, parent);
  }
  return share;
}

// ---- Introspection plane (DESIGN.md §9) --------------------------------------

bool Agent::beacons_blacked_out() const {
  return fault::injector().enabled() &&
         fault::injector().heartbeat_blackout(node_.name(), node_.now());
}

void Agent::publish_beacon(MsgChannel* mgr, obs::OpId op_id,
                           const std::string& pod, u32 seq,
                           const Watermark& wm, obs::SpanId parent) {
  if (beacons_blacked_out()) return;
  const sim::Time now = node_.now();
  HeartbeatMsg hb;
  hb.op_id = op_id;
  hb.pod_name = pod;
  hb.phase = wm.phase;
  hb.t_us = now;
  hb.seq = seq;
  if (mgr != nullptr && mgr->open()) (void)mgr->send(encode_heartbeat(hb));
  obs::metrics().counter("agent.hb.sent").inc();

  // Watermarks accompany the beacon only while a byte-moving phase is
  // in flight; control phases (suspend, barrier) have nothing to meter.
  if (wm.bytes == 0 || wm.end <= wm.start) {
    trace_op("hb seq=" + std::to_string(seq) + " phase=" + wm.phase, op_id,
             parent);
    return;
  }
  const sim::Time extent = wm.end - wm.start;
  const sim::Time elapsed = now >= wm.end ? extent : now - wm.start;
  ProgressMsg pm;
  pm.op_id = op_id;
  pm.pod_name = pod;
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
  if (mgr != nullptr && mgr->open()) (void)mgr->send(encode_progress(pm));
  obs::metrics().counter("agent.progress.sent").inc();
  trace_op("hb seq=" + std::to_string(seq) + " phase=" + wm.phase +
               " done=" + std::to_string(pm.bytes_done) + "/" +
               std::to_string(pm.bytes_expected) + " eta=" +
               obs::vtime_us(pm.eta_us),
           op_id, parent);
}

void Agent::ckpt_beacon(const std::shared_ptr<CkptOp>& op) {
  if (op->finished || op->aborted) return;
  ++op->hb_seq;
  publish_beacon(op->mgr, op->cmd.op_id, op->cmd.pod_name, op->hb_seq,
                 op->wm, op->span_root);
  // after() dilates the interval on an injected slow node — its
  // userspace beacon loop is slow like everything else there, and each
  // (rarer) beacon still carries an honest watermark.
  after(op->cmd.heartbeat_us, [this, op] { ckpt_beacon(op); });
}

void Agent::restart_beacon(const std::shared_ptr<RestartOp>& op) {
  if (op->finished) return;
  ++op->hb_seq;
  publish_beacon(op->mgr, op->cmd.op_id, op->cmd.pod_name, op->hb_seq,
                 op->wm, op->span_root);
  after(op->cmd.heartbeat_us, [this, op] { restart_beacon(op); });
}

// ---- Supervised mode (DESIGN.md §12) ----------------------------------------

void Agent::supervise_begin(Conn* conn, SuperviseCmd cmd) {
  supervise_ch_ = conn->ch.get();
  supervise_hb_us_ = cmd.heartbeat_us;
  trace("supervised mode: node beacons every " +
        std::to_string(supervise_hb_us_) + "us");
  if (supervise_hb_us_ > 0) supervise_tick();
}

void Agent::supervise_tick() {
  if (supervise_hb_us_ == 0 || supervise_ch_ == nullptr) return;
  const sim::Time now = node_.now();
  // The beacon loop is where a randomly-timed node death lands: the
  // whole node goes away, not just this agent's beacons.
  if (fault::injector().enabled() &&
      fault::injector().crash_due(node_.name(), now)) {
    crashed_ = true;
    ZLOG_WARN("agent@" << node_.name() << ": injected node crash at t="
                       << now << "us");
    node_.fail();
    return;
  }
  if (!beacons_blacked_out() && supervise_ch_->open()) {
    HeartbeatMsg hb;
    hb.op_id = 0;  // node-level, not tied to a coordinated op
    hb.phase = busy() ? "busy" : "idle";
    hb.t_us = now;
    hb.seq = ++supervise_seq_;
    (void)supervise_ch_->send(encode_heartbeat(hb));
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
      auto cmd = decode_checkpoint_cmd(msg);
      if (cmd) ckpt_begin(conn, std::move(cmd).value());
      break;
    }
    case MsgType::CONTINUE: {
      if (conn->ckpt) {
        auto cont = decode_continue(msg);
        conn->ckpt->continue_received = true;
        // The Manager's 'continue' EVENT id is the cross-node parent of
        // everything this agent does from here on (unblock, resume,
        // first retransmit) — the causal edge of the Figure-2 barrier.
        if (cont) conn->ckpt->continue_event = cont.value().continue_event;
        trace_op("3a: continue received for " + conn->ckpt->cmd.pod_name,
                 conn->ckpt->cmd.op_id, conn->ckpt->continue_event);
        ckpt_maybe_finish(conn->ckpt);
      }
      break;
    }
    case MsgType::RESTART_CMD: {
      auto cmd = decode_restart_cmd(msg);
      if (cmd) restart_begin(conn, std::move(cmd).value());
      break;
    }
    case MsgType::STREAM_OPEN: {
      auto m = decode_stream_open(msg);
      if (m) {
        Stream s;
        s.op_id = m.value().op_id;
        streams_[m.value().tag] = std::move(s);
      }
      break;
    }
    case MsgType::STREAM_CHUNK: {
      auto m = decode_stream_chunk(msg);
      if (m) append_bytes(streams_[m.value().tag].data, m.value().data);
      break;
    }
    case MsgType::STREAM_CLOSE: {
      auto m = decode_stream_close(msg);
      if (!m) break;
      const std::string& tag = m.value().tag;
      streams_[tag].complete = true;
      trace_op("stream " + tag + " complete (" +
                   std::to_string(streams_[tag].data.size()) + " bytes)",
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
      auto m = decode_redirect_data(msg);
      if (m) redirects_.push_back(std::move(m).value());
      break;
    }
    case MsgType::ABORT: {
      if (conn->ckpt && !conn->ckpt->finished) {
        ckpt_abort(conn->ckpt, "manager abort");
      }
      if (conn->restart) {
        restart_abort(conn->restart, "manager abort");
      }
      break;
    }
    case MsgType::SUPERVISE_CMD: {
      auto cmd = decode_supervise_cmd(msg);
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
  if (conn->ckpt && !conn->ckpt->finished) {
    ckpt_abort(conn->ckpt, "manager connection lost");
  }
  // A finished restore is left alone on channel close (the normal end of
  // a successful op); an unfinished one means the Manager died mid-op.
  if (conn->restart && !conn->restart->finished) {
    restart_abort(conn->restart, "manager connection lost");
  }
  // The Manager closes the channel once the coordinated op is over: a
  // restore that finished OK and was never aborted is done with its
  // migration stream.  (An aborted one keeps it for a whole-op retry;
  // a newer stream reusing the tag is not this restore's to drop.)
  if (conn->restart && conn->restart->ok && !conn->restart->aborted) {
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
  conn->ckpt = op;
  if (fault_crashed("ckpt.begin")) return;

  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) {
    CkptDone done;
    done.op_id = op->cmd.op_id;
    done.pod_name = op->cmd.pod_name;
    done.ok = false;
    done.error = "no such pod";
    op->finished = true;
    (void)op->mgr->send(encode_ckpt_done(done));
    return;
  }

  if (obs::SpanRecorder* r = rec()) {
    // cmd.parent_span is the Manager's root span: with a shared recorder
    // (Testbed/Trace) the agent's subtree hangs off the Manager's op.
    op->span_root = r->begin_at(op->t_start, "ckpt", who(),
                                op->cmd.parent_span, op->cmd.op_id);
    op->span_suspend = r->begin_at(op->t_start, "ckpt.suspend", who(),
                                   op->span_root, op->cmd.op_id);
  }

  // COW eligibility (DESIGN.md §11): snapshots to the SAN under
  // NETWORK_FIRST ordering only; anything else (migration, pipelined
  // streaming, the ablation ordering) silently falls back to the
  // blocking checkpoint.
  if (op->cmd.cow && op->cmd.mode == CkptMode::SNAPSHOT &&
      !op->cmd.pipelined && ordering_ == CkptOrdering::NETWORK_FIRST) {
    auto uri = parse_uri(op->cmd.dest_uri);
    op->cow = uri && uri.value().scheme == "san";
    if (op->cow) op->san_final = uri.value().path;
  }

  op->wm.enter("ckpt.suspend");
  if (op->cmd.heartbeat_us > 0) {
    after(op->cmd.heartbeat_us, [this, op] { ckpt_beacon(op); });
  }

  // Step 1: suspend the pod and block its network.
  trace_op("1: suspend pod " + op->cmd.pod_name + ", block network",
           op->cmd.op_id, op->span_root);
  pod->suspend();
  pod->filter().set_obs_tag(tag(op->cmd.op_id, op->span_suspend));
  pod->filter().block_addr(pod->vip());
  if (ordering_ == CkptOrdering::NETWORK_FIRST) {
    after(costs_.suspend_cost(pod->process_count()),
          [this, op] { ckpt_network(op); });
  } else {
    after(costs_.suspend_cost(pod->process_count()),
          [this, op] { ckpt_standalone_pre(op); });
  }
}

// ---- NETWORK_LAST ablation path ------------------------------------------------

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
    auto uri = parse_uri(op->cmd.dest_uri);
    auto it = incr_.find(op->cmd.pod_name);
    if (uri && uri.value().scheme == "san" && it != incr_.end() &&
        it->second.valid && it->second.chain_len < op->cmd.chain_cap &&
        it->second.chain_uris.count(uri.value().path) == 0) {
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

void Agent::ckpt_standalone_pre(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  if (fault_crashed("ckpt.standalone")) return;
  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) return ckpt_abort(op, "pod vanished");

  op->suspend_us = node_.now() - op->t_start;
  obs::metrics().histogram("agent.ckpt.suspend_us").observe(op->suspend_us);
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_suspend);
    op->span_standalone = r->begin_at(node_.now(), "ckpt.standalone", who(),
                                      op->span_root, op->cmd.op_id);
  }

  capture_standalone(op, *pod);
  u64 bytes = 0;
  for (const auto& p : op->image.processes) {
    for (const auto& [name, r] : p.regions) bytes += r.size();
  }
  sim::Time cost =
      costs_.standalone_ckpt_cost(bytes, op->image.processes.size());
  op->wm.enter("ckpt.standalone", node_.now(),
               node_.now() + slowdown(cost), bytes);
  after(cost, [this, op, cost] {
    if (op->aborted) return;
    op->standalone_us = cost;
    obs::metrics().histogram("agent.ckpt.standalone_us").observe(cost);
    if (obs::SpanRecorder* r = rec()) {
      r->end_at(node_.now(), op->span_standalone);
    }
    trace_op("3(early): standalone checkpoint done for " + op->cmd.pod_name,
             op->cmd.op_id, op->span_root);
    ckpt_network_post(op);
  });
}

void Agent::ckpt_network_post(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  if (fault_crashed("ckpt.netckpt")) return;
  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) return ckpt_abort(op, "pod vanished");

  if (obs::SpanRecorder* r = rec()) {
    op->span_netckpt = r->begin_at(node_.now(), "ckpt.netckpt", who(),
                                   op->span_root, op->cmd.op_id);
  }

  Status st = NetCheckpoint::save(*pod, op->image.meta, op->image.sockets,
                                  tag(op->cmd.op_id, op->span_netckpt));
  if (!st) return ckpt_abort(op, st.to_string());
  if (gm::GmDevice* dev = pod->gm_device_if_present()) {
    op->image.has_gm_device = true;
    op->image.gm_state = dev->extract_state();
    op->queued_bytes += op->image.gm_state.size();
  }
  for (const auto& s : op->image.sockets) {
    op->queued_bytes += s.byte_size();
  }
  sim::Time cost =
      costs_.net_ckpt_cost(op->image.sockets.size(), op->queued_bytes);
  op->wm.enter("ckpt.netckpt", node_.now(), node_.now() + slowdown(cost),
               op->queued_bytes);
  after(cost, [this, op, cost] {
    if (op->aborted) return;
    op->netckpt_us = cost;
    obs::metrics().histogram("agent.ckpt.netckpt_us").observe(cost);
    if (obs::SpanRecorder* r = rec()) {
      r->end_at(node_.now(), op->span_netckpt);
    }
    trace_op("2(late): network checkpoint done for " + op->cmd.pod_name,
             op->cmd.op_id, op->span_root);
    MetaReport report;
    report.op_id = op->cmd.op_id;
    report.pod_name = op->cmd.pod_name;
    report.meta = op->image.meta;
    report.net_ckpt_us = cost;
    (void)op->mgr->send(encode_meta_report(report));
    op->encoded_image = ckpt::encode_image(op->image);
    ckpt_standalone_done(op);
  });
}

void Agent::ckpt_network(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  if (fault_crashed("ckpt.netckpt")) return;
  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) return ckpt_abort(op, "pod vanished");

  op->suspend_us = node_.now() - op->t_start;
  obs::metrics().histogram("agent.ckpt.suspend_us").observe(op->suspend_us);
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_suspend);
    op->span_netckpt = r->begin_at(node_.now(), "ckpt.netckpt", who(),
                                   op->span_root, op->cmd.op_id);
  }

  // Step 2: network-state checkpoint (sockets + kernel-bypass device).
  Status st = NetCheckpoint::save(*pod, op->image.meta, op->image.sockets,
                                  tag(op->cmd.op_id, op->span_netckpt));
  if (!st) return ckpt_abort(op, st.to_string());
  if (gm::GmDevice* dev = pod->gm_device_if_present()) {
    op->image.has_gm_device = true;
    op->image.gm_state = dev->extract_state();
    op->queued_bytes += op->image.gm_state.size();
  }
  for (const auto& s : op->image.sockets) {
    op->queued_bytes += s.byte_size();
  }
  sim::Time cost =
      costs_.net_ckpt_cost(op->image.sockets.size(), op->queued_bytes);
  op->wm.enter("ckpt.netckpt", node_.now(), node_.now() + slowdown(cost),
               op->queued_bytes);
  after(cost, [this, op, cost] {
    if (op->aborted) return;
    op->netckpt_us = cost;
    obs::metrics().histogram("agent.ckpt.netckpt_us").observe(cost);
    if (obs::SpanRecorder* r = rec()) {
      r->end_at(node_.now(), op->span_netckpt);
    }
    // Step 2a: report meta-data to the Manager, then immediately proceed
    // with the standalone checkpoint (the barrier overlaps it).
    trace_op("2: network checkpoint done for " + op->cmd.pod_name + " (" +
                 std::to_string(cost) + "us)",
             op->cmd.op_id, op->span_root);
    MetaReport report;
    report.op_id = op->cmd.op_id;
    report.pod_name = op->cmd.pod_name;
    report.meta = op->image.meta;
    report.net_ckpt_us = cost;
    (void)op->mgr->send(encode_meta_report(report));
    trace_op("2a: meta-data reported for " + op->cmd.pod_name,
             op->cmd.op_id, op->span_root);
    if (op->cow) {
      ckpt_cowmark(op);
    } else {
      ckpt_standalone(op);
    }
  });
}

void Agent::ckpt_standalone(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  if (fault_crashed("ckpt.standalone")) return;
  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) return ckpt_abort(op, "pod vanished");

  if (obs::SpanRecorder* r = rec()) {
    op->span_standalone = r->begin_at(node_.now(), "ckpt.standalone", who(),
                                      op->span_root, op->cmd.op_id);
  }

  // Step 3: standalone pod checkpoint (Zap substrate).
  capture_standalone(op, *pod);

  // Migration redirect optimization (paper §5): ship each send queue
  // directly to the agent receiving the peer's stream instead of
  // embedding it in our image.
  if (op->cmd.redirect_send_queues && op->cmd.mode == CkptMode::MIGRATE) {
    // A (possibly empty) record is shipped for EVERY connected socket
    // whose peer's destination agent is known, so the restoring side can
    // deterministically wait for it.  If the peer's destination is not in
    // the command's map, the send queue stays in the image and restores
    // through the normal resend path.
    for (auto& s : op->image.sockets) {
      if (s.proto != net::Proto::TCP || !s.connected) {
        continue;
      }
      bool peer_known = false;
      for (const auto& [vip, a] : op->cmd.peer_agents) {
        if (vip == s.remote.ip) peer_known = true;
      }
      if (!peer_known) continue;
      RedirectData rd;
      rd.op_id = op->cmd.op_id;
      rd.dst_pod_vip = s.remote.ip;
      rd.dst_local = s.remote;
      rd.dst_remote = s.local;
      rd.sender_acked = s.pcb_acked;
      rd.data = std::move(s.send_queue);
      s.send_queue.clear();
      s.send_queue_redirected = true;
      op->redirects.push_back(std::move(rd));
    }
  }

  Bytes encoded = ckpt::encode_image(op->image);
  u64 image_bytes = encoded.size();

  // Pipelined migration streaming: hand chunks to the wire as their
  // serialization slices complete instead of materializing-then-sending.
  if (op->cmd.pipelined) {
    auto uri = parse_uri(op->cmd.dest_uri);
    if (uri && uri.value().scheme == "agent") {
      op->encoded_image = std::move(encoded);
      ckpt_stream(op, uri.value().endpoint, uri.value().path);
      return;
    }
  }

  sim::Time cost = costs_.standalone_ckpt_cost(image_bytes,
                                               op->image.processes.size());
  op->wm.enter("ckpt.standalone", node_.now(),
               node_.now() + slowdown(cost), image_bytes);
  after(cost, [this, op, cost, encoded = std::move(encoded)]() mutable {
    if (op->aborted) return;
    op->standalone_us = cost;
    obs::metrics().histogram("agent.ckpt.standalone_us").observe(cost);
    trace_op("3: standalone checkpoint done for " + op->cmd.pod_name + " (" +
                 std::to_string(encoded.size()) + " bytes)" +
                 (op->is_delta
                      ? " [delta #" +
                            std::to_string(op->image.header.delta_seq) + "]"
                      : ""),
             op->cmd.op_id, op->span_root);
    op->encoded_image = std::move(encoded);
    ckpt_standalone_done(op);
  });
}

void Agent::ckpt_stream(const std::shared_ptr<CkptOp>& op,
                        const net::SockAddr& endpoint,
                        const std::string& tag) {
  auto ch = connect_channel(node_.host_stack(), endpoint);
  if (ch == nullptr) return ckpt_abort(op, "cannot reach stream target");
  MsgChannel* raw = ch.get();
  out_channels_.push_back(std::move(ch));
  (void)raw->send(encode_stream_open(StreamOpen{op->cmd.op_id, tag}));
  if (obs::SpanRecorder* r = rec()) {
    op->span_stream = r->begin_at(node_.now(), "ckpt.stream", who(),
                                  op->span_root, op->cmd.op_id);
  }

  const sim::Time t0 = node_.now();
  // Per-process control overhead is charged once, up front; after that
  // each chunk becomes sendable when its serialization slice elapses.
  // The chunk enters the (simulated) TCP pipe at that moment, so
  // transfer overlaps the remaining serialization — the modeled elapsed
  // time converges on CostModel::pipelined_stream_cost's max() instead
  // of the summed serialize + transfer of the materialize path.
  sim::Time at = costs_.per_process * op->image.processes.size();
  const std::size_t total = op->encoded_image.size();
  std::size_t sent = 0;
  do {
    std::size_t n = std::min(kStreamChunk, total - sent);
    std::size_t off = sent;
    sent += n;
    at += costs_.serialize_cost(n);
    const bool last = sent >= total;
    after(at, [this, op, raw, tag, off, n, last, t0, endpoint] {
      if (op->aborted) return;
      StreamChunk chunk;
      chunk.tag = tag;
      chunk.data.assign(
          op->encoded_image.begin() + static_cast<long>(off),
          op->encoded_image.begin() + static_cast<long>(off + n));
      (void)raw->send(encode_stream_chunk(chunk));
      if (!last) return;
      (void)raw->send(encode_stream_close(StreamClose{tag}));
      ship_redirects(op, raw, endpoint);
      obs::metrics()
          .histogram("agent.ckpt.stream_us")
          .observe(node_.now() - t0);
      op->standalone_us = node_.now() - t0;
      obs::metrics().histogram("agent.ckpt.standalone_us")
          .observe(op->standalone_us);
      if (obs::SpanRecorder* r = rec()) {
        r->end_at(node_.now(), op->span_stream);
      }
      trace_op("3: standalone checkpoint streamed for " + op->cmd.pod_name +
                   " (" + std::to_string(op->encoded_image.size()) +
                   " bytes pipelined)",
               op->cmd.op_id, op->span_root);
      op->delivered = true;
      ckpt_standalone_done(op);
    });
  } while (sent < total);
  // `at` now holds the full modeled serialize+stream duration.
  op->wm.enter("ckpt.stream", t0, t0 + slowdown(at), total);
}

void Agent::ckpt_standalone_done(const std::shared_ptr<CkptOp>& op) {
  op->standalone_done = true;
  op->t_standalone_done = node_.now();
  op->wm.enter("ckpt.barrier");
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_standalone);  // no-op if already closed
    op->span_barrier = r->begin_at(node_.now(), "ckpt.barrier", who(),
                                   op->span_root, op->cmd.op_id);
  }
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
      ckpt_abort(op, "continue barrier deadline expired (manager stalled)",
                 /*transient=*/true);
    });
  }
}

// ---- COW concurrent checkpoint (DESIGN.md §11) -------------------------------

void Agent::ckpt_cowmark(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  if (fault_crashed("ckpt.cowmark")) return;
  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod == nullptr) return ckpt_abort(op, "pod vanished");

  if (obs::SpanRecorder* r = rec()) {
    op->span_cowmark = r->begin_at(node_.now(), "ckpt.cowmark", who(),
                                   op->span_root, op->cmd.op_id);
  }

  // The in-memory capture IS the COW snapshot: the image's region
  // buffers hold this instant's page contents, protected copy-on-write.
  // Only the page-table walk is charged to the stop-the-world window;
  // serialization waits for the background drain.
  capture_standalone(op, *pod);

  sim::Time cost = costs_.cow_mark_cost(op->image.processes.size());
  op->wm.enter("ckpt.cowmark");
  after(cost, [this, op, cost] {
    if (op->aborted) return;
    op->cowmark_us = cost;
    obs::metrics().histogram("agent.ckpt.cowmark_us").observe(cost);
    if (obs::SpanRecorder* r = rec()) {
      r->end_at(node_.now(), op->span_cowmark);
    }
    trace_op(
        "3: COW snapshot marked for " + op->cmd.pod_name + " (" +
            std::to_string(op->logical_bytes) + " logical bytes)" +
            (op->is_delta
                 ? " [delta #" + std::to_string(op->image.header.delta_seq) +
                       "]"
                 : ""),
        op->cmd.op_id, op->span_root);
    ckpt_standalone_done(op);
  });
}

void Agent::ckpt_drain(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  if (fault_crashed("ckpt.drain")) return;
  op->t_drain_start = node_.now();
  op->san_stream = node_.san().stream_begin(os::SanStreamClass::BACKGROUND);
  if (obs::SpanRecorder* r = rec()) {
    op->span_drain = r->begin_at(node_.now(), "ckpt.drain", who(),
                                 op->span_root, op->cmd.op_id);
  }
  op->encoded_image = ckpt::encode_image(op->image);
  trace_op("5: background drain started for " + op->cmd.pod_name + " (" +
               std::to_string(op->encoded_image.size()) + " bytes, " +
               std::to_string(node_.san().active_drains()) +
               " concurrent drains)",
           op->cmd.op_id, op->span_drain);
  ckpt_drain_chunk(op, 0);
}

void Agent::ckpt_drain_chunk(const std::shared_ptr<CkptOp>& op,
                             std::size_t off) {
  if (op->aborted) return;
  const std::size_t total = op->encoded_image.size();
  if (off >= total) {
    // COW tax, part 1: pages the running pod dirtied while the drain was
    // in flight were each copied before their first overwrite; charge
    // that copy to the drain (never to downtime).  The dirty rate is the
    // workload's observed write rate, not the flat worst case.
    sim::Time wall = node_.now() - op->t_drain_start;
    u64 rate =
        costs_.cow_dirty_rate(incr_[op->cmd.pod_name].observed_dirty_bps);
    op->dirtied_bytes = costs_.cow_dirty_bytes(wall, op->logical_bytes, rate);
    after(costs_.cow_copy_cost(op->dirtied_bytes),
          [this, op] { ckpt_drain_commit(op); });
    return;
  }
  std::size_t n = std::min(kStreamChunk, total - off);
  // QoS scheduler (DESIGN.md §13): each chunk is costed against the
  // share the SAN grants this drain right now.  Foreground restart or
  // migration traffic squeezes drains to the background floor — the
  // pause-resume behaviour — and concurrent drains split the rest.
  double share = san_grant(op->san_stream, "drain", op->cmd.op_id,
                           op->span_drain, op->last_share);
  sim::Time cost = costs_.qos_drain_chunk_cost(n, share);
  op->drain_busy_us += cost;
  op->drained_bytes += n;
  if (node_.san().foreground_active()) op->throttled_us += cost;
  if (node_.san().active_drains() > 1) op->contended_us += cost;
  sim::Time eta = slowdown(costs_.qos_drain_chunk_cost(total - off, share));
  op->wm.enter("ckpt.drain", op->t_drain_start, node_.now() + eta, total);
  after(cost, [this, op, off, n] { ckpt_drain_chunk(op, off + n); });
}

void Agent::ckpt_drain_commit(const std::shared_ptr<CkptOp>& op) {
  if (op->aborted) return;
  // The blocking path's two-phase commit in one go: nothing to wait for,
  // the pod has long resumed.
  Status st = commit_image(*op, op->san_final, /*publish=*/true);
  if (!st) return ckpt_drain_fail(op, st.message(), /*transient=*/true);

  op->drain_pending = false;
  op->finished = true;
  node_.san().stream_end(op->san_stream);
  op->san_stream = 0;
  EpilogueDone dd = drain_epilogue(*op, /*ok=*/true);
  dd.image_bytes = op->encoded_image.size();
  obs::metrics().histogram("agent.ckpt.drain_us").observe(dd.epilogue_us);
  obs::metrics().histogram("agent.ckpt.cow_dirtied_bytes")
      .observe(op->dirtied_bytes);
  trace_op("5a: image drained and committed to " + op->san_final + " (" +
               std::to_string(op->encoded_image.size()) + " bytes, " +
               std::to_string(op->dirtied_bytes) + " dirtied, " +
               std::to_string(op->throttled_us) + "us throttled, " +
               std::to_string(op->contended_us) + "us contended)",
           op->cmd.op_id, op->span_drain);
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_drain);
    r->end_at(node_.now(), op->span_root);
  }
  if (op->mgr != nullptr && op->mgr->open()) {
    (void)op->mgr->send(encode_epilogue_done(dd));
  }
}

EpilogueDone Agent::drain_epilogue(const CkptOp& op, bool ok) {
  EpilogueDone dd;
  dd.op_id = op.cmd.op_id;
  dd.pod_name = op.cmd.pod_name;
  dd.ok = ok;
  dd.epilogue_us = op.t_drain_start > 0 ? node_.now() - op.t_drain_start : 0;
  dd.dirtied_bytes = op.dirtied_bytes;
  dd.throttled_us = op.throttled_us;
  dd.contended_us = op.contended_us;
  dd.granted_bps = op.drain_busy_us > 0
                       ? op.drained_bytes * sim::kSecond / op.drain_busy_us
                       : 0;
  return dd;
}

void Agent::ckpt_drain_fail(const std::shared_ptr<CkptOp>& op,
                            const std::string& why, bool transient) {
  if (op->finished || op->aborted) return;
  op->aborted = true;
  op->finished = true;
  op->drain_pending = false;
  node_.san().stream_end(op->san_stream);
  op->san_stream = 0;
  if (!op->san_tmp.empty()) {
    if (node_.san().remove(op->san_tmp).is_ok()) {
      obs::metrics().counter("ckpt.commit.gc_tmp").inc();
    }
    op->san_tmp.clear();
  }
  ZLOG_WARN("agent@" << node_.name() << ": drain of " << op->cmd.pod_name
                     << " failed: " << why);
  obs::dump_op_failure(rec(), "ckpt_drain_fail", op->cmd.op_id, who(), why,
                       node_.now());
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_drain);
    r->end_at(node_.now(), op->span_root);
  }
  trace_op("abort: " + why, op->cmd.op_id, op->span_root);
  // The pod is already running: a failed drain loses only this
  // checkpoint attempt, never application state.
  if (op->mgr != nullptr && op->mgr->open()) {
    EpilogueDone dd = drain_epilogue(*op, /*ok=*/false);
    dd.error = why;
    dd.transient = transient;
    (void)op->mgr->send(encode_epilogue_done(dd));
  }
}

Status Agent::commit_image(CkptOp& op, const std::string& path,
                           bool publish) {
  if (op.san_tmp.empty()) {
    op.san_tmp = path + ".tmp";
    op.san_final = path;
    Status wst = node_.san().write(op.san_tmp, op.encoded_image);
    if (!wst) {
      op.san_tmp.clear();
      return Status(Err::IO, "image write failed: " + wst.message());
    }
    // Size verification catches short/torn writes pre-commit.
    auto size = node_.san().size_of(op.san_tmp);
    if (!size || size.value() != op.encoded_image.size()) {
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

void Agent::ship_redirects(const std::shared_ptr<CkptOp>& op, MsgChannel* raw,
                           const net::SockAddr& stream_endpoint) {
  // Redirected send queues go to the agents receiving the peers'
  // streams.
  for (auto& rd : op->redirects) {
    net::SockAddr peer_agent{};
    for (const auto& [vip, a] : op->cmd.peer_agents) {
      if (vip == rd.dst_pod_vip) peer_agent = a;
    }
    if (peer_agent.port == 0) continue;  // peer not migrating
    MsgChannel* target = raw;
    if (peer_agent != stream_endpoint) {
      auto ch2 = connect_channel(node_.host_stack(), peer_agent);
      if (ch2 == nullptr) continue;
      target = ch2.get();
      out_channels_.push_back(std::move(ch2));
    }
    (void)target->send(encode_redirect_data(rd));
  }
}

void Agent::deliver_image(const std::shared_ptr<CkptOp>& op) {
  if (fault_crashed("ckpt.deliver")) return;
  auto uri = parse_uri(op->cmd.dest_uri);
  if (!uri) return ckpt_abort(op, uri.status().to_string());

  if (uri.value().scheme == "san") {
    // Two-phase commit: stage the image now; it only replaces the
    // previous image in ckpt_maybe_finish, after the continue barrier.
    // Until then an abort or crash leaves the last committed image
    // untouched, and the incremental chain state — updated at commit —
    // stays in sync with what is actually on the SAN.
    Status st = commit_image(*op, uri.value().path, /*publish=*/false);
    if (!st) ckpt_abort(op, st.message(), /*transient=*/true);
    return;
  }
  if (uri.value().scheme == "agent") {
    // Direct streaming to the destination agent — "enabling direct
    // migration of a distributed application to a new set of nodes
    // without saving and restoring state from secondary storage" (§1).
    // (Materialize-then-send path; see ckpt_stream for the pipelined
    // variant.)
    auto ch = connect_channel(node_.host_stack(), uri.value().endpoint);
    if (ch == nullptr) return ckpt_abort(op, "cannot reach stream target");
    MsgChannel* raw = ch.get();
    out_channels_.push_back(std::move(ch));
    (void)raw->send(
        encode_stream_open(StreamOpen{op->cmd.op_id, uri.value().path}));
    const Bytes& img = op->encoded_image;
    for (std::size_t off = 0; off < img.size(); off += kStreamChunk) {
      std::size_t n = std::min(kStreamChunk, img.size() - off);
      StreamChunk chunk;
      chunk.tag = uri.value().path;
      chunk.data.assign(img.begin() + static_cast<long>(off),
                        img.begin() + static_cast<long>(off + n));
      (void)raw->send(encode_stream_chunk(chunk));
    }
    (void)raw->send(encode_stream_close(StreamClose{uri.value().path}));
    ship_redirects(op, raw, uri.value().endpoint);
    return;
  }
  ckpt_abort(op, "unsupported checkpoint destination " + op->cmd.dest_uri);
}

void Agent::ckpt_maybe_finish(const std::shared_ptr<CkptOp>& op) {
  if (op->finished || op->aborted || op->drain_pending) return;
  // Steps 3a/4a: finish only after the standalone checkpoint completed
  // AND the Manager's continue arrived (the single synchronization).
  if (!op->standalone_done || !op->continue_received) return;
  if (fault_crashed("ckpt.barrier")) return;

  // Commit point: the staged image atomically replaces the previous one
  // only now, past the barrier.  Only a committed image advances the
  // incremental chain — an aborted delta must not become the next base.
  if (!op->san_tmp.empty()) {
    Status st = commit_image(*op, op->san_final, /*publish=*/true);
    if (!st) return ckpt_abort(op, st.message(), /*transient=*/true);
    trace_op("3b: image committed to " + op->san_final, op->cmd.op_id,
             op->span_barrier);
  }
  // COW mode: the pod resumes now, but the op stays open — the image
  // drains to the SAN in the background and EPILOGUE_DONE closes it.
  if (op->cow) {
    op->drain_pending = true;
  } else {
    op->finished = true;
  }

  obs::metrics()
      .histogram("agent.ckpt.barrier_wait_us")
      .observe(node_.now() - op->t_standalone_done);
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_barrier);
    if (!op->cow) r->end_at(node_.now(), op->span_root);
  }

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
      if (obs::SpanRecorder* r = rec()) {
        r->event_at(node_.now(), who(),
                    "agent.resume pod=" + op->cmd.pod_name,
                    op->continue_event, op->cmd.op_id);
      }
      // Suppressed retransmissions resume on their own once the filter
      // opens; tag each established socket so the first one extends the
      // causal tree down to the wire.
      net::Stack& stack = pod->stack();
      for (net::SockId sid : stack.all_socket_ids()) {
        if (net::TcpSocket* t = stack.find_tcp(sid)) {
          if (t->state() == net::TcpState::ESTABLISHED) {
            t->tag_next_retransmit(tag(op->cmd.op_id, op->continue_event));
          }
        }
      }
      trace_op("4: pod " + op->cmd.pod_name + " resumed", op->cmd.op_id,
               op->continue_event);
    } else {
      pod->filter().clear_obs_tag();
      (void)destroy_pod(op->cmd.pod_name);
      trace_op("4: pod " + op->cmd.pod_name + " destroyed (migration)",
               op->cmd.op_id, op->continue_event);
    }
  }

  CkptDone done;
  done.op_id = op->cmd.op_id;
  done.pod_name = op->cmd.pod_name;
  done.ok = true;
  done.image_bytes = op->encoded_image.size();
  done.network_bytes = op->image.network_bytes();
  done.total_us = node_.now() - op->t_start;
  done.logical_bytes = op->logical_bytes;
  done.delta_seq = op->is_delta ? op->image.header.delta_seq : 0;
  done.suspend_us = op->suspend_us;
  done.netckpt_us = op->netckpt_us;
  done.standalone_us = op->standalone_us;
  done.barrier_us = node_.now() - op->t_standalone_done;
  done.drain_pending = op->cow;
  done.cowmark_us = op->cowmark_us;
  (void)op->mgr->send(encode_ckpt_done(done));

  // Downtime is over; start draining the snapshot to the SAN.
  if (op->cow) ckpt_drain(op);
}

void Agent::ckpt_abort(const std::shared_ptr<CkptOp>& op,
                       const std::string& why, bool transient) {
  if (op->finished || op->aborted) return;
  // Once the pod has resumed, a failure only loses the in-flight drain:
  // report it on the EPILOGUE_DONE leg instead of the (already sent) done.
  if (op->drain_pending) return ckpt_drain_fail(op, why, transient);
  op->aborted = true;
  op->finished = true;
  // GC the staged half of a never-committed two-phase write.
  if (!op->san_tmp.empty()) {
    if (node_.san().remove(op->san_tmp).is_ok()) {
      obs::metrics().counter("ckpt.commit.gc_tmp").inc();
    }
    op->san_tmp.clear();
  }
  ZLOG_WARN("agent@" << node_.name() << ": checkpoint of "
                     << op->cmd.pod_name << " aborted: " << why);
  // Flight-recorder dump before the spans close: the postmortem's
  // `phase` is the phase still open at the moment of death.
  obs::dump_op_failure(rec(), "ckpt_abort", op->cmd.op_id, who(), why,
                       node_.now());
  if (obs::SpanRecorder* r = rec()) {
    // Close whichever phases were open at abort time (no-ops otherwise).
    r->end_at(node_.now(), op->span_suspend);
    r->end_at(node_.now(), op->span_netckpt);
    r->end_at(node_.now(), op->span_standalone);
    r->end_at(node_.now(), op->span_stream);
    r->end_at(node_.now(), op->span_cowmark);
    r->end_at(node_.now(), op->span_barrier);
    r->end_at(node_.now(), op->span_root);
  }
  trace_op("abort: " + why, op->cmd.op_id, op->span_root);
  // Gracefully resume the application (paper §4).
  pod::Pod* pod = find_pod(op->cmd.pod_name);
  if (pod != nullptr) {
    pod->filter().clear_obs_tag();
    pod->filter().unblock_addr(pod->vip());
    if (pod->suspended()) pod->resume();
  }
  if (op->mgr != nullptr) {
    CkptDone done;
    done.op_id = op->cmd.op_id;
    done.pod_name = op->cmd.pod_name;
    done.ok = false;
    done.error = why;
    done.transient = transient;
    // Partial phase durations: what the pod HAD spent when it died, so
    // aborted ledger lines still carry attribution-grade timings.
    done.total_us = node_.now() - op->t_start;
    done.suspend_us = op->suspend_us;
    done.netckpt_us = op->netckpt_us;
    done.standalone_us = op->standalone_us;
    done.barrier_us = op->t_standalone_done > 0
                          ? node_.now() - op->t_standalone_done
                          : 0;
    (void)op->mgr->send(encode_ckpt_done(done));
  }
}

// ---- Restart (Figure 3) ---------------------------------------------------------------

void Agent::restart_begin(Conn* conn, RestartCmd cmd) {
  auto op = std::make_shared<RestartOp>();
  op->cmd = std::move(cmd);
  op->mgr = conn->ch.get();
  op->t_start = node_.now();
  conn->restart = op;
  if (fault_crashed("restart.begin")) return;
  if (obs::SpanRecorder* r = rec()) {
    op->span_root = r->begin_at(op->t_start, "restart", who(),
                                op->cmd.parent_span, op->cmd.op_id);
  }

  op->wm.enter("restart");
  if (op->cmd.heartbeat_us > 0) {
    after(op->cmd.heartbeat_us, [this, op] { restart_beacon(op); });
  }

  // Apply the virtual→real location updates ("substituting the
  // destination network addresses in place of the original addresses").
  for (const auto& [vip, real] : op->cmd.locations) {
    node_.locations().set(vip, real);
  }

  auto uri = parse_uri(op->cmd.source_uri);
  if (!uri) return restart_finish(op, uri.status());

  if (uri.value().scheme == "san") {
    if (op->cmd.pipelined) {
      // Pipelined restore: assemble the image through the ranged read
      // API, chunk by chunk, the way the streaming loop will charge for
      // it.  The bytes land instantly (simulation logic); the fetch leg's
      // virtual time is costed per chunk in restart_stream_chunk.
      auto sz = node_.san().size_of(uri.value().path);
      if (!sz) return restart_finish(op, sz.status());
      Bytes data;
      data.reserve(sz.value());
      for (std::size_t off = 0; off < sz.value(); off += kStreamChunk) {
        auto chunk = node_.san().read_at(uri.value().path, off, kStreamChunk);
        if (!chunk) return restart_finish(op, chunk.status());
        data.insert(data.end(), chunk.value().begin(), chunk.value().end());
      }
      trace_op("0a: pipelined fetch plan for " + op->cmd.pod_name + " (" +
                   std::to_string(data.size()) + " bytes in " +
                   std::to_string((data.size() + kStreamChunk - 1) /
                                  std::max<std::size_t>(1, kStreamChunk)) +
                   " chunks)",
               op->cmd.op_id, op->span_root);
      restart_with_image(op, std::move(data));
      return;
    }
    auto data = node_.san().read(uri.value().path);
    if (!data) return restart_finish(op, data.status());
    restart_with_image(op, std::move(data).value());
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
                               Bytes image_bytes) {
  if (op->finished) return;
  if (fault_crashed("restart.connectivity")) return;
  auto image = ckpt::decode_image(image_bytes);
  if (!image) return restart_finish(op, image.status());
  op->image = std::move(image).value();

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
      auto data = node_.san().read(base_uri.value().path);
      if (!data) return restart_finish(op, data.status());
      auto base = ckpt::decode_image(data.value());
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
    trace_op("0: composed delta chain of depth " + std::to_string(depth) +
                 " for " + op->cmd.pod_name,
             op->cmd.op_id, op->span_root);
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
        trace_op("0: replacing live pod " + it->first + " for recovery",
                 op->cmd.op_id, op->span_root);
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
  trace_op("1: pod " + op->cmd.pod_name + " created for restart",
           op->cmd.op_id, op->span_root);

  // Step 2: recover network connectivity.
  std::set<net::SockId> referenced;
  for (const auto& p : op->image.processes) {
    for (const auto& [fd, sid] : p.fds) referenced.insert(sid);
  }
  std::set<net::SockId> unreferenced;
  for (const auto& s : op->image.sockets) {
    if (referenced.count(s.old_id) == 0) unreferenced.insert(s.old_id);
  }

  if (obs::SpanRecorder* r = rec()) {
    op->span_connectivity =
        r->begin_at(node_.now(), "restart.connectivity", who(),
                    op->span_root, op->cmd.op_id);
  }
  op->wm.enter("restart.connectivity");
  op->connectivity = std::make_unique<ConnectivityRestore>(
      *op->pod, op->cmd.meta, op->image.sockets, std::move(unreferenced),
      30 * sim::kSecond,
      [this, op](Status st, ckpt::SockMap map) {
        restart_connectivity_done(op, std::move(st), std::move(map));
      });
  op->connectivity->set_obs_tag(tag(op->cmd.op_id, op->span_connectivity));
  op->connectivity->start();
}

void Agent::restart_connectivity_done(const std::shared_ptr<RestartOp>& op,
                                      Status st, ckpt::SockMap map) {
  if (op->finished) return;
  if (!st) return restart_finish(op, st);
  op->socks = std::move(map);
  op->t_conn_done = node_.now();
  obs::metrics()
      .histogram("agent.restart.connectivity_us")
      .observe(op->t_conn_done - op->t_start);
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(op->t_conn_done, op->span_connectivity);
  }
  trace_op("2: connectivity recovered for " + op->cmd.pod_name,
           op->cmd.op_id, op->span_root);
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
  if (obs::SpanRecorder* r = rec()) {
    op->span_netstate = r->begin_at(node_.now(), "restart.netstate", who(),
                                    op->span_root, op->cmd.op_id);
  }
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
                                      extra,
                                      tag(op->cmd.op_id, op->span_netstate));
    if (!st) return restart_finish(op, st);
  }

  sim::Time cost =
      costs_.net_restore_cost(op->image.sockets.size(), restored_bytes);
  op->wm.enter("restart.netstate", node_.now(),
               node_.now() + slowdown(cost), restored_bytes);
  after(cost, [this, op, cost] {
    if (op->finished) return;
    op->t_net_done = node_.now();
    obs::metrics().histogram("agent.restart.netstate_us").observe(cost);
    if (obs::SpanRecorder* r = rec()) {
      r->end_at(op->t_net_done, op->span_netstate);
    }
    trace_op("3: network state restored for " + op->cmd.pod_name,
             op->cmd.op_id, op->span_root);
    restart_standalone(op);
  });
}

void Agent::restart_standalone(const std::shared_ptr<RestartOp>& op) {
  if (op->finished) return;
  if (fault_crashed("restart.standalone")) return;
  if (obs::SpanRecorder* r = rec()) {
    op->span_standalone =
        r->begin_at(node_.now(), "restart.standalone", who(), op->span_root,
                    op->cmd.op_id);
  }
  // Step 4: standalone restart.  The *logic* (rebuilding processes, fd
  // tables, region bytes) happens instantly either way; what differs is
  // how the virtual time is charged.
  Status st = ckpt::Standalone::restore_processes(*op->pod,
                                                  op->image.processes,
                                                  op->socks);
  if (!st) return restart_finish(op, st);

  u64 image_bytes = 0;
  for (const auto& p : op->image.processes) {
    for (const auto& [name, r] : p.regions) image_bytes += r.size();
  }

  if (!op->cmd.pipelined) {
    // Monolithic path: fetch + decode + rebuild charged serially as one
    // blocking byte term.
    sim::Time cost = costs_.standalone_restart_cost(
        image_bytes, op->image.processes.size());
    op->wm.enter("restart.standalone", node_.now(),
                 node_.now() + slowdown(cost), image_bytes);
    after(cost, [this, op, cost] {
      if (op->finished || op->pod == nullptr) return;
      obs::metrics().histogram("agent.restart.standalone_us").observe(cost);
      trace_op("4: standalone restart done for " + op->cmd.pod_name,
               op->cmd.op_id, op->span_root);
      restart_resume(op);
    });
    return;
  }

  // Pipelined restore (DESIGN.md §13): rank regions by the working-set
  // signal persisted in the manifest; with cmd.lazy the cold tail is
  // deferred past resume and filled in the background / on demand fault.
  op->hot_bytes = image_bytes;
  if (op->cmd.lazy && image_bytes > 0) {
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
      op->cold.push_back({ranked[i].vpid, *ranked[i].name, ranked[i].bytes});
      op->lazy_total_bytes += ranked[i].bytes;
    }
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
  }

  op->t_fetch_start = node_.now();
  op->fetch_stream = node_.san().stream_begin(os::SanStreamClass::FOREGROUND);
  trace_op("4a: pipelined restore streaming " + std::to_string(op->hot_bytes) +
               "/" + std::to_string(image_bytes) + " region bytes for " +
               op->cmd.pod_name + " (" +
               std::to_string(op->lazy_total_bytes) + " bytes in " +
               std::to_string(op->cold.size()) + " regions lazy-deferred)",
           op->cmd.op_id, op->span_root);
  // Per-process control overhead up front, then the hot set streams
  // through the fetch → decode → rebuild pipeline chunk by chunk.
  sim::Time fixed = costs_.restart_fixed +
                    costs_.per_process * op->image.processes.size();
  after(fixed, [this, op] { restart_stream_chunk(op, 0, op->hot_bytes); });
}

void Agent::restart_stream_chunk(const std::shared_ptr<RestartOp>& op,
                                 u64 off, u64 total) {
  if (op->finished || op->pod == nullptr) {
    node_.san().stream_end(op->fetch_stream);
    op->fetch_stream = 0;
    return;
  }
  if (off >= total) {
    node_.san().stream_end(op->fetch_stream);
    op->fetch_stream = 0;
    op->fetch_us = node_.now() - op->t_fetch_start;
    obs::metrics().histogram("agent.restart.standalone_us")
        .observe(node_.now() - op->t_fetch_start);
    trace_op("4: standalone restart done for " + op->cmd.pod_name +
                 " (pipelined, " + std::to_string(op->fetch_us) + "us for " +
                 std::to_string(op->hot_bytes) + " hot bytes)",
             op->cmd.op_id, op->span_root);
    restart_resume(op);
    return;
  }
  u64 n = std::min<u64>(kStreamChunk, total - off);
  double share = san_grant(op->fetch_stream, "restore", op->cmd.op_id,
                           op->span_standalone, op->last_share);
  sim::Time cost = costs_.restart_chunk_cost(n, share);
  sim::Time eta = slowdown(costs_.restart_chunk_cost(total - off, share));
  op->wm.enter("restart.standalone", op->t_fetch_start, node_.now() + eta,
               total);
  after(cost,
        [this, op, off, n, total] { restart_stream_chunk(op, off + n, total); });
}

void Agent::restart_resume(const std::shared_ptr<RestartOp>& op) {
  if (op->finished || op->pod == nullptr) return;
  op->pod->resume();
  op->t_downtime_end = node_.now();
  restart_finish(op, Status::ok());
  if (op->lazy_remaining > 0) restart_lazy_begin(op);
}

// ---- Lazy restore window (DESIGN.md §13) -------------------------------------

bool Agent::lazy_live(const std::shared_ptr<RestartOp>& op) {
  return !crashed_ && !op->aborted && op->pod != nullptr &&
         find_pod(op->cmd.pod_name) == op->pod;
}

void Agent::restart_lazy_begin(const std::shared_ptr<RestartOp>& op) {
  if (!lazy_live(op)) return;
  if (fault_crashed("restart.lazy")) return;
  if (obs::SpanRecorder* r = rec()) {
    op->span_lazy = r->begin_at(node_.now(), "restart.lazy", who(),
                                op->span_root, op->cmd.op_id);
  }
  trace_op("6: lazy restore started for " + op->cmd.pod_name + " (" +
               std::to_string(op->lazy_remaining) + " regions, " +
               std::to_string(op->lazy_total_bytes) + " bytes)",
           op->cmd.op_id, op->span_lazy);
  restart_lazy_fill(op, 0);
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
  op->fetch_stream = node_.san().stream_begin(os::SanStreamClass::FOREGROUND);
  double share = san_grant(op->fetch_stream, "lazy-fill", op->cmd.op_id,
                           op->span_lazy, op->last_share);
  sim::Time cost = costs_.lazy_fill_cost(c.bytes, share);
  op->wm.enter("restart.lazy", node_.now(), node_.now() + slowdown(cost),
               c.bytes);
  after(cost, [this, op, idx] {
    node_.san().stream_end(op->fetch_stream);
    op->fetch_stream = 0;
    const RestartOp::ColdRegion& done = op->cold[idx];
    op->lazy_filled_bytes += done.bytes;
    if (op->lazy_remaining > 0) --op->lazy_remaining;
    trace_op("lazy.fill: region " + done.name + " of vpid " +
                 std::to_string(done.vpid) + " (" +
                 std::to_string(done.bytes) + " bytes)",
             op->cmd.op_id, op->span_lazy);
    if (!lazy_live(op)) return;
    restart_lazy_fill(op, idx + 1);
  });
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
  trace_op("lazy.fault: region " + name + " of vpid " +
               std::to_string(vpid) + " (" + std::to_string(bytes) +
               " bytes, " + std::to_string(tax) + "us tax)",
           op->cmd.op_id, op->span_lazy);
  if (op->lazy_remaining == 0 && op->fetch_stream == 0) {
    restart_lazy_finish(op);
  }
}

void Agent::restart_lazy_finish(const std::shared_ptr<RestartOp>& op) {
  if (op->lazy_done_sent) return;
  op->lazy_done_sent = true;
  const u64 lazy_us =
      op->t_downtime_end > 0 ? node_.now() - op->t_downtime_end : 0;
  obs::metrics().histogram("agent.restart.lazy_us").observe(lazy_us);
  obs::metrics().histogram("agent.restart.lazy_faults")
      .observe(op->lazy_faults);
  trace_op("7: lazy restore done for " + op->cmd.pod_name + " (" +
               std::to_string(op->lazy_filled_bytes) + " bytes, " +
               std::to_string(op->lazy_faults) + " faults)",
           op->cmd.op_id, op->span_lazy);
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_lazy);
    r->end_at(node_.now(), op->span_root);
  }
  EpilogueDone ld;
  ld.op_id = op->cmd.op_id;
  ld.pod_name = op->cmd.pod_name;
  ld.ok = true;
  ld.epilogue_us = lazy_us;
  ld.lazy_bytes = op->lazy_filled_bytes;
  ld.faults = op->lazy_faults;
  ld.fault_bytes = op->lazy_fault_bytes;
  if (op->mgr != nullptr && op->mgr->open()) {
    (void)op->mgr->send(encode_epilogue_done(ld));
  }
}

void Agent::restart_finish(const std::shared_ptr<RestartOp>& op, Status st) {
  if (op->finished) return;
  op->finished = true;
  op->ok = st.is_ok();
  const bool lazy_pending = st.is_ok() && op->lazy_remaining > 0;
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), op->span_connectivity);
    r->end_at(node_.now(), op->span_netstate);
    r->end_at(node_.now(), op->span_standalone);
    // With cold regions still to fill, the op's root span stays open
    // until the lazy window drains (mirror of the COW drain span).
    if (!lazy_pending) r->end_at(node_.now(), op->span_root);
  }
  if (!st && op->pod != nullptr) {
    (void)destroy_pod(op->cmd.pod_name);  // clean up the partial pod
  }
  RestartDone done;
  done.op_id = op->cmd.op_id;
  done.pod_name = op->cmd.pod_name;
  done.ok = st.is_ok();
  done.error = st.message();
  // Timeouts (stream never arrived, redirects missing) are worth a
  // whole-op retry; decode/protocol errors are not.
  done.transient = !st.is_ok() && st.err() == Err::TIMED_OUT;
  done.total_us = node_.now() - op->t_start;
  done.connectivity_us =
      op->t_conn_done > op->t_start ? op->t_conn_done - op->t_start : 0;
  done.net_restore_us =
      op->t_net_done > op->t_conn_done ? op->t_net_done - op->t_conn_done : 0;
  done.standalone_us =
      op->t_net_done > 0 && node_.now() > op->t_net_done
          ? node_.now() - op->t_net_done
          : 0;
  done.lazy_pending = lazy_pending;
  done.downtime_us =
      op->t_downtime_end > 0 ? op->t_downtime_end - op->t_start
                             : done.total_us;
  done.hot_bytes = op->hot_bytes;
  done.lazy_bytes = op->lazy_total_bytes;
  done.fetch_us = op->fetch_us;
  trace_op("5: restart of " + op->cmd.pod_name +
               (st.is_ok() ? " done" : " FAILED: " + st.to_string()) +
               (lazy_pending
                    ? " (" + std::to_string(op->lazy_remaining) +
                          " regions lazy-pending)"
                    : ""),
           op->cmd.op_id, op->span_root);
  if (op->mgr != nullptr) (void)op->mgr->send(encode_restart_done(done));
}

void Agent::restart_abort(const std::shared_ptr<RestartOp>& op,
                          const std::string& why) {
  // Runs on live AND already-finished restores: a Manager abort means
  // the coordinated restart failed as a whole, so even a pod this agent
  // restored successfully must be torn down.
  op->aborted = true;  // stops the lazy window, if one is running
  node_.san().stream_end(op->fetch_stream);
  op->fetch_stream = 0;
  if (op->pod != nullptr) op->pod->set_lazy_fault_handler(nullptr);
  if (op->finished && !op->lazy_done_sent && op->lazy_remaining > 0) {
    // Aborted after RESTART_DONE, mid-lazy-window: close the spans the
    // pending fills were keeping open.
    if (obs::SpanRecorder* r = rec()) {
      if (op->span_lazy != 0) r->end_at(node_.now(), op->span_lazy);
      r->end_at(node_.now(), op->span_root);
    }
  }
  if (!op->finished) {
    op->finished = true;
    ZLOG_WARN("agent@" << node_.name() << ": restart of " << op->cmd.pod_name
                       << " aborted: " << why);
    obs::dump_op_failure(rec(), "restart_abort", op->cmd.op_id, who(), why,
                         node_.now());
    if (obs::SpanRecorder* r = rec()) {
      r->end_at(node_.now(), op->span_connectivity);
      r->end_at(node_.now(), op->span_netstate);
      r->end_at(node_.now(), op->span_standalone);
      r->end_at(node_.now(), op->span_root);
    }
    trace_op("abort: " + why, op->cmd.op_id, op->span_root);
  }
  // Drop a parked stream wait belonging to this op.
  for (auto it = waiting_restarts_.begin(); it != waiting_restarts_.end();) {
    if (it->second == op) {
      it = waiting_restarts_.erase(it);
    } else {
      ++it;
    }
  }
  if (op->pod != nullptr) {
    op->connectivity.reset();  // holds references into the pod
    if (find_pod(op->cmd.pod_name) == op->pod) {
      (void)destroy_pod(op->cmd.pod_name);
      trace_op("abort: pod " + op->cmd.pod_name + " torn down",
               op->cmd.op_id, op->span_root);
    }
    op->pod = nullptr;
  }
}

}  // namespace zapc::core
