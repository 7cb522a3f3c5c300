#include "core/manager.h"

#include <algorithm>

#include "obs/event.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/vtime.h"
#include "util/log.h"

namespace zapc::core {
namespace {

namespace ev = obs::ev;

/// The words that differ between a checkpoint and a restart running the
/// shared op skeleton: span, metric, ledger and error text.
struct KindText {
  const char* tag;   // "mgr.<tag>" spans and metrics, ledger kind
  const char* noun;  // log and error wording
  const char* done_error;  // reason prefix of a failed DONE
  const char* epilogue;    // background epilogue: "<epilogue>_wait" phase
  const char* epilogue_error;
  const char* bad_epilogue;
};

constexpr KindText kCkptText{"ckpt",
                             "checkpoint",
                             "agent reported failure for ",
                             "drain",
                             "agent reported drain failure for ",
                             "bad drain report"};
constexpr KindText kRestartText{"restart",
                                "restart",
                                "agent reported restart failure for ",
                                "lazy",
                                "agent reported lazy-restore failure for ",
                                "bad lazy report"};

template <typename Report>
Report failed_report(const std::string& why, obs::OpId op, u32 attempts) {
  Report r;
  r.error = why;
  r.op_id = op;
  r.attempts = attempts;
  return r;
}

}  // namespace

Manager::Manager(os::Node& node, Trace* trace)
    : node_(node), trace_(trace) {
  // Touch the failure-handling counters up front so metric exports (bench
  // JSON, postmortems) always carry them, even at zero.
  obs::metrics().counter("mgr.ckpt.retries");
  obs::metrics().counter("mgr.restart.retries");
  obs::metrics().counter("mgr.phase.deadline_expired");
  obs::metrics().counter("ckpt.commit.committed");
  obs::metrics().counter("ckpt.commit.gc_tmp");
  obs::metrics().counter("fault.injected");
  obs::metrics().counter("mgr.hb.received");
  obs::metrics().counter("mgr.progress.received");
  obs::metrics().counter("mgr.health.early_warnings");
  obs::metrics().counter("mgr.ledger.appends");
  obs::metrics().counter("mgr.ledger.attrib_failures");
}

Manager::~Manager() { *alive_ = false; }

void Manager::trace_op(const std::string& what, obs::OpId op,
                       obs::SpanId parent) {
  if (trace_ != nullptr) {
    trace_->add(node_.now(), "manager", what, parent, op);
  }
}

// ---- Op ledger (DESIGN.md §10) ----------------------------------------------

void Manager::ledger_attribute(obs::LedgerEntry& e) {
  obs::SpanRecorder* r = rec();
  if (r == nullptr) return;  // tracing off: no tree to attribute
  auto attrib = obs::attribute_op(r->spans(), e.op);
  if (!attrib.is_ok()) {
    obs::metrics().counter("mgr.ledger.attrib_failures").inc();
    return;
  }
  e.attrib = std::move(attrib).value();
}

void Manager::write_ledger(const OpState& op, const std::string& outcome,
                           const std::string& error, bool transient,
                           bool will_retry) {
  if (ledger_ == nullptr) return;
  obs::LedgerEntry e;
  e.op = op.op_id;
  e.kind = op.is_ckpt() ? kCkptText.tag : kRestartText.tag;
  e.outcome = outcome;
  e.error = error;
  e.transient = transient;
  e.will_retry = will_retry;
  e.attempt = op.attempt;
  e.start_us = op.t_start;
  e.end_us = node_.now();
  // Downtime ends when every pod has resumed; with a background epilogue
  // (COW drain, lazy fill) the op's latency keeps running until it
  // finishes, so the two fields diverge (DESIGN.md §11, §13).  On a
  // failure before all pods resumed, both collapse to the abort instant.
  const sim::Time dt_end =
      op.t_downtime_end != 0 ? op.t_downtime_end : node_.now();
  e.downtime_us = dt_end - op.t_start;
  e.latency_us = node_.now() - op.t_start;
  // Slowest pod per phase: the ledger's no-tracing attribution floor.
  auto slowest = [&e](const char* name, u64 us) {
    if (us > 0) e.phase_us[name] = std::max(e.phase_us[name], obs::Time{us});
  };
  for (const Peer& p : op.peers) {
    if (!p.done_received) continue;
    e.pods++;
    const EpilogueDone& epi = p.epilogue;
    if (op.is_ckpt()) {
      const CkptDone& d = p.ckpt_done;
      e.image_bytes = std::max({e.image_bytes, d.image_bytes, epi.image_bytes});
      e.network_bytes = std::max(e.network_bytes, d.network_bytes);
      e.logical_bytes = std::max(e.logical_bytes, d.logical_bytes);
      slowest("suspend", d.suspend_us);
      slowest("netckpt", d.netckpt_us);
      slowest("standalone", d.standalone_us);
      slowest("barrier", d.barrier_us);
      slowest("cowmark", d.cowmark_us);
      slowest("drain", epi.epilogue_us);
      if (!p.epilogue_received) continue;
      // Worst-case QoS picture across pods: most throttled/contended
      // drain time and the lowest bandwidth grant — the inputs
      // zapc-report uses to attribute a slow drain.
      e.drain_throttled_us =
          std::max(e.drain_throttled_us, obs::Time{epi.throttled_us});
      e.drain_contended_us =
          std::max(e.drain_contended_us, obs::Time{epi.contended_us});
      if (epi.granted_bps != 0 && (e.drain_granted_bps == 0 ||
                                   epi.granted_bps < e.drain_granted_bps)) {
        e.drain_granted_bps = epi.granted_bps;
      }
    } else {
      const RestartDone& d = p.restart_done;
      slowest("connectivity", d.connectivity_us);
      slowest("netstate", d.net_restore_us);
      slowest("standalone", d.standalone_us);
      slowest("fetch", d.fetch_us);
      if (!p.epilogue_received) continue;
      slowest("lazy", epi.epilogue_us);
      e.lazy_faults += epi.faults;
      e.lazy_bytes += epi.lazy_bytes;
    }
  }
  e.straggler = health_.straggler(op.op_id);
  e.trigger = op.is_ckpt() ? op.in.ckpt.trigger : op.in.restart.trigger;
  // MTTR only on the restart attempt that actually restored the
  // application — and it ends when the pods resume, not when the lazy
  // tail drains.
  if (!op.is_ckpt() && op.in.restart.detect_us != 0 && outcome == "ok") {
    e.mttr_us = dt_end - op.in.restart.detect_us;
  }
  ledger_attribute(e);
  obs::metrics().counter("mgr.ledger.appends").inc();
  if (Status st = ledger_->append(e); !st) {
    ZLOG_WARN("manager: ledger append failed: " << st.to_string());
  }
}

sim::Time Manager::retry_delay(const RetryPolicy& p, u32 attempt) {
  double d = static_cast<double>(p.backoff_us);
  for (u32 i = 1; i < attempt; ++i) d *= p.backoff_factor;
  d *= 1.0 + p.jitter * (2.0 * retry_rng_.uniform() - 1.0);
  return d < 1.0 ? 1 : static_cast<sim::Time>(d);
}

// ---- Introspection plane (DESIGN.md §9) -------------------------------------

obs::HealthDoc Manager::health_doc(obs::OpId op) const {
  obs::HealthDoc doc = health_.snapshot(node_.now(), op);
  if (supervisor_status_ != nullptr) doc.supervisor = supervisor_status_();
  return doc;
}

std::string Manager::health_json(obs::OpId op) const {
  return obs::to_json(health_doc(op)).dump(2);
}

void Manager::serve_status(u16 port) {
  status_server_ = std::make_unique<MsgServer>(
      node_.host_stack(), port, [this](std::unique_ptr<MsgChannel> ch) {
        status_conns_.push_back(std::move(ch));
        MsgChannel* raw = status_conns_.back().get();
        raw->set_on_msg(
            [this, raw, alive = std::weak_ptr<bool>(alive_)](Bytes msg) {
              if (auto a = alive.lock(); a && *a) {
                status_on_msg(raw, std::move(msg));
              }
            });
        raw->set_on_closed([this, raw, alive = std::weak_ptr<bool>(alive_)] {
          if (auto a = alive.lock(); !a || !*a) return;
          for (auto it = status_conns_.begin(); it != status_conns_.end();
               ++it) {
            if (it->get() == raw) {
              status_conns_.erase(it);
              break;
            }
          }
        });
      });
}

void Manager::status_on_msg(MsgChannel* ch, Bytes msg) {
  auto type = peek_type(msg);
  if (!type || type.value() != MsgType::HEALTH_QUERY) return;
  auto q = decode<HealthQuery>(msg);
  if (!q) return;
  const obs::HealthDoc doc = health_doc(q.value().op_id);  // 0 = latest
  HealthSnapshotMsg reply;
  reply.op_id = doc.op_id;
  reply.json = obs::to_json(doc).dump();
  (void)ch->send(encode(reply));
}

void Manager::abort_current(const std::string& why) {
  for (OpState* op : {ckpt_op_.get(), restart_op_.get()}) {
    if (op != nullptr && !op->finished) {
      return fail(*op, why, /*transient=*/false);
    }
  }
}

void Manager::health_drain_warnings(obs::OpId op, obs::SpanId root) {
  for (const obs::HealthWarning& w : health_.take_warnings()) {
    obs::metrics().counter("mgr.health.early_warnings").inc();
    ev::Text warn(ev::kHealthWarn);
    warn.kv(ev::kPod, w.pod).kv("phase", w.phase);
    if (w.what == "lag") {
      warn.kv("lag", obs::vtime_us(w.lag_us));
    } else {
      warn.kv("hb_age", obs::vtime_us(w.age_us));
    }
    trace_op(warn, op, root);
  }
}

// ---- Entry points ---------------------------------------------------------

void Manager::checkpoint(std::vector<Target> targets, CkptMode mode,
                         CheckpointDoneFn done, CkptOptions opts) {
  OpInputs in;
  in.kind = OpKind::CKPT;
  in.targets = std::move(targets);
  in.mode = mode;
  in.ckpt = std::move(opts);
  in.ckpt_done = std::move(done);
  if (ckpt_op_ != nullptr) return report_failure(in, "manager busy", 0, 1);
  begin_attempt(std::move(in), 1);
}

void Manager::restart(std::vector<Target> targets,
                      std::map<std::string, ckpt::NetMeta> metas,
                      RestartDoneFn done, RestartOptions opts) {
  OpInputs in;
  in.kind = OpKind::RESTART;
  in.restart = std::move(opts);
  in.restart_done = std::move(done);
  if (restart_op_ != nullptr) return report_failure(in, "manager busy", 0, 1);
  if (metas.empty()) metas = last_metas_;

  // Derive the restart schedule from the meta-data tables.  Failures
  // here are configuration errors, never retried.
  std::vector<ckpt::NetMeta> meta_list;
  for (auto& t : targets) {
    auto it = metas.find(t.pod_name);
    if (it == metas.end()) {
      return report_failure(in, "no meta-data for pod " + t.pod_name, 0, 1);
    }
    meta_list.push_back(it->second);
  }
  auto plan = build_restart_plan(meta_list);
  if (!plan) {
    return report_failure(in, "schedule: " + plan.status().to_string(), 0,
                          1);
  }
  if (last_redirect_) {
    // The checkpoint shipped each covered connection's send queue to the
    // agent receiving its peer's stream; mark those entries so the
    // restore waits for the records.  A record for pod X's connection is
    // produced only if the sender (the peer) knew X's destination agent,
    // i.e. X's vip was in the advertised map.
    for (auto& [vip, meta] : plan.value().pod_meta) {
      if (last_redirect_covered_.count(vip) == 0) continue;
      for (auto& e : meta.entries) {
        if ((e.state == ckpt::ConnState::FULL_DUPLEX ||
             e.state == ckpt::ConnState::HALF_DUPLEX) &&
            last_redirect_covered_.count(e.target.ip) > 0) {
          e.redirect_expected = true;
        }
      }
    }
  }

  // New placement: each pod's virtual address now resolves to the real
  // address of the agent restarting it.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    in.locations.emplace_back(meta_list[i].pod_vip, targets[i].agent.ip);
    in.peer_metas.push_back(plan.value().pod_meta[meta_list[i].pod_vip]);
  }
  in.targets = std::move(targets);
  begin_attempt(std::move(in), 1);
}

void Manager::migrate(std::vector<MigrateTarget> targets, MigrateDoneFn done,
                      MigrateOptions opts) {
  std::vector<Target> ckpt_targets;
  std::vector<Target> restart_targets;
  for (const MigrateTarget& t : targets) {
    std::string tag = t.pod_name + "-mig";
    ckpt_targets.push_back(Target{
        t.from_agent, t.pod_name,
        "agent://" + t.to_agent.ip.to_string() + ":" +
            std::to_string(t.to_agent.port) + "/" + tag,
        t.vip});
    restart_targets.push_back(
        Target{t.to_agent, t.pod_name, "stream://" + tag});
  }

  sim::Time t0 = node_.now();
  auto done_ptr = std::make_shared<MigrateDoneFn>(std::move(done));
  checkpoint(
      std::move(ckpt_targets), CkptMode::MIGRATE,
      [this, restart_targets = std::move(restart_targets), done_ptr, t0,
       opts](CheckpointReport cr) {
        if (!cr.ok) {
          MigrateReport r;
          r.error = "checkpoint: " + cr.error;
          r.checkpoint = std::move(cr);
          (*done_ptr)(std::move(r));
          return;
        }
        restart(restart_targets, {},
                [this, done_ptr, t0, cr = std::move(cr)](RestartReport rr) {
                  MigrateReport r;
                  r.ok = rr.ok;
                  if (!rr.ok) r.error = "restart: " + rr.error;
                  r.checkpoint = cr;
                  r.restart = std::move(rr);
                  r.total_us = node_.now() - t0;
                  (*done_ptr)(std::move(r));
                },
                RestartOptions{opts.deadlines, opts.retry});
      },
      CkptOptions{/*redirect_send_queues=*/true, /*fs_snapshot=*/false,
                  /*incremental=*/false, /*chain_cap=*/8,
                  /*codec_flags=*/opts.codec_flags,
                  /*pipelined_stream=*/opts.pipelined_stream,
                  /*deadlines=*/opts.deadlines, /*retry=*/opts.retry});
}

// ---- The coordinated-op skeleton -------------------------------------------

Manager::OpState* Manager::live(OpKind kind, obs::OpId id) {
  OpState* op = slot(kind).get();
  return op != nullptr && op->op_id == id && !op->finished ? op : nullptr;
}

void Manager::begin_attempt(OpInputs in, u32 attempt) {
  std::unique_ptr<OpState>& s = slot(in.kind);
  s = std::make_unique<OpState>();
  OpState& op = *s;
  op.in = std::move(in);
  op.redirect = op.is_ckpt() && op.in.ckpt.redirect_send_queues &&
                op.in.mode == CkptMode::MIGRATE;
  op.attempt = attempt;
  op.t_start = node_.now();
  op.op_id = obs::next_op_id();
  obs::metrics().counter("mgr.ops_started").inc();
  const KindText& k = op.is_ckpt() ? kCkptText : kRestartText;
  if (obs::SpanRecorder* r = rec()) {
    op.span_root = r->begin_at(op.t_start, std::string("mgr.") + k.tag,
                               "manager", 0, op.op_id);
    if (op.is_ckpt()) {
      op.span_meta_wait = r->begin_at(op.t_start, "mgr.ckpt.meta_wait",
                                      "manager", op.span_root, op.op_id);
    }
    // The restart schedule, for the timeline: each restored connection's
    // discard/redirect decision.  The offline recv >= acked check reads
    // the agents' net.sock.restored events, not these.
    for (const ckpt::NetMeta& meta : op.in.peer_metas) {
      for (const auto& e : meta.entries) {
        if (e.state != ckpt::ConnState::FULL_DUPLEX &&
            e.state != ckpt::ConnState::HALF_DUPLEX) {
          continue;
        }
        r->event_at(op.t_start, "manager",
                    ev::Text(ev::kSchedConn)
                        .kv("vip", meta.pod_vip.to_string())
                        .kv("peer", e.target.ip.to_string())
                        .kv("discard", e.discard_send)
                        .kv("redirect", e.redirect_expected),
                    op.span_root, op.op_id);
      }
    }
  }
  const sim::Time hb_us =
      op.is_ckpt() ? op.in.ckpt.heartbeat_us : op.in.restart.heartbeat_us;
  if (hb_us > 0) {
    // Stale = three missed beacons; a slow node's dilated cadence still
    // fits (it reports, just late), a dead one does not.
    health_.set_policy(obs::ClusterHealth::Policy{
        op.is_ckpt() ? op.in.ckpt.warn_lag_us : op.in.restart.warn_lag_us,
        3 * hb_us});
    std::vector<std::string> pods;
    for (const Target& t : op.in.targets) pods.push_back(t.pod_name);
    health_.op_begin(op.op_id, k.tag, op.t_start, pods);
  }
  connect_and_send(op);
}

void Manager::connect_and_send(OpState& op) {
  // For the redirect optimization, every agent needs to know which agent
  // receives each peer pod's checkpoint stream: (vip -> endpoint) pairs
  // derived from targets with agent:// URIs.  The vip comes from the
  // target itself when supplied, otherwise from the previous checkpoint's
  // meta-data.  Pods whose vip cannot be determined, or whose URI does
  // not parse (their agent reports that), are simply not covered — their
  // connections fall back to the normal send-queue resend.
  std::vector<std::pair<net::IpAddr, net::SockAddr>> peer_agents;
  if (op.is_ckpt()) last_redirect_covered_.clear();
  if (op.redirect) {
    for (const Target& t : op.in.targets) {
      net::IpAddr vip = t.vip;
      if (vip.is_any()) {
        auto it = last_metas_.find(t.pod_name);
        if (it != last_metas_.end()) vip = it->second.pod_vip;
      }
      if (vip.is_any()) continue;
      auto uri = parse_uri(t.uri);
      if (!uri || uri.value().scheme != "agent") continue;
      peer_agents.emplace_back(vip, uri.value().endpoint);
      last_redirect_covered_.insert(vip);
    }
  }

  op.peers.reserve(op.in.targets.size());
  for (const Target& t : op.in.targets) {
    Peer peer;
    peer.target = t;
    peer.ch = connect_channel(node_.host_stack(), t.agent);
    op.peers.push_back(std::move(peer));
  }
  const Deadlines& dl = op.deadlines();
  for (std::size_t i = 0; i < op.peers.size(); ++i) {
    Peer& peer = op.peers[i];
    if (peer.ch == nullptr) {
      return fail(op,
                  "cannot connect to agent " + peer.target.agent.to_string(),
                  /*transient=*/true);
    }
    const OpKind kind = op.in.kind;
    const obs::OpId id = op.op_id;
    peer.ch->set_on_msg(
        [this, kind, id, i, alive = std::weak_ptr<bool>(alive_)](Bytes msg) {
          if (auto a = alive.lock(); !a || !*a) return;
          if (OpState* o = live(kind, id)) on_msg(*o, i, std::move(msg));
        });
    peer.ch->set_on_closed(
        [this, kind, id, i, alive = std::weak_ptr<bool>(alive_)] {
          if (auto a = alive.lock(); !a || !*a) return;
          if (OpState* o = live(kind, id)) {
            fail(*o, "lost connection to agent of pod " +
                         o->peers[i].target.pod_name,
                 /*transient=*/true);
          }
        });

    if (op.is_ckpt()) {
      const CkptOptions& o = op.in.ckpt;
      CheckpointCmd cmd;
      cmd.op_id = op.op_id;
      cmd.parent_span = op.span_root;
      cmd.pod_name = peer.target.pod_name;
      cmd.dest_uri = peer.target.uri;
      cmd.mode = op.in.mode;
      cmd.redirect_send_queues = o.redirect_send_queues;
      cmd.fs_snapshot = o.fs_snapshot;
      cmd.peer_agents = peer_agents;
      cmd.incremental = o.incremental;
      cmd.chain_cap = o.chain_cap;
      cmd.codec_flags = o.codec_flags;
      cmd.pipelined = o.pipelined_stream;
      cmd.barrier_wait_us = dl.agent_barrier_us;
      cmd.heartbeat_us = o.heartbeat_us;
      cmd.cow = o.cow;
      cmd.drain_wait_us = dl.drain_us;
      (void)peer.ch->send(encode(cmd));
    } else {
      const RestartOptions& o = op.in.restart;
      RestartCmd cmd;
      cmd.op_id = op.op_id;
      cmd.parent_span = op.span_root;
      cmd.pod_name = peer.target.pod_name;
      cmd.source_uri = peer.target.uri;
      cmd.meta = op.in.peer_metas[i];
      cmd.locations = op.in.locations;
      cmd.stream_wait_us = dl.agent_stream_us;
      cmd.heartbeat_us = o.heartbeat_us;
      cmd.replace_existing = o.replace_existing;
      cmd.pipelined = o.pipelined;
      cmd.lazy = o.lazy;
      cmd.lazy_hot_permille = o.lazy_hot_permille;
      cmd.lazy_wait_us = dl.lazy_us;
      (void)peer.ch->send(encode(cmd));
    }
  }

  // Both watchdogs run from invocation; the connect deadline only looks
  // at channel establishment, the other at the first report phase
  // (META_REPORTs for a checkpoint, RESTART_DONEs for a restart).
  arm_deadline(op, dl.connect_us, "connect");
  if (op.is_ckpt()) {
    arm_deadline(op, dl.meta_us, "meta_wait");
  } else {
    arm_deadline(op, dl.restart_us, "restart_wait");
  }
}

void Manager::on_msg(OpState& op, std::size_t idx, Bytes msg) {
  Peer& peer = op.peers[idx];
  auto type = peek_type(msg);
  if (!type) return;
  const KindText& k = op.is_ckpt() ? kCkptText : kRestartText;

  switch (type.value()) {
    case MsgType::META_REPORT: {
      auto m = decode<MetaReport>(msg);
      if (!m) return fail(op, "bad meta report", /*transient=*/false);
      peer.meta_received = true;
      op.report.metas[m.value().pod_name] = m.value().meta;
      op.report.max_net_ckpt_us =
          std::max(op.report.max_net_ckpt_us, m.value().net_ckpt_us);
      trace_op(ev::Text(ev::kMeta)
                   .kv(ev::kPod, peer.target.pod_name)
                   .kv("net_us", m.value().net_ckpt_us),
               op.op_id, op.span_meta_wait);
      return maybe_continue(op);
    }
    case MsgType::CKPT_DONE: {
      auto m = decode<CkptDone>(msg);
      if (!m) return fail(op, "bad done report", /*transient=*/false);
      peer.ckpt_done = m.value();
      return on_done(op, peer, m.value().ok, m.value().error,
                     m.value().transient);
    }
    case MsgType::RESTART_DONE: {
      auto m = decode<RestartDone>(msg);
      if (!m) return fail(op, "bad restart report", /*transient=*/false);
      peer.restart_done = m.value();
      return on_done(op, peer, m.value().ok, m.value().error,
                     m.value().transient);
    }
    case MsgType::EPILOGUE_DONE: {
      auto m = decode<EpilogueDone>(msg);
      if (!m) return fail(op, k.bad_epilogue, /*transient=*/false);
      const EpilogueDone& d = m.value();
      peer.epilogue_received = true;
      peer.epilogue = d;
      health_.pod_done(op.op_id, d.pod_name, node_.now());
      if (!d.ok) {
        return fail(op, k.epilogue_error + d.pod_name + ": " + d.error,
                    d.transient);
      }
      // The one receipt per pod for either epilogue, carrying what the
      // agent reported for it.
      ev::Text receipt(ev::kEpilogue);
      receipt.kv(ev::kPod, peer.target.pod_name).kv("us", d.epilogue_us);
      if (op.is_ckpt()) {
        receipt.kv("bytes", d.image_bytes)
            .kv("dirtied", d.dirtied_bytes)
            .kv("throttled_us", d.throttled_us)
            .kv("contended_us", d.contended_us);
      } else {
        receipt.kv("bytes", d.lazy_bytes)
            .kv("faults", d.faults)
            .kv("fault_bytes", d.fault_bytes);
      }
      trace_op(receipt, op.op_id, op.span_epilogue_wait);
      return maybe_finish(op);
    }
    case MsgType::HEARTBEAT: {
      auto m = decode<HeartbeatMsg>(msg);
      if (!m) return;
      obs::metrics().counter("mgr.hb.received").inc();
      health_.heartbeat(op.op_id, m.value().pod_name, m.value().phase,
                        node_.now());
      return health_drain_warnings(op.op_id, op.span_root);
    }
    case MsgType::PROGRESS: {
      auto m = decode<ProgressMsg>(msg);
      if (!m) return;
      obs::metrics().counter("mgr.progress.received").inc();
      const ProgressMsg& p = m.value();
      health_.progress(op.op_id, p.pod_name, p.phase, node_.now(),
                       p.bytes_done, p.bytes_expected, p.throughput_bps,
                       p.eta_us);
      return health_drain_warnings(op.op_id, op.span_root);
    }
    default:
      return;
  }
}

void Manager::on_done(OpState& op, Peer& peer, bool ok,
                      const std::string& error, bool transient) {
  const KindText& k = op.is_ckpt() ? kCkptText : kRestartText;
  const std::string& pod = peer.target.pod_name;
  peer.done_received = true;
  // The pod is resumed.  A draining agent keeps beaconing its drain
  // progress, so that pod's health entry stays live until the
  // EPILOGUE_DONE; a lazy restore's beacons stop at resume.
  if (!peer.ckpt_done.drain_pending) {
    health_.pod_done(op.op_id, pod, node_.now());
  }
  if (!ok) return fail(op, k.done_error + pod + ": " + error, transient);
  // A checkpoint's DONEs land in its done-wait phase; a restart has none.
  ev::Text receipt(ev::kDone);
  receipt.kv(ev::kPod, pod);
  if (op.is_ckpt()) {
    const CkptDone& d = peer.ckpt_done;
    receipt.kv("bytes", d.image_bytes)
        .kv("logical", d.logical_bytes)
        .kv("delta", d.delta_seq);
  } else {
    const RestartDone& d = peer.restart_done;
    receipt.kv("hot_bytes", d.hot_bytes)
        .kv("lazy_bytes", d.lazy_bytes)
        .kv("fetch_us", d.fetch_us);
  }
  trace_op(receipt, op.op_id,
           op.span_done_wait != 0 ? op.span_done_wait : op.span_root);
  maybe_finish(op);
}

void Manager::maybe_continue(OpState& op) {
  if (op.continued) return;
  for (const Peer& p : op.peers) {
    if (!p.meta_received) return;
  }
  // The single synchronization point (paper §4, Figure 2 "sync").
  op.continued = true;
  op.t_sync = node_.now();
  cancel_deadlines(op);  // connect + meta phases are over
  ContinueMsg cont;
  cont.op_id = op.op_id;
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(op.t_sync, op.span_meta_wait);
    op.span_done_wait = r->begin_at(op.t_sync, "mgr.ckpt.done_wait",
                                    "manager", op.span_root, op.op_id);
    // The barrier decision itself: agents parent their resume under it,
    // so the causal tree shows continue → unblock → first retransmit.
    cont.continue_event = r->event_at(op.t_sync, "manager",
                                      std::string(ev::kContinue),
                                      op.span_root, op.op_id);
  }
  for (Peer& p : op.peers) (void)p.ch->send(encode(cont));
  arm_deadline(op, op.deadlines().done_us, "done_wait");
}

void Manager::maybe_finish(OpState& op) {
  for (const Peer& p : op.peers) {
    if (!p.done_received) return;
  }
  const KindText& k = op.is_ckpt() ? kCkptText : kRestartText;
  const sim::Time now = node_.now();
  // Every pod has reported done — they are all resumed, so the
  // application's downtime ends HERE, even if background epilogues (COW
  // drains, lazy fills) are still in flight (DESIGN.md §11, §13).  Record
  // the instant exactly once; EPILOGUE_DONE arrivals re-enter with it set.
  if (op.t_downtime_end == 0) {
    op.t_downtime_end = now;
    cancel_deadlines(op);  // the done phase is over
    if (obs::SpanRecorder* r = rec()) r->end_at(now, op.span_done_wait);
    if (std::any_of(op.peers.begin(), op.peers.end(),
                    [](const Peer& p) { return p.awaiting_epilogue(); })) {
      const std::string phase = std::string(k.epilogue) + "_wait";
      if (obs::SpanRecorder* r = rec()) {
        op.span_epilogue_wait =
            r->begin_at(now, std::string("mgr.") + k.tag + "." + phase,
                        "manager", op.span_root, op.op_id);
      }
      const Deadlines& dl = op.deadlines();
      arm_deadline(op, op.is_ckpt() ? dl.drain_us : dl.lazy_us, phase);
    }
  }
  for (const Peer& p : op.peers) {
    if (p.awaiting_epilogue()) return;
  }
  op.finished = true;
  cancel_deadlines(op);
  health_.op_end(op.op_id, now, /*ok=*/true);
  const sim::Time total_us = now - op.t_start;
  const sim::Time downtime_us = op.t_downtime_end - op.t_start;
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(now, op.span_epilogue_wait);
    r->end_at(now, op.span_root);
  }
  const std::string mgr = std::string("mgr.") + k.tag;
  obs::metrics().counter(std::string("mgr.") + k.noun + "s").inc();
  obs::metrics().histogram(mgr + ".total_us").observe(total_us);
  obs::metrics().histogram(mgr + ".downtime_us").observe(downtime_us);
  write_ledger(op, "ok", "", /*transient=*/false, /*will_retry=*/false);

  // The op state is torn down before any callback runs: the caller (or
  // the supervisor's commit hook) may start the next op of this kind.
  if (!op.is_ckpt()) {
    RestartReport report;
    report.ok = true;
    report.op_id = op.op_id;
    report.attempts = op.attempt;
    report.total_us = total_us;
    report.downtime_us = downtime_us;
    for (const Peer& p : op.peers) {
      const RestartDone& d = p.restart_done;
      report.agents.push_back(d);
      report.max_connectivity_us =
          std::max(report.max_connectivity_us, d.connectivity_us);
      report.max_net_restore_us =
          std::max(report.max_net_restore_us, d.net_restore_us);
      if (!p.epilogue_received) continue;
      report.max_lazy_us = std::max(report.max_lazy_us, p.epilogue.epilogue_us);
      report.lazy_faults += p.epilogue.faults;
      report.lazy_bytes += p.epilogue.lazy_bytes;
    }
    RestartDoneFn fn = std::move(op.in.restart_done);
    restart_op_.reset();
    return fn(std::move(report));
  }
  CheckpointReport report = std::move(op.report);
  report.ok = true;
  report.op_id = op.op_id;
  report.attempts = op.attempt;
  report.total_us = total_us;
  report.downtime_us = downtime_us;
  report.sync_us = op.t_sync - op.t_start;
  obs::metrics().histogram("mgr.ckpt.sync_wait_us").observe(report.sync_us);
  for (const Peer& p : op.peers) {
    const CkptDone& d = p.ckpt_done;
    report.agents.push_back(d);
    report.max_image_bytes = std::max(
        {report.max_image_bytes, d.image_bytes, p.epilogue.image_bytes});
    report.max_network_bytes =
        std::max(report.max_network_bytes, d.network_bytes);
    report.max_drain_us = std::max(report.max_drain_us, p.epilogue.epilogue_us);
    report.max_dirtied_bytes =
        std::max(report.max_dirtied_bytes, p.epilogue.dirtied_bytes);
  }
  last_metas_ = report.metas;
  last_redirect_ = op.redirect;
  CheckpointDoneFn fn = std::move(op.in.ckpt_done);
  const bool cataloged =
      op.in.mode == CkptMode::SNAPSHOT && commit_fn_ != nullptr;
  std::vector<Target> targets = std::move(op.in.targets);
  ckpt_op_.reset();
  if (cataloged) commit_fn_(report, targets);
  fn(std::move(report));
}

void Manager::arm_deadline(OpState& op, sim::Time us,
                           const std::string& phase) {
  if (us == 0) return;
  const bool connect = phase == "connect";
  (connect ? op.connect_deadline : op.phase_deadline) =
      node_.engine().schedule(
          us, [this, alive = std::weak_ptr<bool>(alive_), kind = op.in.kind,
               id = op.op_id, phase, connect] {
            if (auto a = alive.lock(); !a || !*a) return;
            OpState* o = live(kind, id);
            if (o == nullptr) return;
            (connect ? o->connect_deadline : o->phase_deadline) = 0;
            deadline_expired(*o, phase);
          });
}

void Manager::cancel_deadlines(OpState& op) {
  for (sim::EventId* ev : {&op.connect_deadline, &op.phase_deadline}) {
    if (*ev != 0) {
      (void)node_.engine().cancel(*ev);
      *ev = 0;
    }
  }
}

void Manager::deadline_expired(OpState& op, const std::string& phase) {
  // An expiry with nothing actually stalled (the phase completed but the
  // cancel raced the event) is a no-op.
  const bool epilogue = phase == "drain_wait" || phase == "lazy_wait";
  std::string stalled;
  for (const Peer& p : op.peers) {
    bool waiting;
    if (phase == "connect") {
      waiting = p.ch == nullptr || !p.ch->established();
    } else if (phase == "meta_wait") {
      waiting = !p.meta_received;
    } else if (epilogue) {
      waiting = p.awaiting_epilogue();
    } else {
      waiting = !p.done_received;
    }
    if (!waiting) continue;
    if (!stalled.empty()) stalled += ",";
    stalled += p.target.pod_name + "@" + p.target.agent.to_string();
    // With the introspection plane on, say where the stalled pod last
    // was — a deadline with an attributed phase beats a blind timeout.
    if (const obs::PodHealth* ph = health_.pod(op.op_id, p.target.pod_name);
        ph != nullptr && ph->beacons > 0) {
      stalled += "(phase=" + ph->phase + " hb_age=" +
                 obs::vtime_us(node_.now() - ph->last_seen_us) + ")";
    }
  }
  if (stalled.empty()) return;
  obs::metrics().counter("mgr.phase.deadline_expired").inc();
  fail(op, "phase deadline expired: phase=" + phase + " stalled=" + stalled,
       /*transient=*/true);
}

void Manager::gc_tmp(const OpState& op) {
  // The commit protocol stages every SAN image at `<path>.tmp` and only
  // renames it into place after the continue barrier, so after an abort
  // the temp — if the agent got that far — is the only debris.
  for (const Peer& p : op.peers) {
    auto uri = parse_uri(p.target.uri);
    if (!uri || uri.value().scheme != "san") continue;
    std::string tmp = staging_path(uri.value().path);
    if (node_.san().remove(tmp).is_ok()) {
      obs::metrics().counter("ckpt.commit.gc_tmp").inc();
      trace_op(ev::Text(ev::kGc).kv("path", tmp), op.op_id, op.span_root);
    }
  }
}

void Manager::fail(OpState& op, const std::string& why, bool transient) {
  if (op.finished) return;
  const KindText& k = op.is_ckpt() ? kCkptText : kRestartText;
  op.finished = true;
  cancel_deadlines(op);
  health_.op_end(op.op_id, node_.now(), /*ok=*/false);
  ZLOG_WARN("manager: " << k.noun << " failed: " << why);
  obs::dump_op_failure(rec(), std::string(k.tag) + "_fail", op.op_id,
                       "manager", why, node_.now());
  if (obs::SpanRecorder* r = rec()) {
    for (obs::SpanId s : {op.span_meta_wait, op.span_done_wait,
                          op.span_epilogue_wait, op.span_root}) {
      r->end_at(node_.now(), s);
    }
  }
  obs::metrics().counter(std::string("mgr.") + k.noun + "_failures").inc();
  // Agents resume (checkpoint) or tear down (restart) their pod, so a
  // failed coordinated op never leaves half the application suspended or
  // half of it running.
  for (Peer& p : op.peers) {
    if (p.ch != nullptr && p.ch->open()) {
      (void)p.ch->send(encode(AbortMsg{op.op_id, why}));
    }
  }
  if (op.is_ckpt()) gc_tmp(op);

  // Retry transient failures while the op is still safe to re-run from
  // scratch: the abort teardown puts every restart agent back to not
  // hosting the pod and resumes every SNAPSHOT pod in place, but a
  // MIGRATE is only repeatable before the sync point (after it, agents
  // may already have destroyed source pods at commit).
  const RetryPolicy& retry =
      op.is_ckpt() ? op.in.ckpt.retry : op.in.restart.retry;
  const bool retryable =
      transient && op.attempt <= retry.max_retries &&
      (!op.is_ckpt() || op.in.mode == CkptMode::SNAPSHOT || !op.continued);
  // Aborted attempts get their ledger line too — retries mint a fresh
  // op id, so every attempt is its own row in the run history.
  write_ledger(op, "aborted", why, transient, retryable);
  std::unique_ptr<OpState> dead = std::move(slot(op.in.kind));
  if (retryable) {
    const u32 next = op.attempt + 1;
    const sim::Time delay = retry_delay(retry, op.attempt);
    obs::metrics().counter(std::string("mgr.") + k.tag + ".retries").inc();
    trace_op(ev::Text(ev::kRetry)
                 .kv(ev::kKind, k.tag)
                 .kv("attempt", next)
                 .kv("delay_us", delay),
             0, 0);
    node_.engine().schedule(
        delay, [this, alive = std::weak_ptr<bool>(alive_),
                in = std::move(op.in), next, noun = k.noun]() mutable {
          if (auto a = alive.lock(); !a || !*a) return;
          if (slot(in.kind) != nullptr) {
            return report_failure(
                in, std::string("manager busy at ") + noun + " retry", 0,
                next);
          }
          begin_attempt(std::move(in), next);
        });
    return;
  }
  const obs::OpId id = op.op_id;
  const u32 attempts = op.attempt;
  OpInputs in = std::move(op.in);
  dead.reset();
  report_failure(in, why, id, attempts);
}

void Manager::report_failure(OpInputs& in, const std::string& why,
                             obs::OpId op, u32 attempts) {
  if (in.kind == OpKind::CKPT) {
    CheckpointDoneFn fn = std::move(in.ckpt_done);
    fn(failed_report<CheckpointReport>(why, op, attempts));
  } else {
    RestartDoneFn fn = std::move(in.restart_done);
    fn(failed_report<RestartReport>(why, op, attempts));
  }
}

}  // namespace zapc::core
