#include "super/supervisor.h"

#include <algorithm>
#include <set>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/log.h"

namespace zapc::super {

const char* node_state_name(NodeState s) {
  switch (s) {
    case NodeState::ALIVE: return "alive";
    case NodeState::SUSPECT: return "suspect";
    case NodeState::DEAD: return "dead";
    case NodeState::QUARANTINED: return "quarantined";
  }
  return "?";
}

namespace {

const char* state_name(Supervisor::State s) {
  switch (s) {
    case Supervisor::State::IDLE: return "idle";
    case Supervisor::State::RECOVERING: return "recovering";
    case Supervisor::State::DEGRADED: return "degraded";
  }
  return "?";
}

}  // namespace

Supervisor::Supervisor(os::Node& node, core::Manager& manager,
                       std::vector<AgentRef> agents, Options opts,
                       core::Trace* trace)
    : node_(node),
      manager_(manager),
      trace_(trace),
      opts_(opts),
      catalog_(node.san()) {
  suspect_after_ = opts_.suspect_after_us != 0 ? opts_.suspect_after_us
                                               : 4 * opts_.heartbeat_us;
  dead_after_ = opts_.dead_after_us != 0 ? opts_.dead_after_us
                                         : 16 * opts_.heartbeat_us;
  for (AgentRef& a : agents) {
    NodeInfo ni;
    ni.ref = std::move(a);
    nodes_.push_back(std::move(ni));
  }
  obs::metrics().counter("super.beacons");
  obs::metrics().counter("super.suspects");
  obs::metrics().counter("super.false_alarms");
  obs::metrics().counter("super.quarantines");
  obs::metrics().counter("super.node.dead");
  obs::metrics().counter("super.ckpt.issued");
  obs::metrics().counter("super.catalog.appends");
  obs::metrics().counter("super.gc.images");
  obs::metrics().counter("super.recovery.started");
  obs::metrics().counter("super.recovery.attempts");
  obs::metrics().counter("super.recovery.ok");
  obs::metrics().counter("super.recovery.gave_up");
}

Supervisor::~Supervisor() { *alive_ = false; }

template <typename Fn>
void Supervisor::after(sim::Time delay, Fn&& fn) {
  node_.engine().schedule(
      delay, [alive = std::weak_ptr<bool>(alive_), f = std::forward<Fn>(fn)] {
        auto a = alive.lock();
        if (a == nullptr || !*a) return;
        f();
      });
}

void Supervisor::trace(const std::string& what) {
  if (trace_ != nullptr) trace_->add(node_.now(), "supervisor", what);
}

void Supervisor::start(std::vector<core::Manager::Target> targets) {
  if (started_) return;
  started_ = true;
  targets_ = std::move(targets);
  for (const core::Manager::Target& t : targets_) {
    ckpt_uris_[t.pod_name] = t.uri;
  }
  manager_.set_on_commit(
      [this](const core::Manager::CheckpointReport& report,
             const std::vector<core::Manager::Target>& tgts) {
        on_commit(report, tgts);
      });
  manager_.set_status_extra([this] { return status_json(); });
  const sim::Time now = node_.now();
  for (NodeInfo& ni : nodes_) {
    ni.last_seen_us = now;
    connect_agent(ni);
  }
  trace("armed: " + std::to_string(nodes_.size()) + " nodes, hb=" +
        std::to_string(opts_.heartbeat_us) + "us dead_after=" +
        std::to_string(dead_after_) + "us");
  after(opts_.heartbeat_us, [this] { detector_tick(); });
  if (opts_.ckpt_interval_us > 0) {
    after(opts_.ckpt_interval_us, [this] { ckpt_tick(); });
  }
}

void Supervisor::connect_agent(NodeInfo& ni) {
  ni.ch = core::connect_channel(node_.host_stack(), ni.ref.addr);
  NodeInfo* nip = &ni;
  ni.ch->set_on_msg([this, nip](Bytes msg) {
    auto type = core::peek_type(msg);
    if (!type || type.value() != core::MsgType::HEARTBEAT) return;
    auto hb = core::decode_heartbeat(msg);
    // Node-level beacons carry op_id 0; op-scoped beacons go to the
    // Manager's channels, not ours.
    if (!hb || hb.value().op_id != 0) return;
    on_beacon(*nip);
  });
  ni.ch->set_on_closed([this, nip] { on_channel_closed(*nip); });
  core::SuperviseCmd cmd;
  cmd.heartbeat_us = opts_.heartbeat_us;
  (void)ni.ch->send(core::encode_supervise_cmd(cmd));
}

void Supervisor::on_beacon(NodeInfo& ni) {
  const sim::Time now = node_.now();
  ni.last_seen_us = now;
  ++ni.beacons;
  obs::metrics().counter("super.beacons").inc();
  switch (ni.state) {
    case NodeState::ALIVE:
    case NodeState::DEAD:
      // A beacon from a DEAD node is a zombie (e.g. blackout longer than
      // the dead threshold): its pods have moved on, the verdict sticks.
      break;
    case NodeState::SUSPECT: {
      // It spoke while suspected: a false alarm.  Enough of those and
      // the node is quarantined — damped alarms, dilated dead threshold.
      ++ni.false_alarms;
      obs::metrics().counter("super.false_alarms").inc();
      if (ni.false_alarms >= opts_.max_false_alarms) {
        ni.state = NodeState::QUARANTINED;
        ni.quarantine_until_us = now + opts_.quarantine_us;
        obs::metrics().counter("super.quarantines").inc();
        trace("node " + ni.ref.node_name + " quarantined (" +
              std::to_string(ni.false_alarms) + " false alarms)");
      } else {
        ni.state = NodeState::ALIVE;
        trace("node " + ni.ref.node_name + " false alarm " +
              std::to_string(ni.false_alarms) + "/" +
              std::to_string(opts_.max_false_alarms));
      }
      break;
    }
    case NodeState::QUARANTINED:
      break;  // expiry is handled on the detector tick
  }
}

void Supervisor::on_channel_closed(NodeInfo& ni) {
  if (ni.state == NodeState::DEAD) return;
  // A closed control channel is immediate grounds for suspicion (the
  // paper's "reliable connections double as failure detection"), but not
  // proof: reconnect, and let heartbeat age make the death call.
  if (ni.state == NodeState::ALIVE) {
    ni.state = NodeState::SUSPECT;
    obs::metrics().counter("super.suspects").inc();
    trace("node " + ni.ref.node_name + " suspect (channel closed)");
  }
  NodeInfo* nip = &ni;
  after(opts_.heartbeat_us, [this, nip] {
    if (nip->state == NodeState::DEAD) return;
    connect_agent(*nip);
  });
}

void Supervisor::detector_tick() {
  const sim::Time now = node_.now();
  for (NodeInfo& ni : nodes_) {
    if (ni.state == NodeState::DEAD) continue;
    if (ni.state == NodeState::QUARANTINED &&
        now >= ni.quarantine_until_us) {
      ni.state = NodeState::ALIVE;
      ni.false_alarms = 0;
      trace("node " + ni.ref.node_name + " quarantine expired");
    }
    const sim::Time age = now - ni.last_seen_us;
    sim::Time dead_after = dead_after_;
    if (ni.state == NodeState::QUARANTINED) {
      dead_after *= opts_.quarantine_dead_multiplier;
    }
    if (age >= dead_after) {
      declare_dead(ni);
    } else if (ni.state == NodeState::ALIVE && age >= suspect_after_) {
      ni.state = NodeState::SUSPECT;
      obs::metrics().counter("super.suspects").inc();
      trace("node " + ni.ref.node_name + " suspect (beacon age " +
            std::to_string(age) + "us)");
    }
  }
  after(opts_.heartbeat_us, [this] { detector_tick(); });
}

void Supervisor::declare_dead(NodeInfo& ni) {
  if (ni.state == NodeState::DEAD) return;
  ni.state = NodeState::DEAD;
  obs::metrics().counter("super.node.dead").inc();
  trace("node " + ni.ref.node_name + " DEAD (beacon age " +
        std::to_string(node_.now() - ni.last_seen_us) + "us)");
  ZLOG_WARN("supervisor: node " << ni.ref.node_name << " declared dead");
  if (state_ == State::RECOVERING) {
    // Another death while a recovery is in flight: kill the attempt so
    // its completion reschedules with the dead set recomputed.
    manager_.abort_current("supervisor: additional node death during recovery");
    return;
  }
  if (state_ == State::DEGRADED) return;  // already out of options
  state_ = State::RECOVERING;
  detect_us_ = node_.now();
  attempt_ = 1;
  last_recovery_ = LastRecovery{};
  last_recovery_.valid = true;
  last_recovery_.detect_us = detect_us_;
  obs::metrics().counter("super.recovery.started").inc();
  manager_.abort_current("supervisor: node death preempts in-flight op");
  // The coalesce window folds near-simultaneous deaths into one
  // recovery and gives the aborted op's teardown time to settle.
  after(opts_.coalesce_us, [this] { recovery_attempt(); });
}

void Supervisor::ckpt_tick() {
  if (state_ == State::IDLE && !manager_.busy() && !targets_.empty()) {
    // Each periodic checkpoint writes a fresh "@<epoch>" generation: an
    // op that aborts after a partial commit then clobbers only its own
    // generation, never the URIs a catalog entry points at.
    ++ckpt_epoch_;
    std::vector<core::Manager::Target> targets = targets_;
    for (core::Manager::Target& t : targets) {
      t.uri += "@" + std::to_string(ckpt_epoch_);
    }
    core::Manager::CkptOptions opts = opts_.ckpt;
    opts.trigger = "supervisor";
    obs::metrics().counter("super.ckpt.issued").inc();
    manager_.checkpoint(std::move(targets), core::CkptMode::SNAPSHOT,
                        [](core::Manager::CheckpointReport) {
                          // Failures are tolerable: the catalog keeps the
                          // previous committed set and the next tick
                          // tries again.
                        },
                        opts);
  }
  // Jittered reschedule: a freeze cadence that is an exact divisor of
  // the guests' RTO backoff series would eat every retransmission of a
  // window it dropped (see Options::ckpt_jitter).
  double d = static_cast<double>(opts_.ckpt_interval_us);
  d *= 1.0 + opts_.ckpt_jitter * (2.0 * rng_.uniform() - 1.0);
  after(d < 1.0 ? 1 : static_cast<sim::Time>(d), [this] { ckpt_tick(); });
}

void Supervisor::on_commit(const core::Manager::CheckpointReport& report,
                           const std::vector<core::Manager::Target>& targets) {
  CatalogEntry e;
  e.op = report.op_id;
  e.t_us = node_.now();
  for (const core::Manager::Target& t : targets) {
    if (t.uri.rfind("san://", 0) != 0) continue;  // only SAN images restore
    auto it = report.metas.find(t.pod_name);
    if (it == report.metas.end()) continue;
    CatalogImage im;
    im.agent_ip = t.agent.ip.to_string();
    im.agent_port = t.agent.port;
    im.pod = t.pod_name;
    im.uri = t.uri;
    im.vip = it->second.pod_vip;
    im.meta = it->second;
    e.images.push_back(std::move(im));
  }
  if (e.images.empty()) return;
  if (Status st = catalog_.append(std::move(e)); !st) {
    ZLOG_WARN("supervisor: catalog append failed: " << st.to_string());
    return;
  }
  obs::metrics().counter("super.catalog.appends").inc();
  trace("catalog: committed set #" + std::to_string(catalog_.size()) +
        " (op " + std::to_string(report.op_id) + ")");
  gc_superseded_generations();
}

void Supervisor::gc_superseded_generations() {
  // The periodic policy writes a fresh "@<epoch>" image pair every
  // interval; without collection the SAN grows by one generation per
  // tick forever.  Keep the newest two committed sets restorable (the
  // latest plus one fallback) and delete every other supervisor-stamped
  // generation under the job's base URIs — including stragglers an
  // aborted op renamed into place before its epoch ever reached the
  // catalog.  Safe because the Manager runs one checkpoint at a time: at
  // commit time no other op is writing a generation.  A restart may be
  // running alongside (a COW checkpoint's drain can overlap one), but it
  // only reads images, and recoveries read the newest committed set,
  // which is kept.  Only '@'-stamped paths are touched: operator
  // checkpoints at canonical URIs are never GC'd.
  if (catalog_.size() < 2) return;
  const std::vector<CatalogEntry>& entries = catalog_.entries();
  std::set<std::string> live;
  for (std::size_t i = entries.size() - 2; i < entries.size(); ++i) {
    for (const CatalogImage& im : entries[i].images) live.insert(im.uri);
  }
  for (const auto& [pod, base] : ckpt_uris_) {
    if (base.rfind("san://", 0) != 0) continue;
    const std::string prefix = base.substr(6) + "@";
    for (const std::string& path : node_.san().list(prefix)) {
      if (live.count("san://" + path) != 0) continue;
      if (node_.san().remove(path).is_ok()) {
        obs::metrics().counter("super.gc.images").inc();
        trace("gc: removed superseded image san://" + path);
      }
    }
  }
}

void Supervisor::recovery_attempt() {
  if (state_ != State::RECOVERING) return;
  if (manager_.busy()) {
    // The aborted op's completion hasn't unwound yet; nudge and retry.
    manager_.abort_current("supervisor: recovery preempts in-flight op");
    after(sim::kMillisecond, [this] { recovery_attempt(); });
    return;
  }
  std::optional<CatalogEntry> latest = catalog_.latest();
  if (!latest.has_value()) {
    give_up("no committed checkpoint in the catalog");
    return;
  }
  // Recompute the dead set each attempt: deaths during a failed attempt
  // fold into the next one.
  std::string dead_names;
  for (const NodeInfo& ni : nodes_) {
    if (ni.state != NodeState::DEAD) continue;
    if (!dead_names.empty()) dead_names += ",";
    dead_names += ni.ref.node_name;
  }
  last_recovery_.dead_nodes = dead_names;
  last_recovery_.attempts = attempt_;

  auto find_node = [this](const std::string& ip, u16 port) -> NodeInfo* {
    for (NodeInfo& ni : nodes_) {
      if (ni.ref.addr.ip.to_string() == ip && ni.ref.addr.port == port) {
        return &ni;
      }
    }
    return nullptr;
  };
  // Placement: surviving pods restart in place; a dead node's pods go to
  // the least-loaded survivor (quarantined nodes count as survivors but
  // only as a last resort).
  std::vector<NodeInfo*> survivors;
  for (NodeInfo& ni : nodes_) {
    if (ni.state != NodeState::DEAD) survivors.push_back(&ni);
  }
  if (survivors.empty()) {
    give_up("no surviving nodes to restart onto");
    return;
  }
  std::map<const NodeInfo*, u32> load;
  for (const CatalogImage& im : latest->images) {
    NodeInfo* home = find_node(im.agent_ip, im.agent_port);
    if (home != nullptr && home->state != NodeState::DEAD) ++load[home];
  }
  std::vector<core::Manager::Target> targets;
  std::map<std::string, ckpt::NetMeta> metas;
  u32 moved = 0;
  for (const CatalogImage& im : latest->images) {
    NodeInfo* home = find_node(im.agent_ip, im.agent_port);
    if (home == nullptr || home->state == NodeState::DEAD) {
      NodeInfo* best = nullptr;
      u64 best_score = 0;
      for (NodeInfo* s : survivors) {
        // Quarantined hosts carry a large placement penalty.
        u64 score = load[s] +
                    (s->state == NodeState::QUARANTINED ? 1000u : 0u);
        if (best == nullptr || score < best_score) {
          best = s;
          best_score = score;
        }
      }
      home = best;
      ++load[home];
      ++moved;
      trace("remap pod " + im.pod + " -> node " + home->ref.node_name);
    }
    core::Manager::Target t;
    t.agent = home->ref.addr;
    t.pod_name = im.pod;
    t.uri = im.uri;
    t.vip = im.vip;
    targets.push_back(std::move(t));
    metas[im.pod] = im.meta;
  }
  obs::metrics().counter("super.recovery.attempts").inc();
  trace("recovery attempt " + std::to_string(attempt_) + "/" +
        std::to_string(opts_.max_recovery_attempts) + ": dead={" +
        dead_names + "} restoring " + std::to_string(targets.size()) +
        " pods (" + std::to_string(moved) + " re-mapped) from op " +
        std::to_string(latest->op));
  core::Manager::RestartOptions opts = opts_.restart;
  opts.trigger = "supervisor";
  opts.detect_us = detect_us_;
  opts.replace_existing = true;
  // The supervisor owns the attempt loop; the Manager must not race it
  // with its own whole-op retries.
  opts.retry.max_retries = 0;
  std::vector<core::Manager::Target> targets_copy = targets;
  manager_.restart(
      std::move(targets), std::move(metas),
      [this, alive = std::weak_ptr<bool>(alive_),
       targets_copy](core::Manager::RestartReport r) {
        auto a = alive.lock();
        if (a == nullptr || !*a) return;
        recovery_done(r, targets_copy);
      },
      opts);
}

void Supervisor::recovery_done(
    const core::Manager::RestartReport& r,
    std::vector<core::Manager::Target> restart_targets) {
  if (state_ != State::RECOVERING) return;
  if (r.ok) {
    const sim::Time now = node_.now();
    state_ = State::IDLE;
    ++recoveries_;
    last_recovery_.ok = true;
    // A lazy restart reports done only after its cold-region fill tail,
    // but the application was restored the instant every pod resumed —
    // the end of the report's downtime window.  MTTR stops there.
    const sim::Time lazy_tail = r.total_us - r.downtime_us;
    last_recovery_.restored_us = now - lazy_tail;
    last_recovery_.mttr_us = last_recovery_.restored_us - detect_us_;
    last_recovery_.attempts = attempt_;
    obs::metrics().counter("super.recovery.ok").inc();
    // Future periodic checkpoints must follow the pods to their new
    // homes, still writing each pod's canonical checkpoint URI.
    std::vector<core::Manager::Target> next;
    for (core::Manager::Target& t : restart_targets) {
      auto it = ckpt_uris_.find(t.pod_name);
      if (it != ckpt_uris_.end()) t.uri = it->second;
      next.push_back(std::move(t));
    }
    targets_ = std::move(next);
    trace("recovery complete: " + std::to_string(restart_targets.size()) +
          " pods restored, mttr=" + std::to_string(last_recovery_.mttr_us) +
          "us (attempt " + std::to_string(attempt_) + ")");
    return;
  }
  trace("recovery attempt " + std::to_string(attempt_) + " failed: " +
        r.error);
  if (attempt_ >= opts_.max_recovery_attempts) {
    give_up(r.error);
    return;
  }
  ++attempt_;
  const sim::Time delay = backoff_delay(attempt_ - 1);
  trace("recovery backoff " + std::to_string(delay) + "us before attempt " +
        std::to_string(attempt_));
  after(delay, [this] { recovery_attempt(); });
}

void Supervisor::give_up(const std::string& why) {
  state_ = State::DEGRADED;
  last_recovery_.ok = false;
  last_recovery_.attempts = attempt_;
  obs::metrics().counter("super.recovery.gave_up").inc();
  trace("recovery abandoned: " + why);
  ZLOG_ERROR("supervisor: recovery abandoned (" << why
             << "); cluster DEGRADED, operator action required");
}

sim::Time Supervisor::backoff_delay(u32 attempt) {
  double d = static_cast<double>(opts_.recovery_backoff_us);
  for (u32 i = 1; i < attempt; ++i) d *= opts_.recovery_backoff_factor;
  d *= 1.0 + opts_.recovery_jitter * (2.0 * rng_.uniform() - 1.0);
  return d < 1.0 ? 1 : static_cast<sim::Time>(d);
}

NodeState Supervisor::node_state(const std::string& node_name) const {
  for (const NodeInfo& ni : nodes_) {
    if (ni.ref.node_name == node_name) return ni.state;
  }
  return NodeState::ALIVE;
}

u32 Supervisor::attempts_remaining() const {
  if (state_ == State::DEGRADED) return 0;
  if (state_ != State::RECOVERING) return opts_.max_recovery_attempts;
  return opts_.max_recovery_attempts - attempt_;
}

obs::Json Supervisor::status_json() const {
  const sim::Time now = node_.now();
  obs::Json j = obs::Json::object();
  j["state"] = state_name(state_);
  j["recoveries"] = static_cast<u64>(recoveries_);
  j["attempts_remaining"] = static_cast<u64>(attempts_remaining());
  j["catalog_entries"] = static_cast<u64>(catalog_.size());
  obs::Json nodes = obs::Json::array();
  for (const NodeInfo& ni : nodes_) {
    obs::Json jn = obs::Json::object();
    jn["node"] = ni.ref.node_name;
    jn["state"] = node_state_name(ni.state);
    jn["beacon_age_us"] =
        ni.last_seen_us > now ? u64{0} : u64{now - ni.last_seen_us};
    jn["false_alarms"] = static_cast<u64>(ni.false_alarms);
    jn["beacons"] = static_cast<u64>(ni.beacons);
    nodes.push(std::move(jn));
  }
  j["nodes"] = std::move(nodes);
  if (last_recovery_.valid) {
    obs::Json lr = obs::Json::object();
    lr["ok"] = last_recovery_.ok;
    lr["dead_nodes"] = last_recovery_.dead_nodes;
    lr["detect_us"] = last_recovery_.detect_us;
    lr["restored_us"] = last_recovery_.restored_us;
    lr["mttr_us"] = last_recovery_.mttr_us;
    lr["attempts"] = static_cast<u64>(last_recovery_.attempts);
    j["last_recovery"] = std::move(lr);
  }
  return j;
}

}  // namespace zapc::super
