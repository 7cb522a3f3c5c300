#include "obs/critpath.h"

#include <algorithm>

#include "obs/event.h"

namespace zapc::obs {
namespace {

/// Per-agent view assembled from one op's records.
struct AgentInfo {
  const SpanRecord* span = nullptr;  // agent-side root ("ckpt"/"restart")
  std::string pod;
  Time done_arrival = 0;  // manager-side arrival of this pod's DONE
};

/// The backward walk's shared state.  Segments are emitted newest-first
/// while `cursor` marches from the op's end back to its start; every
/// cursor move is paired with exactly one emitted segment, which is what
/// makes the durations sum to the downtime exactly.
struct Walk {
  Time t0 = 0;
  Time t1 = 0;
  Time cursor = 0;
  std::vector<CritSegment> segs;  // reverse (newest-first) order

  /// Clips a span's end to the op window (open spans run to op close).
  Time clip_end(const SpanRecord* s) const {
    Time e = s->open ? t1 : s->end;
    return std::min(e, t1);
  }

  /// Emits [lo, cursor] and moves the cursor; zero-length slices (and
  /// anything clamped away by the op window) move nothing.
  void emit(Time lo, const std::string& who, const std::string& pod,
            const std::string& phase, bool edge, SpanId span) {
    lo = std::max(lo, t0);
    if (lo >= cursor) return;
    segs.push_back(CritSegment{lo, cursor, who, pod, phase, edge, span});
    cursor = lo;
  }
};

/// Walks one agent's sequential phase children backward from the current
/// cursor down to the agent span's start, attributing gaps between
/// phases to the agent span itself.  With `follow_continue`, a barrier
/// span the agent actually waited in stops the local descent, and the
/// caller jumps across the continue edge onto the Manager/meta side.
/// Returns true when that jump was taken.
bool descend_agent(Walk& w, const AgentInfo& a,
                   const std::vector<const SpanRecord*>& kids,
                   bool follow_continue) {
  std::vector<const SpanRecord*> sorted = kids;
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRecord* x, const SpanRecord* y) {
              return x->start < y->start;
            });
  const Time a_start = a.span->start;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    const SpanRecord* c = *it;
    if (w.cursor <= a_start) break;
    if (c->start >= w.cursor) continue;  // phase past the current cut
    Time ce = std::min(w.clip_end(c), w.cursor);
    // Gap between this phase's end and the cut: the agent's own time
    // (commit bookkeeping, event-loop scheduling).
    w.emit(ce, a.span->who, a.pod, a.span->name, /*edge=*/false,
           a.span->id);
    if (follow_continue && c->name == "ckpt.barrier" && !c->open &&
        c->end > c->start) {
      // The agent finished its standalone checkpoint and waited here for
      // the Manager's continue, which closes the barrier on arrival: the
      // wait is NOT this agent's cost, so hand the walk to the continue
      // edge.
      return true;
    }
    w.emit(c->start, a.span->who, a.pod, c->name, /*edge=*/false, c->id);
  }
  // Before the first phase span (or with none recorded): agent's own.
  w.emit(a_start, a.span->who, a.pod, a.span->name, /*edge=*/false,
         a.span->id);
  return false;
}

}  // namespace

std::map<std::string, Time> OpAttribution::phase_totals() const {
  std::map<std::string, Time> out;
  for (const CritSegment& s : segments) out[s.phase] += s.duration();
  return out;
}

Time OpAttribution::pod_critical_us(const std::string& pod) const {
  Time t = 0;
  for (const CritSegment& s : segments) {
    if (!s.edge && s.pod == pod) t += s.duration();
  }
  return t;
}

Time OpAttribution::max_drain_us() const {
  Time t = 0;
  for (const CritSegment& s : drain_segments) {
    t = std::max(t, s.duration());
  }
  return t;
}

Result<OpAttribution> attribute_op(
    const std::vector<const SpanRecord*>& records) {
  if (records.empty()) {
    return Status(Err::INVALID, "no records to attribute");
  }

  std::map<SpanId, const SpanRecord*> by_id;
  for (const SpanRecord* r : records) by_id[r->id] = r;

  // Root: the Manager's op span; fall back to the earliest span whose
  // parent is outside this op's record set.
  const SpanRecord* root = nullptr;
  for (const SpanRecord* r : records) {
    if (r->kind != SpanKind::SPAN) continue;
    if (r->name == "mgr.ckpt" || r->name == "mgr.restart") {
      root = r;
      break;
    }
  }
  if (root == nullptr) {
    for (const SpanRecord* r : records) {
      if (r->kind != SpanKind::SPAN) continue;
      if (r->parent != 0 && by_id.count(r->parent) != 0) continue;
      if (root == nullptr || r->start < root->start) root = r;
    }
  }
  if (root == nullptr) {
    return Status(Err::INVALID, "no root span in op records");
  }

  OpAttribution out;
  out.op = root->op;
  out.kind = root->name == "mgr.ckpt"
                 ? "ckpt"
                 : root->name == "mgr.restart" ? "restart" : "unknown";
  out.start = root->start;
  // A postmortem leaves the root open: the op extends to the last stamp.
  Time t1 = root->open ? root->start : root->end;
  if (root->open) {
    for (const SpanRecord* r : records) {
      t1 = std::max({t1, r->start, r->open ? r->start : r->end});
    }
  }
  out.end = t1;
  out.latency_us = t1 > out.start ? t1 - out.start : 0;

  // Background epilogue (DESIGN.md §11, §13): the Manager opens its
  // epilogue wait ("mgr.ckpt.drain_wait" for COW drains,
  // "mgr.restart.lazy_wait" for lazy fills) the instant every pod has
  // resumed — that is where the application's downtime ends, even though
  // the op (and its root span) runs on until the epilogues finish.
  // Without the marker (blocking ops, or epilogues that beat the last
  // done) downtime and latency coincide.
  Time downtime_end = t1;
  for (const SpanRecord* r : records) {
    if (r->kind == SpanKind::SPAN && (r->name == "mgr.ckpt.drain_wait" ||
                                      r->name == "mgr.restart.lazy_wait")) {
      downtime_end = std::min(downtime_end, r->start);
    }
  }
  out.downtime_us = downtime_end > out.start ? downtime_end - out.start : 0;

  Walk w;
  w.t0 = out.start;
  w.t1 = downtime_end;
  w.cursor = downtime_end;

  // Span children (events excluded) by parent.  Background epilogue
  // spans (COW drains, lazy fills) are pulled out of the walk entirely:
  // they start before the last DONE lands at the Manager (the agent
  // resumes its pod and starts the epilogue immediately), so the
  // backward descent would otherwise cut post-resume work into the
  // downtime.  They are reported as separate off-path segments, clipped
  // to the full op window.
  std::map<SpanId, std::vector<const SpanRecord*>> kids;
  for (const SpanRecord* r : records) {
    if (r->kind != SpanKind::SPAN || r->parent == 0) continue;
    if (r->name == "ckpt.drain" || r->name == "restart.lazy") {
      Time de = r->open ? t1 : std::min(r->end, t1);
      if (de > r->start) {
        out.drain_segments.push_back(CritSegment{
            r->start, de, r->who, "", r->name, /*edge=*/false, r->id});
      }
      continue;
    }
    kids[r->parent].push_back(r);
  }

  // Agent-side roots: span children of the Manager root recorded by
  // someone other than the Manager, each named by the pod of its
  // agent.suspend / agent.create event.
  const std::map<SpanId, std::string> pods = ev::agent_pods(records);
  std::map<std::string, AgentInfo> agents;  // by pod
  for (const SpanRecord* s : kids[root->id]) {
    if (s->who == root->who) continue;
    auto it = pods.find(s->id);
    // Without its pod event the agent is still attributable, by who.
    const std::string pod = it != pods.end() ? it->second : s->who;
    AgentInfo& a = agents[pod];
    a.span = s;
    a.pod = pod;
  }
  for (CritSegment& s : out.drain_segments) {
    if (auto it = pods.find(by_id[s.span]->parent); it != pods.end()) {
      s.pod = it->second;
    }
  }

  // Manager-side receipts: DONE and META_REPORT arrivals, the continue.
  std::string meta_gate_pod;
  Time meta_gate_t = 0;
  Time continue_t = 0;
  for (const SpanRecord* r : records) {
    if (r->kind != SpanKind::EVENT) continue;
    if (ev::is(r->name, ev::kContinue)) {
      continue_t = r->start;
    } else if (ev::is(r->name, ev::kDone)) {
      if (auto it = agents.find(ev::field(r->name, ev::kPod));
          it != agents.end()) {
        it->second.done_arrival =
            std::max(it->second.done_arrival, r->start);
      }
    } else if (ev::is(r->name, ev::kMeta) && r->start >= meta_gate_t) {
      meta_gate_t = r->start;
      meta_gate_pod = ev::field(r->name, ev::kPod);
    }
  }

  // Completion times: the DONE arrival when recorded, else the clipped
  // agent span end (aborted ops and crashed agents have no arrival).
  for (auto& [pod, a] : agents) {
    if (a.done_arrival == 0) a.done_arrival = w.clip_end(a.span);
  }

  if (agents.empty()) {
    // Manager-only op (connect failure, no tracing agents): everything
    // is coordination time on the root.
    w.emit(w.t0, root->who, "", root->name, /*edge=*/false, root->id);
  } else {
    // Gating pod: the last completion the Manager waited for.
    const AgentInfo* gate = nullptr;
    for (const auto& [pod, a] : agents) {
      if (gate == nullptr || a.done_arrival > gate->done_arrival) {
        gate = &a;
      }
    }
    // DONE message flight (plus the Manager's close-out bookkeeping).
    // With a background epilogue the agent's root span runs past the
    // downtime end (it covers the drain or lazy fill), so anchor the done
    // send on the last pre-resume child's close instead: the agent
    // resumes its pod and reports done the instant that span ends.
    Time done_sent = w.clip_end(gate->span);
    if (done_sent >= w.cursor) {
      for (const SpanRecord* c : kids[gate->span->id]) {
        if ((c->name == "ckpt.barrier" || c->name == "restart.standalone") &&
            !c->open) {
          done_sent = std::min(c->end, w.cursor);
        }
      }
    }
    w.emit(std::min(done_sent, w.cursor), "manager", gate->pod,
           "edge:done", /*edge=*/true, 0);
    const bool jumped = descend_agent(
        w, *gate, kids[gate->span->id],
        /*follow_continue=*/out.kind == "ckpt");
    if (jumped) {
      // The gating agent was parked at the barrier: the path crosses the
      // CONTINUE edge back to the Manager's sync point...
      if (continue_t != 0) {
        w.emit(continue_t, "manager", "", "edge:continue", /*edge=*/true,
               0);
      }
      // ...which fired on the last META_REPORT arrival.
      auto mit = meta_gate_pod.empty() ? agents.end()
                                       : agents.find(meta_gate_pod);
      if (mit != agents.end()) {
        AgentInfo& m = mit->second;
        // The agent reports its meta-data the instant its network
        // checkpoint closes, in either phase ordering.
        Time tm = m.span->start;
        for (const SpanRecord* c : kids[m.span->id]) {
          if (c->name == "ckpt.netckpt") tm = w.clip_end(c);
        }
        w.emit(std::min(tm, w.cursor), "manager", m.pod, "edge:meta",
               /*edge=*/true, 0);
        (void)descend_agent(w, m, kids[m.span->id],
                            /*follow_continue=*/false);
        w.emit(w.t0, "manager", m.pod, "edge:cmd", /*edge=*/true, 0);
      } else {
        // Meta arrivals not recorded: the remainder is the Manager's
        // meta wait.
        SpanId mw = 0;
        std::string mw_name = root->name;
        for (const SpanRecord* c : kids[root->id]) {
          if (c->name == "mgr.ckpt.meta_wait") {
            mw = c->id;
            mw_name = c->name;
          }
        }
        w.emit(w.t0, "manager", "", mw_name, /*edge=*/false, mw);
      }
    } else {
      // The gating agent never waited for the continue (its standalone
      // work WAS the gate — the barrier is off the critical path): the
      // remaining gap is the command send + connect.
      w.emit(w.t0, "manager", gate->pod, "edge:cmd", /*edge=*/true, 0);
    }
    // Anything left (clock weirdness in damaged traces): Manager time.
    w.emit(w.t0, root->who, "", root->name, /*edge=*/false, root->id);

    // Done-side slack per pod, 0 for the gate.
    for (const auto& [pod, a] : agents) {
      out.slack.push_back(
          PodSlack{pod, gate->done_arrival - a.done_arrival});
    }
  }

  out.segments.assign(w.segs.rbegin(), w.segs.rend());

  // Costliest pod and (pod, phase) slice among the work segments.
  std::map<std::string, Time> per_pod;
  std::map<std::pair<std::string, std::string>, Time> per_slice;
  for (const CritSegment& s : out.segments) {
    if (s.edge || s.pod.empty()) continue;
    per_pod[s.pod] += s.duration();
    per_slice[{s.pod, s.phase}] += s.duration();
  }
  Time best = 0;
  for (const auto& [pod, t] : per_pod) {
    if (t > best) {
      best = t;
      out.critical_pod = pod;
    }
  }
  best = 0;
  for (const auto& [key, t] : per_slice) {
    if (t > best) {
      best = t;
      out.critical_phase = key.second;
      out.critical_phase_us = t;
    }
  }
  return out;
}

Result<OpAttribution> attribute_op(const std::vector<SpanRecord>& spans,
                                   OpId op) {
  std::vector<const SpanRecord*> records;
  for (const SpanRecord& s : spans) {
    if (s.op == op) records.push_back(&s);
  }
  return attribute_op(records);
}

Json attribution_to_json(const OpAttribution& a) {
  Json j = Json::object();
  j["op"] = a.op;
  j["kind"] = a.kind;
  j["start_us"] = a.start;
  j["end_us"] = a.end;
  j["downtime_us"] = a.downtime_us;
  j["latency_us"] = a.latency_us;
  j["critical_pod"] = a.critical_pod;
  j["critical_phase"] = a.critical_phase;
  j["critical_phase_us"] = a.critical_phase_us;
  auto seg_json = [](const CritSegment& s, Time denom) {
    Json e = Json::object();
    e["start_us"] = s.start;
    e["end_us"] = s.end;
    e["who"] = s.who;
    e["pod"] = s.pod;
    e["phase"] = s.phase;
    e["edge"] = s.edge;
    if (s.span != 0) e["span"] = s.span;
    if (denom > 0) {
      e["pct"] = 100.0 * static_cast<double>(s.duration()) /
                 static_cast<double>(denom);
    }
    return e;
  };
  Json segs = Json::array();
  for (const CritSegment& s : a.segments) {
    segs.push(seg_json(s, a.downtime_us));
  }
  j["segments"] = std::move(segs);
  if (!a.drain_segments.empty()) {
    Json dsegs = Json::array();
    for (const CritSegment& s : a.drain_segments) {
      dsegs.push(seg_json(s, a.latency_us));
    }
    j["drain_segments"] = std::move(dsegs);
  }
  Json slack = Json::array();
  for (const PodSlack& s : a.slack) {
    Json e = Json::object();
    e["pod"] = s.pod;
    e["slack_us"] = s.slack_us;
    slack.push(std::move(e));
  }
  j["slack"] = std::move(slack);
  return j;
}

Result<OpAttribution> attribution_from_json(const Json& j) {
  if (!j.is_obj()) return Status(Err::PROTO, "attribution: not an object");
  auto str = [&](const char* k) {
    const Json* v = j.find(k);
    return v != nullptr && v->is_str() ? v->str() : std::string();
  };
  auto num = [](const Json& o, const char* k) -> Time {
    const Json* v = o.find(k);
    return v != nullptr && v->is_num() ? v->num_u64() : 0;
  };
  OpAttribution a;
  a.op = num(j, "op");
  a.kind = str("kind");
  a.start = num(j, "start_us");
  a.end = num(j, "end_us");
  a.downtime_us = num(j, "downtime_us");
  // Entries written before the COW split carry no latency field: the op
  // had no background tail, so latency == downtime.
  a.latency_us = num(j, "latency_us");
  if (a.latency_us == 0) a.latency_us = a.downtime_us;
  a.critical_pod = str("critical_pod");
  a.critical_phase = str("critical_phase");
  a.critical_phase_us = num(j, "critical_phase_us");
  auto parse_segs = [&](const char* key, std::vector<CritSegment>& out)
      -> Status {
    const Json* segs = j.find(key);
    if (segs == nullptr || !segs->is_arr()) return Status::ok();
    for (const Json& e : segs->items()) {
      if (!e.is_obj()) return Status(Err::PROTO, "attribution: bad segment");
      CritSegment s;
      s.start = num(e, "start_us");
      s.end = num(e, "end_us");
      if (const Json* v = e.find("who"); v != nullptr) s.who = v->str();
      if (const Json* v = e.find("pod"); v != nullptr) s.pod = v->str();
      if (const Json* v = e.find("phase"); v != nullptr) s.phase = v->str();
      if (const Json* v = e.find("edge"); v != nullptr) {
        s.edge = v->boolean();
      }
      s.span = static_cast<SpanId>(num(e, "span"));
      out.push_back(std::move(s));
    }
    return Status::ok();
  };
  if (Status st = parse_segs("segments", a.segments); !st) return st;
  if (Status st = parse_segs("drain_segments", a.drain_segments); !st) {
    return st;
  }
  if (const Json* slack = j.find("slack");
      slack != nullptr && slack->is_arr()) {
    for (const Json& e : slack->items()) {
      if (!e.is_obj()) return Status(Err::PROTO, "attribution: bad slack");
      PodSlack s;
      if (const Json* v = e.find("pod"); v != nullptr) s.pod = v->str();
      s.slack_us = num(e, "slack_us");
      a.slack.push_back(std::move(s));
    }
  }
  return a;
}

}  // namespace zapc::obs
