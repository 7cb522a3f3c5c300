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

/// `part` in percent of `total` (0 when `total` is 0).
double pct_of(Time part, Time total) {
  return total == 0 ? 0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(total);
}

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
    segs.push_back(CritSegment{lo, cursor, who, pod, phase, edge, span,
                               pct_of(cursor - lo, t1 - t0)});
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
        out.drain_segments.push_back(
            CritSegment{r->start, de, r->who, "", r->name, /*edge=*/false,
                        r->id, pct_of(de - r->start, out.latency_us)});
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

}  // namespace zapc::obs
