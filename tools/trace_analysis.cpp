#include "tools/trace_analysis.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "obs/event.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/vtime.h"

namespace zapc::tools {

namespace ev = obs::ev;

Result<TraceDoc> load_trace_doc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(Err::IO, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto fail = [&](const Status& st) {
    return Status(Err::PROTO, path + ": " + st.message());
  };

  auto parsed = obs::json_parse(buf.str());
  if (!parsed) return fail(parsed.status());
  const obs::Json& doc = parsed.value();

  // The schema names the envelope, whose own list then reads it whole.
  TraceDoc out;
  out.path = path;
  obs::JsonReader head(doc);
  head("schema", out.schema);
  if (!head.status()) return fail(head.status());
  if (out.schema == obs::kSchemaVersion) {
    auto ev = obs::from_json<obs::Evidence>(doc);
    if (!ev) return fail(ev.status());
    out.name = ev.value().name;
    if (ev.value().spans) out.spans = std::move(*ev.value().spans);
  } else if (out.schema == obs::kPostmortemSchemaVersion) {
    auto pm = obs::from_json<obs::Postmortem>(doc);
    if (!pm) return fail(pm.status());
    out.name = pm.value().kind + " op=" + std::to_string(pm.value().op_id) +
               " phase=" + pm.value().phase;
    out.spans = std::move(pm.value().spans);
  } else {
    return Status(Err::PROTO, path + ": unknown schema " + out.schema);
  }
  return out;
}

std::vector<OpTrace> group_by_op(const std::vector<obs::SpanRecord>& spans) {
  std::map<obs::OpId, OpTrace> by_op;
  for (const auto& s : spans) {
    if (s.op == 0) continue;
    OpTrace& t = by_op[s.op];
    t.op = s.op;
    t.records.push_back(&s);
  }
  std::vector<OpTrace> out;
  out.reserve(by_op.size());
  for (auto& [op, t] : by_op) out.push_back(std::move(t));
  return out;
}

std::string render_op_timeline(const OpTrace& op) {
  return render_op_timeline(op, {});
}

std::string render_op_timeline(const OpTrace& op,
                               const std::set<obs::SpanId>& critical) {
  constexpr int kBarWidth = 40;

  obs::Time t0 = ~obs::Time{0}, t1 = 0;
  std::set<obs::SpanId> ids;
  for (const auto* r : op.records) {
    ids.insert(r->id);
    t0 = std::min(t0, r->start);
    t1 = std::max({t1, r->start, r->open ? r->start : r->end});
  }
  if (op.records.empty()) t0 = 0;
  const double span_us = t1 > t0 ? static_cast<double>(t1 - t0) : 1.0;
  auto col = [&](obs::Time t) {
    int c = static_cast<int>(static_cast<double>(t - t0) / span_us *
                             (kBarWidth - 1));
    return std::clamp(c, 0, kBarWidth - 1);
  };

  // Children grouped under their parent; records whose parent is not part
  // of this op (or 0) are roots.  The Manager's root span comes first, so
  // stream order inside a parent is already causal order.
  std::map<obs::SpanId, std::vector<const obs::SpanRecord*>> children;
  std::vector<const obs::SpanRecord*> roots;
  for (const auto* r : op.records) {
    if (r->parent != 0 && ids.count(r->parent) != 0) {
      children[r->parent].push_back(r);
    } else {
      roots.push_back(r);
    }
  }

  std::ostringstream out;
  out << "op " << op.op << "  [" << obs::vtime_us(t0) << " .. "
      << obs::vtime_us(t1) << "]  (" << op.records.size() << " records)\n";

  std::size_t who_w = 3;
  for (const auto* r : op.records) who_w = std::max(who_w, r->who.size());

  std::function<void(const obs::SpanRecord*, int)> emit =
      [&](const obs::SpanRecord* r, int depth) {
        std::string bar(kBarWidth, ' ');
        if (r->kind == obs::SpanKind::EVENT) {
          bar[col(r->start)] = '|';
        } else {
          int a = col(r->start);
          int b = r->open ? kBarWidth - 1 : col(r->end);
          for (int i = a; i <= b; ++i) bar[i] = '=';
        }
        char times[48];
        if (r->kind == obs::SpanKind::EVENT) {
          std::snprintf(times, sizeof(times), "%-20s",
                        obs::vtime_stamp(r->start).c_str());
        } else if (r->open) {
          std::snprintf(times, sizeof(times), "%9s..     OPEN",
                        obs::vtime_us(r->start).c_str());
        } else {
          std::snprintf(times, sizeof(times), "%9s..%-9s",
                        obs::vtime_us(r->start).c_str(),
                        obs::vtime_us(r->end).c_str());
        }
        out << (critical.count(r->id) != 0 ? "* [" : "  [") << bar << "] "
            << times << " ";
        out.width(static_cast<std::streamsize>(who_w));
        out << std::left << r->who;
        out.width(0);
        out << " " << std::string(static_cast<std::size_t>(depth) * 2, ' ')
            << r->name << "\n";
        for (const auto* c : children[r->id]) emit(c, depth + 1);
      };
  for (const auto* r : roots) emit(r, 0);
  return out.str();
}

std::vector<Violation> validate_ops_detailed(
    const std::vector<obs::SpanRecord>& spans, const ValidateOptions& opts) {
  std::vector<Violation> out;
  for (const OpTrace& t : group_by_op(spans)) {
    std::vector<std::string> bad;
    // Pod of every agent-side op root; agent phases hang directly off it.
    const std::map<obs::SpanId, std::string> pods = ev::agent_pods(t.records);
    auto pod_of = [&pods](const obs::SpanRecord* r) {
      auto it = pods.find(r->parent);
      return it == pods.end() ? std::string() : it->second;
    };
    // The op's spans or events of one name (span and event names are
    // disjoint, and a span name is a single token).
    auto named = [&t](std::string_view name) {
      std::vector<const obs::SpanRecord*> found;
      for (const auto* r : t.records) {
        if (ev::is(r->name, name)) found.push_back(r);
      }
      return found;
    };

    const obs::SpanRecord* mgr_root = nullptr;
    bool is_ckpt = false;
    for (const auto* r : t.records) {
      if (r->kind != obs::SpanKind::SPAN) continue;
      if (r->name == "mgr.ckpt" || r->name == "mgr.restart") mgr_root = r;
      if (r->name == "mgr.ckpt" || r->name == "ckpt") is_ckpt = true;
    }
    const std::vector<const obs::SpanRecord*> continues =
        named(ev::kContinue);
    // The op.fail record is the op's abort: obs::dump_op_failure stamps
    // it on every failure path, next to the flight-recorder postmortem.
    const bool aborted = !named(ev::kOpFail).empty();

    // ---- Exactly one barrier (Manager 'continue') per checkpoint op.  A
    // snapshot (open spans allowed) may cut an op before its barrier.
    const bool in_flight =
        opts.allow_open_spans && mgr_root != nullptr && mgr_root->open;
    if (is_ckpt && !aborted && continues.size() != 1 &&
        !(continues.empty() && in_flight)) {
      bad.push_back("expected exactly one mgr.continue, saw " +
                    std::to_string(continues.size()));
    }

    // ---- Every failure was recorded: an op whose Manager root closed
    // without every commanded pod's DONE receipt must carry op.fail.
    if (mgr_root != nullptr && !mgr_root->open && !aborted) {
      std::set<std::string> done;
      for (const auto* r : named(ev::kDone)) {
        done.insert(ev::field(r->name, ev::kPod));
      }
      for (const auto& [root, pod] : pods) {
        if (done.count(pod) == 0) {
          bad.push_back("op ended without pod " + pod +
                        "'s done receipt, but no op.fail postmortem "
                        "marker was recorded");
        }
      }
    }

    // ---- No op-tagged span left open at end-of-trace.  An open span in
    // a completed run's evidence means some phase neither finished nor
    // was closed out by the abort path.
    if (!opts.allow_open_spans) {
      for (const auto* r : t.records) {
        if (r->kind == obs::SpanKind::SPAN && r->open) {
          bad.push_back(r->who + ": span '" + r->name +
                        "' still open at end-of-trace");
        }
      }
    }
    const obs::SpanRecord* cont =
        continues.empty() ? nullptr : continues.front();

    // ---- NETWORK_FIRST ordering: per agent op, the network-state
    // checkpoint completes before the standalone checkpoint starts.
    std::map<obs::SpanId, const obs::SpanRecord*> standalone;  // by root
    for (const auto* r : named("ckpt.standalone")) {
      standalone[r->parent] = r;
    }
    for (const auto* net : named("ckpt.netckpt")) {
      auto it = standalone.find(net->parent);
      if (it == standalone.end() || net->open) continue;
      if (net->end > it->second->start) {
        bad.push_back(net->who +
                      ": standalone checkpoint started before the "
                      "network checkpoint finished (NETWORK_FIRST "
                      "violated)");
      }
    }

    // ---- No agent resumes a checkpointed pod before (or outside) the
    // Manager's continue.
    const std::vector<const obs::SpanRecord*> resumes = named(ev::kResume);
    if (is_ckpt) {
      for (const auto* r : resumes) {
        if (cont == nullptr) {
          bad.push_back(r->who + " resumed with no mgr.continue");
          continue;
        }
        if (r->start < cont->start) {
          bad.push_back(r->who + " resumed at " + obs::vtime_us(r->start) +
                        ", before mgr.continue at " +
                        obs::vtime_us(cont->start));
        }
        if (r->parent != cont->id) {
          bad.push_back(r->who +
                        ": agent.resume not parented under mgr.continue");
        }
      }
    }

    // ---- COW concurrent checkpointing invariants (DESIGN.md §11).
    if (is_ckpt) {
      // Per-pod stop-the-world window: agent.suspend → agent.resume.
      struct Window {
        obs::Time suspend = 0, resume = 0;
      };
      std::map<std::string, Window> stw;
      for (const auto* r : named(ev::kSuspend)) {
        stw[ev::field(r->name, ev::kPod)].suspend = r->start;
      }
      for (const auto* r : resumes) {
        stw[ev::field(r->name, ev::kPod)].resume = r->start;
      }
      for (const auto* r : named("ckpt.drain")) {
        const std::string pod = pod_of(r);
        // The drain is the post-barrier half of the checkpoint: it must
        // not begin before the Manager released the agents, nor before
        // its own pod was resumed.
        if (cont == nullptr) {
          if (!aborted) {
            bad.push_back(r->who +
                          ": ckpt.drain recorded with no mgr.continue");
          }
        } else if (r->start < cont->start) {
          bad.push_back(r->who + ": ckpt.drain started at " +
                        obs::vtime_us(r->start) + ", before mgr.continue "
                        "at " + obs::vtime_us(cont->start));
        }
        if (auto it = stw.find(pod); it != stw.end() &&
                                     it->second.resume != 0 &&
                                     r->start < it->second.resume) {
          bad.push_back(r->who +
                        ": ckpt.drain started before its pod resumed "
                        "(drain work leaked into the downtime window)");
        }
      }
      // A suspended pod cannot originate traffic: a first-retransmit
      // marker inside its stop-the-world window means the simulation
      // attributed an app send to a frozen pod.
      for (const auto* r : named(ev::kFirstRtx)) {
        auto it = stw.find(ev::field(r->name, ev::kPod));
        if (it == stw.end()) continue;
        const Window& w = it->second;
        if (w.suspend != 0 && r->start > w.suspend &&
            (w.resume == 0 || r->start < w.resume)) {
          bad.push_back(r->who +
                        ": app send (tcp retransmit) attributed inside "
                        "the stop-the-world window");
        }
      }
    }

    // ---- Every closed background epilogue — a COW drain or a lazy
    // fill window — is acknowledged by the Manager's epilogue receipt
    // for its pod, after it closed.
    if (!aborted) {
      std::vector<const obs::SpanRecord*> epilogues = named("ckpt.drain");
      for (const auto* r : named("restart.lazy")) epilogues.push_back(r);
      const std::vector<const obs::SpanRecord*> receipts =
          named(ev::kEpilogue);
      for (const auto* r : epilogues) {
        const std::string pod = pod_of(r);
        if (r->open || pod.empty()) continue;
        if (std::none_of(receipts.begin(), receipts.end(), [&](auto* e) {
              return ev::field(e->name, ev::kPod) == pod &&
                     e->start >= r->end;
            })) {
          bad.push_back(r->name + " for pod " + pod +
                        " closed but the manager never recorded its "
                        "epilogue receipt");
        }
      }
    }

    // ---- Pipelined / lazy restart invariants (DESIGN.md §13), per pod.
    if (!is_ckpt) {
      struct LazyState {
        obs::Time stream_start = 0;  // first restore-leg QoS grant
        obs::Time hot_done = 0;      // restart.standalone closed
        obs::Time resumed = 0;       // agent.resume (downtime over)
        obs::Time lazy_start = 0;    // restart.lazy opened
        obs::Time lazy_done = 0;     // restart.lazy closed
        u64 announced = 0;           // agent.resume lazy_regions
        std::map<std::string, int> filled;  // "vpid/region" → fills+faults
      };
      std::map<std::string, LazyState> lazy;  // by pod
      std::map<obs::SpanId, std::string> standalone_pod;
      for (const auto* r : named("restart.standalone")) {
        const std::string pod = pod_of(r);
        standalone_pod[r->id] = pod;
        if (!r->open) lazy[pod].hot_done = r->end;
      }
      for (const auto* r : named(ev::kQos)) {
        auto it = standalone_pod.find(r->parent);
        if (it == standalone_pod.end() ||
            ev::field(r->name, ev::kLeg) != ev::kLegRestore) {
          continue;
        }
        obs::Time& s = lazy[it->second].stream_start;
        if (s == 0 || r->start < s) s = r->start;
      }
      for (const auto* r : resumes) {
        LazyState& ls = lazy[ev::field(r->name, ev::kPod)];
        ls.resumed = r->start;
        ls.announced = ev::field_u64(r->name, ev::kLazyRegions);
      }
      for (const auto* r : named("restart.lazy")) {
        LazyState& ls = lazy[pod_of(r)];
        ls.lazy_start = r->start;
        if (!r->open) ls.lazy_done = r->end;
      }
      std::vector<const obs::SpanRecord*> fills = named(ev::kLazyFill);
      for (const auto* r : named(ev::kLazyFault)) fills.push_back(r);
      for (const auto* r : fills) {
        lazy[ev::field(r->name, ev::kPod)]
            .filled[ev::field(r->name, ev::kVpid) + "/" +
                    ev::field(r->name, ev::kRegion)]++;
      }
      for (const auto& [pod, ls] : lazy) {
        const std::string who = "pod " + pod;
        // Stream start → hot set installed → resume, in causal order.
        if (ls.stream_start != 0 && ls.hot_done != 0 &&
            ls.hot_done < ls.stream_start) {
          bad.push_back(who +
                        ": hot-set restore finished before its pipelined "
                        "stream started");
        }
        if (ls.hot_done != 0 && ls.resumed != 0 &&
            ls.resumed < ls.hot_done) {
          bad.push_back(who +
                        ": pod resumed before the hot set was installed "
                        "(lazy restore leaked cold state into resume)");
        }
        // The fill window lives strictly after resume: no lazy fill or
        // demand fault may be charged inside the downtime window.
        if (ls.lazy_start != 0 && ls.resumed != 0 &&
            ls.lazy_start < ls.resumed) {
          bad.push_back(who +
                        ": lazy fill window opened before the pod resumed");
        }
        // Every cold region is restored exactly once — by the background
        // fill or by a demand fault, never both, never twice.
        for (const auto& [key, n] : ls.filled) {
          if (n > 1) {
            bad.push_back(who + ": region " + key + " restored " +
                          std::to_string(n) +
                          " times during the lazy window");
          }
        }
        if (ls.lazy_done != 0 && ls.announced != 0 &&
            ls.filled.size() != ls.announced) {
          bad.push_back(who + ": lazy window announced " +
                        std::to_string(ls.announced) + " regions but " +
                        std::to_string(ls.filled.size()) +
                        " were restored");
        }
        if (ls.announced != 0 && ls.lazy_done == 0 && !aborted &&
            !opts.allow_open_spans) {
          bad.push_back(who + ": lazy window announced " +
                        std::to_string(ls.announced) +
                        " regions but never closed");
        }
      }
    }

    // ---- recv₁ ≥ acked₂ on both ends of every restored connection.
    const std::vector<const obs::SpanRecord*> restored =
        named(ev::kSockRestored);
    for (const auto* a : restored) {
      for (const auto* b : restored) {
        const std::string local = ev::field(a->name, ev::kLocal);
        if (local != ev::field(b->name, ev::kRemote) ||
            ev::field(a->name, ev::kRemote) != ev::field(b->name, ev::kLocal)) {
          continue;
        }
        const u64 recv = ev::field_u64(a->name, ev::kRecv);
        const u64 acked = ev::field_u64(b->name, ev::kAcked);
        if (recv < acked) {
          bad.push_back(local + " restored recv=" + std::to_string(recv) +
                        " < peer acked=" + std::to_string(acked) +
                        " (acknowledged data would be lost)");
        }
      }
    }
    for (std::string& m : bad) out.push_back(Violation{t.op, std::move(m)});
  }

  // ---- SAN QoS receipts (cross-op): a background COW drain whose span
  // overlaps a foreground restore stream — a restart.standalone span
  // whose SAN leg recorded a grant — must itself carry a drain grant
  // receipt: the scheduler re-grants at every share transition.  Drains
  // and restarts are separate ops, hence the whole-trace scan.
  {
    std::set<obs::SpanId> restore_streams, drain_grants;
    std::map<obs::SpanId, const obs::SpanRecord*> by_id;
    for (const auto& r : spans) {
      by_id[r.id] = &r;
      if (r.kind != obs::SpanKind::EVENT || !ev::is(r.name, ev::kQos)) {
        continue;
      }
      const std::string leg = ev::field(r.name, ev::kLeg);
      if (leg == ev::kLegRestore) restore_streams.insert(r.parent);
      if (leg == ev::kLegDrain) drain_grants.insert(r.parent);
    }
    std::vector<const obs::SpanRecord*> fetches;
    for (obs::SpanId id : restore_streams) {
      auto it = by_id.find(id);
      if (it != by_id.end() && it->second->kind == obs::SpanKind::SPAN &&
          !it->second->open) {
        fetches.push_back(it->second);
      }
    }
    for (const auto& r : spans) {
      if (r.kind != obs::SpanKind::SPAN || r.name != "ckpt.drain" ||
          r.open || drain_grants.count(r.id) != 0) {
        continue;
      }
      for (const auto* f : fetches) {
        if (r.start < f->end && f->start < r.end) {
          out.push_back(Violation{
              r.op, r.who +
                        ": drain overlapped a foreground restore stream "
                        "but recorded no QoS share-grant receipt"});
          break;
        }
      }
    }
  }
  return out;
}

std::vector<std::string> validate_ops(
    const std::vector<obs::SpanRecord>& spans, const ValidateOptions& opts) {
  std::vector<std::string> out;
  for (const Violation& v : validate_ops_detailed(spans, opts)) {
    out.push_back("op " + std::to_string(v.op) + ": " + v.message);
  }
  return out;
}

}  // namespace zapc::tools
