// Critical-path downtime attribution (DESIGN.md §10).
//
// Given the span/event tree of one coordinated operation — the same
// causal data tools/trace_analysis loads from zapc.obs.v1 evidence —
// compute the chain of work and message edges that actually determined
// the operation's wall time, from the Manager's root span through the
// continue barrier to op close.  The walk is protocol-aware: it starts
// at the last CKPT_DONE arrival, descends that agent's sequential phase
// spans backwards, and when the agent was parked at the continue
// barrier it jumps across the cross-node parent edge (the ContinueMsg
// id recorded as `mgr.continue`) onto the meta-data side, ending at the
// CheckpointCmd send.  Segments are contiguous by construction, so
// their durations sum to the operation's measured downtime exactly.
//
// Every pod that is NOT on the critical path gets a slack figure: how
// much later its completion report could have arrived without moving
// the op's last arrival (i.e. how much it could slow before becoming
// critical at the gating edge).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/span.h"
#include "util/status.h"

namespace zapc::obs {

/// One ordered critical-path segment.  Work segments carry the span the
/// time was cut from; edge segments (`edge == true`) are message flights
/// or coordination gaps between spans and carry no span id.
struct CritSegment {
  Time start = 0;
  Time end = 0;
  std::string who;    // "manager", "agent@n2"
  std::string pod;    // pod the time is attributed to ("" = coordination)
  std::string phase;  // span name ("ckpt.standalone") or "edge:<what>"
  bool edge = false;
  SpanId span = 0;  // work segments: the span this slice belongs to

  Time duration() const { return end > start ? end - start : 0; }
};

/// Done-side slack of one pod: how much later its completion could have
/// arrived without extending the op (0 for the gating pod).
struct PodSlack {
  std::string pod;
  Time slack_us = 0;
};

struct OpAttribution {
  OpId op = 0;
  std::string kind;  // "ckpt", "restart" or "unknown"
  Time start = 0;
  Time end = 0;
  /// Application downtime: op start → every pod resumed.  With a
  /// background epilogue this ends at the Manager's epilogue-wait handoff
  /// (the "mgr.ckpt.drain_wait" / "mgr.restart.lazy_wait" span start);
  /// segments sum to THIS, because the COW drains and lazy fills are not
  /// the application's outage.
  Time downtime_us = 0;
  /// Full op latency: op start → op close (== downtime_us for blocking
  /// checkpoints and monolithic restarts; >= downtime_us with an
  /// epilogue, the tail being the background drains or fills).
  Time latency_us = 0;
  std::vector<CritSegment> segments;  // ordered, contiguous over downtime
  /// Off-critical-path background work: each "ckpt.drain" (COW drain)
  /// and "restart.lazy" (lazy fill) span, clipped to the op window.
  /// These overlap application runtime and each other, so they are
  /// reported separately and never summed into the downtime.
  std::vector<CritSegment> drain_segments;
  std::vector<PodSlack> slack;        // every pod, gating pod at 0
  std::string critical_pod;    // pod holding the largest share of the path
  std::string critical_phase;  // costliest (pod, phase) slice on the path
  Time critical_phase_us = 0;  // wall time of that slice

  /// Total critical-path time per phase label (edges included under
  /// their "edge:<what>" names).
  std::map<std::string, Time> phase_totals() const;
  /// Critical-path time attributed to one pod's work segments.
  Time pod_critical_us(const std::string& pod) const;
  /// Slowest background drain span (0 when the op had none).
  Time max_drain_us() const;
};

/// Attributes one operation's records (spans + events of a single op id,
/// any order).  Err::INVALID when no root span exists or the records are
/// empty; partial trees (aborted ops, crashed agents with open spans)
/// attribute fine — open spans are clipped at the op's end.
Result<OpAttribution> attribute_op(
    const std::vector<const SpanRecord*>& records);

/// Convenience: filters `spans` down to `op` and attributes it.
Result<OpAttribution> attribute_op(const std::vector<SpanRecord>& spans,
                                   OpId op);

/// The ledger/report serialization of an attribution:
///   { "downtime_us": N, "latency_us": N, "critical_pod": "...",
///     "critical_phase": "...", "critical_phase_us": N,
///     "segments": [ { "start_us", "end_us", "who", "pod", "phase",
///                     "edge", "pct" } ... ],
///     "drain_segments": [ same shape, "pct" relative to latency ],
///     "slack": [ { "pod", "slack_us" } ... ] }
/// Loader back-compat: entries written before the COW split carry no
/// "latency_us"/"drain_segments"; latency_us defaults to downtime_us.
Json attribution_to_json(const OpAttribution& a);
Result<OpAttribution> attribution_from_json(const Json& j);

}  // namespace zapc::obs
