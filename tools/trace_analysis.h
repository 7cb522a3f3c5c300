// Offline analysis of zapc.obs.v1 / zapc.obs.postmortem.v1 documents.
//
// The library behind the zapc-trace CLI: loads the span stream out of a
// bench evidence file or a flight-recorder postmortem, groups it into
// per-operation causal trees (every coordinated checkpoint/restart
// carries an op id), renders an ASCII timeline, and re-checks the
// protocol invariants the paper's design depends on — after the fact,
// from the recorded evidence alone: the single barrier, NETWORK_FIRST
// ordering, the COW and lazy-restart orderings, epilogue receipts,
// recv₁ ≥ acked₂ on restored connections, recorded failures and closed
// spans (DESIGN.md §6.4 lists them all).  The checks read only span
// names and the keyed events of obs/event.h, and keep per-pod
// bookkeeping by each agent root's `pod`, never by agent.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/span.h"
#include "util/status.h"

namespace zapc::tools {

/// One loaded evidence document: a zapc.obs.v1 bench export or a
/// zapc.obs.postmortem.v1 flight-recorder dump.
struct TraceDoc {
  std::string path;
  std::string schema;
  std::string name;  // bench name, or "<kind> op=<n> phase=<p>"
  std::vector<obs::SpanRecord> spans;
};

/// Reads and parses one document.  Err::PROTO on malformed JSON or an
/// unknown schema; Err::IO when the file cannot be read.
Result<TraceDoc> load_trace_doc(const std::string& path);

/// The records of one coordinated operation, in stream order.
struct OpTrace {
  obs::OpId op = 0;
  std::vector<const obs::SpanRecord*> records;
};

/// Groups records by op id, ascending; op-less records are dropped.
/// Pointers alias `spans`, which must outlive the result.
std::vector<OpTrace> group_by_op(const std::vector<obs::SpanRecord>& spans);

/// ASCII causal timeline of one operation: an indented parent/child
/// tree with time bars scaled to the op's extent.
std::string render_op_timeline(const OpTrace& op);

/// Same, but rows whose span id is in `critical` get a `*` prefix —
/// zapc-trace --critpath feeds it the work-segment span ids from
/// obs::attribute_op, so the timeline shows which phases actually
/// determined the downtime.
std::string render_op_timeline(const OpTrace& op,
                               const std::set<obs::SpanId>& critical);

struct ValidateOptions {
  /// Accept spans still open at end-of-trace.  A flight-recorder
  /// postmortem is a snapshot taken mid-failure, so its in-flight spans
  /// are legitimately open; a completed run's evidence must close every
  /// span it tags with an op.
  bool allow_open_spans = false;
};

/// One invariant violation, attributed to its coordinated operation.
struct Violation {
  obs::OpId op = 0;
  std::string message;
};

/// Runs every offline invariant check over the stream (empty means the
/// evidence is consistent).
std::vector<Violation> validate_ops_detailed(
    const std::vector<obs::SpanRecord>& spans,
    const ValidateOptions& opts = {});

/// Same checks as human-readable "op N: <message>" strings.
std::vector<std::string> validate_ops(
    const std::vector<obs::SpanRecord>& spans,
    const ValidateOptions& opts = {});

/// The zapc-trace --json line: one compact object per violation.
struct ViolationLine {
  std::string file;
  obs::OpId op = 0;
  std::string message;
};
template <class F>
void json_io(F& f, ViolationLine& m) {
  f("file", m.file);
  f("op", m.op);
  f("message", m.message);
}

}  // namespace zapc::tools
