// Failure flight recorder: what a coordinated operation's failure leaves
// behind, so a mid-protocol failure can show what was happening right
// before it died.
//
// The recorder keeps a bounded ring of the most recent formatted log
// lines (the log sink, util/log.h, feeds it every line that passes the
// stderr threshold).  When a coordinated operation fails, the failing
// site calls dump_op_failure() and a `zapc.obs.postmortem.v1` document
// is written under postmortem/ — machine-readable evidence of the
// failing op, phase, reason, the newest records of the op's span stream
// as they stand at the dump, the log ring and a full metrics snapshot.
// tools/zapc-trace loads these dumps offline.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace zapc::obs {

/// A zapc.obs.postmortem.v1 document.
struct Postmortem {
  std::string kind;   // the failing path: "ckpt_fail", "ckpt_abort", ...
  OpId op_id = 0;
  std::string who;
  std::string phase;  // innermost span open when the op died ("" = none)
  std::string reason;
  Time time_us = 0;
  std::vector<SpanRecord> spans;  // the newest records of the op's stream
  std::vector<std::string> log;   // the newest log lines
  MetricsSnapshot metrics;        // the whole process's registry
};

template <class F>
void json_io(F& f, Postmortem& m) {
  f.constant("schema", kPostmortemSchemaVersion);
  f("kind", m.kind);
  f("op_id", m.op_id);
  f("who", m.who);
  f("phase", m.phase);
  f("reason", m.reason);
  f("time_us", m.time_us);
  f("spans", m.spans);
  f("log", m.log);
  f("metrics", m.metrics);
}

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Called by the log sink with the fully formatted line.
  void note_log(const std::string& line);

  /// Builds the postmortem and writes it to
  /// `<dir>/<kind>_op<op_id>_<seq>.json`.  `kind` names the failing path
  /// (see dump_op_failure), `phase` the innermost phase that was open
  /// when the operation died (may be empty).  Its spans are the last
  /// capacity records of `spans` (none when null).  Returns the path
  /// written, or "" if the file could not be created (the document is
  /// still retained for last_json()).
  std::string dump_postmortem(const SpanRecorder* spans,
                              const std::string& kind, OpId op,
                              const std::string& who,
                              const std::string& phase,
                              const std::string& reason, Time t);

  /// Directory postmortems are written to (created on first dump).
  /// Defaults to "postmortem"; tests point it at a temp dir.
  void set_dir(const std::string& dir) { dir_ = dir; }
  const std::string& dir() const { return dir_; }

  /// Most recent dump, for tests and the README walkthrough.
  const std::string& last_path() const { return last_path_; }
  const std::string& last_json() const { return last_json_; }

  std::size_t dumps_written() const { return dumps_; }

  /// Bounds both the log ring and a postmortem's span window.
  void set_capacity(std::size_t n);
  /// Log lines buffered.
  std::size_t size() const { return logs_.size(); }

  /// Drops buffered log lines (dump bookkeeping survives).
  void clear() { logs_.clear(); }

 private:
  std::size_t capacity_ = kDefaultCapacity;
  std::deque<std::string> logs_;
  std::string dir_ = "postmortem";
  std::string last_path_;
  std::string last_json_;
  std::size_t dumps_ = 0;
};

/// The process-global flight recorder (single-threaded simulation, like
/// metrics()).  Installs the util/log sink at start-up.
FlightRecorder& flight();

/// Dumps a postmortem for a failed coordinated op.  `kind` names the
/// failing path: "ckpt_fail" or "restart_fail" (the Manager's op failed),
/// "ckpt_abort" or "ckpt_drain_fail" (an Agent abandoned its checkpoint,
/// or its background COW drain) and "restart_abort" (an Agent abandoned
/// its restart).  The failing phase is the innermost span still open for
/// the op in `rec`, so call this *before* the fail path closes its spans.
/// Also stamps the op's one failure record, an "op.fail kind=<kind>
/// why=<reason>" EVENT, into `rec`; the offline validator (zapc-trace
/// --validate) reads it as the op's abort.  `rec` may be null (tracing
/// off): the dump still happens, with an empty phase, no spans and no
/// marker.
void dump_op_failure(SpanRecorder* rec, const std::string& kind, OpId op,
                     const std::string& who, const std::string& reason,
                     Time t);

}  // namespace zapc::obs
