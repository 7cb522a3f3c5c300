// Failure flight recorder: a bounded ring of the most recent telemetry
// (span/EVENT records plus formatted log lines) kept per process, so a
// mid-protocol failure can dump what was happening right before it died.
//
// Every SpanRecorder feeds the global ring automatically; the log sink
// (util/log.h) feeds it every line that passes the stderr threshold.
// When a coordinated operation fails (Manager::ckpt_fail/restart_fail,
// Agent::ckpt_abort, a failed restart), the failing site calls
// dump_postmortem() and a `zapc.obs.postmortem.v1` JSON document is
// written under postmortem/ — machine-readable evidence of the failing
// op, phase, reason, the recent causal records, and a full metrics
// snapshot.  tools/zapc-trace loads these dumps offline.
#pragma once

#include <deque>
#include <string>

#include "obs/span.h"

namespace zapc::obs {

class Json;

/// One entry of the postmortem: a copy of a SpanRecord as last seen
/// (EVENTs once, SPANs on open and updated in place on close).
struct FlightEntry {
  SpanRecord span;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Called by every SpanRecorder on begin/end/event.  A SPAN close
  /// updates the matching open entry in place (matched from the tail by
  /// id+name+who+start, since ids are only unique per recorder);
  /// everything else appends, evicting the oldest entry past capacity.
  void note_span(const SpanRecord& s);

  /// Called by the log sink with the fully formatted line.
  void note_log(const std::string& line);

  /// Builds the `zapc.obs.postmortem.v1` document and writes it to
  /// `<dir>/<kind>_op<op_id>_<seq>.json`.  `kind` names the failing path
  /// ("ckpt_fail", "restart_fail", "ckpt_abort"), `phase` the innermost
  /// phase that was open when the operation died (may be empty).
  /// Returns the path written, or "" if the file could not be created
  /// (the document is still retained for last_json()).
  std::string dump_postmortem(const std::string& kind, OpId op,
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

  void set_capacity(std::size_t n);
  std::size_t size() const { return ring_.size() + logs_.size(); }

  /// Drops buffered records and log lines (dump bookkeeping survives).
  void clear() {
    ring_.clear();
    logs_.clear();
  }

 private:
  Json build_postmortem(const std::string& kind, OpId op,
                        const std::string& who, const std::string& phase,
                        const std::string& reason, Time t) const;

  std::size_t capacity_ = kDefaultCapacity;
  std::deque<FlightEntry> ring_;
  std::deque<std::string> logs_;
  std::string dir_ = "postmortem";
  std::string last_path_;
  std::string last_json_;
  std::size_t dumps_ = 0;
};

/// The process-global flight recorder (single-threaded simulation, like
/// metrics()).  Installs the util/log sink on first use.
FlightRecorder& flight();

/// Dumps a postmortem for a failed coordinated op.  The failing phase is
/// the innermost span still open for the op in `rec`, so call this
/// *before* the fail path closes its spans.  Also stamps the op's one
/// failure record, an "op.fail kind=<kind> why=<reason>" EVENT, into
/// `rec`; the offline validator (zapc-trace --validate) reads it as the
/// op's abort.  `rec` may be null (tracing off): the dump still happens,
/// with an empty phase and no marker.
void dump_op_failure(SpanRecorder* rec, const std::string& kind, OpId op,
                     const std::string& who, const std::string& reason,
                     Time t);

}  // namespace zapc::obs
