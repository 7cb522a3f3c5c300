// Persistent run ledger: one JSONL line per completed or aborted
// coordinated operation (`zapc.obs.ledger.v1`).
//
// The Manager appends a LedgerEntry at every op-terminal path — success,
// terminal abort, AND the abort that precedes a retry (retries mint a
// fresh op id, so every attempt is its own line, flagged will_retry).
// Aborted ops are covered by the same discipline as the atomic image
// commit: the line is written before the op state is torn down, so a
// run's ledger is a complete history even when everything failed.
//
// Each line is self-describing (schema tag on every line) and written
// with a single fwrite + flush, so a crash can tear at most the final
// line; the loader counts and skips a torn tail instead of failing.  A
// line is the LedgerEntry's field list (json_io below), read strictly.
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/critpath.h"
#include "obs/health.h"
#include "obs/json.h"
#include "util/status.h"

namespace zapc::obs {

struct LedgerEntry {
  OpId op = 0;
  std::string kind;     // "ckpt" | "restart"
  std::string outcome;  // "ok" | "aborted"
  std::string error;    // abort reason ("" on success)
  bool transient = false;
  bool will_retry = false;  // a follow-up attempt (fresh op id) is queued
  u32 attempt = 1;          // 1-based attempt number within the request
  Time start_us = 0;
  Time end_us = 0;
  /// Application downtime: op start → every pod resumed.  For blocking
  /// checkpoints and restarts this equals latency_us; a COW checkpoint
  /// keeps running its background drains after the pods resume, so its
  /// latency exceeds its downtime (DESIGN.md §11).
  Time downtime_us = 0;
  /// Full op latency (start → terminal).
  Time latency_us = 0;
  u32 pods = 0;  // agents that reported completion
  // Slowest per-phase duration across pods ("suspend", "netckpt",
  // "standalone", "barrier" / "connectivity", "netstate", "standalone").
  std::map<std::string, Time> phase_us;
  u64 image_bytes = 0;    // largest per-pod committed image
  u64 network_bytes = 0;  // largest per-pod network-state image
  u64 logical_bytes = 0;  // largest per-pod logical (pre-delta) size
  Straggler straggler;  // live-health straggler; pod "" if none
  std::optional<OpAttribution> attrib;  // when attribution succeeded
  /// Who initiated the op: "manual" (operator/test code) or
  /// "supervisor" (periodic-checkpoint policy or a recovery restart).
  std::string trigger = "manual";
  /// Recovery restarts only: failure detection → application restored
  /// (downtime end − detect time), the MTTR the supervisor is graded on.
  /// 0 = not a recovery.
  Time mttr_us = 0;
  /// Lazy restarts only (DESIGN.md §13): demand faults taken during the
  /// fill window and cold bytes restored off the downtime path.
  u64 lazy_faults = 0;
  u64 lazy_bytes = 0;
  /// COW drains only: slowest per-pod drain time spent while the SAN QoS
  /// scheduler throttled it behind a foreground stream vs. while it
  /// merely contended with sibling drains, and the worst (lowest)
  /// granted drain bandwidth.
  Time drain_throttled_us = 0;
  Time drain_contended_us = 0;
  u64 drain_granted_bps = 0;
};

/// One ledger line.  Every optional key is omitted at its default.
template <class F>
void json_io(F& f, LedgerEntry& m) {
  f.constant("schema", kLedgerSchemaVersion);
  f("op", m.op);
  f("kind", m.kind);
  f("outcome", m.outcome);
  f.opt("error", m.error);
  f.opt("transient", m.transient);
  f.opt("will_retry", m.will_retry);
  f("attempt", m.attempt);
  f("start_us", m.start_us);
  f("end_us", m.end_us);
  f("downtime_us", m.downtime_us);
  f("latency_us", m.latency_us);
  f("pods", m.pods);
  f.opt("phase_us", m.phase_us);
  f("image_bytes", m.image_bytes);
  f("network_bytes", m.network_bytes);
  f.opt("logical_bytes", m.logical_bytes);
  f.opt("straggler", m.straggler);
  f.opt("critpath", m.attrib);
  f.opt("trigger", m.trigger, "manual");
  f.opt("mttr_us", m.mttr_us);
  f.opt("lazy_faults", m.lazy_faults);
  f.opt("lazy_bytes", m.lazy_bytes);
  f.opt("drain_throttled_us", m.drain_throttled_us);
  f.opt("drain_contended_us", m.drain_contended_us);
  f.opt("drain_granted_bps", m.drain_granted_bps);
}

/// Append-only JSONL ledger.  Default-constructed it records in memory
/// only (tests, benches that dump at the end); with a path it appends
/// each entry to the file as it arrives.
class Ledger {
 public:
  Ledger() = default;
  explicit Ledger(const std::string& path);
  ~Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// True when a path was given and the file opened.
  bool persistent() const { return file_ != nullptr; }

  /// Records the entry (and appends its line to the file when
  /// persistent).  The line is one fwrite + fflush: all or nothing up to
  /// an OS crash tearing the final line.
  Status append(const LedgerEntry& e);

  const std::vector<LedgerEntry>& entries() const { return entries_; }

  /// Dumps all in-memory entries to `path` (overwrite), one line each —
  /// how benches persist a Testbed's in-memory ledger next to their
  /// evidence JSON.
  Status write_file(const std::string& path) const;

  using LoadResult = JsonLines<LedgerEntry>;
  /// Loads a ledger file.  A torn final line (crash mid-append) is
  /// skipped and counted; malformed lines elsewhere are Err::PROTO.
  static Result<LoadResult> load(const std::string& path);

 private:
  std::vector<LedgerEntry> entries_;
  std::FILE* file_ = nullptr;
};

}  // namespace zapc::obs
