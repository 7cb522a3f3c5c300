// Virtual-time spans: the timeline half of the telemetry subsystem.
//
// A span is a named interval stamped from the simulation's virtual clock,
// with parent/child nesting and a `who` label ("manager", "agent@n3").
// Instant EVENT records share the stream; their text follows the keyed
// `name k=v` vocabulary of obs/event.h.
//
// Two stamping modes coexist:
//  * explicit-time (`begin_at`/`end_at`/`event_at`) — used by the
//    Manager/Agent pipeline, which always knows `node.now()`;
//  * clocked (`begin`/`end`/`event` + RAII Span) — used by tests and any
//    code that registered a clock callback with set_clock().
//
// Causal tracing: every coordinated checkpoint/restart operation carries
// a process-unique op id (next_op_id()).  The Manager mints it, ships it
// in every protocol message, and both sides stamp it onto their spans and
// events, so one stream holding several interleaved operations can be
// split back into per-op causal trees.  Cross-node causality uses the
// ordinary `parent` field: the Manager sends the span id of its root (or
// of the 'continue' event) with the command, and the Agent parents its
// records under it.  Parent ids are only meaningful when both sides
// report into the same recorder (the Testbed/Trace arrangement); with
// separate recorders the op id alone still correlates the records.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/types.h"

namespace zapc::obs {

/// Virtual time in microseconds (mirrors sim::Time without depending on
/// the engine; obs sits below sim in the library stack).
using Time = u64;

/// 1-based index into the recorder's span stream; 0 means "no span".
using SpanId = u32;

enum class SpanKind : u8 { SPAN = 0, EVENT = 1 };

/// Coordinated-operation id; 0 means "not part of a coordinated op".
using OpId = u64;

/// Mints the next process-unique coordinated-operation id (1, 2, ...).
OpId next_op_id();

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  SpanKind kind = SpanKind::SPAN;
  OpId op = 0;       // coordinated op this record belongs to; 0 = none
  std::string name;  // phase name, or the event text for EVENT records
  std::string who;   // "manager", "agent@n2", ...
  Time start = 0;
  Time end = 0;
  bool open = false;  // true while a SPAN awaits its end()
};

class SpanRecorder {
 public:
  /// Registers the virtual clock used by the no-argument stamping calls.
  void set_clock(std::function<Time()> fn) { clock_ = std::move(fn); }
  bool has_clock() const { return static_cast<bool>(clock_); }
  Time now() const { return clock_ ? clock_() : 0; }

  /// Opens a span at the clock's current time (parent 0 = root).
  SpanId begin(const std::string& name, const std::string& who,
               SpanId parent = 0, OpId op = 0) {
    return begin_at(now(), name, who, parent, op);
  }
  SpanId begin_at(Time t, const std::string& name, const std::string& who,
                  SpanId parent = 0, OpId op = 0);

  /// Closes an open span; invalid or already-closed ids are ignored, so
  /// abort paths may blindly close every phase they might have opened.
  void end(SpanId id) { end_at(now(), id); }
  void end_at(Time t, SpanId id);

  /// Records an instant EVENT (a zero-length stamped annotation) and
  /// returns its id, so it can serve as a cross-node parent (the
  /// Manager's 'continue' decision parents every agent's resume).
  SpanId event(const std::string& who, const std::string& what,
               SpanId parent = 0, OpId op = 0) {
    return event_at(now(), who, what, parent, op);
  }
  SpanId event_at(Time t, const std::string& who, const std::string& what,
                  SpanId parent = 0, OpId op = 0);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const SpanRecord* find(SpanId id) const {
    return id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
  }
  /// First record matching name (+ who, unless empty); nullptr if none.
  const SpanRecord* find_by_name(const std::string& name,
                                 const std::string& who = "") const;

  /// Duration of a closed span; 0 for open/unknown ids.
  Time duration(SpanId id) const {
    const SpanRecord* s = find(id);
    return s != nullptr && !s->open ? s->end - s->start : 0;
  }

  /// Innermost (latest-started) still-open SPAN belonging to `op` — the
  /// phase a failed operation died in; nullptr if none is open.
  const SpanRecord* innermost_open(OpId op) const;

  std::size_t open_spans() const;

  /// Innermost span opened by a live RAII Span on this recorder (the
  /// default parent for nested Spans); 0 if none.
  SpanId current() const { return stack_.empty() ? 0 : stack_.back(); }

  /// Drops all records (the clock survives).  Ids handed out before the
  /// clear become invalid; end_at() on them is a no-op as long as no new
  /// span has reused the slot.
  void clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  friend class Span;

  std::vector<SpanRecord> spans_;
  std::vector<SpanId> stack_;  // RAII nesting
  std::function<Time()> clock_;
};

/// RAII span: opens on construction (parented under the recorder's
/// current RAII span) and closes on destruction.  A null recorder makes
/// every operation a no-op, mirroring the `Trace*` convention.
class Span {
 public:
  Span(SpanRecorder* rec, std::string name, std::string who = "");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  SpanId id() const { return id_; }

 private:
  SpanRecorder* rec_;
  SpanId id_ = 0;
};

}  // namespace zapc::obs
