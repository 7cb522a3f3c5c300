// The shared span stream the Manager, the Agents and the Supervisor
// record into: phase spans plus instant events in the keyed
// `name k=v` vocabulary of obs/event.h (paper Figure 2 is regenerated
// from it, and zapc-trace --validate re-checks the protocol from it).
#pragma once

#include <string>

#include "obs/span.h"
#include "sim/engine.h"

namespace zapc::core {

class Trace {
 public:
  /// Records an instant EVENT; `parent`/`op` thread the causal-tracing
  /// context through (0 = untagged).
  void add(sim::Time t, std::string who, std::string what,
           obs::SpanId parent = 0, obs::OpId op = 0) {
    rec_.event_at(t, who, what, parent, op);
  }

  void clear() { rec_.clear(); }

  /// The underlying span stream (phase spans + events).
  obs::SpanRecorder& recorder() { return rec_; }
  const obs::SpanRecorder& recorder() const { return rec_; }

 private:
  obs::SpanRecorder rec_;
};

}  // namespace zapc::core
