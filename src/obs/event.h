// The protocol event vocabulary (DESIGN.md §6.2): one keyed format for
// every op-tagged EVENT the Manager, the Agent and the network layers
// record, and the one reader the offline checkers use.
//
// An event's text is its name, then space-separated `key=value` fields:
//
//   agent.resume pod=p0 lazy_regions=3
//
// Values hold no spaces, except the `why` field (an error message), which
// is always last and runs to the end of the text.  Emitters build the
// text with Text; readers (zapc-trace --validate, critpath, the benches
// and tests) match the name exactly with is() and read fields with
// field().  Nothing parses wording, so only the names and keys below are
// load-bearing.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.h"
#include "util/types.h"

namespace zapc::obs::ev {

// ---- Event names -----------------------------------------------------------

// Agent, checkpoint and restart.
inline constexpr std::string_view kSuspend = "agent.suspend";  // pod
inline constexpr std::string_view kCreate = "agent.create";    // pod bytes
inline constexpr std::string_view kResume = "agent.resume";    // pod
inline constexpr std::string_view kDestroy = "agent.destroy";  // pod
inline constexpr std::string_view kQos = "agent.qos";          // leg share
inline constexpr std::string_view kHeartbeat = "agent.hb";     // seq phase
inline constexpr std::string_view kStreamIn = "agent.stream";  // tag bytes
inline constexpr std::string_view kSupervised = "agent.supervised";
inline constexpr std::string_view kLazyFill = "lazy.fill";    // pod vpid
inline constexpr std::string_view kLazyFault = "lazy.fault";  // region

// Manager.
inline constexpr std::string_view kMeta = "mgr.meta";  // pod net_us
inline constexpr std::string_view kContinue = "mgr.continue";
inline constexpr std::string_view kDone = "mgr.done";          // pod
inline constexpr std::string_view kEpilogue = "mgr.epilogue";  // pod us
inline constexpr std::string_view kGc = "mgr.gc";              // path
inline constexpr std::string_view kRetry = "mgr.retry";  // kind attempt
inline constexpr std::string_view kSchedConn = "sched.conn";
inline constexpr std::string_view kHealthWarn = "health.warn";
inline constexpr std::string_view kOpFail = "op.fail";  // kind why

// Network layers (stamped through an ObsTag, which appends `pod`).
inline constexpr std::string_view kSockSaved = "net.sock.saved";
inline constexpr std::string_view kSockRestored = "net.sock.restored";
inline constexpr std::string_view kFirstRtx = "net.tcp.first_rtx";
inline constexpr std::string_view kFirstDrop = "net.filter.first_drop";
inline constexpr std::string_view kConnReformed = "conn.reformed";

/// Every event the validator and critpath read on a completed op.
/// op.fail is read too, but only a failed op records it.
inline constexpr std::string_view kCheckedEvents[] = {
    kSuspend, kCreate,   kResume,   kQos,      kLazyFill,      kLazyFault,
    kMeta,    kContinue, kDone,     kEpilogue, kSockRestored,  kFirstRtx};

// ---- Field keys the checkers read -------------------------------------------

inline constexpr std::string_view kPod = "pod";
inline constexpr std::string_view kLazyRegions = "lazy_regions";
inline constexpr std::string_view kVpid = "vpid";
inline constexpr std::string_view kRegion = "region";
inline constexpr std::string_view kLeg = "leg";
inline constexpr std::string_view kLocal = "local";
inline constexpr std::string_view kRemote = "remote";
inline constexpr std::string_view kRecv = "recv";
inline constexpr std::string_view kAcked = "acked";
inline constexpr std::string_view kKind = "kind";
inline constexpr std::string_view kWhy = "why";  // always the last field

/// agent.qos `leg` values: which SAN transfer the grant was for.
inline constexpr std::string_view kLegDrain = "drain";
inline constexpr std::string_view kLegRestore = "restore";
inline constexpr std::string_view kLegLazyFill = "lazy-fill";

// ---- Writing ------------------------------------------------------------------

/// Builds one event text: `Text(kResume).kv(kPod, name)`.
class Text {
 public:
  explicit Text(std::string_view name) : s_(name) {}

  Text& kv(std::string_view key, std::string_view value);
  Text& kv(std::string_view key, u64 value);

  /// Appends the `why` field and finishes the text: it must come last,
  /// because its value may hold spaces.
  std::string why(std::string_view message);

  operator std::string() const { return s_; }

 private:
  std::string s_;
};

// ---- Reading ------------------------------------------------------------------

/// The event name: the text up to its first space.
std::string_view name_of(std::string_view text);

inline bool is(std::string_view text, std::string_view name) {
  return name_of(text) == name;
}

/// Value of field `key` ("" when absent).  Values end at the next space,
/// except `why`, which runs to the end of the text.
std::string field(std::string_view text, std::string_view key);
u64 field_u64(std::string_view text, std::string_view key);

/// The pod each agent-side op root span works on: the `pod` field of the
/// agent.suspend (checkpoint) or agent.create (restart) EVENT recorded
/// directly under it.  Keyed by the root span's id.
std::map<SpanId, std::string> agent_pods(
    const std::vector<const SpanRecord*>& records);

}  // namespace zapc::obs::ev

namespace zapc::obs {

/// Causal-trace context handed down into layers that have no notion of
/// the coordinated protocol (packet filter, TCP, connectivity recovery):
/// enough to stamp an op-tagged EVENT under the right parent span, with
/// the pod it concerns appended as its `pod` field.  A null recorder
/// makes event() a no-op, so call sites need no guards.
struct ObsTag {
  SpanRecorder* rec = nullptr;
  std::string who;
  std::string pod;
  OpId op = 0;
  SpanId parent = 0;
  std::function<Time()> clock;  // falls back to the recorder's clock

  bool active() const { return rec != nullptr; }
  void event(ev::Text text) const {
    if (rec == nullptr) return;
    if (!pod.empty()) text.kv(ev::kPod, pod);
    rec->event_at(clock ? clock() : rec->now(), who, std::move(text),
                  parent, op);
  }
};

}  // namespace zapc::obs
