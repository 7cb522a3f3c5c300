// Manager ↔ Agent wire protocol.
//
// One typed message per MsgChannel frame.  The message flow implements
// Figures 1 and 3 of the paper:
//
//   checkpoint:  M→A CHECKPOINT_CMD,  A→M META_REPORT,  M→A CONTINUE,
//                A→M CKPT_DONE  [A→M EPILOGUE_DONE after a COW drain]
//   restart:     M→A RESTART_CMD (with the modified meta-data),
//                A→M RESTART_DONE  [A→M EPILOGUE_DONE after a lazy fill]
//   migration:   A→A STREAM_* (direct checkpoint streaming) and
//                REDIRECT_DATA (send-queue redirect optimization)
//   failure:     M→A / A→M ABORT
//
// Each message struct names its MsgType (kType) and lists its fields once,
// in wire order, in an io() field list (util/serialize.h); encode() and
// decode<M>() walk that list.  Every agent and manager is built from one
// tree, so decoding is strict: a frame of another type, a short field or
// a trailing byte fails Err::PROTO.
//
// Causal tracing: every message belonging to a coordinated operation
// carries the Manager-minted op_id (obs::next_op_id()), and the two
// Manager→Agent commands additionally carry the span id of the
// Manager's root span (`parent_span`) while CONTINUE carries the id of
// the Manager's 'mgr.continue' EVENT (`continue_event`).  Agents stamp
// both onto their own spans/events, which turns the flat per-node
// timelines into one cross-node causal tree (see obs/span.h).
#pragma once

#include <string>
#include <vector>

#include "ckpt/image.h"
#include "util/serialize.h"

namespace zapc::core {

enum class MsgType : u8 {
  CHECKPOINT_CMD = 1,
  META_REPORT = 2,
  CONTINUE = 3,
  CKPT_DONE = 4,
  RESTART_CMD = 5,
  RESTART_DONE = 6,
  STREAM_OPEN = 7,
  STREAM_CHUNK = 8,
  STREAM_CLOSE = 9,
  REDIRECT_DATA = 10,
  ABORT = 11,
  // Introspection plane (DESIGN.md §9).
  HEARTBEAT = 12,
  PROGRESS = 13,
  HEALTH_QUERY = 14,
  HEALTH_SNAPSHOT = 15,
  /// Background epilogue (DESIGN.md §11, §13): the agent's CKPT_DONE
  /// carried drain_pending=true or its RESTART_DONE lazy_pending=true;
  /// this closes the op once the COW drain has committed or the lazy
  /// cold-region fill has finished (or either failed).
  EPILOGUE_DONE = 16,
  /// Self-healing supervisor (DESIGN.md §12): puts the agent in
  /// supervised mode — it publishes node-level HEARTBEAT beacons
  /// (op_id=0) on the channel this command arrived on, even while no
  /// coordinated op is running, so the failure detector can tell a dead
  /// node from an idle one.
  SUPERVISE_CMD = 17,
  // 18 is retired: it was the lazy restart's own epilogue message, now
  // folded into EPILOGUE_DONE.
};

/// What happens to the pod after its checkpoint completes (paper §4: "the
/// action taken by the Agent depends on the context of the checkpoint").
enum class CkptMode : u8 {
  SNAPSHOT = 0,  // resume execution on the same node
  MIGRATE = 1,   // destroy the pod; it restarts elsewhere
};

struct CheckpointCmd {
  static constexpr MsgType kType = MsgType::CHECKPOINT_CMD;
  u64 op_id = 0;       // coordinated-operation id (0 = untraced)
  u32 parent_span = 0; // Manager's root span, for cross-node parenting
  std::string pod_name;
  std::string dest_uri;  // "san://<path>" or "agent://<ip>:<port>/<tag>"
  CkptMode mode = CkptMode::SNAPSHOT;
  bool redirect_send_queues = false;  // migration optimization (paper §5)
  bool fs_snapshot = false;           // take a SAN snapshot of the pod dir
  /// For the redirect optimization: where each peer pod's checkpoint
  /// stream is being received (vip → receiving agent address/tag).
  std::vector<std::pair<net::IpAddr, net::SockAddr>> peer_agents;
  /// Incremental mode: emit a delta over the pod's previous SAN image
  /// when one exists; the agent falls back to a full checkpoint when the
  /// chain cap is reached or no usable base exists.
  bool incremental = false;
  u32 chain_cap = 8;     // max deltas before a forced full checkpoint
  u32 codec_flags = 0;   // ckpt::kCodec* bits to encode with
  /// Migration: stream image chunks as serialization produces them
  /// instead of materializing the whole image first.
  bool pipelined = false;
  /// Agent-side barrier watchdog: abort (transiently) if the Manager's
  /// CONTINUE has not arrived this long after the standalone checkpoint
  /// finished.  0 = wait forever.
  u64 barrier_wait_us = 0;
  /// Introspection plane: publish HEARTBEAT/PROGRESS every this many
  /// virtual microseconds while the op runs.  0 = plane off.
  u64 heartbeat_us = 0;
  /// COW concurrent checkpoint (DESIGN.md §11): only mark the address
  /// spaces copy-on-write inside the stop-the-world window and drain the
  /// image to the SAN in the background after the pod resumes.  Agents
  /// silently fall back to a blocking checkpoint when the mode does not
  /// apply (migration, non-SAN destination, pipelined streaming).
  bool cow = false;
  /// Manager-side drain deadline shipped for symmetry with
  /// barrier_wait_us; 0 = wait forever for EPILOGUE_DONE.
  u64 drain_wait_us = 0;
};
template <class F>
void io(F& f, CheckpointCmd& m) {
  f(m.op_id, m.parent_span, m.pod_name, m.dest_uri, m.mode,
    m.redirect_send_queues, m.fs_snapshot, m.peer_agents, m.incremental,
    m.chain_cap, m.codec_flags, m.pipelined, m.barrier_wait_us,
    m.heartbeat_us, m.cow, m.drain_wait_us);
}

struct MetaReport {
  static constexpr MsgType kType = MsgType::META_REPORT;
  u64 op_id = 0;
  std::string pod_name;
  ckpt::NetMeta meta;
  u64 net_ckpt_us = 0;  // time spent in the network-state checkpoint
};
template <class F>
void io(F& f, MetaReport& m) {
  f(m.op_id, m.pod_name, nested(m.meta), m.net_ckpt_us);
}

/// The single synchronization barrier (paper Figure 3): sent to every
/// agent once all meta-data reports are in.  `continue_event` is the id
/// of the Manager's 'mgr.continue' EVENT so each agent's resume records
/// parent under the barrier decision itself.
struct ContinueMsg {
  static constexpr MsgType kType = MsgType::CONTINUE;
  u64 op_id = 0;
  u32 continue_event = 0;
};
template <class F>
void io(F& f, ContinueMsg& m) {
  f(m.op_id, m.continue_event);
}

struct CkptDone {
  static constexpr MsgType kType = MsgType::CKPT_DONE;
  u64 op_id = 0;
  std::string pod_name;
  bool ok = false;
  std::string error;
  u64 image_bytes = 0;
  u64 network_bytes = 0;
  u64 total_us = 0;  // suspend → done, as seen by the agent
  u64 logical_bytes = 0;  // pre-codec, pre-delta state size (0 = unknown)
  u32 delta_seq = 0;      // 0 = full image, N = Nth delta in its chain
  /// Failed for a transient reason (storage hiccup, barrier watchdog):
  /// the Manager may retry the whole operation.
  bool transient = false;
  // Per-phase durations as the agent measured them, for the Manager's op
  // ledger (obs/ledger.h); partial on failure, 0 for unreached phases.
  u64 suspend_us = 0;     // suspend + network blocked
  u64 netckpt_us = 0;     // network-state checkpoint
  u64 standalone_us = 0;  // standalone process image (incl. streaming)
  u64 barrier_us = 0;     // continue-barrier wait + commit + resume
  /// COW mode: the pod has resumed but the image is still draining to
  /// the SAN; an EPILOGUE_DONE message will complete the op.
  bool drain_pending = false;
  /// COW snapshot-marking duration (0 in blocking mode).
  u64 cowmark_us = 0;
};
template <class F>
void io(F& f, CkptDone& m) {
  f(m.op_id, m.pod_name, m.ok, m.error, m.image_bytes, m.network_bytes,
    m.total_us, m.logical_bytes, m.delta_seq, m.transient, m.suspend_us,
    m.netckpt_us, m.standalone_us, m.barrier_us, m.drain_pending,
    m.cowmark_us);
}

/// Background epilogue (DESIGN.md §11, §13): sent by the agent once the
/// work its DONE report left pending has finished — or failed.  For a
/// COW checkpoint that is the image drain (pairs with a CkptDone that
/// carried drain_pending=true); for a lazy restart the cold-region fill
/// (pairs with a RestartDone that carried lazy_pending=true).
struct EpilogueDone {
  static constexpr MsgType kType = MsgType::EPILOGUE_DONE;
  u64 op_id = 0;
  std::string pod_name;
  bool ok = false;
  std::string error;
  /// Failed for a transient reason (storage hiccup): retryable.
  bool transient = false;
  u64 image_bytes = 0;    // drain: committed encoded image size
  u64 epilogue_us = 0;    // resume → epilogue done, as seen by the agent
  u64 dirtied_bytes = 0;  // drain: COW tax, bytes the pod dirtied meanwhile
  /// SAN QoS attribution of a drain (DESIGN.md §13): time it spent
  /// throttled to the background floor because foreground
  /// restart/migration traffic held the pipe, vs. time it merely shared
  /// the pipe with other drains.
  u64 throttled_us = 0;
  u64 contended_us = 0;
  /// Average granted SAN bandwidth over the drain (bytes/sec; 0 = the
  /// drain never wrote a chunk).
  u64 granted_bps = 0;
  /// Lazy fill: cold bytes filled in the background, regions touched
  /// before their fill landed, and the bytes those demand faults pulled.
  u64 lazy_bytes = 0;
  u64 faults = 0;
  u64 fault_bytes = 0;
};
template <class F>
void io(F& f, EpilogueDone& m) {
  f(m.op_id, m.pod_name, m.ok, m.error, m.transient, m.image_bytes,
    m.epilogue_us, m.dirtied_bytes, m.throttled_us, m.contended_us,
    m.granted_bps);
  // A drain's epilogue stops here; only a lazy fill's carries its counts.
  if (f.tail(m.lazy_bytes != 0 || m.faults != 0 || m.fault_bytes != 0)) {
    f(m.lazy_bytes, m.faults, m.fault_bytes);
  }
}

struct RestartCmd {
  static constexpr MsgType kType = MsgType::RESTART_CMD;
  u64 op_id = 0;
  u32 parent_span = 0;
  std::string pod_name;
  std::string source_uri;  // "san://<path>" or "stream://<tag>"
  ckpt::NetMeta meta;      // modified meta-data with roles + discards
  /// Virtual→real location updates for every participating pod.
  std::vector<std::pair<net::IpAddr, net::IpAddr>> locations;
  /// stream:// sources: fail the restart if the checkpoint stream has
  /// not fully arrived this long after the command.  0 = wait forever.
  u64 stream_wait_us = 0;
  /// Introspection plane cadence (see CheckpointCmd).  0 = off.
  u64 heartbeat_us = 0;
  /// Supervisor recovery (DESIGN.md §12): destroy any pod already
  /// hosting this vip/name on the target node before restoring, instead
  /// of failing with "vip already hosted".  A recovery restarts *every*
  /// pod of the application from the last committed set, including pods
  /// whose node survived.
  bool replace_existing = false;
  /// Pipelined restore (DESIGN.md §13): stream the image from the SAN in
  /// chunks, overlapping fetch, decode and address-space rebuild instead
  /// of paying them serially.
  bool pipelined = false;
  /// Lazy demand-paged restore: eagerly restore only the hot working set
  /// (ranked by the manifest's region-touch stats), resume early, and
  /// fill cold regions in the background / on first touch.  The op stays
  /// open until an EPILOGUE_DONE.
  bool lazy = false;
  /// Eager budget for the lazy restore, in permille of total region
  /// bytes.  0 = the default (250 = hot 25%).
  u32 lazy_hot_permille = 0;
  /// Manager-side lazy-epilogue deadline, shipped for symmetry with
  /// drain_wait_us; 0 = wait forever for EPILOGUE_DONE.
  u64 lazy_wait_us = 0;
};
template <class F>
void io(F& f, RestartCmd& m) {
  f(m.op_id, m.parent_span, m.pod_name, m.source_uri, nested(m.meta),
    m.locations, m.stream_wait_us, m.heartbeat_us, m.replace_existing,
    m.pipelined, m.lazy, m.lazy_hot_permille, m.lazy_wait_us);
}

struct RestartDone {
  static constexpr MsgType kType = MsgType::RESTART_DONE;
  u64 op_id = 0;
  std::string pod_name;
  bool ok = false;
  std::string error;
  u64 connectivity_us = 0;
  u64 net_restore_us = 0;
  u64 total_us = 0;
  /// Failed for a transient reason (stream deadline): retryable.
  bool transient = false;
  /// Standalone-image restore duration, for the op ledger.
  u64 standalone_us = 0;
  /// Lazy restore (DESIGN.md §13): the pod has resumed but cold regions
  /// are still filling in; an EPILOGUE_DONE message will complete the op.
  bool lazy_pending = false;
  /// Command receipt → pod resumed, as the agent measured it.  With lazy
  /// restore this is strictly less than total_us.
  u64 downtime_us = 0;
  /// Lazy split: bytes restored eagerly vs. deferred to the epilogue.
  u64 hot_bytes = 0;
  u64 lazy_bytes = 0;
  /// Streaming-fetch duration of the pipelined restore (0 = monolithic).
  u64 fetch_us = 0;
};
template <class F>
void io(F& f, RestartDone& m) {
  f(m.op_id, m.pod_name, m.ok, m.error, m.connectivity_us,
    m.net_restore_us, m.total_us, m.transient, m.standalone_us,
    m.lazy_pending, m.downtime_us, m.hot_bytes, m.lazy_bytes, m.fetch_us);
}

/// A checkpoint destination or restart source: "san://<path>",
/// "stream://<tag>" or "agent://<ip>:<port>/<tag>".
struct Uri {
  std::string scheme;
  std::string path;        // san path or stream tag
  net::SockAddr endpoint;  // agent scheme only
};

/// Parses a Uri; a malformed one (unknown scheme, or an agent URI without
/// tag, address or a 0..65535 port) fails Err::INVALID naming the URI.
Result<Uri> parse_uri(const std::string& s);
/// Where the two-phase SAN commit stages the image bound for `path`.
std::string staging_path(const std::string& path);

struct StreamOpen {
  static constexpr MsgType kType = MsgType::STREAM_OPEN;
  u64 op_id = 0;
  std::string tag;
};
template <class F>
void io(F& f, StreamOpen& m) {
  f(m.op_id, m.tag);
}
/// `data` views the sender's encoded image, or, decoded, the received
/// frame: it is valid only while that buffer is.
struct StreamChunk {
  static constexpr MsgType kType = MsgType::STREAM_CHUNK;
  std::string tag;
  ByteView data;
};
template <class F>
void io(F& f, StreamChunk& m) {
  f(m.tag, m.data);
}
struct StreamClose {
  static constexpr MsgType kType = MsgType::STREAM_CLOSE;
  std::string tag;
};
template <class F>
void io(F& f, StreamClose& m) {
  f(m.tag);
}

/// Send-queue redirect: contents of the sender's send queue shipped
/// directly to the agent receiving the *peer* pod's checkpoint stream.
struct RedirectData {
  static constexpr MsgType kType = MsgType::REDIRECT_DATA;
  u64 op_id = 0;
  net::IpAddr dst_pod_vip;    // the pod whose socket will consume this
  net::SockAddr dst_local;    // that socket's local address
  net::SockAddr dst_remote;   // ... and remote address (the sender)
  u32 sender_acked = 0;       // for overlap discard at the receiver
  Bytes data;
};
template <class F>
void io(F& f, RedirectData& m) {
  f(m.op_id, m.dst_pod_vip, m.dst_local, m.dst_remote, m.sender_acked,
    m.data);
}

struct AbortMsg {
  static constexpr MsgType kType = MsgType::ABORT;
  u64 op_id = 0;
  std::string reason;
};
template <class F>
void io(F& f, AbortMsg& m) {
  f(m.op_id, m.reason);
}

// ---- Introspection plane (DESIGN.md §9) -------------------------------------

/// Periodic liveness beacon from an agent serving a coordinated op:
/// which phase the pod is in and that the agent is still making
/// progress.  Cadence comes from the command's `heartbeat_us`.
struct HeartbeatMsg {
  static constexpr MsgType kType = MsgType::HEARTBEAT;
  u64 op_id = 0;
  std::string pod_name;
  std::string phase;  // innermost open phase ("ckpt.standalone", ...)
  u64 t_us = 0;       // agent's virtual clock at publication
  u32 seq = 0;        // per-op beacon sequence number
};
template <class F>
void io(F& f, HeartbeatMsg& m) {
  f(m.op_id, m.pod_name, m.phase, m.t_us, m.seq);
}

/// Streaming watermark accompanying a heartbeat while a costed phase is
/// in flight: how far the byte-moving work has progressed and the
/// agent's cost-model ETA (core/cost_model.h).
struct ProgressMsg {
  static constexpr MsgType kType = MsgType::PROGRESS;
  u64 op_id = 0;
  std::string pod_name;
  std::string phase;
  u64 t_us = 0;
  u64 bytes_done = 0;
  u64 bytes_expected = 0;
  u64 throughput_bps = 0;  // modeled instantaneous throughput
  u64 eta_us = 0;          // remaining virtual time per the cost model
};
template <class F>
void io(F& f, ProgressMsg& m) {
  f(m.op_id, m.pod_name, m.phase, m.t_us, m.bytes_done, m.bytes_expected,
    m.throughput_bps, m.eta_us);
}

/// Status endpoint: any client may ask the Manager for the live
/// ClusterHealth snapshot of one op (0 = latest).
struct HealthQuery {
  static constexpr MsgType kType = MsgType::HEALTH_QUERY;
  u64 op_id = 0;
};
template <class F>
void io(F& f, HealthQuery& m) {
  f(m.op_id);
}

/// Reply: the zapc.obs.health.v1 document, serialized.
struct HealthSnapshotMsg {
  static constexpr MsgType kType = MsgType::HEALTH_SNAPSHOT;
  u64 op_id = 0;
  std::string json;
};
template <class F>
void io(F& f, HealthSnapshotMsg& m) {
  f(m.op_id, m.json);
}

// ---- Self-healing supervisor (DESIGN.md §12) --------------------------------

/// Puts the receiving agent in supervised mode: publish node-level
/// HEARTBEAT beacons (op_id=0, empty pod name, phase "idle" or the
/// innermost op phase) on this channel every `heartbeat_us`.  Cadence 0
/// stops the beacons.
struct SuperviseCmd {
  static constexpr MsgType kType = MsgType::SUPERVISE_CMD;
  u64 heartbeat_us = 0;
};
template <class F>
void io(F& f, SuperviseCmd& m) {
  f(m.heartbeat_us);
}

// ---- Encoding ----------------------------------------------------------------

/// Encodes a message: its MsgType byte, then its field list.
template <class M>
Bytes encode(const M& m) {
  Encoder e;
  FieldWriter w(e);
  w(Fixed<MsgType>{M::kType}, m);
  return e.take();
}

/// Decodes a message of type M; Err::PROTO unless `msg` is M's type byte
/// followed by exactly M's fields.  A ByteView field views `msg`, so it
/// is valid only while `msg` is.
template <class M>
Result<M> decode(const Bytes& msg) {
  M m;
  FieldReader r(ByteView{msg.data(), msg.size()});
  r(Fixed<MsgType>{M::kType}, m);
  if (Status s = r.finish(); !s) return s;
  return m;
}

/// Peeks the type of an encoded message.
Result<MsgType> peek_type(const Bytes& msg);

}  // namespace zapc::core
