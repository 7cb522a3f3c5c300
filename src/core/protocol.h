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
// Causal tracing: every message belonging to a coordinated operation
// carries the Manager-minted op_id (obs::next_op_id()), and the two
// Manager→Agent commands additionally carry the span id of the
// Manager's root span (`parent_span`) while CONTINUE carries the id of
// the Manager's 'mgr.continue' EVENT (`continue_event`).  Agents stamp
// both onto their own spans/events, which turns the flat per-node
// timelines into one cross-node causal tree (see obs/span.h).
#pragma once

#include <map>
#include <optional>
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
  // Introspection plane (DESIGN.md §9).  Old peers fall through their
  // `default:` arms on these, so mixed versions interoperate.
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
  // Appended fields (old peers decode them as defaults).
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

struct MetaReport {
  u64 op_id = 0;
  std::string pod_name;
  ckpt::NetMeta meta;
  u64 net_ckpt_us = 0;  // time spent in the network-state checkpoint
};

/// The single synchronization barrier (paper Figure 3): sent to every
/// agent once all meta-data reports are in.  `continue_event` is the id
/// of the Manager's 'mgr.continue' EVENT so each agent's resume records
/// parent under the barrier decision itself.
struct ContinueMsg {
  u64 op_id = 0;
  u32 continue_event = 0;
};

struct CkptDone {
  u64 op_id = 0;
  std::string pod_name;
  bool ok = false;
  std::string error;
  u64 image_bytes = 0;
  u64 network_bytes = 0;
  u64 total_us = 0;  // suspend → done, as seen by the agent
  // Appended fields (old peers decode them as defaults).
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

/// Background epilogue (DESIGN.md §11, §13): sent by the agent once the
/// work its DONE report left pending has finished — or failed.  For a
/// COW checkpoint that is the image drain (pairs with a CkptDone that
/// carried drain_pending=true); for a lazy restart the cold-region fill
/// (pairs with a RestartDone that carried lazy_pending=true).
struct EpilogueDone {
  u64 op_id = 0;
  std::string pod_name;
  bool ok = false;
  std::string error;
  /// Failed for a transient reason (storage hiccup): retryable.
  bool transient = false;
  u64 image_bytes = 0;    // drain: committed encoded image size
  u64 epilogue_us = 0;    // resume → epilogue done, as seen by the agent
  u64 dirtied_bytes = 0;  // drain: COW tax, bytes the pod dirtied meanwhile
  // Appended fields (old peers decode them as defaults).
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

struct RestartCmd {
  u64 op_id = 0;
  u32 parent_span = 0;
  std::string pod_name;
  std::string source_uri;  // "san://<path>" or "stream://<tag>"
  ckpt::NetMeta meta;      // modified meta-data with roles + discards
  /// Virtual→real location updates for every participating pod.
  std::vector<std::pair<net::IpAddr, net::IpAddr>> locations;
  // Appended fields (old peers decode them as defaults).
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

struct RestartDone {
  u64 op_id = 0;
  std::string pod_name;
  bool ok = false;
  std::string error;
  u64 connectivity_us = 0;
  u64 net_restore_us = 0;
  u64 total_us = 0;
  // Appended fields (old peers decode them as defaults).
  /// Failed for a transient reason (stream deadline): retryable.
  bool transient = false;
  /// Standalone-image restore duration, for the op ledger.
  u64 standalone_us = 0;
  /// Lazy restore (DESIGN.md §13): the pod has resumed but cold regions
  /// are still filling in; an EPILOGUE_DONE message will complete the op.
  bool lazy_pending = false;
  /// Command receipt → pod resumed, as the agent measured it.  With lazy
  /// restore this is strictly less than total_us; 0 on old peers (the
  /// Manager folds it back to total_us).
  u64 downtime_us = 0;
  /// Lazy split: bytes restored eagerly vs. deferred to the epilogue.
  u64 hot_bytes = 0;
  u64 lazy_bytes = 0;
  /// Streaming-fetch duration of the pipelined restore (0 = monolithic).
  u64 fetch_us = 0;
};

struct StreamOpen {
  u64 op_id = 0;
  std::string tag;
};
struct StreamChunk {
  std::string tag;
  Bytes data;
};
struct StreamClose {
  std::string tag;
};

/// Send-queue redirect: contents of the sender's send queue shipped
/// directly to the agent receiving the *peer* pod's checkpoint stream.
struct RedirectData {
  u64 op_id = 0;
  net::IpAddr dst_pod_vip;    // the pod whose socket will consume this
  net::SockAddr dst_local;    // that socket's local address
  net::SockAddr dst_remote;   // ... and remote address (the sender)
  u32 sender_acked = 0;       // for overlap discard at the receiver
  Bytes data;
};

struct AbortMsg {
  u64 op_id = 0;
  std::string reason;
};

// ---- Introspection plane (DESIGN.md §9) -------------------------------------

/// Periodic liveness beacon from an agent serving a coordinated op:
/// which phase the pod is in and that the agent is still making
/// progress.  Cadence comes from the command's `heartbeat_us`.
struct HeartbeatMsg {
  u64 op_id = 0;
  std::string pod_name;
  std::string phase;  // innermost open phase ("ckpt.standalone", ...)
  u64 t_us = 0;       // agent's virtual clock at publication
  u32 seq = 0;        // per-op beacon sequence number
};

/// Streaming watermark accompanying a heartbeat while a costed phase is
/// in flight: how far the byte-moving work has progressed and the
/// agent's cost-model ETA (core/cost_model.h).
struct ProgressMsg {
  u64 op_id = 0;
  std::string pod_name;
  std::string phase;
  u64 t_us = 0;
  u64 bytes_done = 0;
  u64 bytes_expected = 0;
  u64 throughput_bps = 0;  // modeled instantaneous throughput
  u64 eta_us = 0;          // remaining virtual time per the cost model
};

/// Status endpoint: any client may ask the Manager for the live
/// ClusterHealth snapshot of one op (0 = latest).
struct HealthQuery {
  u64 op_id = 0;
};

/// Reply: the zapc.obs.health.v1 document, serialized.
struct HealthSnapshotMsg {
  u64 op_id = 0;
  std::string json;
};

// ---- Self-healing supervisor (DESIGN.md §12) --------------------------------

/// Puts the receiving agent in supervised mode: publish node-level
/// HEARTBEAT beacons (op_id=0, empty pod name, phase "idle" or the
/// innermost op phase) on this channel every `heartbeat_us`.  Cadence 0
/// stops the beacons.
struct SuperviseCmd {
  u64 heartbeat_us = 0;
};

// ---- Encoding ----------------------------------------------------------------

Bytes encode_checkpoint_cmd(const CheckpointCmd& m);
Bytes encode_meta_report(const MetaReport& m);
Bytes encode_continue(const ContinueMsg& m = {});
Bytes encode_ckpt_done(const CkptDone& m);
Bytes encode_epilogue_done(const EpilogueDone& m);
Bytes encode_restart_cmd(const RestartCmd& m);
Bytes encode_restart_done(const RestartDone& m);
Bytes encode_stream_open(const StreamOpen& m);
Bytes encode_stream_chunk(const StreamChunk& m);
Bytes encode_stream_close(const StreamClose& m);
Bytes encode_redirect_data(const RedirectData& m);
Bytes encode_abort(const AbortMsg& m);
Bytes encode_heartbeat(const HeartbeatMsg& m);
Bytes encode_progress(const ProgressMsg& m);
Bytes encode_health_query(const HealthQuery& m = {});
Bytes encode_health_snapshot(const HealthSnapshotMsg& m);
Bytes encode_supervise_cmd(const SuperviseCmd& m);

/// Peeks the type of an encoded message.
Result<MsgType> peek_type(const Bytes& msg);

Result<CheckpointCmd> decode_checkpoint_cmd(const Bytes& msg);
Result<MetaReport> decode_meta_report(const Bytes& msg);
Result<ContinueMsg> decode_continue(const Bytes& msg);
Result<CkptDone> decode_ckpt_done(const Bytes& msg);
Result<EpilogueDone> decode_epilogue_done(const Bytes& msg);
Result<RestartCmd> decode_restart_cmd(const Bytes& msg);
Result<RestartDone> decode_restart_done(const Bytes& msg);
Result<StreamOpen> decode_stream_open(const Bytes& msg);
Result<StreamChunk> decode_stream_chunk(const Bytes& msg);
Result<StreamClose> decode_stream_close(const Bytes& msg);
Result<RedirectData> decode_redirect_data(const Bytes& msg);
Result<AbortMsg> decode_abort(const Bytes& msg);
Result<HeartbeatMsg> decode_heartbeat(const Bytes& msg);
Result<ProgressMsg> decode_progress(const Bytes& msg);
Result<HealthQuery> decode_health_query(const Bytes& msg);
Result<HealthSnapshotMsg> decode_health_snapshot(const Bytes& msg);
Result<SuperviseCmd> decode_supervise_cmd(const Bytes& msg);

}  // namespace zapc::core
