// Checkpoint image format.
//
// A pod checkpoint is a sequence of typed, versioned, CRC-protected
// records (util/serialize.h) carrying "higher-level semantic information
// specified in an intermediate format rather than kernel specific data in
// native format" (paper §3).  This header defines the in-memory form of
// every record and the encode/decode functions; each record payload is
// one field list (image.cpp, and here for the meta-data table the
// protocol also carries), decoded strictly.  The capture/apply logic
// lives in ckpt/standalone.* (process state) and core/netckpt.* (network
// state).
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/addr.h"
#include "net/socket.h"
#include "net/sockopt.h"
#include "util/region_buf.h"
#include "util/serialize.h"
#include "util/status.h"

namespace zapc::ckpt {

/// Connection state as recorded in the network meta-data table (paper §4:
/// "full-duplex, half-duplex, closed (in which case there may still be
/// unread data), or connecting").  LISTENER entries describe listening
/// sockets that must be re-created before connections are re-formed.
enum class ConnState : u8 {
  FULL_DUPLEX = 0,
  HALF_DUPLEX = 1,
  CLOSED = 2,
  CONNECTING = 3,
  LISTENER = 4,
};

const char* conn_state_name(ConnState s);

/// Role assigned by the Manager's restart schedule (paper §4: each entry
/// is tagged "connect" or "accept"; arbitrary unless source ports are
/// shared, in which case the sharing side must accept).
enum class PeerRole : u8 { CONNECT = 0, ACCEPT = 1 };

/// One row of the per-pod network meta-data table the Agent reports to
/// the Manager.
struct NetMetaEntry {
  net::SockId sock = 0;        // socket id within the pod's stack
  net::Proto proto = net::Proto::TCP;
  net::SockAddr source;        // connection endpoint on this pod
  net::SockAddr target;        // remote endpoint (unset for listeners)
  ConnState state = ConnState::FULL_DUPLEX;
  PeerRole role = PeerRole::CONNECT;  // filled by the Manager for restart

  // The minimal protocol-specific state (paper §5): local PCB sequence
  // numbers reported with the meta-data so the Manager can compute the
  // send/receive queue overlap across the two peers.
  u32 pcb_sent = 0;
  u32 pcb_acked = 0;
  u32 pcb_recv = 0;
  /// Bytes to discard from the head of this side's restored send queue
  /// (= peer.recv − self.acked); computed by the Manager for restart.
  u32 discard_send = 0;
  /// Migration redirect: the peer's agent shipped its send-queue contents
  /// directly to this side's agent; the restore must wait for that
  /// (possibly empty) record before restoring this socket.
  bool redirect_expected = false;
};

template <class F>
void io(F& f, NetMetaEntry& e) {
  f(e.sock, e.proto, e.source, e.target, e.state, e.role, e.pcb_sent,
    e.pcb_acked, e.pcb_recv, e.discard_send, e.redirect_expected);
}

/// Complete meta-data table for one pod (the NET_META record, and the
/// table a META_REPORT or RESTART_CMD carries).
struct NetMeta {
  net::IpAddr pod_vip;
  std::vector<NetMetaEntry> entries;
};
template <class F>
void io(F& f, NetMeta& m) {
  f(m.pod_vip, m.entries);
}

/// One queued receive item (restored via the alternate receive queue).
struct SavedRecvItem {
  Bytes data;
  net::SockAddr from;
  bool oob = false;
};

/// Full saved state of one socket.
struct SocketImage {
  net::SockId old_id = 0;
  net::Proto proto = net::Proto::TCP;

  // Socket parameters, captured via the getsockopt interface (paper §5
  // saves "the entire set of the parameters").
  std::array<i64, net::kNumSockOpts> params{};

  net::SockAddr local;
  net::SockAddr remote;
  bool bound = false;
  bool owns_port = false;

  // Shape of the endpoint.
  bool listener = false;
  int backlog = 0;
  bool connecting = false;   // SYN_SENT at checkpoint
  bool connected = false;    // TCP ESTABLISHED-ish or UDP connect()ed
  bool shut_rd = false;
  bool shut_wr = false;      // our side sent FIN
  bool peer_closed = false;  // peer's FIN received

  // Queues.
  std::vector<SavedRecvItem> recv_queue;  // main + alternate, in order
  Bytes send_queue;                       // unacked + unsent bytes
  bool send_queue_redirected = false;     // migration redirect optimization

  // Minimal protocol-specific state (paper §5): the PCB sequence triple.
  u32 pcb_sent = 0;
  u32 pcb_acked = 0;
  u32 pcb_recv = 0;

  // RAW sockets.
  u8 raw_proto = 0;

  std::size_t byte_size() const;
};

/// Per-region entry of a process's region manifest.  The manifest lists
/// every live region with the generation it had at checkpoint, whether or
/// not the region's bytes are included in this image — a delta image
/// includes bytes only for dirty regions, but the manifest is complete so
/// restart knows which regions to pull from the base chain.
struct RegionMeta {
  u64 gen = 0;   // Process region generation at checkpoint
  u64 size = 0;  // region byte size at checkpoint
  /// Cumulative region() accesses at checkpoint — the working-set signal
  /// the lazy restore ranks regions by (DESIGN.md §13).  Encoded as a
  /// parallel array after the (name, gen, size) triples.
  u64 touches = 0;
};

/// Saved state of one process (standalone / Zap part).
struct ProcessImage {
  i32 vpid = 0;
  std::string kind;          // ProgramRegistry key
  bool exited = false;
  i32 exit_code = 0;
  int next_fd = 3;
  Bytes program_state;       // Program::save blob
  std::map<int, net::SockId> fds;          // fd -> old socket id
  /// Bulk memory (dirty-only in deltas).  A capture shares the pod's
  /// buffers and a decode shares zero and deduplicated regions; nothing
  /// here is written in place (DESIGN.md §14).
  std::map<std::string, RegionBuf> regions;
  std::map<u32, i64> timer_remaining;      // virtualized timers (paper §5)
  u64 region_gen_counter = 0;              // dirty-tracking clock at checkpoint
  std::map<std::string, RegionMeta> manifest;  // all live regions
};

/// Largest region size an image may declare for a zero region, whose
/// bytes are not in the image: far above any region a pod holds, it
/// keeps a corrupt size from asking for a zero mapping no host can give.
constexpr u64 kMaxRegionBytes = u64{1} << 36;  // 64 GiB

// ---- Codec flags (PodImageHeader.codec_flags) -------------------------------
// Recorded in the header so a reader knows how region records were
// produced.
constexpr u32 kCodecZeroElide = 1u << 0;  // all-zero regions stored as size
constexpr u32 kCodecDedup = 1u << 1;      // identical regions stored as refs
constexpr u32 kCodecDelta = 1u << 2;      // image is a delta over base_uri

/// Header record: identity plus the time-virtualization state needed to
/// bias clocks at restart.
struct PodImageHeader {
  std::string pod_name;
  net::IpAddr vip;
  i32 next_vpid = 1;
  bool time_virt = true;
  u64 ckpt_virtual_time = 0;  // pod-visible time at checkpoint
  i64 time_delta = 0;         // pod's accumulated bias at checkpoint
  u32 codec_flags = 0;   // kCodec* bits in effect for this image
  u32 delta_seq = 0;     // 0 = full image, N = Nth delta in its chain
  std::string base_uri;  // where the base image lives (delta images only)

  bool is_delta() const { return (codec_flags & kCodecDelta) != 0; }
};

/// A whole parsed pod checkpoint.
struct PodImage {
  PodImageHeader header;
  NetMeta meta;
  std::vector<SocketImage> sockets;
  std::vector<ProcessImage> processes;
  /// Kernel-bypass (GM) device state, if the pod had one (paper §5
  /// extension: "extract the state kept by the device driver").
  bool has_gm_device = false;
  Bytes gm_state;
  /// Data redirected from peers' send queues (migration optimization):
  /// appended to the given socket's restored receive queue.
  std::map<net::SockId, Bytes> redirected_recv;

  /// Exact size of encode_image(*this), planned without encoding it.
  std::size_t total_bytes() const;
  std::size_t network_bytes() const;  // socket + meta records only
};

// ---- Encoding / decoding ----------------------------------------------------

/// Serializes a PodImage into the record stream format.  Respects
/// `image.header.codec_flags`: with kCodecZeroElide all-zero regions are
/// written as MEM_REGION_ZERO (size only), with kCodecDedup a region
/// byte-identical to an earlier one in the same image is written as a
/// MEM_REGION_REF back-reference.  With all flags clear every region is a
/// MEM_REGION record; a zero view's body is written as zeros, not read.
///
/// The encode plans every record first, then writes them all into one
/// buffer of the exact encoded size: `storage`'s memory when its capacity
/// fits — at least that size and at most twice it — so a checkpoint that
/// overwrites a SAN path writes into the resident buffer the path's
/// previous commit displaced (VirtualSAN::take_spare).  Otherwise
/// `storage` is freed and one exact buffer allocated, whose capacity()
/// equals the result's size().  The bytes never depend on `storage`.
Bytes encode_image(const PodImage& image, Bytes storage = {});

/// Parses a record stream back into a PodImage.  Strict: Err::PROTO on
/// corruption, a record of another format version or an unknown tag, a
/// payload its field list does not consume exactly, bytes after the
/// terminator, or a zero region whose size exceeds kMaxRegionBytes or
/// differs from its process manifest's.  decode(encode(x)) is
/// codec-independent in content; in sharing, a ref region shares its
/// source's buffer and a zero region (elided, or a raw record that is all
/// zero) is a zero view (RegionBuf::zeros) that holds no memory.  Each
/// record is read once: the CRC pass also finds its trailing zero run
/// (RecordView::zero_tail).
Result<PodImage> decode_image(const Bytes& data);

/// Overlays `delta` (a kCodecDelta image) onto `base` (the already fully
/// composed predecessor).  All non-region state comes from the delta;
/// region bytes come from the delta where included and from the base for
/// regions the delta's manifest lists as clean.  The result is a full
/// image (delta flag cleared).  Err::PROTO if the delta references a
/// region or process the base does not have.
Result<PodImage> compose_delta(PodImage base, const PodImage& delta);

}  // namespace zapc::ckpt
