// Network-state checkpoint-restart (paper §5) — the heart of ZapC's
// transport-protocol-independent network support.
//
// Checkpoint (per socket, pod suspended + network blocked):
//   * socket parameters via the standard getsockopt interface;
//   * the receive queue via the standard read (recvmsg) interface — a
//     destructive read immediately re-injected through the socket's
//     alternate receive queue, so the checkpoint has no side effects;
//     out-of-band (urgent) data is captured the same way with MSG_OOB;
//   * the send queue via the in-kernel socket-buffer interface
//     (non-destructive);
//   * the minimal protocol-specific state: the PCB sequence triple
//     {sent, acked, recv}.  Out-of-order ("backlog") data is deliberately
//     NOT saved: it is still unacknowledged in the peer's send queue and
//     is recovered by the peer's resend.
//
// Restore (fresh connection already re-established by connect/accept):
//   * setsockopt round-trip of the saved parameters;
//   * alternate-receive-queue injection of the saved receive queue;
//   * plain write() of the saved send queue minus the overlap the
//     Manager computed (discard = peer.recv − self.acked);
//   * shutdown() calls to re-impose half-duplex/closed state.
#pragma once

#include <vector>

#include "ckpt/image.h"
#include "obs/event.h"
#include "pod/pod.h"

namespace zapc::core {

class NetCheckpoint {
 public:
  /// Captures the state of every socket in the pod and builds the
  /// connection meta-data table.  The pod must be suspended and its
  /// network blocked.  Non-destructive: drained receive queues are
  /// re-injected via the alternate queue before returning.  `tag`
  /// (optional) records a per-connection "net.sock.saved" event carrying
  /// the PCB triple for the causal trace.
  static Status save(pod::Pod& pod, ckpt::NetMeta& meta_out,
                     std::vector<ckpt::SocketImage>& sockets_out,
                     const obs::ObsTag& tag = {});

  /// Restores one socket's state onto `sock` (already created and, for
  /// established TCP, already re-connected).  `discard_send` is the
  /// Manager-computed overlap to drop from the send queue head.
  /// `extra_recv` is redirected peer send-queue data to append to the
  /// alternate queue (migration optimization), already overlap-trimmed.
  /// `tag` records a "net.sock.restored" event with the saved recv/acked
  /// sequence numbers, which is what lets the offline analyzer check the
  /// paper's recv₁ ≥ acked₂ invariant across restored connection pairs.
  static Status restore_socket(pod::Pod& pod, net::SockId sock,
                               const ckpt::SocketImage& image,
                               u32 discard_send, const Bytes& extra_recv,
                               const obs::ObsTag& tag = {});

  /// Classifies a live socket for the meta-data table.
  static ckpt::ConnState classify(const net::Socket& sock);
};

}  // namespace zapc::core
