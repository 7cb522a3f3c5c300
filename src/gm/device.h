// GM-style kernel-bypass messaging device (the paper's §5 extension).
//
// "Some high performance clusters employ MPI implementations based on
// specialized high-speed networks where it is typical for the
// applications to bypass the operating system kernel and directly access
// the actual device using a dedicated communication library.  Myrinet
// combined with the GM library is one such example.  The ZapC approach
// can be extended to work in such environments if two key requirements
// are met.  First, the library must be decoupled from the device driver
// instance, by virtualizing the relevant interface ...  Second, there
// must be some method to extract the state kept by the device driver, as
// well as reinstate this state on another such device driver."
//
// This module implements both requirements on the simulated cluster:
//
//  * GmDevice is a per-pod "NIC" with numbered ports, reliable in-order
//    delivery (per-sender sequence numbers, device-level ACKs,
//    retransmission) and its own protocol number on the wire — packets
//    never touch the socket stack, mirroring OS-bypass.
//  * Guest programs reach the device only through the pod's virtualized
//    interface (PodSyscalls::gm_*), the analogue of interposing on the
//    library's ioctl/mmap channel; like real GM applications they poll
//    for completion rather than blocking in the kernel.
//  * extract_state()/reinstate() serialize the complete device state —
//    port bindings, receive queues, unacknowledged sends, per-peer
//    sequence expectations — so the network-state checkpoint can carry
//    it to another device instance on another node.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "net/addr.h"
#include "net/packet.h"
#include "sim/engine.h"
#include "util/serialize.h"
#include "util/status.h"

namespace zapc::gm {

/// IP protocol number carrying GM traffic on the overlay.
constexpr u8 kGmProto = 71;

/// One delivered message as seen by a port's receive queue.
struct GmMessage {
  net::SockAddr from;  // sender vip + port
  Bytes data;
};
template <class F>
void io(F& f, GmMessage& m) {
  f(m.from, m.data);
}

// Packets on the wire.  A DATA packet carries one message and its
// per-sender sequence number; an ACK acknowledges every sequence number
// up to and including `seq`.
enum class GmWireType : u8 { DATA = 1, ACK = 2 };
struct GmData {
  u32 seq = 0;
  Bytes data;
};
template <class F>
void io(F& f, GmData& m) {
  f(Fixed<GmWireType>{GmWireType::DATA}, m.seq, m.data);
}
struct GmAck {
  u32 seq = 0;
};
template <class F>
void io(F& f, GmAck& m) {
  f(Fixed<GmWireType>{GmWireType::ACK}, m.seq);
}

class GmDevice {
 public:
  static constexpr int kMaxPorts = 8;
  static constexpr std::size_t kMaxMessage = 16 * 1024;
  static constexpr std::size_t kRecvQueueLimit = 256;

  /// `vip` is the owning pod's virtual address; `output` injects packets
  /// into the pod's egress path (filter + location routing).
  GmDevice(sim::Engine& engine, net::IpAddr vip,
           std::function<void(net::Packet)> output);
  ~GmDevice();

  GmDevice(const GmDevice&) = delete;
  GmDevice& operator=(const GmDevice&) = delete;

  // ---- Virtualized library interface (reached via PodSyscalls) ---------
  Status open_port(int port);
  Status close_port(int port);
  /// Queues a message for reliable delivery; Err::NO_BUFS when too many
  /// sends are outstanding, Err::MSG_SIZE above kMaxMessage.
  Status send(int port, net::SockAddr dst, const Bytes& data);
  /// Polls the port's receive queue (GM applications spin on this).
  std::optional<GmMessage> recv(int port);
  /// True when every queued send has been acknowledged.
  bool sends_drained(int port) const;

  // ---- Device/driver interface ------------------------------------------
  /// Ingress from the node router (packets with raw_proto == kGmProto).
  void handle_packet(const net::Packet& p);

  /// Serializes the complete driver state (paper requirement 2).
  Bytes extract_state() const;
  /// Reinstates state extracted from another device instance; Err::PROTO
  /// (and the device unchanged) unless `state` decodes exactly.
  Status reinstate(const Bytes& state);

  /// Stats for tests/benches.
  u64 retransmissions() const { return retransmissions_; }
  std::size_t unacked_total() const;

 private:
  struct PeerKey {
    int port;              // local port
    net::SockAddr remote;  // peer vip + port
    bool operator<(const PeerKey& o) const {
      if (port != o.port) return port < o.port;
      if (remote.ip != o.remote.ip) return remote.ip < o.remote.ip;
      return remote.port < o.remote.port;
    }
    template <class F>
    friend void io(F& f, PeerKey& k) {
      f(k.port, k.remote);
    }
  };
  struct Unacked {
    u32 seq;
    Bytes data;
    template <class F>
    friend void io(F& f, Unacked& u) {
      f(u.seq, u.data);
    }
  };
  struct Port {
    bool open = false;
    std::deque<GmMessage> recv_q;
    template <class F>
    friend void io(F& f, Port& p) {
      f(p.open, p.recv_q);
    }
  };
  /// The driver state extract_state() and reinstate() carry.
  struct State {
    std::map<int, Port> ports;
    std::map<PeerKey, u32> next_seq;      // sender side
    std::map<PeerKey, u32> expected_seq;  // receiver side
    std::map<PeerKey, std::deque<Unacked>> unacked;
    template <class F>
    friend void io(F& f, State& s) {
      f(s.ports, s.next_seq, s.expected_seq, s.unacked);
    }
  };

  void transmit(int port, net::SockAddr dst, u32 seq, const Bytes& data);
  void send_ack(int port, net::SockAddr dst, u32 seq);
  void arm_timer();
  void on_timer();

  sim::Engine& engine_;
  net::IpAddr vip_;
  std::function<void(net::Packet)> output_;

  State st_;

  sim::EventId timer_ = 0;
  u64 retransmissions_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace zapc::gm
