#include "gm/device.h"

#include "util/log.h"

namespace zapc::gm {
namespace {

constexpr sim::Time kRetransmitPeriod = 20 * sim::kMillisecond;
constexpr std::size_t kMaxUnackedPerPeer = 64;

}  // namespace

GmDevice::GmDevice(sim::Engine& engine, net::IpAddr vip,
                   std::function<void(net::Packet)> output)
    : engine_(engine), vip_(vip), output_(std::move(output)) {}

GmDevice::~GmDevice() {
  *alive_ = false;
  if (timer_ != 0) engine_.cancel(timer_);
}

// ---- Library interface -----------------------------------------------------------

Status GmDevice::open_port(int port) {
  if (port < 0 || port >= kMaxPorts) return Status(Err::INVALID, "bad port");
  Port& p = st_.ports[port];
  if (p.open) return Status(Err::ADDR_IN_USE, "port open");
  p.open = true;
  return Status::ok();
}

Status GmDevice::close_port(int port) {
  auto it = st_.ports.find(port);
  if (it == st_.ports.end() || !it->second.open) return Status(Err::BAD_FD);
  st_.ports.erase(it);
  return Status::ok();
}

Status GmDevice::send(int port, net::SockAddr dst, const Bytes& data) {
  auto it = st_.ports.find(port);
  if (it == st_.ports.end() || !it->second.open) return Status(Err::BAD_FD);
  if (data.size() > kMaxMessage) return Status(Err::MSG_SIZE);

  PeerKey key{port, dst};
  auto& pending = st_.unacked[key];
  if (pending.size() >= kMaxUnackedPerPeer) {
    return Status(Err::NO_BUFS, "send window full");
  }
  u32 seq = st_.next_seq[key]++;
  pending.push_back(Unacked{seq, data});
  transmit(port, dst, seq, data);
  arm_timer();
  return Status::ok();
}

std::optional<GmMessage> GmDevice::recv(int port) {
  auto it = st_.ports.find(port);
  if (it == st_.ports.end() || !it->second.open) return std::nullopt;
  if (it->second.recv_q.empty()) return std::nullopt;
  GmMessage m = std::move(it->second.recv_q.front());
  it->second.recv_q.pop_front();
  return m;
}

bool GmDevice::sends_drained(int port) const {
  for (const auto& [key, q] : st_.unacked) {
    if (key.port == port && !q.empty()) return false;
  }
  return true;
}

std::size_t GmDevice::unacked_total() const {
  std::size_t n = 0;
  for (const auto& [key, q] : st_.unacked) n += q.size();
  return n;
}

// ---- Wire ------------------------------------------------------------------------

void GmDevice::transmit(int port, net::SockAddr dst, u32 seq,
                        const Bytes& data) {
  net::Packet p;
  p.proto = net::Proto::RAW;
  p.raw_proto = kGmProto;
  p.src = net::SockAddr{vip_, static_cast<u16>(port)};
  p.dst = dst;
  p.payload = encode_fields(GmData{seq, data});
  output_(std::move(p));
}

void GmDevice::send_ack(int port, net::SockAddr dst, u32 seq) {
  net::Packet p;
  p.proto = net::Proto::RAW;
  p.raw_proto = kGmProto;
  p.src = net::SockAddr{vip_, static_cast<u16>(port)};
  p.dst = dst;
  p.payload = encode_fields(GmAck{seq});
  output_(std::move(p));
}

void GmDevice::handle_packet(const net::Packet& p) {
  int local_port = p.dst.port;
  net::SockAddr remote = p.src;

  if (GmAck ack; decode_fields(p.payload, ack)) {
    const u32 seq = ack.seq;
    PeerKey key{local_port, remote};
    auto it = st_.unacked.find(key);
    if (it == st_.unacked.end()) return;
    while (!it->second.empty() &&
           static_cast<i32>(seq - it->second.front().seq) >= 0) {
      it->second.pop_front();  // cumulative ACK
    }
    return;
  }

  // DATA: accept in order, drop duplicates/out-of-order (the sender
  // retransmits in order, so in-order eventually arrives).  A malformed
  // packet is dropped.
  GmData msg;
  if (!decode_fields(p.payload, msg)) return;
  const u32 seq = msg.seq;
  auto pit = st_.ports.find(local_port);
  if (pit == st_.ports.end() || !pit->second.open) return;
  PeerKey key{local_port, remote};
  u32& expected = st_.expected_seq[key];
  if (seq != expected) {
    // Duplicate (already delivered): re-ACK so the sender stops.
    if (static_cast<i32>(seq - expected) < 0) {
      send_ack(local_port, remote, expected - 1);
    }
    return;
  }
  if (pit->second.recv_q.size() >= kRecvQueueLimit) return;  // back off
  pit->second.recv_q.push_back(GmMessage{remote, std::move(msg.data)});
  expected = seq + 1;
  send_ack(local_port, remote, seq);
}

void GmDevice::arm_timer() {
  if (timer_ != 0) return;
  timer_ = engine_.schedule(kRetransmitPeriod,
                            [alive = std::weak_ptr<bool>(alive_), this] {
                              if (auto a = alive.lock(); a && *a) {
                                timer_ = 0;
                                on_timer();
                              }
                            });
}

void GmDevice::on_timer() {
  bool outstanding = false;
  for (auto& [key, q] : st_.unacked) {
    for (const Unacked& u : q) {
      transmit(key.port, key.remote, u.seq, u.data);
      ++retransmissions_;
      outstanding = true;
    }
  }
  if (outstanding) arm_timer();
}

// ---- Checkpoint -------------------------------------------------------------------

Bytes GmDevice::extract_state() const { return encode_fields(st_); }

Status GmDevice::reinstate(const Bytes& state) {
  State st;
  if (Status s = decode_fields(state, st); !s) return s;
  st_ = std::move(st);
  // Unacknowledged messages resume retransmitting on the new device.
  if (unacked_total() > 0) arm_timer();
  return Status::ok();
}

}  // namespace zapc::gm
