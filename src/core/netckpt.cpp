#include "core/netckpt.h"

#include <deque>

#include "net/raw.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "util/log.h"

namespace zapc::core {
namespace {

/// Reads all socket parameters through the standard getsockopt interface
/// (paper §5: "we build on this interface to save the socket parameters
/// during checkpoint and restore it during restart").
void save_params(net::Stack& stack, net::SockId sid,
                 std::array<i64, net::kNumSockOpts>& out) {
  for (std::size_t i = 0; i < net::kNumSockOpts; ++i) {
    auto v = stack.sys_getsockopt(sid, static_cast<net::SockOpt>(i));
    out[i] = v.value_or(0);
  }
}

/// Drains the receive queue through the standard recvmsg interface and
/// immediately re-injects it via the alternate receive queue, leaving the
/// application's view unchanged.  Returns the drained items.
std::vector<ckpt::SavedRecvItem> drain_and_reinject(net::Stack& stack,
                                                    net::SockId sid) {
  std::vector<ckpt::SavedRecvItem> saved;
  std::deque<net::RecvItem> reinject;
  const bool stream = stack.find(sid)->proto() == net::Proto::TCP;

  while (true) {
    auto r = stack.sys_recv(sid, 256 * 1024, 0);
    if (!r.is_ok() || r.value().eof || r.value().data.empty()) break;
    ckpt::SavedRecvItem item;
    item.data = r.value().data;
    item.from = r.value().from;
    item.oob = false;
    saved.push_back(item);
    reinject.push_back(net::RecvItem{item.data, item.from, false});
    if (stream && reinject.size() > 100000) break;  // defensive bound
  }

  // Urgent (out-of-band) data — exactly what a naive peek-based approach
  // misses (paper §2 on Cruz).  Captured destructively and re-injected
  // into the PCB side-channel.
  if (stream) {
    net::TcpSocket* t = stack.find_tcp(sid);
    if (t != nullptr && t->has_urgent()) {
      auto oob = stack.sys_recv(sid, 1, net::MSG_OOB);
      if (oob.is_ok() && !oob.value().data.empty()) {
        ckpt::SavedRecvItem item;
        item.data = oob.value().data;
        item.from = oob.value().from;
        item.oob = true;
        saved.push_back(item);
        t->set_urgent_data(item.data[0]);  // re-inject
      }
    }
  }

  if (!reinject.empty()) {
    stack.find(sid)->install_alt_queue(std::move(reinject));
  }
  return saved;
}

}  // namespace

ckpt::ConnState NetCheckpoint::classify(const net::Socket& sock) {
  if (sock.proto() != net::Proto::TCP) return ckpt::ConnState::FULL_DUPLEX;
  const auto& t = static_cast<const net::TcpSocket&>(sock);
  switch (t.state()) {
    case net::TcpState::LISTEN:
      return ckpt::ConnState::LISTENER;
    case net::TcpState::SYN_SENT:
    case net::TcpState::SYN_RCVD:
      return ckpt::ConnState::CONNECTING;
    default:
      break;
  }
  bool local_closed = t.fin_queued();
  bool remote_closed = t.peer_fin();
  if (local_closed && remote_closed) return ckpt::ConnState::CLOSED;
  if (local_closed || remote_closed) return ckpt::ConnState::HALF_DUPLEX;
  return ckpt::ConnState::FULL_DUPLEX;
}

Status NetCheckpoint::save(pod::Pod& pod, ckpt::NetMeta& meta_out,
                           std::vector<ckpt::SocketImage>& sockets_out,
                           const obs::ObsTag& tag) {
  net::Stack& stack = pod.stack();
  meta_out.pod_vip = pod.vip();

  for (net::SockId sid : stack.all_socket_ids()) {
    net::Socket* sock = stack.find(sid);
    if (sock == nullptr) continue;

    ckpt::SocketImage img;
    img.old_id = sid;
    img.proto = sock->proto();
    save_params(stack, sid, img.params);
    img.local = sock->local();
    img.remote = sock->remote();
    img.bound = sock->bound();
    img.owns_port = sock->owns_port();
    img.shut_rd = sock->shut_rd();

    switch (sock->proto()) {
      case net::Proto::TCP: {
        net::TcpSocket& t = *stack.find_tcp(sid);
        if (t.state() == net::TcpState::SYN_RCVD) {
          // Embryonic child of a listener: not visible to the application
          // yet; the peer's re-initiated connect recreates it at restart.
          continue;
        }
        ckpt::ConnState cs = classify(t);
        img.listener = t.is_listener();
        img.backlog = t.backlog();
        img.connecting = cs == ckpt::ConnState::CONNECTING;
        img.connected = !img.listener && !img.connecting &&
                        cs != ckpt::ConnState::CLOSED &&
                        t.state() != net::TcpState::CLOSED;
        img.shut_wr = t.fin_queued();
        img.peer_closed = t.peer_fin();
        img.pcb_sent = t.pcb_sent();
        img.pcb_acked = t.pcb_acked();
        img.pcb_recv = t.pcb_recv();
        img.send_queue = t.send_queue_contents();  // in-kernel interface
        img.recv_queue = drain_and_reinject(stack, sid);

        // Only endpoints that need cross-node coordination enter the
        // meta-data table (plain unconnected sockets restore locally).
        if (img.listener || img.connecting || img.connected) {
          ckpt::NetMetaEntry entry;
          entry.sock = sid;
          entry.proto = net::Proto::TCP;
          entry.source = img.local;
          entry.target = img.remote;
          entry.state = cs;
          entry.pcb_sent = img.pcb_sent;
          entry.pcb_acked = img.pcb_acked;
          entry.pcb_recv = img.pcb_recv;
          meta_out.entries.push_back(entry);
          if (img.connected) {
            tag.event(obs::ev::Text(obs::ev::kSockSaved)
                          .kv(obs::ev::kLocal, img.local.to_string())
                          .kv(obs::ev::kRemote, img.remote.to_string())
                          .kv("sent", img.pcb_sent)
                          .kv(obs::ev::kAcked, img.pcb_acked)
                          .kv(obs::ev::kRecv, img.pcb_recv));
          }
        }
        break;
      }
      case net::Proto::UDP: {
        net::UdpSocket& u = *stack.find_udp(sid);
        img.connected = u.connected();
        // Always save the queues, even for unreliable protocols
        // (paper §5: avoids artificial loss and preserves peeked data).
        img.recv_queue = drain_and_reinject(stack, sid);
        break;
      }
      case net::Proto::RAW: {
        net::RawSocket& r = *stack.find_raw(sid);
        img.raw_proto = r.raw_proto();
        img.recv_queue = drain_and_reinject(stack, sid);
        break;
      }
    }
    sockets_out.push_back(std::move(img));
  }
  return Status::ok();
}

Status NetCheckpoint::restore_socket(pod::Pod& pod, net::SockId sock,
                                     const ckpt::SocketImage& image,
                                     u32 discard_send,
                                     const Bytes& extra_recv,
                                     const obs::ObsTag& tag) {
  net::Stack& stack = pod.stack();
  if (stack.find(sock) == nullptr) return Status(Err::BAD_FD);

  if (image.proto == net::Proto::TCP && image.connected) {
    tag.event(obs::ev::Text(obs::ev::kSockRestored)
                  .kv(obs::ev::kLocal, image.local.to_string())
                  .kv(obs::ev::kRemote, image.remote.to_string())
                  .kv(obs::ev::kRecv, image.pcb_recv)
                  .kv(obs::ev::kAcked, image.pcb_acked)
                  .kv("discard", discard_send));
    // The recovered send queue is resent through the ordinary data path;
    // tag the first retransmission so the causal tree reaches the wire.
    if (net::TcpSocket* t = stack.find_tcp(sock)) {
      t->tag_next_retransmit(tag);
    }
  }

  // Socket parameters through the standard setsockopt interface.
  for (std::size_t i = 0; i < net::kNumSockOpts; ++i) {
    Status st = stack.sys_setsockopt(sock, static_cast<net::SockOpt>(i),
                                     image.params[i]);
    if (!st) return st;
  }

  // Receive queue via the alternate queue; redirected peer data follows
  // the socket's own restored data (paper §5: "concatenated to the
  // alternate receive queue ... only after the latter has been restored").
  std::deque<net::RecvItem> items;
  std::optional<u8> urgent;
  for (const auto& si : image.recv_queue) {
    if (si.oob) {
      if (!si.data.empty()) urgent = si.data[0];
    } else {
      items.push_back(net::RecvItem{si.data, si.from, false});
    }
  }
  if (!extra_recv.empty()) {
    items.push_back(net::RecvItem{extra_recv, image.remote, false});
  }
  if (!items.empty()) stack.find(sock)->install_alt_queue(std::move(items));
  if (urgent && image.proto == net::Proto::TCP) {
    stack.find_tcp(sock)->set_urgent_data(*urgent);
  }

  // Send queue: discard the overlap, then plain write — "the underlying
  // network layer will take care of delivering the data safely".
  if (image.proto == net::Proto::TCP && image.connected &&
      !image.send_queue.empty() && !image.send_queue_redirected) {
    std::size_t skip =
        std::min<std::size_t>(discard_send, image.send_queue.size());
    if (skip < image.send_queue.size()) {
      Bytes rest(image.send_queue.begin() + static_cast<long>(skip),
                 image.send_queue.end());
      auto w = stack.sys_send(sock, rest, 0);
      if (!w.is_ok()) {
        return Status(w.err(), "send-queue restore failed");
      }
      if (w.value() != rest.size()) {
        return Status(Err::NO_BUFS, "send-queue restore truncated");
      }
    }
  }

  // Half-duplex / closed connections: re-impose shutdown state last
  // (paper §4: "a closed connection would have the shutdown system call
  // executed after the rest of its state has been recovered").
  if (image.proto == net::Proto::TCP && image.connected) {
    if (image.shut_wr) {
      Status st = stack.sys_shutdown(sock, net::ShutdownHow::WR);
      if (!st) return st;
    }
  }
  if (image.shut_rd) {
    (void)stack.sys_shutdown(sock, net::ShutdownHow::RD);
  }
  // Fully closed connections are restored without a live peer: mark the
  // stream ended so reads return EOF once the restored data drains.
  if (image.proto == net::Proto::TCP && !image.connected &&
      !image.listener && !image.connecting &&
      (image.peer_closed || image.shut_wr)) {
    stack.find(sock)->force_shutdown(image.peer_closed, image.shut_wr);
  }
  return Status::ok();
}

}  // namespace zapc::core
