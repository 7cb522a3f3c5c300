#include "net/tcp.h"

#include <algorithm>

#include "net/stack.h"
#include "obs/stats.h"
#include "util/log.h"

namespace zapc::net {
namespace {

constexpr sim::Time kInitialRto = 200 * sim::kMillisecond;
constexpr sim::Time kMaxRto = 3 * sim::kSecond;
constexpr int kMaxRetries = 12;
constexpr sim::Time kTimeWait = 20 * sim::kMillisecond;

}  // namespace

const char* tcp_state_name(TcpState s) {
  switch (s) {
    case TcpState::CLOSED: return "CLOSED";
    case TcpState::LISTEN: return "LISTEN";
    case TcpState::SYN_SENT: return "SYN_SENT";
    case TcpState::SYN_RCVD: return "SYN_RCVD";
    case TcpState::ESTABLISHED: return "ESTABLISHED";
    case TcpState::FIN_WAIT_1: return "FIN_WAIT_1";
    case TcpState::FIN_WAIT_2: return "FIN_WAIT_2";
    case TcpState::CLOSE_WAIT: return "CLOSE_WAIT";
    case TcpState::CLOSING: return "CLOSING";
    case TcpState::LAST_ACK: return "LAST_ACK";
    case TcpState::TIME_WAIT: return "TIME_WAIT";
  }
  return "?";
}

TcpSocket::TcpSocket(Stack& stack, SockId id)
    : Socket(stack, id, Proto::TCP), rto_(kInitialRto) {}

TcpSocket::~TcpSocket() { cancel_rtx_timer(); }

void TcpSocket::enter_state(TcpState s) {
  if (state_ == s) return;
  ZLOG_DEBUG("tcp " << stack().name() << "/" << id() << " "
                    << tcp_state_name(state_) << " -> " << tcp_state_name(s));
  state_ = s;
}

u32 TcpSocket::recv_window() const {
  i64 rcvbuf = opts().get(SockOpt::SO_RCVBUF);
  i64 used = static_cast<i64>(recv_buf_.size());
  return used >= rcvbuf ? 0 : static_cast<u32>(rcvbuf - used);
}

// ---- Output path ----------------------------------------------------------

void TcpSocket::send_segment(u32 seq, Bytes payload, u8 flags, u32 urg_ptr) {
  Packet p;
  p.proto = Proto::TCP;
  p.src = local();
  p.dst = remote();
  p.seq = seq;
  p.flags = flags;
  if (flags & kAck) p.ack = rcv_nxt_;
  p.wnd = recv_window();
  p.urg_ptr = urg_ptr;
  p.payload = std::move(payload);
  stack().output(std::move(p));
}

void TcpSocket::send_ack() { send_segment(snd_nxt_, {}, kAck, 0); }

void TcpSocket::send_rst(const Packet& cause) {
  Packet p;
  p.proto = Proto::TCP;
  p.src = cause.dst;
  p.dst = cause.src;
  p.flags = kRst | kAck;
  p.seq = cause.has(kAck) ? cause.ack : 0;
  p.ack = cause.seq + static_cast<u32>(cause.payload.size()) +
          (cause.has(kSyn) ? 1 : 0) + (cause.has(kFin) ? 1 : 0);
  stack().output(std::move(p));
}

void TcpSocket::try_output() {
  switch (state_) {
    case TcpState::ESTABLISHED:
    case TcpState::CLOSE_WAIT:
    case TcpState::FIN_WAIT_1:
    case TcpState::CLOSING:
    case TcpState::LAST_ACK:
      break;
    default:
      return;
  }

  const auto mss =
      static_cast<std::size_t>(opts().get(SockOpt::TCP_MAXSEG));
  while (unsent_bytes() > 0) {
    u32 in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= snd_wnd_) break;  // window full (or zero window)
    std::size_t can = std::min(
        {unsent_bytes(), static_cast<std::size_t>(snd_wnd_ - in_flight),
         mss});
    Bytes payload(send_buf_.begin() + in_flight,
                  send_buf_.begin() + in_flight + can);
    u8 flags = kAck;
    u32 urg_ptr = 0;
    if (urg_seq_snd_ && seq_ge(*urg_seq_snd_, snd_nxt_) &&
        seq_lt(*urg_seq_snd_, snd_nxt_ + static_cast<u32>(can))) {
      flags |= kUrg;
      urg_ptr = *urg_seq_snd_;
    }
    send_segment(snd_nxt_, std::move(payload), flags, urg_ptr);
    snd_nxt_ += static_cast<u32>(can);
  }

  if (fin_queued_ && !fin_sent_ && unsent_bytes() == 0) {
    fin_seq_snd_ = snd_nxt_;
    send_segment(snd_nxt_, {}, static_cast<u8>(kFin | kAck), 0);
    snd_nxt_ += 1;
    fin_sent_ = true;
    if (state_ == TcpState::ESTABLISHED) enter_state(TcpState::FIN_WAIT_1);
    else if (state_ == TcpState::CLOSE_WAIT) enter_state(TcpState::LAST_ACK);
  }

  // Anything outstanding (data, FIN, or data stuck behind a zero window)
  // needs a timer: retransmission or zero-window probing.
  if (snd_una_ != snd_nxt_ || (unsent_bytes() > 0 && snd_wnd_ == 0)) {
    arm_rtx_timer();
  }
}

void TcpSocket::arm_rtx_timer() {
  if (rtx_timer_ != 0) return;  // already armed
  rtx_timer_ = stack().engine().schedule(rto_, [this] {
    rtx_timer_ = 0;
    on_rtx_timeout();
  });
}

void TcpSocket::cancel_rtx_timer() {
  if (rtx_timer_ != 0) {
    stack().engine().cancel(rtx_timer_);
    rtx_timer_ = 0;
  }
}

void TcpSocket::on_rtx_timeout() {
  // Zero-window probing persists indefinitely (like the TCP persist
  // timer); only genuine retransmissions count against the retry budget.
  const bool probing = snd_una_ == snd_nxt_ && unsent_bytes() > 0 &&
                       snd_wnd_ == 0 && state_ != TcpState::SYN_SENT &&
                       state_ != TcpState::SYN_RCVD;
  if (probing) {
    obs::stats::net_tcp_zero_window_probes().inc();
  } else {
    obs::stats::net_tcp_retransmits().inc();
    if (rtx_event_armed_) {
      rtx_event_armed_ = false;
      obs_tag_.event(obs::ev::Text(obs::ev::kFirstRtx)
                         .kv(obs::ev::kLocal, local().to_string())
                         .kv(obs::ev::kRemote, remote().to_string()));
    }
  }
  if (!probing && ++rtx_count_ > kMaxRetries) {
    fail_connection(Err::TIMED_OUT);
    return;
  }
  rto_ = std::min(rto_ * 2, kMaxRto);

  switch (state_) {
    case TcpState::SYN_SENT:
      send_segment(iss_, {}, kSyn, 0);
      break;
    case TcpState::SYN_RCVD:
      send_segment(iss_, {}, static_cast<u8>(kSyn | kAck), 0);
      break;
    default: {
      if (snd_una_ != snd_nxt_) {
        // Retransmit from the left edge of the window.
        const auto mss =
            static_cast<std::size_t>(opts().get(SockOpt::TCP_MAXSEG));
        std::size_t data_len = std::min(send_buf_.size(), mss);
        // Never retransmit past what was originally sent.
        data_len = std::min(
            data_len, static_cast<std::size_t>(snd_nxt_ - snd_una_));
        if (data_len > 0) {
          Bytes payload(send_buf_.begin(), send_buf_.begin() + data_len);
          u8 flags = kAck;
          u32 urg_ptr = 0;
          if (urg_seq_snd_ && seq_ge(*urg_seq_snd_, snd_una_) &&
              seq_lt(*urg_seq_snd_, snd_una_ + static_cast<u32>(data_len))) {
            flags |= kUrg;
            urg_ptr = *urg_seq_snd_;
          }
          send_segment(snd_una_, std::move(payload), flags, urg_ptr);
          // Go-back-N (classic RFC 6298 timeout behavior): a timeout
          // means the left edge — and in practice everything after it,
          // e.g. a whole window dropped by a checkpoint freeze — was
          // lost.  Pull snd_nxt_ back so the rest of the outstanding
          // window is resent in order, ACK-clocked, instead of leaking
          // out one left-edge segment per timeout.
          if (!fin_sent_) {
            snd_nxt_ = snd_una_ + static_cast<u32>(data_len);
          }
        } else if (fin_sent_ && !fin_acked_) {
          send_segment(*fin_seq_snd_, {}, static_cast<u8>(kFin | kAck), 0);
        }
      } else if (unsent_bytes() > 0 && snd_wnd_ == 0) {
        // Zero-window probe: one byte beyond the window.  snd_nxt_ does
        // not advance — the byte is not considered sent until the window
        // opens (persist-timer semantics).
        send_segment(snd_nxt_, Bytes{send_buf_[snd_nxt_ - snd_una_]}, kAck, 0);
      }
      break;
    }
  }
  arm_rtx_timer();
}

// ---- Input path ------------------------------------------------------------

void TcpSocket::handle_packet(const Packet& p) {
  switch (state_) {
    case TcpState::CLOSED:
      if (!p.has(kRst)) send_rst(p);
      return;
    case TcpState::LISTEN:
      handle_listen(p);
      return;
    case TcpState::SYN_SENT:
      handle_syn_sent(p);
      return;
    case TcpState::TIME_WAIT:
      if (p.has(kFin)) send_ack();  // retransmitted FIN from peer
      return;
    default:
      break;
  }

  if (p.has(kRst)) {
    fail_connection(state_ == TcpState::SYN_RCVD ? Err::CONN_REFUSED
                                                 : Err::CONN_RESET);
    return;
  }

  if (p.has(kSyn) && state_ != TcpState::SYN_RCVD) {
    // Retransmitted SYN-ACK: our final handshake ACK was lost; re-ACK so
    // the peer's embryonic connection completes.
    send_ack();
    return;
  }

  if (state_ == TcpState::SYN_RCVD) {
    if (p.has(kSyn) && !p.has(kAck)) {
      send_segment(iss_, {}, static_cast<u8>(kSyn | kAck), 0);  // dup SYN
      return;
    }
    if (p.has(kAck) && seq_ge(p.ack, snd_nxt_)) {
      enter_state(TcpState::ESTABLISHED);
      snd_una_ = p.ack;
      snd_wnd_ = p.wnd;
      cancel_rtx_timer();
      rto_ = kInitialRto;
      rtx_count_ = 0;
      if (parent_listener_ != kInvalidSock) {
        TcpSocket* parent = stack().find_tcp(parent_listener_);
        if (parent != nullptr && parent->is_listener()) {
          parent->accept_q_.push_back(id());
          --parent->embryonic_;
          parent->notify();
        } else {
          // Listener vanished; nobody will ever accept us.
          fail_connection(Err::CONN_RESET);
          return;
        }
      }
      notify();
      // Fall through: the handshake ACK may carry data.
    } else {
      return;
    }
  }

  process_established(p);
}

void TcpSocket::handle_listen(const Packet& p) {
  if (p.has(kRst)) return;
  if (!p.has(kSyn) || p.has(kAck)) {
    send_rst(p);  // stray segment to a listener
    return;
  }
  if (static_cast<int>(accept_q_.size()) + embryonic_ >= backlog_max_) {
    ZLOG_DEBUG("tcp listener " << local().to_string() << ": backlog full");
    return;  // silently drop; client will retransmit SYN
  }
  TcpSocket& child = stack().create_tcp_child(*this, p.src);
  ++embryonic_;
  child.irs_ = p.seq;
  child.rcv_nxt_ = p.seq + 1;
  child.snd_wnd_ = p.wnd;
  child.iss_ = stack().rng().next_u32();
  child.snd_una_ = child.iss_;
  child.snd_nxt_ = child.iss_ + 1;  // SYN consumes one sequence number
  child.enter_state(TcpState::SYN_RCVD);
  child.send_segment(child.iss_, {}, static_cast<u8>(kSyn | kAck), 0);
  child.arm_rtx_timer();
}

void TcpSocket::handle_syn_sent(const Packet& p) {
  if (p.has(kRst)) {
    if (p.has(kAck) && p.ack == snd_nxt_) fail_connection(Err::CONN_REFUSED);
    return;
  }
  if (p.has(kSyn) && p.has(kAck)) {
    if (p.ack != snd_nxt_) {
      send_rst(p);
      return;
    }
    irs_ = p.seq;
    rcv_nxt_ = p.seq + 1;
    snd_una_ = p.ack;
    snd_wnd_ = p.wnd;
    cancel_rtx_timer();
    rto_ = kInitialRto;
    rtx_count_ = 0;
    enter_state(TcpState::ESTABLISHED);
    send_ack();
    notify();
    try_output();
  }
  // Simultaneous open (SYN without ACK) is not supported; dropped.
}

void TcpSocket::process_established(const Packet& p) {
  if (p.has(kAck)) on_ack(p);
  if (!p.payload.empty()) on_data(p);
  if (p.has(kFin)) on_fin(p);
}

void TcpSocket::on_ack(const Packet& p) {
  snd_wnd_ = p.wnd;
  if (seq_gt(p.ack, snd_una_) && seq_le(p.ack, snd_nxt_)) {
    u32 advanced = p.ack - snd_una_;
    std::size_t data_bytes =
        std::min<std::size_t>(advanced, send_buf_.size());
    send_buf_.erase(send_buf_.begin(),
                    send_buf_.begin() + static_cast<long>(data_bytes));
    obs::stats::net_tcp_send_queue().set(static_cast<i64>(send_buf_.size()));
    if (urg_seq_snd_ && seq_lt(*urg_seq_snd_, p.ack)) urg_seq_snd_.reset();
    snd_una_ = p.ack;
    rto_ = kInitialRto;
    rtx_count_ = 0;
    cancel_rtx_timer();
    if (snd_una_ != snd_nxt_) arm_rtx_timer();

    if (fin_sent_ && !fin_acked_ && fin_seq_snd_ &&
        seq_gt(p.ack, *fin_seq_snd_)) {
      fin_acked_ = true;
      switch (state_) {
        case TcpState::FIN_WAIT_1:
          enter_state(TcpState::FIN_WAIT_2);
          break;
        case TcpState::CLOSING:
          start_time_wait();
          break;
        case TcpState::LAST_ACK:
          enter_state(TcpState::CLOSED);
          maybe_reap();
          return;
        default:
          break;
      }
    }
    notify();  // send space may have opened
  }
  try_output();
}

void TcpSocket::on_data(const Packet& p) {
  // Register the urgent byte's sequence number (pulled out of the stream
  // when it becomes in-order unless SO_OOBINLINE).
  if (p.has(kUrg)) {
    urg_seq_rcv_ = p.urg_ptr;
    notify();
  }

  u32 seg_seq = p.seq;
  u32 seg_end = seg_seq + static_cast<u32>(p.payload.size());
  const auto rcvbuf =
      static_cast<std::size_t>(opts().get(SockOpt::SO_RCVBUF));
  const bool oob_inline = opts().get(SockOpt::SO_OOBINLINE) != 0;

  // Absorbs in-order bytes starting at rcv_nxt_, honouring the receive
  // buffer limit; returns how many bytes were accepted.  The urgent byte
  // is pulled to the side channel (unless SO_OOBINLINE) and costs no
  // buffer space, even when the buffer is full.  Bytes move one
  // contiguous span at a time, split only at the urgent byte and at the
  // buffer limit.
  auto absorb = [&](const Bytes& payload, u32 base_seq, u32 start) -> u32 {
    const auto size = static_cast<u32>(payload.size());
    u32 i = start;
    while (i < size) {
      u32 stop = size;  // end of this span: the urgent byte, or the end
      if (urg_seq_rcv_ && !oob_inline) {
        u32 off = *urg_seq_rcv_ - base_seq;
        if (off >= i && off < size) stop = off;
      }
      std::size_t room =
          recv_buf_.size() >= rcvbuf ? 0 : rcvbuf - recv_buf_.size();
      auto take = static_cast<u32>(std::min<std::size_t>(stop - i, room));
      recv_buf_.insert(recv_buf_.end(), payload.begin() + i,
                       payload.begin() + i + take);
      i += take;
      if (i < stop || stop == size) break;  // window closed, or done
      urg_data_ = payload[i++];
    }
    u32 accepted = i - start;
    rcv_nxt_ += accepted;
    return accepted;
  };

  if (seq_le(seg_seq, rcv_nxt_) && seq_gt(seg_end, rcv_nxt_)) {
    // Overlaps the expected sequence: trim the stale prefix, append.
    absorb(p.payload, seg_seq, rcv_nxt_ - seg_seq);

    // Drain any out-of-order segments that are now contiguous.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = ooo_.begin(); it != ooo_.end();) {
        u32 s = it->first;
        u32 e = s + static_cast<u32>(it->second.size());
        if (seq_le(e, rcv_nxt_)) {
          it = ooo_.erase(it);  // fully stale
          continue;
        }
        if (seq_le(s, rcv_nxt_)) {
          u32 start = rcv_nxt_ - s;
          u32 accepted = absorb(it->second, s, start);
          if (s + start + accepted < e) {
            // Buffer filled mid-segment; keep the remainder out-of-order.
            Bytes rest(it->second.begin() + (start + accepted),
                       it->second.end());
            u32 rest_seq = s + start + accepted;
            ooo_.erase(it);
            ooo_[rest_seq] = std::move(rest);
            progressed = false;
            break;
          }
          it = ooo_.erase(it);
          progressed = true;
          continue;
        }
        ++it;
      }
    }
    notify();
  } else if (seq_gt(seg_seq, rcv_nxt_)) {
    // Future data: out-of-order reassembly queue (the checkpoint
    // deliberately discards this — the peer's send queue still holds it).
    obs::stats::net_tcp_out_of_order().inc();
    auto it = ooo_.find(seg_seq);
    if (it == ooo_.end() || it->second.size() < p.payload.size()) {
      ooo_[seg_seq] = p.payload;
    }
  }
  // else: entirely old duplicate; just re-ACK below.

  obs::stats::net_tcp_recv_queue().set(static_cast<i64>(recv_buf_.size()));
  u64 ooo_bytes = 0;
  for (const auto& [s, seg] : ooo_) ooo_bytes += seg.size();
  obs::stats::net_tcp_ooo_queue().set(static_cast<i64>(ooo_bytes));

  send_ack();
}

void TcpSocket::on_fin(const Packet& p) {
  u32 fin_seq = p.seq + static_cast<u32>(p.payload.size());
  fin_seq_rcv_ = fin_seq;
  if (rcv_nxt_ != fin_seq) {
    // FIN arrived ahead of missing data; it will be consumed once the
    // stream catches up (peer retransmits).
    return;
  }
  rcv_nxt_ = fin_seq + 1;
  fin_rcvd_ = true;
  switch (state_) {
    case TcpState::ESTABLISHED:
      enter_state(TcpState::CLOSE_WAIT);
      break;
    case TcpState::FIN_WAIT_1:
      enter_state(fin_acked_ ? TcpState::TIME_WAIT : TcpState::CLOSING);
      if (fin_acked_) start_time_wait();
      break;
    case TcpState::FIN_WAIT_2:
      start_time_wait();
      break;
    default:
      break;
  }
  send_ack();
  notify();  // readers see EOF
}

void TcpSocket::start_time_wait() {
  enter_state(TcpState::TIME_WAIT);
  cancel_rtx_timer();
  // The socket (or its whole stack, if the pod is destroyed) may be gone
  // before the timer fires; re-resolve through weak handles.
  Stack& st = stack();
  st.engine().schedule(
      kTimeWait, [tok = std::weak_ptr<const bool>(st.alive_token()), &st,
                  self_id = id()] {
        if (tok.expired()) return;  // stack destroyed
        TcpSocket* s = st.find_tcp(self_id);
        if (s == nullptr) return;
        s->enter_state(TcpState::CLOSED);
        s->maybe_reap();
      });
}

void TcpSocket::fail_connection(Err e) {
  if (state_ == TcpState::SYN_RCVD && parent_listener_ != kInvalidSock) {
    TcpSocket* parent = stack().find_tcp(parent_listener_);
    if (parent != nullptr && parent->is_listener()) --parent->embryonic_;
  }
  error_ = e;
  cancel_rtx_timer();
  enter_state(TcpState::CLOSED);
  send_buf_.clear();
  notify();
  maybe_reap();
}

void TcpSocket::maybe_reap() {
  if (user_closed() && state_ == TcpState::CLOSED) stack().reap(id());
}

bool TcpSocket::reapable() const {
  return user_closed() && state_ == TcpState::CLOSED;
}

// ---- Application interface --------------------------------------------------

Status TcpSocket::listen(int backlog) {
  if (state_ != TcpState::CLOSED) return Status(Err::INVALID, "not CLOSED");
  if (!bound()) return Status(Err::INVALID, "listen on unbound socket");
  backlog_max_ = std::max(1, backlog);
  enter_state(TcpState::LISTEN);
  stack().register_listener(local().port, id());
  return Status::ok();
}

Result<SockId> TcpSocket::accept(SockAddr* peer) {
  if (state_ != TcpState::LISTEN) return Status(Err::INVALID, "not listening");
  if (accept_q_.empty()) return Status(Err::WOULD_BLOCK);
  SockId child_id = accept_q_.front();
  accept_q_.pop_front();
  TcpSocket* child = stack().find_tcp(child_id);
  if (child == nullptr) return Status(Err::CONN_RESET, "child vanished");
  if (peer != nullptr) *peer = child->remote();
  return child_id;
}

Status TcpSocket::do_connect(SockAddr peer) {
  if (state_ == TcpState::LISTEN) return Status(Err::INVALID, "listener");
  if (state_ != TcpState::CLOSED || user_closed()) {
    return Status(Err::ALREADY_CONNECTED);
  }
  if (peer.port == 0) return Status(Err::INVALID, "port 0");

  if (!bound()) {
    auto port = stack().alloc_ephemeral(Proto::TCP);
    if (!port) return port.status();
    set_local(SockAddr{stack().vip(), port.value()});
    set_bound(true);
    set_owns_port(true);
  } else if (local().ip.is_any()) {
    set_local(SockAddr{stack().vip(), local().port});
  }
  set_remote(peer);
  stack().register_flow(FlowKey{Proto::TCP, local(), remote()}, id());

  iss_ = stack().rng().next_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  rto_ = kInitialRto;
  rtx_count_ = 0;
  enter_state(TcpState::SYN_SENT);
  send_segment(iss_, {}, kSyn, 0);
  arm_rtx_timer();
  return Status(Err::IN_PROGRESS);
}

Result<std::size_t> TcpSocket::do_send(const Bytes& data, u32 flags,
                                       std::optional<SockAddr> to) {
  if (to.has_value()) return Status(Err::ALREADY_CONNECTED, "sendto on TCP");
  if (error_ != Err::OK) return Status(take_error());
  if (shut_wr_ || fin_queued_) return Status(Err::PIPE, "shutdown for write");
  switch (state_) {
    case TcpState::ESTABLISHED:
    case TcpState::CLOSE_WAIT:
      break;
    case TcpState::SYN_SENT:
    case TcpState::SYN_RCVD:
      return Status(Err::WOULD_BLOCK, "connecting");
    default:
      return Status(Err::NOT_CONNECTED);
  }
  if (shut_wr_ || fin_queued_) return Status(Err::PIPE, "shutdown for write");
  if (data.empty()) return std::size_t{0};

  auto sndbuf = static_cast<std::size_t>(opts().get(SockOpt::SO_SNDBUF));
  if (send_buf_.size() >= sndbuf) return Status(Err::WOULD_BLOCK);
  std::size_t accepted = std::min(data.size(), sndbuf - send_buf_.size());
  send_buf_.insert(send_buf_.end(), data.begin(), data.begin() + accepted);
  obs::stats::net_tcp_send_queue().set(static_cast<i64>(send_buf_.size()));
  if ((flags & MSG_OOB) != 0) {
    // The last byte written is the urgent byte (BSD semantics).
    urg_seq_snd_ = snd_una_ + static_cast<u32>(send_buf_.size()) - 1;
  }
  try_output();
  return accepted;
}

Result<RecvResult> TcpSocket::do_recvmsg(std::size_t maxlen, u32 flags) {
  if (state_ == TcpState::LISTEN) return Status(Err::INVALID, "listener");

  if ((flags & MSG_OOB) != 0) {
    if (opts().get(SockOpt::SO_OOBINLINE) != 0) {
      return Status(Err::INVALID, "OOB read with SO_OOBINLINE");
    }
    if (!urg_data_) return Status(Err::WOULD_BLOCK, "no urgent data");
    RecvResult r;
    r.data = Bytes{*urg_data_};
    r.from = remote();
    r.oob = true;
    if ((flags & MSG_PEEK) == 0) urg_data_.reset();
    return r;
  }

  if (recv_buf_.empty()) {
    if (error_ != Err::OK) return Status(take_error());
    if (fin_rcvd_ || shut_rd_) {
      RecvResult r;
      r.from = remote();
      r.eof = true;
      return r;
    }
    if (state_ == TcpState::CLOSED) return Status(Err::NOT_CONNECTED);
    return Status(Err::WOULD_BLOCK);
  }

  std::size_t before = recv_buf_.size();
  std::size_t n = std::min(maxlen, recv_buf_.size());
  RecvResult r;
  r.from = remote();
  r.data.assign(recv_buf_.begin(), recv_buf_.begin() + static_cast<long>(n));
  if ((flags & MSG_PEEK) == 0) {
    recv_buf_.erase(recv_buf_.begin(),
                    recv_buf_.begin() + static_cast<long>(n));
    obs::stats::net_tcp_recv_queue().set(static_cast<i64>(recv_buf_.size()));
    maybe_send_window_update(before);
  }
  return r;
}

void TcpSocket::maybe_send_window_update(std::size_t before_read) {
  auto rcvbuf = static_cast<std::size_t>(opts().get(SockOpt::SO_RCVBUF));
  bool was_closed = before_read >= rcvbuf;
  if (was_closed && recv_window() > 0 &&
      (state_ == TcpState::ESTABLISHED || state_ == TcpState::FIN_WAIT_1 ||
       state_ == TcpState::FIN_WAIT_2)) {
    send_ack();  // window-update so the peer's zero-window stall ends
  }
}

u32 TcpSocket::do_poll() {
  u32 ev = 0;
  if (state_ == TcpState::LISTEN) {
    if (!accept_q_.empty()) ev |= POLLIN;
    return ev;
  }
  if (!recv_buf_.empty() || fin_rcvd_ || shut_rd_) ev |= POLLIN;
  if (error_ != Err::OK) ev |= POLLERR | POLLIN | POLLOUT;
  if (urg_data_) ev |= POLLPRI;
  switch (state_) {
    case TcpState::ESTABLISHED:
    case TcpState::CLOSE_WAIT:
      if (!fin_queued_ && !shut_wr_ &&
          send_buf_.size() <
              static_cast<std::size_t>(opts().get(SockOpt::SO_SNDBUF))) {
        ev |= POLLOUT;
      }
      break;
    case TcpState::CLOSED:
      ev |= POLLHUP;
      break;
    default:
      break;
  }
  if (fin_rcvd_ && fin_acked_) ev |= POLLHUP;
  return ev;
}

Status TcpSocket::do_shutdown(ShutdownHow how) {
  if (state_ == TcpState::LISTEN || state_ == TcpState::CLOSED ||
      state_ == TcpState::SYN_SENT) {
    return Status(Err::NOT_CONNECTED);
  }
  if (how == ShutdownHow::RD || how == ShutdownHow::RDWR) {
    shut_rd_ = true;
    notify();
  }
  if (how == ShutdownHow::WR || how == ShutdownHow::RDWR) {
    if (!fin_queued_) {
      fin_queued_ = true;
      try_output();
    }
  }
  return Status::ok();
}

void TcpSocket::do_release() {
  mark_user_closed();
  if (state_ == TcpState::LISTEN) {
    // Reset any connections awaiting accept.
    for (SockId cid : accept_q_) {
      TcpSocket* child = stack().find_tcp(cid);
      if (child != nullptr) child->do_release();
    }
    accept_q_.clear();
    stack().unregister_listener(local().port);
    enter_state(TcpState::CLOSED);
    stack().reap(id());
    return;
  }
  if (state_ == TcpState::CLOSED || state_ == TcpState::SYN_SENT) {
    cancel_rtx_timer();
    enter_state(TcpState::CLOSED);
    stack().reap(id());
    return;
  }
  shut_rd_ = true;
  if (!fin_queued_) {
    fin_queued_ = true;
    try_output();
  }
  // Reaped once the close handshake finishes (maybe_reap on CLOSED).
}

}  // namespace zapc::net
