// TCP: reliable, ordered byte stream with sequence numbers, ACKs,
// retransmission, out-of-order reassembly, urgent (out-of-band) data and
// the usual connection state machine.
//
// This is the substrate the paper's network-state checkpoint operates on.
// The protocol-control-block (PCB) exposes exactly the three sequence
// numbers the paper identifies as the minimal protocol-specific state to
// checkpoint: `sent` (snd_nxt), `recv` (rcv_nxt) and `acked` (snd_una —
// the last of our data acknowledged by the peer).  Invariant (paper §5):
// recv₁ ≥ acked₂ across a connection; the difference is the queue overlap
// that restart must discard.
//
// Simplifications relative to a production stack (documented here because
// they do not affect the checkpoint-restart semantics): no congestion
// control (LAN model), no Nagle coalescing (TCP_NODELAY is accepted but
// transmission is always immediate), a single urgent byte (like BSD), and
// a short TIME_WAIT.
#pragma once

#include <deque>
#include <map>
#include <optional>

#include "net/socket.h"
#include "obs/event.h"
#include "sim/engine.h"

namespace zapc::net {

enum class TcpState : u8 {
  CLOSED,
  LISTEN,
  SYN_SENT,
  SYN_RCVD,
  ESTABLISHED,
  FIN_WAIT_1,
  FIN_WAIT_2,
  CLOSE_WAIT,
  CLOSING,
  LAST_ACK,
  TIME_WAIT,
};

const char* tcp_state_name(TcpState s);

/// 32-bit sequence-space comparisons (wraparound safe).
inline bool seq_lt(u32 a, u32 b) { return static_cast<i32>(a - b) < 0; }
inline bool seq_le(u32 a, u32 b) { return static_cast<i32>(a - b) <= 0; }
inline bool seq_gt(u32 a, u32 b) { return static_cast<i32>(a - b) > 0; }
inline bool seq_ge(u32 a, u32 b) { return static_cast<i32>(a - b) >= 0; }

class TcpSocket final : public Socket {
 public:
  TcpSocket(Stack& stack, SockId id);
  ~TcpSocket() override;

  // ---- Socket interface -------------------------------------------------
  Result<RecvResult> do_recvmsg(std::size_t maxlen, u32 flags) override;
  u32 do_poll() override;
  void do_release() override;
  Result<std::size_t> do_send(const Bytes& data, u32 flags,
                              std::optional<SockAddr> to) override;
  Status do_connect(SockAddr peer) override;
  Status do_shutdown(ShutdownHow how) override;
  void handle_packet(const Packet& p) override;
  bool reapable() const override;

  // ---- Listener operations ----------------------------------------------
  Status listen(int backlog);
  /// Pops one established connection; Err::WOULD_BLOCK if none pending.
  Result<SockId> accept(SockAddr* peer);
  bool is_listener() const { return state_ == TcpState::LISTEN; }
  std::size_t accept_queue_len() const { return accept_q_.size(); }
  /// Kernel-internal: re-inserts an established connection into this
  /// listener's accept queue (restart of connections that were pending
  /// accept at checkpoint time).
  void requeue_accepted(SockId child) {
    accept_q_.push_back(child);
    notify();
  }
  /// Kernel-internal: connections awaiting accept (restart inspects these
  /// to claim specific children without disturbing the rest).
  const std::deque<SockId>& pending_accepts() const { return accept_q_; }
  /// Kernel-internal: removes a specific pending connection from the
  /// accept queue; returns false if it is not queued.
  bool take_pending(SockId child) {
    for (auto it = accept_q_.begin(); it != accept_q_.end(); ++it) {
      if (*it == child) {
        accept_q_.erase(it);
        return true;
      }
    }
    return false;
  }

  // ---- State inspection ---------------------------------------------------
  TcpState state() const { return state_; }
  /// Pending socket error (e.g. CONN_REFUSED after failed connect),
  /// cleared on read.
  Err take_error() {
    Err e = error_;
    error_ = Err::OK;
    return e;
  }

  // ---- PCB access (in-kernel interface used by the checkpointer) --------
  /// `sent`: sequence number following the last byte given to the network.
  u32 pcb_sent() const { return snd_nxt_; }
  /// `acked`: sequence number following the last of our bytes the peer
  /// has acknowledged.
  u32 pcb_acked() const { return snd_una_; }
  /// `recv`: sequence number following the last in-order byte received.
  u32 pcb_recv() const { return rcv_nxt_; }

  /// Non-destructive copy of the send queue (unacknowledged + unsent
  /// data).  Paper §5: the send queue "is more well organized according to
  /// the sequence of data send operations issued by the application", so
  /// reading it directly from the socket buffers is simple and portable.
  Bytes send_queue_contents() const {
    return Bytes(send_buf_.begin(), send_buf_.end());
  }
  std::size_t send_queue_len() const { return send_buf_.size(); }
  std::size_t recv_queue_len() const { return recv_buf_.size(); }
  std::size_t ooo_segments() const { return ooo_.size(); }
  bool has_urgent() const { return urg_data_.has_value(); }
  /// Kernel-internal: re-injects the pending urgent byte after the
  /// checkpoint's destructive MSG_OOB read, or during restore.
  void set_urgent_data(u8 byte) {
    urg_data_ = byte;
    notify();
  }
  int backlog() const { return backlog_max_; }

  /// Whether our FIN has been queued (shutdown(WR)/close was called).
  bool fin_queued() const { return fin_queued_; }
  /// Whether the peer's FIN has been received (its stream has ended).
  bool peer_fin() const { return fin_rcvd_; }

  /// Causal tracing: arms a one-shot op-tagged event on the next genuine
  /// retransmission.  The Agent calls this when the pod resumes after a
  /// checkpoint (continue → unblock → first retransmit) and when a
  /// restored socket resends its recovered send queue.
  void tag_next_retransmit(obs::ObsTag tag) {
    obs_tag_ = std::move(tag);
    rtx_event_armed_ = obs_tag_.active();
  }

 private:
  friend class Stack;

  void enter_state(TcpState s);
  void try_output();
  void send_segment(u32 seq, Bytes payload, u8 flags, u32 urg_ptr);
  void send_ack();
  void send_rst(const Packet& cause);
  void arm_rtx_timer();
  void cancel_rtx_timer();
  void on_rtx_timeout();
  void on_ack(const Packet& p);
  void on_data(const Packet& p);
  void on_fin(const Packet& p);
  void handle_listen(const Packet& p);
  void handle_syn_sent(const Packet& p);
  void process_established(const Packet& p);
  void maybe_send_window_update(std::size_t before_read);
  u32 recv_window() const;
  std::size_t unsent_bytes() const {
    // Outstanding sequence space minus control flags (SYN/FIN consume a
    // sequence number but occupy no buffer byte).
    u32 seq_out = snd_nxt_ - snd_una_;
    if (fin_sent_ && !fin_acked_ && seq_out > 0) seq_out -= 1;
    if (seq_out >= send_buf_.size()) return 0;
    return send_buf_.size() - seq_out;
  }
  void fail_connection(Err e);
  void start_time_wait();
  void maybe_reap();

  TcpState state_ = TcpState::CLOSED;
  Err error_ = Err::OK;

  // PCB.
  u32 iss_ = 0;       // initial send sequence
  u32 irs_ = 0;       // initial receive sequence
  u32 snd_una_ = 0;   // oldest unacknowledged ("acked" in the paper)
  u32 snd_nxt_ = 0;   // next to send ("sent")
  u32 rcv_nxt_ = 0;   // next expected ("recv")
  u32 snd_wnd_ = 0;   // peer-advertised window

  // Queues.
  std::deque<u8> send_buf_;          // [snd_una_, snd_una_ + size)
  std::deque<u8> recv_buf_;          // in-order bytes awaiting the app
  std::map<u32, Bytes> ooo_;         // out-of-order segments by seq

  // Urgent data (single-byte, BSD style).
  std::optional<u8> urg_data_;
  std::optional<u32> urg_seq_snd_;   // seq of queued outgoing urgent byte
  std::optional<u32> urg_seq_rcv_;   // seq of incoming urgent byte to pull

  // Sequence bookkeeping for FINs.
  std::optional<u32> fin_seq_snd_;   // seq our FIN occupies once sent
  std::optional<u32> fin_seq_rcv_;   // seq of the peer's FIN (maybe early)

  // FIN bookkeeping.
  bool fin_queued_ = false;          // our FIN should follow queued data
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  bool fin_rcvd_ = false;            // peer FIN consumed into rcv_nxt_

  // Retransmission.
  sim::EventId rtx_timer_ = 0;
  sim::Time rto_ = 0;
  int rtx_count_ = 0;
  // One-shot causal-trace event on the next genuine retransmit.
  obs::ObsTag obs_tag_;
  bool rtx_event_armed_ = false;

  // Listener.
  std::deque<SockId> accept_q_;
  int backlog_max_ = 0;
  int embryonic_ = 0;  // children still in SYN_RCVD (count against backlog)
  SockId parent_listener_ = kInvalidSock;
};

}  // namespace zapc::net
