// TCP protocol tests: handshake, transfer, retransmission under loss,
// urgent data, flow control, connection teardown, dispatch-vector
// interposition (alternate receive queue).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>

#include "net/stack.h"
#include "net/tcp.h"
#include "tests/helpers.h"

namespace zapc::net {
namespace {

using test::TestNet;
using test::pattern_bytes;

class TcpTest : public ::testing::Test {
 protected:
  TcpTest()
      : a_(net_.engine, IpAddr(10, 0, 0, 1), "A"),
        b_(net_.engine, IpAddr(10, 0, 0, 2), "B") {
    net_.add(a_);
    net_.add(b_);
  }

  /// Creates a listener on B at `port` and connects from A; returns
  /// (client on A, accepted child on B).
  std::pair<SockId, SockId> connect_pair(u16 port = 7000) {
    SockId listener = b_.sys_socket(Proto::TCP).value();
    EXPECT_TRUE(b_.sys_bind(listener, SockAddr{kAnyAddr, port}).is_ok());
    EXPECT_TRUE(b_.sys_listen(listener, 8).is_ok());

    SockId client = a_.sys_socket(Proto::TCP).value();
    Status st = a_.sys_connect(client, SockAddr{b_.vip(), port});
    EXPECT_EQ(st.err(), Err::IN_PROGRESS);

    // Pump until the handshake completes (retransmissions may be needed
    // when the test runs with packet loss).
    SockAddr peer;
    Result<SockId> child(Err::WOULD_BLOCK);
    for (int i = 0; i < 1000; ++i) {
      net_.step_for(10 * sim::kMillisecond);
      child = b_.sys_accept(listener, &peer);
      if (child.is_ok()) break;
    }
    EXPECT_TRUE(child.is_ok()) << child.status().to_string();
    if (child.is_ok()) {
      EXPECT_EQ(peer.ip, a_.vip());
    }
    listener_ = listener;
    return {client, child.value_or(kInvalidSock)};
  }

  /// Pumps `data` from (src_stack, src_sock) to (dst_stack, dst_sock),
  /// returning everything received until the transfer completes.
  Bytes transfer(Stack& src, SockId s, Stack& dst, SockId d,
                 const Bytes& data) {
    std::size_t sent = 0;
    Bytes received;
    for (int iter = 0; iter < 20000; ++iter) {
      if (sent < data.size()) {
        Bytes chunk(data.begin() + static_cast<long>(sent), data.end());
        auto r = src.sys_send(s, chunk, 0);
        if (r.is_ok()) sent += r.value();
      }
      net_.step_for(5 * sim::kMillisecond);
      while (true) {
        auto r = dst.sys_recv(d, 65536, 0);
        if (!r.is_ok() || r.value().eof) break;
        append_bytes(received, r.value().data);
      }
      if (sent == data.size() && received.size() == data.size()) break;
    }
    return received;
  }

  /// Delivers one data segment straight into B's `child`, as if A's
  /// `client` sent it: `payload` at rcv_nxt + `offset`, with the urgent
  /// byte at payload index `urg` when given.
  void inject(SockId client, SockId child, const Bytes& payload,
              u32 offset = 0, std::optional<u32> urg = std::nullopt) {
    TcpSocket* rcv = b_.find_tcp(child);
    Packet p;
    p.proto = Proto::TCP;
    p.src = a_.sys_getsockname(client).value();
    p.dst = b_.sys_getsockname(child).value();
    p.seq = rcv->pcb_recv() + offset;
    p.flags = kAck;
    p.ack = rcv->pcb_sent();
    p.wnd = 65535;
    if (urg) {
      p.flags |= kUrg;
      p.urg_ptr = p.seq + *urg;
    }
    p.payload = payload;
    b_.deliver(p);
  }

  TestNet net_;
  Stack a_;
  Stack b_;
  SockId listener_ = kInvalidSock;
};

TEST_F(TcpTest, HandshakeEstablishesBothEnds) {
  auto [client, child] = connect_pair();
  ASSERT_NE(child, kInvalidSock);
  EXPECT_EQ(a_.find_tcp(client)->state(), TcpState::ESTABLISHED);
  EXPECT_EQ(b_.find_tcp(child)->state(), TcpState::ESTABLISHED);
  // Both ends agree on the 4-tuple.
  EXPECT_EQ(a_.sys_getpeername(client).value(),
            b_.sys_getsockname(child).value());
  EXPECT_EQ(b_.sys_getpeername(child).value(),
            a_.sys_getsockname(client).value());
}

TEST_F(TcpTest, SmallTransfer) {
  auto [client, child] = connect_pair();
  Bytes msg = to_bytes("hello, cluster");
  ASSERT_TRUE(a_.sys_send(client, msg, 0).is_ok());
  net_.step_for(10 * sim::kMillisecond);
  auto r = b_.sys_recv(child, 1024, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().data, msg);
}

TEST_F(TcpTest, BulkTransferPreservesBytes) {
  auto [client, child] = connect_pair();
  Bytes data = pattern_bytes(1 << 20);  // 1 MiB
  Bytes got = transfer(a_, client, b_, child, data);
  EXPECT_EQ(got.size(), data.size());
  EXPECT_EQ(got, data);
}

TEST_F(TcpTest, BulkTransferSurvivesPacketLoss) {
  net_.set_loss(0.05);
  auto [client, child] = connect_pair();
  net_.set_loss(0.10);
  Bytes data = pattern_bytes(256 * 1024, 3);
  Bytes got = transfer(a_, client, b_, child, data);
  EXPECT_EQ(got, data);
  EXPECT_GT(net_.packets_dropped(), 0u);
}

TEST_F(TcpTest, BidirectionalTransfer) {
  auto [client, child] = connect_pair();
  Bytes d1 = pattern_bytes(100 * 1024, 1);
  Bytes d2 = pattern_bytes(150 * 1024, 2);
  Bytes got1 = transfer(a_, client, b_, child, d1);
  Bytes got2 = transfer(b_, child, a_, client, d2);
  EXPECT_EQ(got1, d1);
  EXPECT_EQ(got2, d2);
}

TEST_F(TcpTest, ConnectRefusedWithoutListener) {
  SockId client = a_.sys_socket(Proto::TCP).value();
  EXPECT_EQ(a_.sys_connect(client, SockAddr{b_.vip(), 4444}).err(),
            Err::IN_PROGRESS);
  net_.step_for(50 * sim::kMillisecond);
  TcpSocket* sock = a_.find_tcp(client);
  EXPECT_EQ(sock->state(), TcpState::CLOSED);
  EXPECT_NE(sock->do_poll() & POLLERR, 0u);
  EXPECT_EQ(sock->take_error(), Err::CONN_REFUSED);
}

TEST_F(TcpTest, ConnectTimesOutToDeadAddress) {
  SockId client = a_.sys_socket(Proto::TCP).value();
  EXPECT_EQ(
      a_.sys_connect(client, SockAddr{IpAddr(10, 9, 9, 9), 1}).err(),
      Err::IN_PROGRESS);
  net_.step_for(120 * sim::kSecond);
  EXPECT_EQ(a_.find_tcp(client)->take_error(), Err::TIMED_OUT);
}

TEST_F(TcpTest, PeekDoesNotConsume) {
  auto [client, child] = connect_pair();
  Bytes msg = to_bytes("peekaboo");
  ASSERT_TRUE(a_.sys_send(client, msg, 0).is_ok());
  net_.step_for(10 * sim::kMillisecond);
  auto peeked = b_.sys_recv(child, 4, MSG_PEEK);
  ASSERT_TRUE(peeked.is_ok());
  EXPECT_EQ(to_string(peeked.value().data), "peek");
  auto full = b_.sys_recv(child, 1024, 0);
  EXPECT_EQ(full.value().data, msg);
}

TEST_F(TcpTest, UrgentDataOutOfBand) {
  auto [client, child] = connect_pair();
  ASSERT_TRUE(a_.sys_send(client, to_bytes("normal"), 0).is_ok());
  ASSERT_TRUE(a_.sys_send(client, Bytes{'!'}, MSG_OOB).is_ok());
  net_.step_for(10 * sim::kMillisecond);

  EXPECT_NE(b_.sys_poll(child) & POLLPRI, 0u);
  auto oob = b_.sys_recv(child, 1, MSG_OOB);
  ASSERT_TRUE(oob.is_ok());
  EXPECT_EQ(oob.value().data, Bytes{'!'});
  EXPECT_TRUE(oob.value().oob);
  // The normal stream does not contain the urgent byte.
  auto norm = b_.sys_recv(child, 1024, 0);
  EXPECT_EQ(to_string(norm.value().data), "normal");
  EXPECT_EQ(b_.sys_recv(child, 1024, 0).err(), Err::WOULD_BLOCK);
}

TEST_F(TcpTest, UrgentDataInlineWithOobinline) {
  auto [client, child] = connect_pair();
  ASSERT_TRUE(b_.sys_setsockopt(child, SockOpt::SO_OOBINLINE, 1).is_ok());
  ASSERT_TRUE(a_.sys_send(client, to_bytes("ab"), 0).is_ok());
  ASSERT_TRUE(a_.sys_send(client, Bytes{'c'}, MSG_OOB).is_ok());
  net_.step_for(10 * sim::kMillisecond);
  auto r = b_.sys_recv(child, 1024, 0);
  EXPECT_EQ(to_string(r.value().data), "abc");  // urgent byte stays inline
}

TEST_F(TcpTest, OrderlyShutdownDeliversEof) {
  auto [client, child] = connect_pair();
  ASSERT_TRUE(a_.sys_send(client, to_bytes("bye"), 0).is_ok());
  ASSERT_TRUE(a_.sys_shutdown(client, ShutdownHow::WR).is_ok());
  net_.step_for(10 * sim::kMillisecond);

  auto r1 = b_.sys_recv(child, 1024, 0);
  EXPECT_EQ(to_string(r1.value().data), "bye");
  auto r2 = b_.sys_recv(child, 1024, 0);
  ASSERT_TRUE(r2.is_ok());
  EXPECT_TRUE(r2.value().eof);

  // Half-duplex: B can still send to A.
  ASSERT_TRUE(b_.sys_send(child, to_bytes("reply"), 0).is_ok());
  net_.step_for(10 * sim::kMillisecond);
  EXPECT_EQ(to_string(a_.sys_recv(client, 1024, 0).value().data), "reply");

  // Writing after shutdown fails with PIPE.
  EXPECT_EQ(a_.sys_send(client, to_bytes("x"), 0).err(), Err::PIPE);
}

TEST_F(TcpTest, FullCloseHandshakeReapsSockets) {
  auto [client, child] = connect_pair();
  ASSERT_TRUE(a_.sys_close(client).is_ok());
  net_.step_for(10 * sim::kMillisecond);
  // B sees EOF, closes too.
  auto r = b_.sys_recv(child, 1024, 0);
  EXPECT_TRUE(r.is_ok() && r.value().eof);
  ASSERT_TRUE(b_.sys_close(child).is_ok());
  net_.step_for(500 * sim::kMillisecond);  // TIME_WAIT and reaping
  EXPECT_EQ(a_.find(client), nullptr);
  EXPECT_EQ(b_.find(child), nullptr);
}

TEST_F(TcpTest, ZeroWindowStallsAndRecovers) {
  auto [client, child] = connect_pair();
  ASSERT_TRUE(b_.sys_setsockopt(child, SockOpt::SO_RCVBUF, 2048).is_ok());
  Bytes data = pattern_bytes(64 * 1024, 9);

  // Push without reading: the sender must stall on the closed window.
  std::size_t sent = 0;
  for (int i = 0; i < 50 && sent < data.size(); ++i) {
    Bytes chunk(data.begin() + static_cast<long>(sent), data.end());
    auto r = a_.sys_send(client, chunk, 0);
    if (r.is_ok()) sent += r.value();
    net_.step_for(20 * sim::kMillisecond);
  }
  EXPECT_LT(b_.find_tcp(child)->recv_queue_len(), 4096u);

  // Now read everything; window updates + probes resume the flow.
  Bytes received;
  for (int iter = 0; iter < 20000 && received.size() < data.size(); ++iter) {
    if (sent < data.size()) {
      Bytes chunk(data.begin() + static_cast<long>(sent), data.end());
      auto r = a_.sys_send(client, chunk, 0);
      if (r.is_ok()) sent += r.value();
    }
    while (true) {
      auto r = b_.sys_recv(child, 1024, 0);
      if (!r.is_ok() || r.value().eof) break;
      append_bytes(received, r.value().data);
    }
    net_.step_for(20 * sim::kMillisecond);
  }
  EXPECT_EQ(received, data);
}

TEST_F(TcpTest, BindConflictAndReuse) {
  SockId s1 = a_.sys_socket(Proto::TCP).value();
  SockId s2 = a_.sys_socket(Proto::TCP).value();
  ASSERT_TRUE(a_.sys_bind(s1, SockAddr{kAnyAddr, 5555}).is_ok());
  EXPECT_EQ(a_.sys_bind(s2, SockAddr{kAnyAddr, 5555}).err(),
            Err::ADDR_IN_USE);
  ASSERT_TRUE(a_.sys_setsockopt(s2, SockOpt::SO_REUSEADDR, 1).is_ok());
  EXPECT_TRUE(a_.sys_bind(s2, SockAddr{kAnyAddr, 5555}).is_ok());
}

TEST_F(TcpTest, EphemeralPortsAreUnique) {
  SockId s1 = a_.sys_socket(Proto::TCP).value();
  SockId s2 = a_.sys_socket(Proto::TCP).value();
  // Connect allocates ephemeral ports.
  (void)connect_pair();
  (void)a_.sys_connect(s1, SockAddr{b_.vip(), 7000});
  (void)a_.sys_connect(s2, SockAddr{b_.vip(), 7000});
  EXPECT_NE(a_.sys_getsockname(s1).value().port,
            a_.sys_getsockname(s2).value().port);
}

TEST_F(TcpTest, BacklogLimitsPendingAccepts) {
  SockId listener = b_.sys_socket(Proto::TCP).value();
  ASSERT_TRUE(b_.sys_bind(listener, SockAddr{kAnyAddr, 7100}).is_ok());
  ASSERT_TRUE(b_.sys_listen(listener, 2).is_ok());

  std::vector<SockId> clients;
  for (int i = 0; i < 5; ++i) {
    SockId c = a_.sys_socket(Proto::TCP).value();
    (void)a_.sys_connect(c, SockAddr{b_.vip(), 7100});
    clients.push_back(c);
  }
  net_.step_for(50 * sim::kMillisecond);
  EXPECT_EQ(b_.find_tcp(listener)->accept_queue_len(), 2u);
}

TEST_F(TcpTest, AltQueueServedBeforeNetworkData) {
  auto [client, child] = connect_pair();

  // Restored data injected via the alternate queue...
  std::deque<RecvItem> items;
  items.push_back(RecvItem{to_bytes("restored-"), SockAddr{}, false});
  b_.find(child)->install_alt_queue(std::move(items));

  // ...followed by fresh data arriving from the network.
  ASSERT_TRUE(a_.sys_send(client, to_bytes("fresh"), 0).is_ok());
  net_.step_for(10 * sim::kMillisecond);

  EXPECT_NE(b_.sys_poll(child) & POLLIN, 0u);
  Bytes all;
  while (true) {
    auto r = b_.sys_recv(child, 4096, 0);
    if (!r.is_ok()) break;
    append_bytes(all, r.value().data);
  }
  EXPECT_EQ(to_string(all), "restored-fresh");
  // Once drained, the original dispatch vector is reinstalled.
  EXPECT_EQ(b_.find(child)->alt_queue(), nullptr);
}

TEST_F(TcpTest, AltQueuePreservesOobItem) {
  auto [client, child] = connect_pair();
  std::deque<RecvItem> items;
  items.push_back(RecvItem{to_bytes("data"), SockAddr{}, false});
  items.push_back(RecvItem{Bytes{'U'}, SockAddr{}, true});
  b_.find(child)->install_alt_queue(std::move(items));

  EXPECT_NE(b_.sys_poll(child) & POLLPRI, 0u);
  EXPECT_EQ(to_string(b_.sys_recv(child, 100, 0).value().data), "data");
  auto oob = b_.sys_recv(child, 1, MSG_OOB);
  ASSERT_TRUE(oob.is_ok());
  EXPECT_TRUE(oob.value().oob);
  EXPECT_EQ(oob.value().data, Bytes{'U'});
  EXPECT_EQ(b_.find(child)->alt_queue(), nullptr);
}

TEST_F(TcpTest, CloseWithAltQueueCleansUp) {
  auto [client, child] = connect_pair();
  std::deque<RecvItem> items;
  items.push_back(RecvItem{to_bytes("never read"), SockAddr{}, false});
  b_.find(child)->install_alt_queue(std::move(items));
  EXPECT_TRUE(b_.sys_close(child).is_ok());  // release via dispatch vector
  net_.step_for(500 * sim::kMillisecond);
  (void)a_.sys_recv(client, 10, 0);
  SUCCEED();  // no crash/leak; release interposition handled cleanup
}

TEST_F(TcpTest, PcbSequenceInvariant) {
  // Paper §5 invariant: recv₁ ≥ acked₂ on every connection.
  auto [client, child] = connect_pair();
  Bytes data = pattern_bytes(32 * 1024, 4);
  std::size_t sent = 0;
  for (int i = 0; i < 200; ++i) {
    if (sent < data.size()) {
      Bytes chunk(data.begin() + static_cast<long>(sent), data.end());
      auto r = a_.sys_send(client, chunk, 0);
      if (r.is_ok()) sent += r.value();
    }
    net_.step_for(sim::kMillisecond);
    TcpSocket* snd = a_.find_tcp(client);
    TcpSocket* rcv = b_.find_tcp(child);
    EXPECT_TRUE(seq_ge(rcv->pcb_recv(), snd->pcb_acked()))
        << "recv=" << rcv->pcb_recv() << " acked=" << snd->pcb_acked();
    EXPECT_TRUE(seq_ge(snd->pcb_sent(), snd->pcb_acked()));
  }
}

TEST_F(TcpTest, SendQueueHoldsUnackedData) {
  auto [client, child] = connect_pair();
  // Block B's ingress by dropping everything (simulates frozen peer).
  net_.set_loss(1.0);
  Bytes msg = to_bytes("stuck in the queue");
  ASSERT_TRUE(a_.sys_send(client, msg, 0).is_ok());
  net_.step_for(10 * sim::kMillisecond);
  TcpSocket* sock = a_.find_tcp(client);
  EXPECT_EQ(sock->send_queue_contents(), msg);
  EXPECT_EQ(sock->pcb_sent() - sock->pcb_acked(), msg.size());
}

// One segment carrying the urgent byte at its start, middle or end: with
// SO_OOBINLINE off the byte leaves the stream for the OOB channel, with
// it on the byte stays inline; either way the whole segment is accepted.
TEST_F(TcpTest, UrgentByteAnywhereInASegment) {
  const Bytes data = to_bytes("0123456789");
  for (bool inline_oob : {false, true}) {
    for (u32 urg : {0u, 4u, 9u}) {
      SCOPED_TRACE(testing::Message() << "inline=" << inline_oob
                                      << " urg=" << urg);
      auto [client, child] = connect_pair(static_cast<u16>(7100 + urg +
                                                           10 * inline_oob));
      ASSERT_TRUE(
          b_.sys_setsockopt(child, SockOpt::SO_OOBINLINE, inline_oob).is_ok());
      TcpSocket* rcv = b_.find_tcp(child);
      const u32 start = rcv->pcb_recv();
      inject(client, child, data, 0, urg);
      EXPECT_EQ(rcv->pcb_recv(), start + 10);

      Bytes want = data;
      if (!inline_oob) {
        want.erase(want.begin() + urg);
        auto oob = b_.sys_recv(child, 1, MSG_OOB);
        ASSERT_TRUE(oob.is_ok());
        EXPECT_EQ(oob.value().data, Bytes{data[urg]});
      } else {
        EXPECT_FALSE(rcv->has_urgent());
      }
      auto r = b_.sys_recv(child, 1024, 0);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, want);
    }
  }
}

// The receive buffer fills one byte before, exactly at, and one byte
// after the urgent byte (index 5 of 10).  The urgent byte costs no
// buffer space, so it is taken even into a full buffer; the first
// ordinary byte that does not fit ends the absorb.
TEST_F(TcpTest, ReceiveWindowClosesAroundTheUrgentByte) {
  const Bytes data = to_bytes("abcde!fghi");
  struct Case {
    i64 rcvbuf;
    u32 accepted;
    bool urgent;
    const char* queued;
  };
  const Case cases[] = {
      {4, 4, false, "abcd"},   // closes one byte before the urgent byte
      {5, 6, true, "abcde"},   // closes at it
      {6, 7, true, "abcdef"},  // closes one byte after it
  };
  u16 port = 7200;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rcvbuf);
    auto [client, child] = connect_pair(port++);
    ASSERT_TRUE(b_.sys_setsockopt(child, SockOpt::SO_RCVBUF, c.rcvbuf).is_ok());
    TcpSocket* rcv = b_.find_tcp(child);
    const u32 start = rcv->pcb_recv();
    inject(client, child, data, 0, 5u);
    EXPECT_EQ(rcv->pcb_recv(), start + c.accepted);
    EXPECT_EQ(rcv->has_urgent(), c.urgent);
    EXPECT_EQ(rcv->recv_queue_len(), std::strlen(c.queued));
    auto r = b_.sys_recv(child, 1024, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(to_string(r.value().data), c.queued);
  }
}

// An out-of-order segment drained once the gap fills, into a buffer with
// room for only part of it: the rest stays queued out of order and is
// delivered intact once the stream reaches it.
TEST_F(TcpTest, OutOfOrderSegmentKeepsRemainderWhenBufferFills) {
  auto [client, child] = connect_pair();
  ASSERT_TRUE(b_.sys_setsockopt(child, SockOpt::SO_RCVBUF, 8).is_ok());
  TcpSocket* rcv = b_.find_tcp(child);
  const u32 start = rcv->pcb_recv();
  const Bytes stream = to_bytes("ABCDEFGHIJKLMN");  // 14 bytes

  inject(client, child, Bytes(stream.begin() + 4, stream.end()), 4);
  EXPECT_EQ(rcv->ooo_segments(), 1u);
  EXPECT_EQ(rcv->pcb_recv(), start);

  inject(client, child, Bytes(stream.begin(), stream.begin() + 4));
  EXPECT_EQ(rcv->pcb_recv(), start + 8);  // buffer full mid-segment
  EXPECT_EQ(rcv->recv_queue_len(), 8u);
  EXPECT_EQ(rcv->ooo_segments(), 1u);      // "IJKLMN" kept
  EXPECT_EQ(to_string(b_.sys_recv(child, 1024, 0).value().data), "ABCDEFGH");

  // The next in-order byte reconnects the remainder.
  inject(client, child, Bytes{stream[8]});
  EXPECT_EQ(rcv->pcb_recv(), start + 14);
  EXPECT_EQ(rcv->ooo_segments(), 0u);
  EXPECT_EQ(to_string(b_.sys_recv(child, 1024, 0).value().data), "IJKLMN");
}

}  // namespace
}  // namespace zapc::net
