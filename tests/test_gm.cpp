// Kernel-bypass (GM-style) messaging extension (paper §5): device-level
// reliability, state extract/reinstate, the virtualized guest interface,
// and full coordinated migration of a GM application.
#include <gtest/gtest.h>

#include "core/agent.h"
#include "core/manager.h"
#include "gm/device.h"
#include "os/cluster.h"
#include "pod/pod.h"

namespace zapc {

net::IpAddr gm_vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

/// Guest that ping-pongs `rounds` messages with a peer over the GM
/// device (spin-polling like a real OS-bypass application).
class GmPingPong final : public os::FieldProgram<GmPingPong> {
 public:
  GmPingPong() = default;
  GmPingPong(int port, net::SockAddr peer, u32 rounds, bool initiator)
      : port_(port), peer_(peer), rounds_(rounds), initiator_(initiator) {}

  const char* kind() const override { return "test.gm_pingpong"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    if (pc_ == 0) {
      if (!sys.gm_open(port_).is_ok()) return StepResult::exit(1);
      if (initiator_) {
        (void)sys.gm_send(port_, peer_, encode_fields(u32{0}));
        if (rounds_ <= 2) return StepResult::exit(0);
        expect_ = 1;
      }
      pc_ = 1;
      return StepResult::yield();
    }
    auto m = sys.gm_recv(port_, nullptr);
    if (m.is_ok()) {
      u32 n = 0;
      if (!decode_fields(m.value(), n) || n != expect_) {
        return StepResult::exit(3);  // lost, reordered or malformed
      }
      if (n + 1 >= rounds_) return StepResult::exit(0);
      (void)sys.gm_send(port_, peer_, encode_fields(n + 1));
      // The device keeps retransmitting our last message even after we
      // exit, so the peer always gets it.
      if (n + 2 >= rounds_) return StepResult::exit(0);
      expect_ = n + 2;  // we consume every other number
      return StepResult::yield(5);
    }
    // Spin-poll with a small sleep (GM applications busy-wait).
    return os::StepResult::block(os::WaitSpec::sleep(200));
  }

 private:
  template <class F>
  friend void io(F& f, GmPingPong& p) {
    f(p.port_, p.peer_, p.rounds_, p.initiator_, p.pc_, p.expect_);
  }

  int port_ = 0;
  net::SockAddr peer_;
  u32 rounds_ = 0;
  bool initiator_ = false;
  u32 pc_ = 0;
  u32 expect_ = 0;
};

namespace {

using gm::GmDevice;

TEST(Gm, DeviceRoundTrip) {
  os::Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  pod::Pod p1(n1, gm_vip(1), "p1");
  pod::Pod p2(n2, gm_vip(2), "p2");

  ASSERT_TRUE(p1.gm_device().open_port(2).is_ok());
  ASSERT_TRUE(p2.gm_device().open_port(3).is_ok());
  ASSERT_TRUE(p1.gm_device()
                  .send(2, net::SockAddr{gm_vip(2), 3}, to_bytes("bypass"))
                  .is_ok());
  cl.run_for(5 * sim::kMillisecond);

  auto m = p2.gm_device().recv(3);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(to_string(m->data), "bypass");
  EXPECT_EQ(m->from, (net::SockAddr{gm_vip(1), 2}));
  // The ACK drained the sender's retransmit queue.
  EXPECT_TRUE(p1.gm_device().sends_drained(2));
  // Stack never saw the traffic (true kernel bypass).
  EXPECT_EQ(p1.stack().socket_count(), 0u);
  EXPECT_EQ(p2.stack().socket_count(), 0u);
}

TEST(Gm, PortValidation) {
  os::Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  pod::Pod p1(n1, gm_vip(1), "p1");
  GmDevice& dev = p1.gm_device();
  EXPECT_EQ(dev.open_port(-1).err(), Err::INVALID);
  EXPECT_EQ(dev.open_port(99).err(), Err::INVALID);
  ASSERT_TRUE(dev.open_port(1).is_ok());
  EXPECT_EQ(dev.open_port(1).err(), Err::ADDR_IN_USE);
  EXPECT_EQ(dev.send(5, net::SockAddr{gm_vip(2), 1}, {}).err(), Err::BAD_FD);
  EXPECT_EQ(dev.send(1, net::SockAddr{gm_vip(2), 1},
                     Bytes(GmDevice::kMaxMessage + 1, 0))
                .err(),
            Err::MSG_SIZE);
  ASSERT_TRUE(dev.close_port(1).is_ok());
  EXPECT_EQ(dev.close_port(1).err(), Err::BAD_FD);
}

TEST(Gm, ReliableUnderLoss) {
  os::Cluster cl(net::FabricConfig{.latency = 50,
                                   .jitter = 0,
                                   .loss_prob = 0.15,
                                   .bandwidth_bps = 1'000'000'000,
                                   .seed = 99});
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  pod::Pod p1(n1, gm_vip(1), "p1");
  pod::Pod p2(n2, gm_vip(2), "p2");
  ASSERT_TRUE(p1.gm_device().open_port(1).is_ok());
  ASSERT_TRUE(p2.gm_device().open_port(1).is_ok());

  for (u32 i = 0; i < 40; ++i) {
    ASSERT_TRUE(p1.gm_device()
                    .send(1, net::SockAddr{gm_vip(2), 1}, encode_fields(i))
                    .is_ok());
  }
  cl.run_for(5 * sim::kSecond);  // retransmissions repair the loss

  for (u32 i = 0; i < 40; ++i) {
    auto m = p2.gm_device().recv(1);
    ASSERT_TRUE(m.has_value()) << "message " << i;
    u32 n = 0;
    ASSERT_TRUE(decode_fields(m->data, n).is_ok());
    EXPECT_EQ(n, i);  // strict order preserved
  }
  EXPECT_GT(p1.gm_device().retransmissions(), 0u);
  EXPECT_TRUE(p1.gm_device().sends_drained(1));
}

TEST(Gm, ExtractReinstateRoundTrip) {
  os::Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  pod::Pod p1(n1, gm_vip(1), "p1");
  pod::Pod p2(n2, gm_vip(2), "p2");
  ASSERT_TRUE(p1.gm_device().open_port(1).is_ok());
  ASSERT_TRUE(p2.gm_device().open_port(1).is_ok());

  // Receive one message (queued, unread) and strand one unacked send.
  ASSERT_TRUE(p2.gm_device()
                  .send(1, net::SockAddr{gm_vip(1), 1}, to_bytes("queued"))
                  .is_ok());
  cl.run_for(5 * sim::kMillisecond);
  p1.filter().block_addr(gm_vip(1));
  ASSERT_TRUE(p1.gm_device()
                  .send(1, net::SockAddr{gm_vip(2), 1}, to_bytes("stuck"))
                  .is_ok());
  cl.run_for(5 * sim::kMillisecond);
  ASSERT_EQ(p1.gm_device().unacked_total(), 1u);

  Bytes state = p1.gm_device().extract_state();

  // Reinstate on a brand-new device in a fresh pod at the same vip.
  p1.filter().unblock_addr(gm_vip(1));
  os::Node& n3 = cl.add_node("n3");
  {
    // Destroy the original so the vip can move.
    pod::Pod moved(n3, gm_vip(3), "tmp");  // placeholder scope
  }
  pod::Pod fresh(n3, gm_vip(4), "fresh");
  ASSERT_TRUE(fresh.gm_device().reinstate(state).is_ok());
  auto m = fresh.gm_device().recv(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(to_string(m->data), "queued");  // recv queue carried over
  EXPECT_EQ(fresh.gm_device().unacked_total(), 1u);  // still retransmitting
}

TEST(Gm, PingPongAcrossPods) {
  os::Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  pod::Pod p1(n1, gm_vip(1), "p1");
  pod::Pod p2(n2, gm_vip(2), "p2");
  i32 a = p1.spawn(std::make_unique<GmPingPong>(
      1, net::SockAddr{gm_vip(2), 1}, 100, true));
  i32 b = p2.spawn(std::make_unique<GmPingPong>(
      1, net::SockAddr{gm_vip(1), 1}, 100, false));
  cl.run_for(5 * sim::kSecond);
  EXPECT_EQ(p1.find_process(a)->exit_code(), 0);
  EXPECT_EQ(p2.find_process(b)->exit_code(), 0);
  EXPECT_EQ(p1.find_process(a)->state(), os::ProcState::EXITED);
  EXPECT_EQ(p2.find_process(b)->state(), os::ProcState::EXITED);
}

TEST(Gm, ApplicationSurvivesMigration) {
  os::Cluster cl;
  os::Node* mgr_node = &cl.add_node("mgr");
  std::vector<std::unique_ptr<core::Agent>> agents;
  for (int i = 0; i < 4; ++i) {
    agents.push_back(
        std::make_unique<core::Agent>(cl.add_node("n" + std::to_string(i))));
  }
  core::Manager mgr(*mgr_node);

  pod::Pod& p1 = agents[0]->create_pod(gm_vip(1), "gm-a");
  pod::Pod& p2 = agents[1]->create_pod(gm_vip(2), "gm-b");
  i32 a = p1.spawn(std::make_unique<GmPingPong>(
      1, net::SockAddr{gm_vip(2), 1}, 4000, true));
  i32 b = p2.spawn(std::make_unique<GmPingPong>(
      1, net::SockAddr{gm_vip(1), 1}, 4000, false));

  cl.run_for(100 * sim::kMillisecond);  // mid-conversation
  ASSERT_NE(p1.find_process(a)->state(), os::ProcState::EXITED);

  bool done = false, ok = false;
  mgr.checkpoint(
      {
          {agents[0]->addr(), "gm-a", "san://ckpt/a"},
          {agents[1]->addr(), "gm-b", "san://ckpt/b"},
      },
      core::CkptMode::MIGRATE, [&](auto r) {
        ok = r.ok;
        done = true;
      });
  while (!done) cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(ok);

  done = false;
  mgr.restart(
      {
          {agents[2]->addr(), "gm-a", "san://ckpt/a"},
          {agents[3]->addr(), "gm-b", "san://ckpt/b"},
      },
      {}, [&](auto r) {
        ok = r.ok;
        done = true;
      });
  while (!done) cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(ok);

  cl.run_for(30 * sim::kSecond);
  pod::Pod* ma = agents[2]->find_pod("gm-a");
  pod::Pod* mb = agents[3]->find_pod("gm-b");
  ASSERT_NE(ma, nullptr);
  ASSERT_NE(mb, nullptr);
  // The strict-sequence ping-pong finished with no number lost,
  // duplicated or reordered across the migration.
  EXPECT_EQ(ma->find_process(a)->state(), os::ProcState::EXITED);
  EXPECT_EQ(ma->find_process(a)->exit_code(), 0);
  EXPECT_EQ(mb->find_process(b)->exit_code(), 0);
}

}  // namespace
}  // namespace zapc

ZAPC_REGISTER_PROGRAM(gm_pingpong, zapc::GmPingPong)
