// OS + pod integration tests: scheduling, blocking, signals, namespaces,
// cross-node guest traffic, time virtualization, SAN.
#include <gtest/gtest.h>

#include <memory>

#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"

namespace zapc {
namespace {

using os::Cluster;
using os::ProcState;
using pod::Pod;
using test::CounterProgram;
using test::EchoClient;
using test::EchoServer;
using test::TimeLogger;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

TEST(OsPod, CounterRunsToCompletion) {
  Cluster cl;
  os::Node& n = cl.add_node("n1");
  Pod pod(n, vip(1), "pod1");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(100, 10));
  cl.run_for(10 * sim::kMillisecond);
  os::Process* p = pod.find_process(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->state(), ProcState::EXITED);
  EXPECT_EQ(p->exit_code(), 0);
  EXPECT_EQ(static_cast<CounterProgram&>(p->program()).count(), 100u);
}

TEST(OsPod, VpidsStartAtOneAndIncrease) {
  Cluster cl;
  os::Node& n = cl.add_node("n1");
  Pod pod(n, vip(1), "pod1");
  EXPECT_EQ(pod.spawn(std::make_unique<CounterProgram>(1, 1)), 1);
  EXPECT_EQ(pod.spawn(std::make_unique<CounterProgram>(1, 1)), 2);
  EXPECT_EQ(pod.spawn(std::make_unique<CounterProgram>(1, 1)), 3);
}

TEST(OsPod, UniprocessorSerializesCpuTime) {
  Cluster cl;
  os::Node& n = cl.add_node("n1", /*ncpus=*/1);
  Pod pod(n, vip(1), "pod1");
  // Two CPU-bound processes, 100 steps x 100us each = 10ms per process.
  pod.spawn(std::make_unique<CounterProgram>(100, 100));
  pod.spawn(std::make_unique<CounterProgram>(100, 100));
  cl.run_for(19 * sim::kMillisecond);
  // With one CPU, 20ms of work cannot finish in 19ms.
  EXPECT_FALSE(pod.all_exited());
  cl.run_for(2 * sim::kMillisecond);
  EXPECT_TRUE(pod.all_exited());
}

TEST(OsPod, DualProcessorRunsInParallel) {
  Cluster cl;
  os::Node& n = cl.add_node("n1", /*ncpus=*/2);
  Pod pod(n, vip(1), "pod1");
  pod.spawn(std::make_unique<CounterProgram>(100, 100));
  pod.spawn(std::make_unique<CounterProgram>(100, 100));
  cl.run_for(11 * sim::kMillisecond);
  // With two CPUs, both 10ms processes finish in ~10ms.
  EXPECT_TRUE(pod.all_exited());
}

TEST(OsPod, EchoAcrossNodes) {
  Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  Pod server_pod(n1, vip(1), "server");
  Pod client_pod(n2, vip(2), "client");

  i32 spid = server_pod.spawn(std::make_unique<EchoServer>(5000));
  i32 cpid = client_pod.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 100000));

  cl.run_for(5 * sim::kSecond);
  os::Process* sp = server_pod.find_process(spid);
  os::Process* cp = client_pod.find_process(cpid);
  ASSERT_EQ(cp->state(), ProcState::EXITED);
  EXPECT_EQ(cp->exit_code(), 0);  // all bytes verified
  EXPECT_EQ(sp->state(), ProcState::EXITED);
  EXPECT_EQ(static_cast<EchoServer&>(sp->program()).echoed(), 100000u);
}

TEST(OsPod, EchoBetweenPodsOnSameNode) {
  Cluster cl;
  os::Node& n1 = cl.add_node("n1", 2);
  Pod server_pod(n1, vip(1), "server");
  Pod client_pod(n1, vip(2), "client");
  server_pod.spawn(std::make_unique<EchoServer>(5000));
  i32 cpid = client_pod.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 10000));
  cl.run_for(5 * sim::kSecond);
  EXPECT_EQ(client_pod.find_process(cpid)->exit_code(), 0);
}

/// Echoes the first `limit` bytes of one connection, then closes it.
class ShortEchoServer final : public os::FieldProgram<ShortEchoServer> {
 public:
  ShortEchoServer(u16 port, u32 limit) : port_(port), limit_(limit) {}

  const char* kind() const override { return "test.short_echo_server"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    if (lfd_ < 0) {
      lfd_ = sys.socket(net::Proto::TCP).value();
      if (!sys.bind(lfd_, net::SockAddr{net::kAnyAddr, port_}) ||
          !sys.listen(lfd_, 1)) {
        return StepResult::exit(1);
      }
    }
    if (cfd_ < 0) {
      auto c = sys.accept(lfd_, nullptr);
      if (!c) return StepResult::block(os::WaitSpec::on_fd(lfd_));
      cfd_ = c.value();
    }
    if (echoed_ == limit_) {
      (void)sys.close(cfd_);
      (void)sys.close(lfd_);
      return StepResult::exit(0);
    }
    auto r = sys.recv(cfd_, limit_ - echoed_, 0);
    if (!r) return StepResult::block(os::WaitSpec::on_fd(cfd_));
    if (r.value().eof) return StepResult::exit(1);
    // The client's send buffer is far larger than `limit`, so the echo
    // never blocks.
    auto w = sys.send(cfd_, r.value().data, 0);
    if (!w || w.value() != r.value().data.size()) return StepResult::exit(1);
    echoed_ += static_cast<u32>(w.value());
    return StepResult::yield();
  }

 private:
  // Never checkpointed: saves nothing.
  template <class F>
  friend void io(F&, ShortEchoServer&) {}

  u16 port_;
  u32 limit_;
  i32 lfd_ = -1;
  i32 cfd_ = -1;
  u32 echoed_ = 0;
};

TEST(OsPod, EchoClientExitsOnEarlyEof) {
  Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  Pod server_pod(n1, vip(1), "server");
  Pod client_pod(n2, vip(2), "client");
  server_pod.spawn(std::make_unique<ShortEchoServer>(5000, 5000));
  i32 cpid = client_pod.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 10000));

  cl.run_for(5 * sim::kSecond);
  os::Process* cp = client_pod.find_process(cpid);
  ASSERT_EQ(cp->state(), ProcState::EXITED);  // no spin after the EOF
  EXPECT_EQ(cp->exit_code(), 4);
  EXPECT_EQ(static_cast<EchoClient&>(cp->program()).received(), 5000u);
}

TEST(OsPod, SuspendFreezesExecutionResumeContinues) {
  Cluster cl;
  os::Node& n = cl.add_node("n1");
  Pod pod(n, vip(1), "pod1");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(1000, 100));

  cl.run_for(10 * sim::kMillisecond);  // ~100 steps in
  pod.suspend();
  os::Process* p = pod.find_process(pid);
  u32 at_suspend = static_cast<CounterProgram&>(p->program()).count();
  EXPECT_GT(at_suspend, 0u);
  EXPECT_LT(at_suspend, 1000u);

  cl.run_for(50 * sim::kMillisecond);  // frozen: no progress
  EXPECT_EQ(static_cast<CounterProgram&>(p->program()).count(), at_suspend);
  EXPECT_EQ(p->state(), ProcState::STOPPED);

  pod.resume();
  cl.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(p->state(), ProcState::EXITED);
  EXPECT_EQ(static_cast<CounterProgram&>(p->program()).count(), 1000u);
}

TEST(OsPod, SuspendedPodNetworkCanBeBlocked) {
  Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  Pod server_pod(n1, vip(1), "server");
  Pod client_pod(n2, vip(2), "client");
  server_pod.spawn(std::make_unique<EchoServer>(5000));
  i32 cpid = client_pod.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 8 << 20));

  cl.run_for(5 * sim::kMillisecond);  // mid-transfer
  // Freeze the server pod the way an Agent would.
  server_pod.suspend();
  server_pod.filter().block_addr(vip(1));

  cl.run_for(200 * sim::kMillisecond);
  u64 dropped = server_pod.filter().dropped_ingress() +
                server_pod.filter().dropped_egress();
  EXPECT_GT(dropped, 0u);  // client retransmissions were dropped
  EXPECT_NE(client_pod.find_process(cpid)->state(), ProcState::EXITED);

  // Unfreeze: TCP retransmission repairs everything transparently.
  server_pod.filter().unblock_addr(vip(1));
  server_pod.resume();
  cl.run_for(60 * sim::kSecond);
  EXPECT_EQ(client_pod.find_process(cpid)->state(), ProcState::EXITED);
  EXPECT_EQ(client_pod.find_process(cpid)->exit_code(), 0);
}

TEST(OsPod, SleepBlocksForRequestedTime) {
  Cluster cl;
  os::Node& n = cl.add_node("n1");
  Pod pod(n, vip(1), "pod1");
  i32 pid = pod.spawn(std::make_unique<TimeLogger>());
  cl.run_for(10 * sim::kMillisecond);
  os::Process* p = pod.find_process(pid);
  ASSERT_EQ(p->state(), ProcState::EXITED);

  auto log = cl.san().read("timelog");
  ASSERT_TRUE(log.is_ok());
  Decoder d(log.value());
  (void)d.u64_();  // start
  u64 elapsed = d.u64_().value();
  EXPECT_GE(elapsed, 1000u);
  EXPECT_LT(elapsed, 5000u);
}

TEST(OsPod, TimeVirtualizationBiasesClock) {
  Cluster cl;
  os::Node& n = cl.add_node("n1");
  Pod pod(n, vip(1), "pod1");
  cl.run_for(1000);
  pod.set_time_virtualization(true);
  pod.add_time_delta(-500);
  EXPECT_EQ(pod.virtual_now(), 500u);
  pod.set_time_virtualization(false);
  EXPECT_EQ(pod.virtual_now(), 1000u);
}

TEST(OsPod, MemoryRegionsAccounted) {
  Cluster cl;
  os::Node& n = cl.add_node("n1");
  Pod pod(n, vip(1), "pod1");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(1, 1));
  os::Process* p = pod.find_process(pid);
  p->region("heap", 1 << 20);
  p->region("stack", 4096);
  EXPECT_EQ(p->memory_bytes(), (1u << 20) + 4096u);
  EXPECT_EQ(pod.memory_bytes(), (1u << 20) + 4096u);
}

TEST(OsPod, PodDestructionUnroutesVip) {
  Cluster cl;
  os::Node& n = cl.add_node("n1");
  {
    Pod pod(n, vip(1), "pod1");
    EXPECT_TRUE(cl.locations().resolve(vip(1)).has_value());
  }
  EXPECT_FALSE(cl.locations().resolve(vip(1)).has_value());
}

TEST(OsPod, NodeFailureStopsDelivery) {
  Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  Pod server_pod(n1, vip(1), "server");
  Pod client_pod(n2, vip(2), "client");
  server_pod.spawn(std::make_unique<EchoServer>(5000));
  i32 cpid = client_pod.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 16 << 20));
  cl.run_for(5 * sim::kMillisecond);
  n1.fail();
  cl.run_for(2 * sim::kSecond);
  EXPECT_NE(client_pod.find_process(cpid)->state(), ProcState::EXITED);
}

TEST(OsPod, SanSnapshotCopiesSubtree) {
  Cluster cl;
  ASSERT_TRUE(cl.san().write("pods/p1/a", Bytes{1, 2, 3}).is_ok());
  ASSERT_TRUE(cl.san().write("pods/p1/b", Bytes{4}).is_ok());
  ASSERT_TRUE(cl.san().write("pods/p2/c", Bytes{5}).is_ok());
  std::size_t n = cl.san().snapshot("pods/p1/", "snap/p1/");
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(cl.san().read("snap/p1/a").value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(cl.san().read("snap/p1/b").value(), (Bytes{4}));
  EXPECT_FALSE(cl.san().exists("snap/p1/c"));
}

// A commit's rename keeps the object it overwrites as the path's spare
// (DESIGN.md §8.2): one per path, never counted as an object.
TEST(OsPod, SanRenameKeepsDisplacedObjectAsSpare) {
  Cluster cl;
  os::VirtualSAN& san = cl.san();
  auto commit = [&san](Bytes data) {
    const u8* at = data.data();
    EXPECT_TRUE(san.write("img.tmp", std::move(data)).is_ok());
    EXPECT_TRUE(san.rename("img.tmp", "img").is_ok());
    return at;
  };
  commit(Bytes(4000, 1));
  EXPECT_TRUE(san.take_spare("img").empty());  // nothing displaced yet

  commit(Bytes(5000, 1));
  const u8* gen2 = commit(Bytes(3000, 2));
  commit(Bytes(2000, 3));
  EXPECT_EQ(san.object_count(), 1u);
  EXPECT_EQ(san.total_bytes(), 2000u);
  // One spare per path: the last displaced generation's storage, intact.
  Bytes spare = san.take_spare("img");
  EXPECT_EQ(spare.data(), gen2);
  EXPECT_EQ(spare, Bytes(3000, 2));
  EXPECT_TRUE(san.take_spare("img").empty());  // handed over once
  EXPECT_EQ(san.read("img").value(), Bytes(2000, 3));
}

TEST(OsPod, SanRemoveDropsSpare) {
  Cluster cl;
  os::VirtualSAN& san = cl.san();
  for (u8 gen = 0; gen < 2; ++gen) {
    ASSERT_TRUE(san.write("img.tmp", Bytes(100, gen)).is_ok());
    ASSERT_TRUE(san.rename("img.tmp", "img").is_ok());
  }
  ASSERT_TRUE(san.remove("img").is_ok());
  EXPECT_TRUE(san.take_spare("img").empty());
  EXPECT_EQ(san.object_count(), 0u);
}

TEST(OsPod, RegistryCreatesKnownPrograms) {
  auto& reg = os::ProgramRegistry::instance();
  EXPECT_TRUE(reg.known("test.counter"));
  auto p = reg.create("test.counter");
  ASSERT_TRUE(p.is_ok());
  EXPECT_STREQ(p.value()->kind(), "test.counter");
  EXPECT_EQ(reg.create("no.such.program").err(), Err::NO_ENT);
}

}  // namespace
}  // namespace zapc

// Program registrations (must be at namespace scope).
ZAPC_REGISTER_PROGRAM(counter, zapc::test::CounterProgram)
ZAPC_REGISTER_PROGRAM(echo_server, zapc::test::EchoServer)
ZAPC_REGISTER_PROGRAM(echo_client, zapc::test::EchoClient)
ZAPC_REGISTER_PROGRAM(time_logger, zapc::test::TimeLogger)
