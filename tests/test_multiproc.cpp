// Multi-process pods: spawn/wait/kill semantics and coordinated
// checkpoint-restart of pods hosting several processes (paper §3: a pod
// is a self-contained unit that can hold a process *group*; vpids stay
// constant across migration).
#include <gtest/gtest.h>

#include "core/agent.h"
#include "core/manager.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"

namespace zapc {

using test::CounterProgram;

/// Parent that spawns `children` counters, waits for them, and exits
/// with the number that finished successfully.
class ParentProgram final : public os::FieldProgram<ParentProgram> {
 public:
  ParentProgram() = default;
  explicit ParentProgram(i32 children) : children_(children) {}
  const char* kind() const override { return "test.parent"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    if (pc_ == 0) {
      for (i32 i = 0; i < children_; ++i) {
        CounterProgram child(200 + static_cast<u32>(i), 50);
        auto vpid = sys.spawn("test.counter", child.save());
        if (!vpid) return StepResult::exit(1);
        kids_.push_back(vpid.value());
      }
      pc_ = 1;
      return StepResult::yield();
    }
    // Reap children (non-blocking poll with sleep).
    i32 done = 0;
    for (i32 kid : kids_) {
      auto code = sys.wait_pid(kid);
      if (code.is_ok() && code.value() == 0) ++done;
    }
    if (done == static_cast<i32>(kids_.size())) {
      return StepResult::exit(done);
    }
    return StepResult::block(os::WaitSpec::sleep(sim::kMillisecond));
  }

  const std::vector<i32>& kids() const { return kids_; }

 private:
  template <class F>
  friend void io(F& f, ParentProgram& p) {
    f(p.children_, p.pc_, p.kids_);
  }

  i32 children_ = 0;
  u32 pc_ = 0;
  std::vector<i32> kids_;
};

namespace {

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

TEST(MultiProc, SpawnAndWait) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1", 2);
  pod::Pod pod(n, vip(1), "pod1");
  i32 ppid = pod.spawn(std::make_unique<ParentProgram>(3));
  cl.run_for(200 * sim::kMillisecond);

  os::Process* parent = pod.find_process(ppid);
  ASSERT_EQ(parent->state(), os::ProcState::EXITED);
  EXPECT_EQ(parent->exit_code(), 3);  // all three children reaped
  EXPECT_EQ(pod.process_count(), 4u);
  // Children got the next vpids in order.
  auto& kids = static_cast<ParentProgram&>(parent->program()).kids();
  EXPECT_EQ(kids, (std::vector<i32>{2, 3, 4}));
}

TEST(MultiProc, KillTerminatesAndClosesFds) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, vip(1), "pod1");
  i32 victim = pod.spawn(std::make_unique<CounterProgram>(1u << 30, 100));
  cl.run_for(5 * sim::kMillisecond);
  os::Process* p = pod.find_process(victim);
  ASSERT_NE(p->state(), os::ProcState::EXITED);

  ASSERT_TRUE(pod.kill(victim).is_ok());
  EXPECT_EQ(p->state(), os::ProcState::EXITED);
  EXPECT_EQ(p->exit_code(), 137);
  EXPECT_TRUE(p->fd_table().empty());
  // Scheduler keeps running fine after the kill.
  cl.run_for(5 * sim::kMillisecond);
  EXPECT_EQ(pod.kill(999).err(), Err::NO_ENT);
}

/// Spawns a long-running counter and checks that wait_pid reports it
/// still running.
class Checker final : public os::FieldProgram<Checker> {
 public:
  const char* kind() const override { return "test.waiter"; }
  os::StepResult step(os::Syscalls& sys) override {
    if (pc_ == 0) {
      auto kid = sys.spawn("test.counter", CounterProgram(100000, 100).save());
      kid_ = kid.value_or(-1);
      auto w = sys.wait_pid(kid_);
      // Child just spawned: must not be reported exited.
      result_ = w.err() == Err::WOULD_BLOCK ? 0 : 1;
      pc_ = 1;
    }
    return os::StepResult::exit(result_);
  }

 private:
  // Never checkpointed: saves nothing.
  template <class F>
  friend void io(F&, Checker&) {}

  u32 pc_ = 0;
  i32 kid_ = -1;
  i32 result_ = 9;
};

TEST(MultiProc, WaitOnRunningReturnsWouldBlock) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, vip(1), "pod1");

  i32 pid = pod.spawn(std::make_unique<Checker>());
  cl.run_for(10 * sim::kMillisecond);
  EXPECT_EQ(pod.find_process(pid)->exit_code(), 0);
}

TEST(MultiProc, MultiProcessPodSurvivesMigration) {
  os::Cluster cl;
  os::Node* mgr_node = &cl.add_node("mgr");
  os::Node& n1 = cl.add_node("n1", 2);
  os::Node& n2 = cl.add_node("n2", 2);
  core::Agent a1(n1), a2(n2);
  core::Manager mgr(*mgr_node);

  pod::Pod& pod = a1.create_pod(vip(1), "family");
  i32 ppid = pod.spawn(std::make_unique<ParentProgram>(3));
  cl.run_for(3 * sim::kMillisecond);  // children spawned, mid-count
  ASSERT_EQ(pod.process_count(), 4u);
  ASSERT_NE(pod.find_process(ppid)->state(), os::ProcState::EXITED);

  bool done = false, ok = false;
  mgr.checkpoint({{a1.addr(), "family", "san://ckpt/family"}},
                 core::CkptMode::MIGRATE, [&](auto r) {
                   ok = r.ok;
                   done = true;
                 });
  while (!done) cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(ok);
  EXPECT_EQ(a1.find_pod("family"), nullptr);

  done = false;
  mgr.restart({{a2.addr(), "family", "san://ckpt/family"}}, {},
              [&](auto r) {
                ok = r.ok;
                done = true;
              });
  while (!done) cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(ok);

  pod::Pod* moved = a2.find_pod("family");
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->process_count(), 4u);  // whole group moved together

  cl.run_for(500 * sim::kMillisecond);
  os::Process* parent = moved->find_process(ppid);
  ASSERT_EQ(parent->state(), os::ProcState::EXITED);
  EXPECT_EQ(parent->exit_code(), 3);
  // vpids preserved across migration (paper §3).
  EXPECT_NE(moved->find_process(2), nullptr);
  EXPECT_NE(moved->find_process(4), nullptr);
}

}  // namespace
}  // namespace zapc

ZAPC_REGISTER_PROGRAM(parent_prog, zapc::ParentProgram)
