// Failure-hardened coordination under deterministic fault injection:
// phase deadlines name the stalled peer, transient failures retry, the
// two-phase image commit never clobbers the last good image, aborted
// operations are transparent to the application (byte-exact resume), a
// failed coordinated restart tears down partially restored pods, and
// every op attempt — aborted ones included — leaves exactly one line in
// the Manager's op ledger (DESIGN.md §10).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "fault/fault.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "os/cluster.h"
#include "tests/guest_programs.h"

namespace zapc::core {
namespace {

using test::EchoClient;
using test::EchoServer;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

u64 counter_value(const std::string& name) {
  const auto snap = obs::metrics().snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Tight watchdogs so every injected hang turns into a prompt, named
/// abort instead of a stuck test.
Manager::Deadlines fast_deadlines() {
  Manager::Deadlines d;
  d.connect_us = 1 * sim::kSecond;
  d.meta_us = 2 * sim::kSecond;
  d.done_us = 2 * sim::kSecond;
  d.restart_us = 4 * sim::kSecond;
  d.agent_barrier_us = 2 * sim::kSecond;
  d.agent_stream_us = 2 * sim::kSecond;
  return d;
}

class FaultTest : public ::testing::Test {
 protected:
  static constexpr u32 kEchoBytes = 2 << 20;

  FaultTest() {
    fault::injector().clear();
    mgr_node_ = &cl_.add_node("mgr");
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(&cl_.add_node("n" + std::to_string(i + 1)));
      agents_.push_back(
          std::make_unique<Agent>(*nodes_.back(), Agent::kDefaultPort,
                                  CostModel{}, &trace_));
    }
    manager_ = std::make_unique<Manager>(*mgr_node_, &trace_);
    manager_->set_ledger(&ledger_);
  }

  ~FaultTest() override { fault::injector().clear(); }

  void start_app(u32 bytes = kEchoBytes) {
    pod::Pod& sp = agents_[0]->create_pod(vip(1), "server-pod");
    server_pid_ = sp.spawn(std::make_unique<EchoServer>(5000));
    pod::Pod& cp = agents_[1]->create_pod(vip(2), "client-pod");
    client_pid_ = cp.spawn(std::make_unique<EchoClient>(
        net::SockAddr{vip(1), 5000}, bytes));
    cl_.run_for(20 * sim::kMillisecond);
  }

  Manager::CheckpointReport checkpoint(Manager::CkptOptions opts = {}) {
    Manager::CheckpointReport out;
    bool done = false;
    manager_->checkpoint(
        {
            {agents_[0]->addr(), "server-pod", "san://ckpt/server"},
            {agents_[1]->addr(), "client-pod", "san://ckpt/client"},
        },
        CkptMode::SNAPSHOT,
        [&](Manager::CheckpointReport r) {
          out = std::move(r);
          done = true;
        },
        opts);
    for (int i = 0; i < 20000 && !done; ++i) {
      cl_.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  Manager::RestartReport restart(int dst_a, int dst_b,
                                 Manager::RestartOptions opts = {}) {
    Manager::RestartReport out;
    bool done = false;
    manager_->restart(
        {
            {agents_[dst_a]->addr(), "server-pod", "san://ckpt/server"},
            {agents_[dst_b]->addr(), "client-pod", "san://ckpt/client"},
        },
        {},
        [&](Manager::RestartReport r) {
          out = std::move(r);
          done = true;
        },
        opts);
    for (int i = 0; i < 20000 && !done; ++i) {
      cl_.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  i32 wait_client(int agent_idx, sim::Time budget = 120 * sim::kSecond) {
    pod::Pod* cp = agents_[agent_idx]->find_pod("client-pod");
    if (cp == nullptr) return -100;
    for (sim::Time t = 0; t < budget; t += 10 * sim::kMillisecond) {
      cl_.run_for(10 * sim::kMillisecond);
      os::Process* p = cp->find_process(client_pid_);
      if (p != nullptr && p->state() == os::ProcState::EXITED) {
        return p->exit_code();
      }
    }
    return -101;
  }

  /// Asserts the two-phase commit left no half-written image behind.
  void expect_no_temp_images() {
    for (const std::string& path : cl_.san().list("")) {
      EXPECT_FALSE(path.size() >= 4 &&
                   path.compare(path.size() - 4, 4, ".tmp") == 0)
          << "orphan temp image: " << path;
    }
  }

  /// Every exit of a SAN transfer (commit, failure, crash, abort)
  /// released its QoS stream: nothing pins later drains to the floor.
  void expect_san_streams_balanced() {
    EXPECT_EQ(cl_.san().active_foreground(), 0u);
    EXPECT_EQ(cl_.san().active_drains(), 0u);
  }

  void arm(fault::FaultSpec spec) { fault::injector().arm(spec); }

  /// DESIGN.md §10: every op attempt that opened a Manager root span —
  /// aborted or not — leaves exactly one line in the op ledger.
  void expect_ledger_line_per_op() {
    std::map<obs::OpId, int> lines;
    for (const auto& e : ledger_.entries()) ++lines[e.op];
    for (const auto& s : trace_.recorder().spans()) {
      if (s.kind != obs::SpanKind::SPAN ||
          (s.name != "mgr.ckpt" && s.name != "mgr.restart")) {
        continue;
      }
      EXPECT_EQ(lines[s.op], 1)
          << s.name << " op " << s.op << " lacks its ledger line";
    }
  }

  /// The teardown closed every span a surviving agent opened for `op`:
  /// no phase of a failed op is left open on a live node.
  void expect_agent_spans_closed(int agent_idx, obs::OpId op) {
    const std::string who = "agent@" + nodes_[agent_idx]->name();
    int opened = 0;
    for (const auto& s : trace_.recorder().spans()) {
      if (s.kind != obs::SpanKind::SPAN || s.op != op || s.who != who) {
        continue;
      }
      ++opened;
      EXPECT_FALSE(s.open) << who << " left " << s.name << " open";
    }
    EXPECT_GT(opened, 0) << who << " opened no span for op " << op;
  }

  /// The most recent ledger line, for asserting on the just-run op.
  const obs::LedgerEntry& last_ledger() {
    EXPECT_FALSE(ledger_.entries().empty());
    return ledger_.entries().back();
  }

  os::Cluster cl_;
  Trace trace_;
  os::Node* mgr_node_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<Manager> manager_;
  obs::Ledger ledger_;
  i32 server_pid_ = 0;
  i32 client_pid_ = 0;
};

TEST_F(FaultTest, DroppedMetaReportExpiresDeadlineNamingStalledPeer) {
  start_app();
  fault::FaultSpec s;
  s.kind = fault::FaultKind::DROP_MSG;
  s.msg_type = static_cast<u8>(MsgType::META_REPORT);
  arm(s);

  const u64 expired_before = counter_value("mgr.phase.deadline_expired");
  const sim::Time t0 = cl_.now();
  Manager::CkptOptions opts;
  opts.deadlines = fast_deadlines();
  auto cr = checkpoint(opts);

  EXPECT_FALSE(cr.ok);
  EXPECT_EQ(cr.attempts, 1u);
  // The failure names the expired phase and the stalled pod.
  EXPECT_NE(cr.error.find("meta_wait"), std::string::npos) << cr.error;
  EXPECT_NE(cr.error.find("server-pod"), std::string::npos) << cr.error;
  // ... and it happened at the deadline, not after an unbounded hang.
  EXPECT_LT(cl_.now() - t0, 4 * sim::kSecond);
  EXPECT_GT(counter_value("mgr.phase.deadline_expired"), expired_before);

  // The aborted attempt still got its ledger line, with the abort
  // reason and no retry queued.
  ASSERT_EQ(ledger_.entries().size(), 1u);
  EXPECT_EQ(last_ledger().kind, "ckpt");
  EXPECT_EQ(last_ledger().outcome, "aborted");
  EXPECT_FALSE(last_ledger().will_retry);
  EXPECT_NE(last_ledger().error.find("meta_wait"), std::string::npos)
      << last_ledger().error;
  expect_ledger_line_per_op();

  // The abort is transparent: the app resumes and verifies every byte.
  fault::injector().clear();
  EXPECT_EQ(wait_client(1), 0);
  expect_no_temp_images();
}

TEST_F(FaultTest, DroppedContinueIsRetriedToSuccess) {
  start_app();
  fault::FaultSpec s;
  s.kind = fault::FaultKind::DROP_MSG;
  s.msg_type = static_cast<u8>(MsgType::CONTINUE);
  arm(s);

  const u64 retries_before = counter_value("mgr.ckpt.retries");
  Manager::CkptOptions opts;
  opts.deadlines = fast_deadlines();
  opts.retry.max_retries = 2;
  opts.retry.backoff_us = 100 * sim::kMillisecond;
  auto cr = checkpoint(opts);

  EXPECT_TRUE(cr.ok) << cr.error;
  EXPECT_EQ(cr.attempts, 2u);
  EXPECT_EQ(counter_value("mgr.ckpt.retries"), retries_before + 1);

  // Both attempts are in the ledger: the aborted first one flagged
  // will_retry, the successful second one a separate line (fresh op id).
  ASSERT_EQ(ledger_.entries().size(), 2u);
  EXPECT_EQ(ledger_.entries()[0].outcome, "aborted");
  EXPECT_TRUE(ledger_.entries()[0].will_retry);
  EXPECT_TRUE(ledger_.entries()[0].transient);
  EXPECT_EQ(ledger_.entries()[0].attempt, 1u);
  EXPECT_EQ(ledger_.entries()[1].outcome, "ok");
  EXPECT_EQ(ledger_.entries()[1].attempt, 2u);
  EXPECT_NE(ledger_.entries()[0].op, ledger_.entries()[1].op);
  expect_ledger_line_per_op();

  EXPECT_EQ(wait_client(1), 0);
  expect_no_temp_images();
}

TEST_F(FaultTest, StalledAgentChannelFailsWithinConfiguredDeadline) {
  start_app();
  // The agent "hangs": its META_REPORT is held far beyond the deadline.
  fault::FaultSpec s;
  s.kind = fault::FaultKind::STALL_CHANNEL;
  s.msg_type = static_cast<u8>(MsgType::META_REPORT);
  s.stall_us = 10 * sim::kSecond;
  arm(s);

  const sim::Time t0 = cl_.now();
  Manager::CkptOptions opts;
  opts.deadlines = fast_deadlines();  // meta deadline: 2s
  auto cr = checkpoint(opts);

  EXPECT_FALSE(cr.ok);
  EXPECT_NE(cr.error.find("deadline expired"), std::string::npos)
      << cr.error;
  EXPECT_NE(cr.error.find("meta_wait"), std::string::npos) << cr.error;
  EXPECT_NE(cr.error.find("-pod"), std::string::npos) << cr.error;
  EXPECT_LT(cl_.now() - t0, 4 * sim::kSecond);

  EXPECT_EQ(last_ledger().outcome, "aborted");
  expect_ledger_line_per_op();

  fault::injector().clear();
  cl_.run_for(12 * sim::kSecond);  // let the stalled frame drain
  EXPECT_EQ(wait_client(1), 0);
  expect_no_temp_images();
}

TEST_F(FaultTest, TransientStorageFailureIsRetriedToSuccess) {
  start_app();
  fault::FaultSpec s;
  s.kind = fault::FaultKind::SAN_WRITE_FAIL;
  s.san_prefix = "ckpt/";
  arm(s);

  Manager::CkptOptions opts;
  opts.deadlines = fast_deadlines();
  opts.retry.max_retries = 1;
  opts.retry.backoff_us = 100 * sim::kMillisecond;
  auto cr = checkpoint(opts);

  EXPECT_TRUE(cr.ok) << cr.error;
  EXPECT_EQ(cr.attempts, 2u);
  EXPECT_TRUE(cl_.san().exists("ckpt/server"));
  EXPECT_TRUE(cl_.san().exists("ckpt/client"));
  expect_ledger_line_per_op();
  EXPECT_EQ(wait_client(1), 0);
  expect_no_temp_images();
}

TEST_F(FaultTest, TornWriteNeverClobbersLastGoodImage) {
  start_app();
  auto base = checkpoint();  // clean baseline, committed
  ASSERT_TRUE(base.ok) << base.error;
  auto server_before = cl_.san().read("ckpt/server");
  ASSERT_TRUE(server_before.is_ok());

  // The SAN silently truncates the next image object (a torn write).
  fault::FaultSpec s;
  s.kind = fault::FaultKind::SAN_SHORT_WRITE;
  s.san_prefix = "ckpt/";
  s.short_bytes = 128;
  arm(s);

  Manager::CkptOptions opts;
  opts.deadlines = fast_deadlines();
  auto cr = checkpoint(opts);
  EXPECT_FALSE(cr.ok);
  EXPECT_EQ(last_ledger().outcome, "aborted");
  expect_ledger_line_per_op();
  fault::injector().clear();
  cl_.run_for(3 * sim::kSecond);

  // The staged temp was detected, the abort GC'd it, and the committed
  // image is byte-identical to the baseline.
  expect_no_temp_images();
  auto server_after = cl_.san().read("ckpt/server");
  ASSERT_TRUE(server_after.is_ok());
  EXPECT_EQ(server_before.value(), server_after.value());

  // ... and that last committed image is still restartable.
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);
  auto rr = restart(0, 1);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(wait_client(1), 0);
}

TEST_F(FaultTest, AbortedDeltaDoesNotAdvanceTheChain) {
  start_app();
  Manager::CkptOptions incr;
  incr.incremental = true;
  auto base = checkpoint(incr);
  ASSERT_TRUE(base.ok) << base.error;

  // An incremental checkpoint aborts on a storage failure: the chain
  // state must stay at the baseline.
  fault::FaultSpec s;
  s.kind = fault::FaultKind::SAN_WRITE_FAIL;
  s.san_prefix = "ckpt/";
  arm(s);
  Manager::CkptOptions opts = incr;
  opts.deadlines = fast_deadlines();
  auto aborted = checkpoint(opts);
  EXPECT_FALSE(aborted.ok);
  fault::injector().clear();
  cl_.run_for(3 * sim::kSecond);

  // The next incremental checkpoint commits a delta over the *baseline*
  // and the whole chain still restarts the application byte-exactly.
  auto cr = checkpoint(incr);
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);
  auto rr = restart(0, 1);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(wait_client(1), 0);
  expect_no_temp_images();
}

TEST_F(FaultTest, FailedRestartTearsDownPartiallyRestoredPods) {
  start_app();
  auto cr = checkpoint();
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);

  // One RESTART_DONE never reaches the Manager: the deadline expires,
  // the Manager broadcasts the abort, and even the pods that restored
  // *successfully* are torn down (a coordinated restart is all-or-none).
  fault::FaultSpec s;
  s.kind = fault::FaultKind::DROP_MSG;
  s.msg_type = static_cast<u8>(MsgType::RESTART_DONE);
  arm(s);

  Manager::RestartOptions ropts;
  ropts.deadlines = fast_deadlines();
  auto rr = restart(2, 3, ropts);
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("deadline expired"), std::string::npos)
      << rr.error;
  // The aborted restart is a ledger line too, tagged with its kind.
  EXPECT_EQ(last_ledger().kind, "restart");
  EXPECT_EQ(last_ledger().outcome, "aborted");
  fault::injector().clear();
  cl_.run_for(sim::kSecond);
  EXPECT_EQ(agents_[2]->find_pod("server-pod"), nullptr);
  EXPECT_EQ(agents_[3]->find_pod("client-pod"), nullptr);

  // A clean retry of the same restart then works end-to-end.
  auto rr2 = restart(2, 3, ropts);
  ASSERT_TRUE(rr2.ok) << rr2.error;
  expect_ledger_line_per_op();
  EXPECT_EQ(wait_client(3), 0);
}

TEST_F(FaultTest, AbortedMigrationResumesTheSourcePods) {
  start_app();
  // The migration's checkpoint half aborts before the sync point: both
  // source pods must resume in place, untouched.
  fault::FaultSpec s;
  s.kind = fault::FaultKind::DROP_MSG;
  s.msg_type = static_cast<u8>(MsgType::META_REPORT);
  arm(s);

  Manager::MigrateOptions mopts;
  mopts.deadlines = fast_deadlines();
  bool done = false;
  Manager::MigrateReport mr;
  manager_->migrate(
      {
          {agents_[0]->addr(), agents_[2]->addr(), "server-pod", vip(1)},
          {agents_[1]->addr(), agents_[3]->addr(), "client-pod", vip(2)},
      },
      [&](Manager::MigrateReport r) {
        mr = std::move(r);
        done = true;
      },
      mopts);
  for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(mr.ok);
  // A migration is a checkpoint + restart pair; its aborted checkpoint
  // half left a ledger line like any directly requested op.
  EXPECT_EQ(last_ledger().kind, "ckpt");
  EXPECT_EQ(last_ledger().outcome, "aborted");
  expect_ledger_line_per_op();

  fault::injector().clear();
  cl_.run_for(sim::kSecond);
  ASSERT_NE(agents_[0]->find_pod("server-pod"), nullptr);
  ASSERT_NE(agents_[1]->find_pod("client-pod"), nullptr);
  EXPECT_FALSE(agents_[0]->find_pod("server-pod")->suspended());
  EXPECT_EQ(wait_client(1), 0);
  expect_no_temp_images();
}

// ---- Crash-at-every-phase sweeps -------------------------------------------

class CkptCrashPhaseTest : public FaultTest,
                           public ::testing::WithParamInterface<const char*> {
};

TEST_P(CkptCrashPhaseTest, FailsWithinDeadlineAndSurvivorResumes) {
  start_app();
  fault::FaultSpec s;
  s.kind = fault::FaultKind::CRASH_AT_PHASE;
  s.node = "n1";  // the server-pod's agent dies at the given phase
  s.phase = GetParam();
  arm(s);

  const sim::Time t0 = cl_.now();
  Manager::CkptOptions opts;
  opts.deadlines = fast_deadlines();
  auto cr = checkpoint(opts);

  EXPECT_FALSE(cr.ok);
  EXPECT_NE(cr.error.find("server-pod"), std::string::npos) << cr.error;
  EXPECT_LT(cl_.now() - t0, 6 * sim::kSecond);
  EXPECT_TRUE(nodes_[0]->failed());

  // Whatever phase the agent died in, the aborted attempt left exactly
  // one ledger line recording the failure.
  EXPECT_EQ(last_ledger().outcome, "aborted");
  expect_ledger_line_per_op();
  const obs::OpId failed = last_ledger().op;

  // The surviving agent's pod was resumed by the abort, not left
  // suspended behind the barrier, and no half-written image remains.
  fault::injector().clear();
  cl_.run_for(3 * sim::kSecond);
  pod::Pod* cp = agents_[1]->find_pod("client-pod");
  ASSERT_NE(cp, nullptr);
  EXPECT_FALSE(cp->suspended());
  expect_no_temp_images();
  expect_agent_spans_closed(1, failed);
}

INSTANTIATE_TEST_SUITE_P(AllCkptPhases, CkptCrashPhaseTest,
                         ::testing::Values("ckpt.begin", "ckpt.netckpt",
                                           "ckpt.standalone", "ckpt.deliver",
                                           "ckpt.barrier"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

/// COW sweep: the agent dies while marking the snapshot (inside the
/// stop-the-world window) or mid background drain (after its pod
/// resumed).  Either way the op aborts within its deadlines, the
/// surviving pod keeps running, and no half-written image remains.
class CowCrashPhaseTest : public FaultTest,
                          public ::testing::WithParamInterface<const char*> {
};

TEST_P(CowCrashPhaseTest, FailsPromptlyAndSurvivorKeepsRunning) {
  start_app();
  fault::FaultSpec s;
  s.kind = fault::FaultKind::CRASH_AT_PHASE;
  s.node = "n1";  // the server-pod's agent dies at the given phase
  s.phase = GetParam();
  arm(s);

  const sim::Time t0 = cl_.now();
  Manager::CkptOptions opts;
  opts.cow = true;
  opts.deadlines = fast_deadlines();
  opts.deadlines.drain_us = 2 * sim::kSecond;
  auto cr = checkpoint(opts);

  EXPECT_FALSE(cr.ok);
  EXPECT_FALSE(cr.error.empty());
  EXPECT_LT(cl_.now() - t0, 8 * sim::kSecond);
  EXPECT_TRUE(nodes_[0]->failed());
  EXPECT_EQ(last_ledger().outcome, "aborted");
  expect_ledger_line_per_op();

  // A crash in the drain happens after the downtime window closed; the
  // ledger must still show the split (latency past the downtime stamp).
  EXPECT_GE(last_ledger().latency_us, last_ledger().downtime_us);
  const obs::OpId failed = last_ledger().op;

  fault::injector().clear();
  cl_.run_for(3 * sim::kSecond);
  pod::Pod* cp = agents_[1]->find_pod("client-pod");
  ASSERT_NE(cp, nullptr);
  EXPECT_FALSE(cp->suspended());
  expect_no_temp_images();
  expect_san_streams_balanced();
  expect_agent_spans_closed(1, failed);
}

INSTANTIATE_TEST_SUITE_P(CowPhases, CowCrashPhaseTest,
                         ::testing::Values("ckpt.cowmark", "ckpt.drain"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

TEST_F(FaultTest, SanWriteFailDuringDrainRetriesToSuccess) {
  start_app();
  fault::FaultSpec s;
  s.kind = fault::FaultKind::SAN_WRITE_FAIL;
  s.san_prefix = "ckpt/";
  arm(s);

  Manager::CkptOptions opts;
  opts.cow = true;
  opts.deadlines = fast_deadlines();
  opts.deadlines.drain_us = 2 * sim::kSecond;
  opts.retry.max_retries = 1;
  opts.retry.backoff_us = 100 * sim::kMillisecond;
  auto cr = checkpoint(opts);

  // The drain's SAN write failed after the pods already resumed: the
  // agent reported it transient, and the whole op retried to success
  // (a COW snapshot loses only the attempt, never application state).
  EXPECT_TRUE(cr.ok) << cr.error;
  EXPECT_EQ(cr.attempts, 2u);
  ASSERT_EQ(ledger_.entries().size(), 2u);
  EXPECT_EQ(ledger_.entries()[0].outcome, "aborted");
  EXPECT_TRUE(ledger_.entries()[0].transient);
  EXPECT_TRUE(ledger_.entries()[0].will_retry);
  EXPECT_NE(ledger_.entries()[0].error.find("drain"), std::string::npos)
      << ledger_.entries()[0].error;
  EXPECT_EQ(ledger_.entries()[1].outcome, "ok");
  EXPECT_TRUE(cl_.san().exists("ckpt/server"));
  EXPECT_TRUE(cl_.san().exists("ckpt/client"));
  expect_ledger_line_per_op();
  EXPECT_EQ(wait_client(1), 0);
  expect_no_temp_images();
  expect_san_streams_balanced();
}

TEST_F(FaultTest, CrashAtDrainLeavesLastGoodImageRestartable) {
  start_app();
  auto base = checkpoint();  // blocking baseline, both images committed
  ASSERT_TRUE(base.ok) << base.error;
  auto server_before = cl_.san().read("ckpt/server");
  ASSERT_TRUE(server_before.is_ok());

  // A single-pod COW checkpoint whose agent dies mid-drain: the commit
  // never happened, so the baseline image must be byte-identical.
  fault::FaultSpec s;
  s.kind = fault::FaultKind::CRASH_AT_PHASE;
  s.node = "n1";
  s.phase = "ckpt.drain";
  arm(s);

  Manager::CkptOptions opts;
  opts.cow = true;
  opts.deadlines = fast_deadlines();
  opts.deadlines.drain_us = 2 * sim::kSecond;
  Manager::CheckpointReport cr;
  bool done = false;
  manager_->checkpoint(
      {{agents_[0]->addr(), "server-pod", "san://ckpt/server"}},
      CkptMode::SNAPSHOT,
      [&](Manager::CheckpointReport r) {
        cr = std::move(r);
        done = true;
      },
      opts);
  for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(cr.ok);
  EXPECT_TRUE(nodes_[0]->failed());

  fault::injector().clear();
  cl_.run_for(sim::kSecond);
  expect_no_temp_images();
  expect_san_streams_balanced();
  auto server_after = cl_.san().read("ckpt/server");
  ASSERT_TRUE(server_after.is_ok());
  EXPECT_EQ(server_before.value(), server_after.value());

  // The baseline pair still restarts the app byte-exactly on healthy
  // nodes (pass the baseline metas: the failed op was single-pod).
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);
  Manager::RestartReport rr;
  done = false;
  manager_->restart(
      {
          {agents_[2]->addr(), "server-pod", "san://ckpt/server"},
          {agents_[3]->addr(), "client-pod", "san://ckpt/client"},
      },
      base.metas,
      [&](Manager::RestartReport r) {
        rr = std::move(r);
        done = true;
      });
  for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(rr.ok) << rr.error;
  expect_ledger_line_per_op();
  EXPECT_EQ(wait_client(3), 0);
}

class RestartCrashPhaseTest
    : public FaultTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(RestartCrashPhaseTest, FailsWithinDeadlineAndTearsDownPartials) {
  start_app();
  auto cr = checkpoint();
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);

  fault::FaultSpec s;
  s.kind = fault::FaultKind::CRASH_AT_PHASE;
  s.node = "n3";  // the server-pod's destination agent dies
  s.phase = GetParam();
  arm(s);

  const sim::Time t0 = cl_.now();
  Manager::RestartOptions ropts;
  ropts.deadlines = fast_deadlines();
  auto rr = restart(2, 3, ropts);
  EXPECT_FALSE(rr.ok);
  EXPECT_LT(cl_.now() - t0, 8 * sim::kSecond);
  EXPECT_TRUE(nodes_[2]->failed());
  const obs::OpId failed = last_ledger().op;

  // The surviving destination tore its restored pod down again.
  fault::injector().clear();
  cl_.run_for(sim::kSecond);
  EXPECT_EQ(agents_[3]->find_pod("client-pod"), nullptr);
  expect_agent_spans_closed(3, failed);

  // The images are untouched: restarting on healthy nodes still works,
  // and every attempt along the way (including the abort) is ledgered.
  auto rr2 = restart(0, 1, ropts);
  ASSERT_TRUE(rr2.ok) << rr2.error;
  expect_ledger_line_per_op();
  EXPECT_EQ(wait_client(1), 0);
}

INSTANTIATE_TEST_SUITE_P(AllRestartPhases, RestartCrashPhaseTest,
                         ::testing::Values("restart.begin",
                                           "restart.connectivity",
                                           "restart.netstate",
                                           "restart.standalone"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace zapc::core
