// End-to-end coordinated checkpoint-restart tests: the Manager/Agent
// protocol of Figures 1 and 3 running over the simulated cluster, with a
// live distributed application (TCP echo with byte-exact verification).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "obs/event.h"
#include "obs/span.h"
#include "os/cluster.h"
#include "tests/guest_programs.h"

namespace zapc::core {
namespace {

using test::EchoClient;
using test::EchoServer;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

/// Cluster with a manager node and several agent nodes running a
/// two-pod echo application.
class CoordinatedTest : public ::testing::Test {
 protected:
  static constexpr u32 kEchoBytes = 4 << 20;

  CoordinatedTest() {
    mgr_node_ = &cl_.add_node("mgr");
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(&cl_.add_node("n" + std::to_string(i + 1)));
      agents_.push_back(
          std::make_unique<Agent>(*nodes_.back(), Agent::kDefaultPort,
                                  CostModel{}, &trace_));
    }
    manager_ = std::make_unique<Manager>(*mgr_node_, &trace_);
  }

  /// Starts the echo app: server pod on agent 0, client pod on agent 1.
  void start_app(u32 bytes = kEchoBytes) {
    pod::Pod& sp = agents_[0]->create_pod(vip(1), "server-pod");
    server_pid_ = sp.spawn(std::make_unique<EchoServer>(5000));
    pod::Pod& cp = agents_[1]->create_pod(vip(2), "client-pod");
    client_pid_ = cp.spawn(std::make_unique<EchoClient>(
        net::SockAddr{vip(1), 5000}, bytes));
  }

  Manager::CheckpointReport checkpoint(int src_a = 0, int src_b = 1,
                                       CkptMode mode = CkptMode::SNAPSHOT) {
    Manager::CheckpointReport out;
    bool done = false;
    manager_->checkpoint(
        {
            {agents_[src_a]->addr(), "server-pod", "san://ckpt/server"},
            {agents_[src_b]->addr(), "client-pod", "san://ckpt/client"},
        },
        mode,
        [&](Manager::CheckpointReport r) {
          out = std::move(r);
          done = true;
        });
    for (int i = 0; i < 20000 && !done; ++i) {
      cl_.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  Manager::RestartReport restart(int dst_a, int dst_b) {
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
        });
    for (int i = 0; i < 20000 && !done; ++i) {
      cl_.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  /// Runs until the client exits (or gives up) and returns its exit code.
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

  os::Cluster cl_;
  Trace trace_;
  os::Node* mgr_node_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<Manager> manager_;
  i32 server_pid_ = 0;
  i32 client_pid_ = 0;
};

TEST_F(CoordinatedTest, SnapshotIsTransparentToTheApplication) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);  // mid-transfer

  auto report = checkpoint();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.agents.size(), 2u);
  EXPECT_GT(report.max_image_bytes, 0u);
  EXPECT_EQ(report.metas.count("server-pod"), 1u);
  EXPECT_EQ(report.metas.count("client-pod"), 1u);

  // The application was only paused; it completes with verified bytes.
  EXPECT_EQ(wait_client(1), 0);
}

TEST_F(CoordinatedTest, CheckpointTimesAreSubsecond) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);
  auto report = checkpoint();
  ASSERT_TRUE(report.ok);
  EXPECT_LT(report.total_us, sim::kSecond);       // paper: 100-300 ms
  EXPECT_GT(report.total_us, sim::kMillisecond);  // not instantaneous
  // Network-state checkpoint ≪ total (paper §6: <10ms, 3-10%).
  EXPECT_LT(report.max_net_ckpt_us, 10 * sim::kMillisecond);
  EXPECT_LT(report.max_net_ckpt_us * 2, report.total_us);
  // Network-state data ≪ image size (paper: KBs vs MBs).
  EXPECT_LT(report.max_network_bytes * 10, report.max_image_bytes);
}

TEST_F(CoordinatedTest, RestartOnSameNodesAfterCrash) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);
  auto report = checkpoint();
  ASSERT_TRUE(report.ok) << report.error;

  // Crash: both pods disappear with all live state.
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);

  auto rr = restart(0, 1);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(rr.agents.size(), 2u);

  // The client finishes from the checkpoint with byte-exact verification:
  // restored queues, resent send queues, discarded overlap all correct.
  EXPECT_EQ(wait_client(1), 0);
}

TEST_F(CoordinatedTest, CheckpointAfterRestartKeepsConnectionAlive) {
  // A restored connection must survive being checkpointed AGAIN — the
  // self-healing supervisor keeps the periodic policy running after a
  // recovery, so ckpt-of-a-restored-socket is a steady-state operation.
  start_app(64 << 20);
  cl_.run_for(100 * sim::kMillisecond);
  auto report = checkpoint();
  ASSERT_TRUE(report.ok) << report.error;

  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(50 * sim::kMillisecond);
  auto rr = restart(0, 1);
  ASSERT_TRUE(rr.ok) << rr.error;

  // Let the restored transfer get back up to speed, then snapshot it.
  cl_.run_for(300 * sim::kMillisecond);
  auto report2 = checkpoint();
  ASSERT_TRUE(report2.ok) << report2.error;

  EXPECT_EQ(wait_client(1), 0);
}

TEST_F(CoordinatedTest, RestartOnDifferentNodes) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);
  auto report = checkpoint();
  ASSERT_TRUE(report.ok) << report.error;

  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);

  // Restart on nodes 3 and 4: virtual addresses stay the same, the
  // location table remaps them to the new real nodes.
  auto rr = restart(2, 3);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(wait_client(3), 0);
  EXPECT_NE(agents_[2]->find_pod("server-pod"), nullptr);
  EXPECT_NE(agents_[3]->find_pod("client-pod"), nullptr);
}

TEST_F(CoordinatedTest, RestartTimesExceedCheckpointTimes) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);
  auto cr = checkpoint();
  ASSERT_TRUE(cr.ok);
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  auto rr = restart(2, 3);
  ASSERT_TRUE(rr.ok);
  EXPECT_LT(rr.total_us, sim::kSecond);   // paper: 200-700 ms
  EXPECT_GT(rr.total_us, cr.total_us / 2);  // restarts are the slower op
}

TEST_F(CoordinatedTest, DirectMigrationStreamsImages) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);

  // Checkpoint with agent:// destinations: images stream directly to the
  // receiving agents without touching storage (paper §1, §3).
  std::string uri_a = "agent://" + nodes_[2]->addr().to_string() + ":" +
                      std::to_string(Agent::kDefaultPort) + "/server-img";
  std::string uri_b = "agent://" + nodes_[3]->addr().to_string() + ":" +
                      std::to_string(Agent::kDefaultPort) + "/client-img";
  // (to_string of SockAddr includes a port; build manually from the ip)
  uri_a = "agent://" + nodes_[2]->addr().to_string() + ":7077/server-img";
  uri_b = "agent://" + nodes_[3]->addr().to_string() + ":7077/client-img";

  bool done = false;
  Manager::CheckpointReport cr;
  manager_->checkpoint(
      {
          {agents_[0]->addr(), "server-pod", uri_a},
          {agents_[1]->addr(), "client-pod", uri_b},
      },
      CkptMode::MIGRATE,
      [&](Manager::CheckpointReport r) {
        cr = std::move(r);
        done = true;
      });
  for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(cr.ok) << cr.error;

  // Migration destroyed the source pods.
  EXPECT_EQ(agents_[0]->find_pod("server-pod"), nullptr);
  EXPECT_EQ(agents_[1]->find_pod("client-pod"), nullptr);

  // Restart from the received streams.
  done = false;
  Manager::RestartReport rr;
  manager_->restart(
      {
          {agents_[2]->addr(), "server-pod", "stream://server-img"},
          {agents_[3]->addr(), "client-pod", "stream://client-img"},
      },
      {},
      [&](Manager::RestartReport r) {
        rr = std::move(r);
        done = true;
      });
  for (int i = 0; i < 60000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(wait_client(3), 0);
}

TEST_F(CoordinatedTest, MalformedAgentUriFailsMigrationWithoutThrowing) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);

  // A non-numeric port on one target: the Manager leaves that peer out
  // of the redirect map, and its agent fails the op naming the URI.
  const std::string bad =
      "agent://" + nodes_[2]->addr().to_string() + ":x/server-img";
  const std::string good =
      "agent://" + nodes_[3]->addr().to_string() + ":7077/client-img";
  Manager::CkptOptions opts;
  opts.redirect_send_queues = true;
  bool done = false;
  Manager::CheckpointReport cr;
  manager_->checkpoint(
      {
          {agents_[0]->addr(), "server-pod", bad, vip(1)},
          {agents_[1]->addr(), "client-pod", good, vip(2)},
      },
      CkptMode::MIGRATE,
      [&](Manager::CheckpointReport r) {
        cr = std::move(r);
        done = true;
      },
      opts);
  for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(cr.ok);
  EXPECT_NE(cr.error.find(bad), std::string::npos) << cr.error;

  // The failed migration resumed both source pods; the app completes.
  ASSERT_NE(agents_[0]->find_pod("server-pod"), nullptr);
  EXPECT_EQ(wait_client(1), 0);
}

TEST_F(CoordinatedTest, CheckpointOfMissingPodAbortsCleanly) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);

  bool done = false;
  Manager::CheckpointReport cr;
  manager_->checkpoint(
      {
          {agents_[0]->addr(), "server-pod", "san://ckpt/server"},
          {agents_[1]->addr(), "nonexistent-pod", "san://ckpt/x"},
      },
      CkptMode::SNAPSHOT,
      [&](Manager::CheckpointReport r) {
        cr = std::move(r);
        done = true;
      });
  for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(cr.ok);

  // The graceful abort resumed the suspended pod; the app completes.
  EXPECT_EQ(wait_client(1), 0);
}

TEST_F(CoordinatedTest, AgentNodeFailureAbortsAndOthersResume) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);

  // The client-pod's node dies mid-checkpoint: the Manager loses the
  // connection and aborts; the surviving pod resumes.
  bool done = false;
  Manager::CheckpointReport cr;
  manager_->checkpoint(
      {
          {agents_[0]->addr(), "server-pod", "san://ckpt/server"},
          {agents_[1]->addr(), "client-pod", "san://ckpt/client"},
      },
      CkptMode::SNAPSHOT,
      [&](Manager::CheckpointReport r) {
        cr = std::move(r);
        done = true;
      });
  nodes_[1]->fail();
  for (int i = 0; i < 60000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(cr.ok);
  // Give the abort a moment to reach the surviving agent; the server pod
  // must then be running again (not stuck suspended).
  cl_.run_for(100 * sim::kMillisecond);
  pod::Pod* sp = agents_[0]->find_pod("server-pod");
  ASSERT_NE(sp, nullptr);
  EXPECT_FALSE(sp->suspended());
}

TEST_F(CoordinatedTest, RepeatedCheckpointsAreStable) {
  start_app(8 << 20);
  // Ten checkpoints evenly spread through execution (paper methodology).
  for (int i = 0; i < 10; ++i) {
    cl_.run_for(15 * sim::kMillisecond);
    auto report = checkpoint();
    ASSERT_TRUE(report.ok) << "checkpoint " << i << ": " << report.error;
  }
  EXPECT_EQ(wait_client(1), 0);
}

TEST_F(CoordinatedTest, TimelineShowsSingleSyncPoint) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);
  trace_.clear();
  auto report = checkpoint();
  ASSERT_TRUE(report.ok);

  // Each agent reported meta (closed its network checkpoint) before the
  // manager's continue (Figure 2).
  sim::Time sync_time = 0;
  std::vector<sim::Time> meta_reports;
  for (const auto& r : trace_.recorder().spans()) {
    if (obs::ev::is(r.name, obs::ev::kContinue)) sync_time = r.start;
    if (r.name == "ckpt.netckpt") meta_reports.push_back(r.end);
  }
  EXPECT_EQ(meta_reports.size(), 2u);
  ASSERT_GT(sync_time, 0u);
  for (sim::Time t : meta_reports) EXPECT_LT(t, sync_time);
}

TEST_F(CoordinatedTest, CheckpointEmitsFigure2PhaseSpans) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);
  trace_.clear();
  auto report = checkpoint();
  ASSERT_TRUE(report.ok);

  // Manager spans: a root covering the whole operation, a meta-data
  // wait that ends at the single synchronization point, and a done-wait
  // from the 'continue' broadcast to the last agent's completion.
  const obs::SpanRecorder& rec = trace_.recorder();
  const obs::SpanRecord* root = rec.find_by_name("mgr.ckpt", "manager");
  const obs::SpanRecord* meta =
      rec.find_by_name("mgr.ckpt.meta_wait", "manager");
  const obs::SpanRecord* done =
      rec.find_by_name("mgr.ckpt.done_wait", "manager");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(meta, nullptr);
  ASSERT_NE(done, nullptr);
  EXPECT_FALSE(root->open);
  EXPECT_EQ(meta->parent, root->id);
  EXPECT_EQ(done->parent, root->id);
  EXPECT_EQ(meta->start, root->start);
  EXPECT_EQ(done->start, meta->end);  // single sync point
  EXPECT_LE(done->end, root->end);

  // Per-agent phase spans in Figure-2 order: suspend, then network
  // state (checkpointed FIRST), then the standalone checkpoint, then
  // the barrier wait — all nested under the agent's root span.
  obs::Time last_standalone_end = 0;
  for (const char* who : {"agent@n1", "agent@n2"}) {
    const obs::SpanRecord* aroot = rec.find_by_name("ckpt", who);
    const obs::SpanRecord* susp = rec.find_by_name("ckpt.suspend", who);
    const obs::SpanRecord* net = rec.find_by_name("ckpt.netckpt", who);
    const obs::SpanRecord* sa = rec.find_by_name("ckpt.standalone", who);
    const obs::SpanRecord* bar = rec.find_by_name("ckpt.barrier", who);
    ASSERT_NE(aroot, nullptr) << who;
    ASSERT_NE(susp, nullptr) << who;
    ASSERT_NE(net, nullptr) << who;
    ASSERT_NE(sa, nullptr) << who;
    ASSERT_NE(bar, nullptr) << who;
    for (const obs::SpanRecord* s : {aroot, susp, net, sa, bar}) {
      EXPECT_FALSE(s->open) << who << " " << s->name;
    }
    EXPECT_EQ(susp->parent, aroot->id);
    EXPECT_EQ(net->parent, aroot->id);
    EXPECT_EQ(sa->parent, aroot->id);
    EXPECT_EQ(bar->parent, aroot->id);
    EXPECT_LE(susp->end, net->start);
    EXPECT_LE(net->end, sa->start);
    // Meta-data left this agent before the manager's sync point.
    EXPECT_LE(net->end, meta->end) << who;
    last_standalone_end = std::max(last_standalone_end, sa->end);
  }
  // The slowest standalone checkpoint overlapped the barrier: it was
  // still copying when the manager broadcast 'continue' (Figure 2).
  EXPECT_GE(last_standalone_end, meta->end);
}

TEST_F(CoordinatedTest, CheckpointCarriesOneOpIdWithCrossNodeParents) {
  start_app();
  cl_.run_for(20 * sim::kMillisecond);
  trace_.clear();
  auto report = checkpoint();
  ASSERT_TRUE(report.ok);
  EXPECT_NE(report.op_id, 0u);

  const obs::SpanRecorder& rec = trace_.recorder();
  const obs::SpanRecord* root = rec.find_by_name("mgr.ckpt", "manager");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->op, report.op_id);

  // Every record of the operation carries the minted op id, and nothing
  // from another op leaked in (the trace was cleared).
  for (const auto& s : rec.spans()) {
    EXPECT_EQ(s.op, report.op_id) << s.who << " " << s.name;
  }

  // Cross-node parents: each agent's root span hangs off the Manager's,
  // and each agent's resume hangs off the Manager's 'continue' EVENT.
  const obs::SpanRecord* cont =
      rec.find_by_name(std::string(obs::ev::kContinue), "manager");
  ASSERT_NE(cont, nullptr);
  EXPECT_EQ(cont->kind, obs::SpanKind::EVENT);
  EXPECT_EQ(cont->parent, root->id);
  for (const char* who : {"agent@n1", "agent@n2"}) {
    const obs::SpanRecord* aroot = rec.find_by_name("ckpt", who);
    ASSERT_NE(aroot, nullptr) << who;
    EXPECT_EQ(aroot->parent, root->id) << who;
    bool resumed = false;
    for (const auto& s : rec.spans()) {
      if (s.who != who || !obs::ev::is(s.name, obs::ev::kResume)) continue;
      resumed = true;
      EXPECT_EQ(s.parent, cont->id) << who;
      EXPECT_GE(s.start, cont->start) << who;
    }
    EXPECT_TRUE(resumed) << who;
  }
}

TEST_F(CoordinatedTest, ConsecutiveOpsGetDistinctOpIds) {
  start_app(8 << 20);
  cl_.run_for(20 * sim::kMillisecond);
  auto cr = checkpoint();
  ASSERT_TRUE(cr.ok);
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());

  trace_.clear();
  auto rr = restart(2, 3);
  ASSERT_TRUE(rr.ok);
  EXPECT_NE(rr.op_id, 0u);
  EXPECT_NE(rr.op_id, cr.op_id);

  // Restart side: same single-op discipline, parents reach the Manager's
  // restart root, and the restored-socket events carry the op too.
  const obs::SpanRecorder& rec = trace_.recorder();
  const obs::SpanRecord* root = rec.find_by_name("mgr.restart", "manager");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->op, rr.op_id);
  int restored_events = 0;
  for (const auto& s : rec.spans()) {
    EXPECT_EQ(s.op, rr.op_id) << s.who << " " << s.name;
    if (obs::ev::is(s.name, obs::ev::kSockRestored)) ++restored_events;
    if (s.name == "restart") {
      EXPECT_EQ(s.parent, root->id) << s.who;
    }
  }
  // One restored event per established endpoint (client + server side).
  EXPECT_GE(restored_events, 2);
}

TEST_F(CoordinatedTest, FsSnapshotTakenBeforeResume) {
  start_app();
  ASSERT_TRUE(
      cl_.san().write("pods/server-pod/output.dat", Bytes{1, 2, 3}).is_ok());
  cl_.run_for(20 * sim::kMillisecond);

  bool done = false;
  Manager::CheckpointReport cr;
  manager_->checkpoint(
      {
          {agents_[0]->addr(), "server-pod", "san://ckpt/server"},
          {agents_[1]->addr(), "client-pod", "san://ckpt/client"},
      },
      CkptMode::SNAPSHOT,
      [&](Manager::CheckpointReport r) {
        cr = std::move(r);
        done = true;
      },
      Manager::CkptOptions{.redirect_send_queues = false,
                           .fs_snapshot = true});
  for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(cr.ok);
  EXPECT_TRUE(cl_.san().exists("snapshots/server-pod/output.dat"));
}

}  // namespace
}  // namespace zapc::core
