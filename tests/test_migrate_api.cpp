// Manager::migrate(): live migration as a single operation — coordinated
// MIGRATE checkpoint with direct streaming + redirect, then the
// coordinated restart on the destination agents.
#include <gtest/gtest.h>

#include "core/agent.h"
#include "core/manager.h"
#include "os/cluster.h"
#include "tests/guest_programs.h"

namespace zapc::core {
namespace {

using test::EchoClient;
using test::EchoServer;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

TEST(MigrateApi, OneCallMovesAWholeJob) {
  os::Cluster cl;
  os::Node* mgr_node = &cl.add_node("mgr");
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < 4; ++i) {
    agents.push_back(
        std::make_unique<Agent>(cl.add_node("n" + std::to_string(i + 1))));
  }
  Manager mgr(*mgr_node);

  pod::Pod& sp = agents[0]->create_pod(vip(1), "srv");
  sp.spawn(std::make_unique<EchoServer>(5000));
  pod::Pod& cp = agents[1]->create_pod(vip(2), "cli");
  i32 cpid = cp.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 6 << 20));
  cl.run_for(20 * sim::kMillisecond);  // mid-transfer

  bool done = false;
  Manager::MigrateReport mr;
  mgr.migrate(
      {
          {agents[0]->addr(), agents[2]->addr(), "srv", vip(1)},
          {agents[1]->addr(), agents[3]->addr(), "cli", vip(2)},
      },
      [&](Manager::MigrateReport r) {
        mr = std::move(r);
        done = true;
      });
  for (int i = 0; i < 60000 && !done; ++i) cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(mr.ok) << mr.error;
  EXPECT_TRUE(mr.checkpoint.ok);
  EXPECT_TRUE(mr.restart.ok);
  EXPECT_GT(mr.total_us, 0u);

  // Source agents no longer host the pods; destinations do.
  EXPECT_EQ(agents[0]->find_pod("srv"), nullptr);
  EXPECT_EQ(agents[1]->find_pod("cli"), nullptr);
  ASSERT_NE(agents[2]->find_pod("srv"), nullptr);
  ASSERT_NE(agents[3]->find_pod("cli"), nullptr);

  // The echo stream completes byte-exact on the new nodes.
  pod::Pod* moved = agents[3]->find_pod("cli");
  for (int i = 0; i < 12000; ++i) {
    cl.run_for(10 * sim::kMillisecond);
    os::Process* p = moved->find_process(cpid);
    if (p->state() == os::ProcState::EXITED) {
      EXPECT_EQ(p->exit_code(), 0);
      return;
    }
  }
  FAIL() << "client did not finish after migration";
}

/// Each received agent:// stream is released once the restore it fed
/// has finished OK and its op closed: back-to-back migrations of a job
/// between two node pairs leave no image bytes behind on any agent.
TEST(MigrateApi, BackToBackMigrationsRetainNoStreams) {
  os::Cluster cl;
  os::Node* mgr_node = &cl.add_node("mgr");
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < 4; ++i) {
    agents.push_back(
        std::make_unique<Agent>(cl.add_node("n" + std::to_string(i + 1))));
  }
  Manager mgr(*mgr_node);

  agents[0]->create_pod(vip(1), "srv").spawn(
      std::make_unique<EchoServer>(5000));
  agents[1]->create_pod(vip(2), "cli").spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 6 << 20));
  cl.run_for(20 * sim::kMillisecond);

  for (int round = 0; round < 4; ++round) {
    const int from = round % 2 == 0 ? 0 : 2;
    const int to = 2 - from;
    bool done = false;
    Manager::MigrateReport mr;
    mgr.migrate(
        {
            {agents[from]->addr(), agents[to]->addr(), "srv", vip(1)},
            {agents[from + 1]->addr(), agents[to + 1]->addr(), "cli",
             vip(2)},
        },
        [&](Manager::MigrateReport r) {
          mr = std::move(r);
          done = true;
        });
    for (int i = 0; i < 60000 && !done; ++i) cl.run_for(sim::kMillisecond);
    ASSERT_TRUE(done) << "round " << round;
    ASSERT_TRUE(mr.ok) << "round " << round << ": " << mr.error;
    ASSERT_NE(agents[to]->find_pod("srv"), nullptr);
    // Long enough for the Manager's channel close to reach the agents.
    cl.run_for(20 * sim::kMillisecond);
    for (std::size_t a = 0; a < agents.size(); ++a) {
      EXPECT_EQ(agents[a]->retained_streams(), 0u)
          << "round " << round << ", agent " << a;
    }
  }
}

TEST(MigrateApi, FailedCheckpointReportsAndPreservesSource) {
  os::Cluster cl;
  os::Node* mgr_node = &cl.add_node("mgr");
  Agent a1(cl.add_node("n1"));
  Agent a2(cl.add_node("n2"));
  Manager mgr(*mgr_node);

  bool done = false;
  Manager::MigrateReport mr;
  mgr.migrate({{a1.addr(), a2.addr(), "no-such-pod", vip(1)}},
              [&](Manager::MigrateReport r) {
                mr = std::move(r);
                done = true;
              });
  for (int i = 0; i < 30000 && !done; ++i) cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(mr.ok);
  EXPECT_FALSE(mr.checkpoint.ok);
  EXPECT_NE(mr.error.find("checkpoint:"), std::string::npos);
}

}  // namespace
}  // namespace zapc::core
