// Self-healing supervisor tests (DESIGN.md §12): the committed-image
// catalog is crash-safe and survives reloads, a killed node is detected
// and the application auto-recovers byte-exactly onto survivors with a
// trigger=supervisor ledger row carrying MTTR, a death mid-COW-drain
// recovers from the *previous* committed set (never a half-drained
// image), and the detector discriminates dead nodes from slow or
// beacon-blacked-out ones (quarantine, not recovery).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "fault/fault.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "os/cluster.h"
#include "super/catalog.h"
#include "super/supervisor.h"
#include "tests/guest_programs.h"

namespace zapc::super {
namespace {

using test::EchoClient;
using test::EchoServer;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

u64 counter_value(const std::string& name) {
  const auto snap = obs::metrics().snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

ckpt::NetMeta sample_meta(u8 i) {
  ckpt::NetMeta m;
  m.pod_vip = vip(i);
  ckpt::NetMetaEntry e;
  e.sock = 3;
  e.source = net::SockAddr{vip(i), 5000};
  e.target = net::SockAddr{vip(static_cast<u8>(i + 1)), 6000};
  e.pcb_sent = 17;
  e.pcb_acked = 11;
  e.pcb_recv = 5;
  m.entries.push_back(e);
  return m;
}

CatalogEntry sample_entry(obs::OpId op, sim::Time t) {
  CatalogEntry e;
  e.op = op;
  e.t_us = t;
  CatalogImage im;
  im.agent_ip = "192.168.1.2";
  im.agent_port = 7070;
  im.pod = "server-pod";
  im.uri = "san://ckpt/server";
  im.vip = vip(1);
  im.meta = sample_meta(1);
  e.images.push_back(im);
  return e;
}

// ---- Catalog ---------------------------------------------------------------

TEST(Catalog, EntryRoundTripsThroughJson) {
  CatalogEntry e = sample_entry(42, 123456);
  auto back = obs::from_json<CatalogEntry>(catalog_entry_to_json(e));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const CatalogEntry& r = back.value();
  EXPECT_EQ(r.op, 42u);
  EXPECT_EQ(r.t_us, 123456u);
  ASSERT_EQ(r.images.size(), 1u);
  EXPECT_EQ(r.images[0].agent_ip, "192.168.1.2");
  EXPECT_EQ(r.images[0].agent_port, 7070);
  EXPECT_EQ(r.images[0].pod, "server-pod");
  EXPECT_EQ(r.images[0].uri, "san://ckpt/server");
  EXPECT_EQ(r.images[0].vip, vip(1));
  EXPECT_EQ(r.images[0].meta.pod_vip, vip(1));
  ASSERT_EQ(r.images[0].meta.entries.size(), 1u);
  EXPECT_EQ(r.images[0].meta.entries[0].pcb_sent, 17u);
  EXPECT_EQ(r.images[0].meta.entries[0].pcb_acked, 11u);
}

TEST(Catalog, SurvivesReloadAndSkipsTornTail) {
  os::Cluster cl;
  {
    Catalog cat(cl.san());
    EXPECT_EQ(cat.size(), 0u);
    EXPECT_FALSE(cat.latest().has_value());
    ASSERT_TRUE(cat.append(sample_entry(1, 100)).ok());
    ASSERT_TRUE(cat.append(sample_entry(2, 200)).ok());
  }
  // A new manager (fresh Catalog) sees both committed sets.
  {
    Catalog cat(cl.san());
    ASSERT_EQ(cat.size(), 2u);
    EXPECT_EQ(cat.latest()->op, 2u);
    EXPECT_EQ(cat.skipped_torn(), 0);
  }
  // Tear the tail (crash mid-append of a third entry): the loader skips
  // the torn line and the previous generation stays restorable.
  {
    auto raw = cl.san().read("super/catalog");
    ASSERT_TRUE(raw.is_ok());
    Bytes data = raw.value();
    const std::string torn = "{\"schema\":\"zapc.obs.catalog.v1\",\"op\":3";
    data.insert(data.end(), torn.begin(), torn.end());
    ASSERT_TRUE(cl.san().write("super/catalog", std::move(data)).ok());
  }
  {
    Catalog cat(cl.san());
    ASSERT_EQ(cat.size(), 2u);
    EXPECT_EQ(cat.latest()->op, 2u);
    EXPECT_EQ(cat.skipped_torn(), 1);
  }
  // No staging residue: append renamed its temp over the live object.
  EXPECT_FALSE(cl.san().exists("super/catalog.tmp"));
}

// ---- Ledger trigger/MTTR back-compat ---------------------------------------

TEST(LedgerCompat, OldLinesDecodeAsManualWithNoMttr) {
  obs::LedgerEntry e;
  e.op = 7;
  e.kind = "restart";
  e.outcome = "ok";
  obs::Json j = obs::to_json(e);
  // A manual op with no MTTR emits neither field (old readers see
  // byte-identical lines)...
  EXPECT_EQ(j.find("trigger"), nullptr);
  EXPECT_EQ(j.find("mttr_us"), nullptr);
  // ...and a line written before the supervisor existed folds back to
  // the defaults.
  auto back = obs::from_json<obs::LedgerEntry>(j);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().trigger, "manual");
  EXPECT_EQ(back.value().mttr_us, 0u);

  e.trigger = "supervisor";
  e.mttr_us = 123456;
  auto back2 = obs::from_json<obs::LedgerEntry>(obs::to_json(e));
  ASSERT_TRUE(back2.is_ok());
  EXPECT_EQ(back2.value().trigger, "supervisor");
  EXPECT_EQ(back2.value().mttr_us, 123456u);
}

// ---- Supervisor ------------------------------------------------------------

/// Manager node + four supervised agent nodes running a live echo pair:
/// server-pod on n1, client-pod on n2 (n3/n4 idle spare capacity).
class SuperTest : public ::testing::Test {
 protected:
  // Echo throughput is ~115 MB/s of virtual time: the default transfer
  // is enough for detector-only tests, the end-to-end recovery tests
  // pass a transfer big enough to outlive kill + detection + restart.
  static constexpr u32 kEchoBytes = 8 << 20;
  static constexpr u32 kLongEchoBytes = 128 << 20;

  SuperTest() {
    fault::injector().clear();
    mgr_node_ = &cl_.add_node("mgr");
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(&cl_.add_node("n" + std::to_string(i + 1)));
      agents_.push_back(std::make_unique<core::Agent>(
          *nodes_.back(), core::Agent::kDefaultPort, core::CostModel{},
          &trace_));
    }
    manager_ = std::make_unique<core::Manager>(*mgr_node_, &trace_);
    manager_->set_ledger(&ledger_);
  }

  ~SuperTest() override { fault::injector().clear(); }

  Supervisor::Options fast_options() {
    Supervisor::Options o;
    o.heartbeat_us = 20 * sim::kMillisecond;  // suspect 80ms, dead 320ms
    o.coalesce_us = 10 * sim::kMillisecond;
    o.recovery_backoff_us = 50 * sim::kMillisecond;
    o.ckpt.deadlines.connect_us = 1 * sim::kSecond;
    o.ckpt.deadlines.meta_us = 3 * sim::kSecond;
    o.ckpt.deadlines.done_us = 3 * sim::kSecond;
    o.ckpt.deadlines.agent_barrier_us = 3 * sim::kSecond;
    o.ckpt.deadlines.drain_us = 3 * sim::kSecond;
    o.restart.deadlines.connect_us = 1 * sim::kSecond;
    o.restart.deadlines.restart_us = 5 * sim::kSecond;
    return o;
  }

  void start_app(u32 bytes = kEchoBytes) {
    pod::Pod& sp = agents_[0]->create_pod(vip(1), "server-pod");
    (void)sp.spawn(std::make_unique<EchoServer>(5000));
    pod::Pod& cp = agents_[1]->create_pod(vip(2), "client-pod");
    client_pid_ = cp.spawn(std::make_unique<EchoClient>(
        net::SockAddr{vip(1), 5000}, bytes));
    cl_.run_for(20 * sim::kMillisecond);
  }

  void start_supervisor(Supervisor::Options opts) {
    std::vector<Supervisor::AgentRef> refs;
    for (int i = 0; i < 4; ++i) {
      refs.push_back({agents_[i]->addr(), nodes_[i]->name()});
    }
    supervisor_ = std::make_unique<Supervisor>(*mgr_node_, *manager_,
                                               std::move(refs), opts, &trace_);
    supervisor_->start({
        {agents_[0]->addr(), "server-pod", "san://ckpt/server"},
        {agents_[1]->addr(), "client-pod", "san://ckpt/client"},
    });
  }

  core::Manager::CheckpointReport checkpoint(core::Manager::CkptOptions opts) {
    core::Manager::CheckpointReport out;
    bool done = false;
    manager_->checkpoint(
        {
            {agents_[0]->addr(), "server-pod", "san://ckpt/server"},
            {agents_[1]->addr(), "client-pod", "san://ckpt/client"},
        },
        core::CkptMode::SNAPSHOT,
        [&](core::Manager::CheckpointReport r) {
          out = std::move(r);
          done = true;
        },
        opts);
    for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
    EXPECT_TRUE(done);
    return out;
  }

  /// Waits for the echo client to exit wherever its pod now lives,
  /// skipping pods stranded on failed nodes (zombies never finish).
  i32 wait_client(sim::Time budget = 240 * sim::kSecond) {
    for (sim::Time t = 0; t < budget; t += 10 * sim::kMillisecond) {
      cl_.run_for(10 * sim::kMillisecond);
      for (int i = 0; i < 4; ++i) {
        if (nodes_[i]->failed()) continue;
        pod::Pod* cp = agents_[i]->find_pod("client-pod");
        if (cp == nullptr) continue;
        os::Process* p = cp->find_process(client_pid_);
        if (p != nullptr && p->state() == os::ProcState::EXITED) {
          return p->exit_code();
        }
      }
    }
    return -101;
  }

  void expect_no_temp_images() {
    for (const std::string& path : cl_.san().list("")) {
      EXPECT_FALSE(path.size() >= 4 &&
                   path.compare(path.size() - 4, 4, ".tmp") == 0)
          << "orphan temp image: " << path;
    }
  }

  os::Cluster cl_;
  core::Trace trace_;
  os::Node* mgr_node_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<core::Agent>> agents_;
  std::unique_ptr<core::Manager> manager_;
  obs::Ledger ledger_;
  i32 client_pid_ = 0;
  // Last member: its channels must close before the agents go away.
  std::unique_ptr<Supervisor> supervisor_;
};

TEST_F(SuperTest, KilledNodeIsAutoRecoveredOntoSurvivors) {
  const u64 recoveries_before = counter_value("super.recovery.ok");
  start_app(kLongEchoBytes);
  Supervisor::Options opts = fast_options();
  opts.ckpt_interval_us = 250 * sim::kMillisecond;
  start_supervisor(opts);

  // Kill the server's node at a virtual instant between periodic
  // commits — nothing but the armed fault touches the cluster.
  fault::FaultSpec kill;
  kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
  kill.node = "n1";
  kill.at_us = 600 * sim::kMillisecond;
  fault::injector().arm(kill);

  // The catalog must have a committed set before the kill lands.
  cl_.run_for(550 * sim::kMillisecond);
  ASSERT_GE(supervisor_->catalog().size(), 1u);
  const std::size_t committed_before_kill = supervisor_->catalog().size();

  // Zero operator action from here on: detection, re-map, restart.
  i32 ec = wait_client();
  EXPECT_EQ(ec, 0) << "application did not survive the node kill";
  EXPECT_TRUE(nodes_[0]->failed());
  EXPECT_EQ(supervisor_->node_state("n1"), NodeState::DEAD);
  EXPECT_EQ(supervisor_->state(), Supervisor::State::IDLE);
  EXPECT_EQ(supervisor_->recoveries(), 1u);
  EXPECT_EQ(counter_value("super.recovery.ok"), recoveries_before + 1);
  ASSERT_GE(supervisor_->catalog().size(), committed_before_kill);

  // The recovery left exactly one successful supervisor restart row,
  // carrying the detect→restored MTTR.
  int recovery_rows = 0;
  for (const obs::LedgerEntry& e : ledger_.entries()) {
    if (e.kind != "restart" || e.trigger != "supervisor") continue;
    if (e.outcome != "ok") continue;
    ++recovery_rows;
    EXPECT_GT(e.mttr_us, 0u);
    EXPECT_EQ(e.mttr_us, supervisor_->last_recovery()->mttr_us);
  }
  EXPECT_EQ(recovery_rows, 1);

  // Periodic checkpoints kept flowing to supervisor-trigger ledger rows.
  int super_ckpts = 0;
  for (const obs::LedgerEntry& e : ledger_.entries()) {
    if (e.kind == "ckpt" && e.trigger == "supervisor" && e.outcome == "ok") {
      ++super_ckpts;
    }
  }
  EXPECT_GT(super_ckpts, 0);

  ASSERT_TRUE(supervisor_->last_recovery().has_value());
  const obs::LastRecovery& lr = *supervisor_->last_recovery();
  EXPECT_TRUE(lr.ok);
  EXPECT_EQ(lr.dead_nodes, "n1");
  EXPECT_GT(lr.mttr_us, 0u);

  // The server pod moved to a survivor; the status document says so.
  obs::SupervisorStatus st = supervisor_->status();
  EXPECT_EQ(st.state, "idle");
  ASSERT_TRUE(st.last_recovery.has_value());
  EXPECT_TRUE(st.last_recovery->ok);
  expect_no_temp_images();

  // The GC bounds SAN growth: only the newest two supervisor-stamped
  // generations survive, no matter how many intervals elapsed.
  int generation_images = 0;
  for (const std::string& path : cl_.san().list("ckpt/")) {
    if (path.find('@') != std::string::npos) ++generation_images;
  }
  EXPECT_LE(generation_images, 4) << "superseded generations not GC'd";
}

TEST_F(SuperTest, DeathMidCowDrainRecoversFromPreviousCommittedSet) {
  start_app(kLongEchoBytes);
  start_supervisor(fast_options());  // no periodic policy: ckpts driven here

  core::Manager::CkptOptions cow = fast_options().ckpt;
  cow.cow = true;

  // Commit one clean COW checkpoint: the restorable baseline.
  auto first = checkpoint(cow);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(supervisor_->catalog().size(), 1u);
  const obs::OpId committed_op = supervisor_->catalog().latest()->op;

  // The server's node dies as it enters the background drain of the next
  // checkpoint: pods have resumed, images are half-drained, nothing may
  // reach the catalog.
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::CRASH_AT_PHASE;
  crash.node = "n1";
  crash.phase = "ckpt.drain";
  fault::injector().arm(crash);

  auto second = checkpoint(cow);
  EXPECT_FALSE(second.ok);
  EXPECT_TRUE(nodes_[0]->failed());
  // The half-drained op never entered the catalog: recovery restores the
  // previous committed set.
  ASSERT_EQ(supervisor_->catalog().size(), 1u);
  EXPECT_EQ(supervisor_->catalog().latest()->op, committed_op);

  i32 ec = wait_client();
  EXPECT_EQ(ec, 0) << "application not byte-exact after mid-drain death";
  EXPECT_EQ(supervisor_->state(), Supervisor::State::IDLE);
  EXPECT_EQ(supervisor_->recoveries(), 1u);
  EXPECT_EQ(supervisor_->catalog().size(), 1u);
  expect_no_temp_images();
}

/// A node dying in its beacon loop while its COW drain holds a SAN
/// stream must give the grant back: a leaked BACKGROUND stream would
/// split every later drain's share with a dead node forever.
TEST_F(SuperTest, NodeDeathMidDrainReleasesItsSanStream) {
  start_app(kLongEchoBytes);
  // Ballast in the server pod: its drain (~100 ms) outlives the beacon
  // tick (20 ms) that lands the kill.
  pod::Pod* sp = agents_[0]->find_pod("server-pod");
  ASSERT_NE(sp, nullptr);
  i32 pid = sp->spawn(std::make_unique<test::CounterProgram>(1u << 30, 1000));
  sp->find_process(pid)->region("ballast", 128 << 20).assign(128 << 20, 0x5a);
  start_supervisor(fast_options());

  core::Manager::CkptOptions cow = fast_options().ckpt;
  cow.cow = true;
  ASSERT_TRUE(checkpoint(cow).ok);  // the set recovery restores

  core::Manager::CheckpointReport second;
  bool done = false;
  manager_->checkpoint(
      {
          {agents_[0]->addr(), "server-pod", "san://ckpt/server"},
          {agents_[1]->addr(), "client-pod", "san://ckpt/client"},
      },
      core::CkptMode::SNAPSHOT,
      [&](core::Manager::CheckpointReport r) {
        second = std::move(r);
        done = true;
      },
      cow);
  // The server pod resumes the instant its drain starts.
  bool suspended = false;
  for (int i = 0; i < 20000 && !(suspended && !sp->suspended()); ++i) {
    cl_.run_for(100);
    suspended = suspended || sp->suspended();
  }
  ASSERT_FALSE(sp->suspended());
  ASSERT_GT(cl_.san().active_drains(), 0u);
  fault::FaultSpec kill;
  kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
  kill.node = "n1";
  kill.at_us = cl_.now();
  fault::injector().arm(kill);

  // Detection, then recovery onto the survivors from the first set.
  for (int i = 0; i < 10000 && supervisor_->recoveries() == 0; ++i) {
    cl_.run_for(sim::kMillisecond);
  }
  cl_.run_for(100 * sim::kMillisecond);
  EXPECT_TRUE(nodes_[0]->failed());
  ASSERT_TRUE(done);
  EXPECT_FALSE(second.ok) << "the kill landed after the drain committed";
  EXPECT_EQ(supervisor_->recoveries(), 1u);
  EXPECT_EQ(supervisor_->state(), Supervisor::State::IDLE);
  EXPECT_EQ(cl_.san().active_foreground(), 0u);
  EXPECT_EQ(cl_.san().active_drains(), 0u);
}

TEST_F(SuperTest, SlowNodeIsQuarantinedNotDeclaredDead) {
  const u64 started_before = counter_value("super.recovery.started");
  start_app();
  start_supervisor(fast_options());

  // 8x slowdown dilates n2's beacon loop to ~160ms — far beyond the 80ms
  // suspect threshold, still under the 320ms dead threshold.  A slow pod
  // must never trigger a recovery.
  fault::FaultSpec slow;
  slow.kind = fault::FaultKind::SLOW_NODE;
  slow.node = "n2";
  slow.multiplier = 8.0;
  slow.node_ip = nodes_[1]->addr().v;
  fault::injector().arm(slow);

  cl_.run_for(4 * sim::kSecond);
  EXPECT_NE(supervisor_->node_state("n2"), NodeState::DEAD);
  EXPECT_EQ(supervisor_->state(), Supervisor::State::IDLE);
  EXPECT_EQ(supervisor_->recoveries(), 0u);
  EXPECT_EQ(counter_value("super.recovery.started"), started_before);
  // The flapping was damped into quarantine instead of an alarm storm.
  EXPECT_EQ(supervisor_->node_state("n2"), NodeState::QUARANTINED);
  EXPECT_GT(counter_value("super.false_alarms"), 0u);
}

TEST_F(SuperTest, HeartbeatBlackoutIsAFalseAlarmNotADeath) {
  const u64 started_before = counter_value("super.recovery.started");
  start_app();
  start_supervisor(fast_options());

  // Beacons silently dropped for 200ms (dead threshold 320ms) while the
  // node and its channels stay alive: the detector reaches SUSPECT, the
  // node speaks again, no recovery fires.
  fault::FaultSpec blackout;
  blackout.kind = fault::FaultKind::HEARTBEAT_BLACKOUT;
  blackout.node = "n3";
  blackout.at_us = 300 * sim::kMillisecond;
  blackout.duration_us = 200 * sim::kMillisecond;
  fault::injector().arm(blackout);

  cl_.run_for(2 * sim::kSecond);
  EXPECT_NE(supervisor_->node_state("n3"), NodeState::DEAD);
  EXPECT_EQ(supervisor_->recoveries(), 0u);
  EXPECT_EQ(counter_value("super.recovery.started"), started_before);
  EXPECT_GT(counter_value("super.false_alarms"), 0u);
}

TEST_F(SuperTest, HealthJsonCarriesTheSupervisorSection) {
  start_supervisor(fast_options());
  cl_.run_for(100 * sim::kMillisecond);
  // health_json() serves the same document as the status endpoint.
  auto j = obs::json_parse(manager_->health_json());
  ASSERT_TRUE(j.is_ok()) << j.status().to_string();
  auto doc = obs::from_json<obs::HealthDoc>(j.value());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  ASSERT_TRUE(doc.value().supervisor.has_value());
  EXPECT_EQ(doc.value().supervisor->state, "idle");
  EXPECT_EQ(doc.value().supervisor->nodes.size(), 4u);
}

TEST_F(SuperTest, NoCommittedCatalogMeansDegradedNotCrashLoop) {
  const u64 gave_up_before = counter_value("super.recovery.gave_up");
  start_app();
  start_supervisor(fast_options());  // no periodic ckpt, no manual ckpt

  fault::FaultSpec kill;
  kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
  kill.node = "n1";
  kill.at_us = 200 * sim::kMillisecond;
  fault::injector().arm(kill);

  cl_.run_for(2 * sim::kSecond);
  EXPECT_EQ(supervisor_->node_state("n1"), NodeState::DEAD);
  EXPECT_EQ(supervisor_->state(), Supervisor::State::DEGRADED);
  EXPECT_EQ(supervisor_->attempts_remaining(), 0u);
  ASSERT_TRUE(supervisor_->last_recovery().has_value());
  EXPECT_FALSE(supervisor_->last_recovery()->ok);
  EXPECT_EQ(counter_value("super.recovery.gave_up"), gave_up_before + 1);
  EXPECT_EQ(supervisor_->status().state, "degraded");
}

}  // namespace
}  // namespace zapc::super
