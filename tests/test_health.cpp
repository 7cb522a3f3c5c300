// Introspection-plane tests (DESIGN.md §9): protocol round-trips for the
// HEARTBEAT/PROGRESS/HEALTH_* messages, the ClusterHealth aggregation
// math (median, lag, straggler attribution, early warnings), and the
// end-to-end acceptance scenario — a coordinated checkpoint with an
// injected slow node, whose pod the live plane must name as the
// straggler, with the beacons visible in the causal trace and the
// zapc.obs.health.v1 snapshot servable over the status endpoint.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "core/protocol.h"
#include "fault/fault.h"
#include "obs/event.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "os/cluster.h"
#include "tests/guest_programs.h"

namespace zapc::core {
namespace {

using test::EchoClient;
using test::EchoServer;

/// Reads a serialized health snapshot back strictly.
obs::HealthDoc read_health(const std::string& text) {
  auto j = obs::json_parse(text);
  auto doc = j ? obs::from_json<obs::HealthDoc>(j.value())
               : Result<obs::HealthDoc>(j.status());
  EXPECT_TRUE(doc.is_ok()) << doc.status().to_string();
  return doc.is_ok() ? doc.value() : obs::HealthDoc{};
}

// ---- Protocol round-trips ---------------------------------------------------

TEST(HealthProtocol, HeartbeatRoundTrips) {
  HeartbeatMsg m;
  m.op_id = 42;
  m.pod_name = "bt-1";
  m.phase = "ckpt.standalone";
  m.t_us = 123456;
  m.seq = 7;
  auto d = decode<HeartbeatMsg>(encode(m));
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().op_id, 42u);
  EXPECT_EQ(d.value().pod_name, "bt-1");
  EXPECT_EQ(d.value().phase, "ckpt.standalone");
  EXPECT_EQ(d.value().t_us, 123456u);
  EXPECT_EQ(d.value().seq, 7u);
}

TEST(HealthProtocol, ProgressRoundTrips) {
  ProgressMsg m;
  m.op_id = 42;
  m.pod_name = "bt-1";
  m.phase = "ckpt.stream";
  m.t_us = 5000;
  m.bytes_done = 1 << 20;
  m.bytes_expected = 4 << 20;
  m.throughput_bps = 1200 << 20;
  m.eta_us = 2500;
  auto d = decode<ProgressMsg>(encode(m));
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().bytes_done, u64{1} << 20);
  EXPECT_EQ(d.value().bytes_expected, u64{4} << 20);
  EXPECT_EQ(d.value().throughput_bps, u64{1200} << 20);
  EXPECT_EQ(d.value().eta_us, 2500u);
}

TEST(HealthProtocol, HealthQueryAndSnapshotRoundTrip) {
  auto q = decode<HealthQuery>(encode(HealthQuery{9}));
  ASSERT_TRUE(q.is_ok());
  EXPECT_EQ(q.value().op_id, 9u);

  HealthSnapshotMsg s;
  s.op_id = 9;
  s.json =
      std::string("{\"schema\": \"") + obs::kHealthSchemaVersion + "\"}";
  auto d = decode<HealthSnapshotMsg>(encode(s));
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().op_id, 9u);
  EXPECT_EQ(d.value().json, s.json);
}

TEST(HealthProtocol, CommandsCarryHeartbeatCadence) {
  CheckpointCmd c;
  c.pod_name = "p";
  c.dest_uri = "san://x";
  c.heartbeat_us = 10000;
  auto dc = decode<CheckpointCmd>(encode(c));
  ASSERT_TRUE(dc.is_ok());
  EXPECT_EQ(dc.value().heartbeat_us, 10000u);

  RestartCmd r;
  r.pod_name = "p";
  r.source_uri = "san://x";
  r.heartbeat_us = 7000;
  auto dr = decode<RestartCmd>(encode(r));
  ASSERT_TRUE(dr.is_ok());
  EXPECT_EQ(dr.value().heartbeat_us, 7000u);
}

// ---- ClusterHealth model ----------------------------------------------------

TEST(ClusterHealth, MedianLagAndStragglerAttribution) {
  obs::ClusterHealth h;
  h.op_begin(1, "ckpt", 1000, {"a", "b", "c"});
  EXPECT_EQ(h.latest_op(), 1u);
  EXPECT_TRUE(h.op_active(1));

  // No reports yet: no median, no straggler.
  EXPECT_EQ(h.median_finish_us(1), 0u);
  EXPECT_TRUE(h.straggler(1).pod.empty());

  h.progress(1, "a", "ckpt.standalone", 2000, 50, 100, 1'000'000, 500);
  h.progress(1, "b", "ckpt.standalone", 2000, 10, 100, 1'000'000, 3000);
  // a projects 2500, b projects 5000; c silent (not in the median).
  EXPECT_EQ(h.median_finish_us(1), 2500u);  // lower median = fast pod
  EXPECT_EQ(h.lag_us(1, "a"), 0u);
  EXPECT_EQ(h.lag_us(1, "b"), 2500u);
  EXPECT_EQ(h.lag_us(1, "c"), 0u);

  obs::Straggler s = h.straggler(1);
  EXPECT_EQ(s.pod, "b");
  EXPECT_EQ(s.phase, "ckpt.standalone");
  EXPECT_EQ(s.lag_us, 2500u);

  // A finished pod pins to its actual completion time.
  h.pod_done(1, "a", 2600);
  const obs::PodHealth* a = h.pod(1, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->done);
  EXPECT_EQ(a->projected_finish_us(), 2600u);
  EXPECT_DOUBLE_EQ(a->pct_done(), 100.0);

  h.op_end(1, 6000, true);
  EXPECT_FALSE(h.op_active(1));
}

TEST(ClusterHealth, LagWarningRaisedOncePerPhase) {
  obs::ClusterHealth h;
  h.set_policy(obs::ClusterHealth::Policy{/*warn_lag_us=*/1000,
                                          /*stale_after_us=*/0});
  h.op_begin(2, "ckpt", 0, {"a", "b"});
  h.progress(2, "a", "ckpt.standalone", 1000, 50, 100, 1, 100);
  h.progress(2, "b", "ckpt.standalone", 1000, 10, 100, 1, 5000);

  auto w = h.take_warnings();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].pod, "b");
  EXPECT_EQ(w[0].what, "lag");
  EXPECT_GE(w[0].lag_us, 1000u);

  // Sustained lag in the same phase stays deduplicated...
  h.progress(2, "b", "ckpt.standalone", 2000, 20, 100, 1, 5000);
  EXPECT_TRUE(h.take_warnings().empty());
  // ...but a new phase warns again.
  h.progress(2, "b", "ckpt.stream", 3000, 0, 100, 1, 9000);
  auto w2 = h.take_warnings();
  ASSERT_EQ(w2.size(), 1u);
  EXPECT_EQ(w2[0].phase, "ckpt.stream");
}

TEST(ClusterHealth, StalePodFlaggedWhenPeersStillReport) {
  obs::ClusterHealth h;
  h.set_policy(obs::ClusterHealth::Policy{0, /*stale_after_us=*/500});
  h.op_begin(3, "ckpt", 0, {"a", "b"});
  h.heartbeat(3, "a", "ckpt.suspend", 100);
  h.heartbeat(3, "b", "ckpt.suspend", 100);
  EXPECT_TRUE(h.take_warnings().empty());

  // b goes silent; a's next report notices.
  h.heartbeat(3, "a", "ckpt.standalone", 900);
  auto w = h.take_warnings();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].pod, "b");
  EXPECT_EQ(w[0].what, "stale");
  EXPECT_EQ(w[0].age_us, 800u);
}

TEST(ClusterHealth, SnapshotFollowsHealthV1Schema) {
  obs::ClusterHealth h;
  h.op_begin(4, "ckpt", 100, {"a", "b"});
  h.progress(4, "a", "ckpt.standalone", 1000, 25, 100, 777, 900);
  h.heartbeat(4, "b", "ckpt.suspend", 1000);

  obs::HealthDoc doc = h.snapshot(/*now=*/1500, /*op=*/0);  // 0 = latest
  EXPECT_EQ(doc.op_id, 4u);
  ASSERT_TRUE(doc.op.has_value());
  EXPECT_EQ(doc.op->kind, "ckpt");
  EXPECT_TRUE(doc.op->active);
  ASSERT_EQ(doc.op->pods.size(), 2u);
  const obs::PodStatus& a = doc.op->pods.at("a");
  EXPECT_EQ(a.phase, "ckpt.standalone");
  EXPECT_DOUBLE_EQ(a.pct_done, 25.0);
  EXPECT_EQ(a.eta_us, 900u);
  EXPECT_EQ(a.heartbeat_age_us, 500u);

  // The document round-trips through its writer and strict reader.
  const obs::Json j = obs::to_json(doc);
  auto parsed = obs::json_parse(j.dump(2));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().find("schema")->str(), obs::kHealthSchemaVersion);
  auto back = obs::from_json<obs::HealthDoc>(parsed.value());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(obs::to_json(back.value()).dump(), j.dump());
}

// ---- End-to-end: slow node named as straggler -------------------------------

net::IpAddr vip(u8 i) { return net::IpAddr(10, 78, 0, i); }

/// Manager + 2 agent nodes running the echo pair, with the introspection
/// plane enabled and a SLOW_NODE fault available for injection.
class HealthPlaneTest : public ::testing::Test {
 protected:
  HealthPlaneTest() {
    fault::injector().clear();
    mgr_node_ = &cl_.add_node("mgr");
    for (int i = 0; i < 2; ++i) {
      nodes_.push_back(&cl_.add_node("n" + std::to_string(i + 1)));
      agents_.push_back(std::make_unique<Agent>(
          *nodes_.back(), Agent::kDefaultPort, CostModel{}, &trace_));
    }
    manager_ = std::make_unique<Manager>(*mgr_node_, &trace_);

    pod::Pod& sp = agents_[0]->create_pod(vip(1), "server-pod");
    sp.spawn(std::make_unique<EchoServer>(5000));
    pod::Pod& cp = agents_[1]->create_pod(vip(2), "client-pod");
    cp.spawn(std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000},
                                          8 << 20));
    cl_.run_for(30 * sim::kMillisecond);  // mid-transfer
  }

  ~HealthPlaneTest() override { fault::injector().clear(); }

  Manager::CheckpointReport checkpoint(Manager::CkptOptions opts) {
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

  os::Cluster cl_;
  Trace trace_;
  os::Node* mgr_node_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<Manager> manager_;
};

TEST_F(HealthPlaneTest, SlowNodePodNamedStragglerWithNonzeroLag) {
  fault::FaultSpec slow;
  slow.kind = fault::FaultKind::SLOW_NODE;
  slow.node = "n2";  // hosts client-pod
  slow.multiplier = 4.0;
  fault::injector().arm(slow);

  u64 hb_before = obs::metrics().counter("mgr.hb.received").value;

  Manager::CkptOptions opts;
  opts.heartbeat_us = 5 * sim::kMillisecond;
  opts.warn_lag_us = 20 * sim::kMillisecond;
  auto report = checkpoint(opts);
  ASSERT_TRUE(report.ok) << report.error;

  // Beacons arrived and were aggregated.
  EXPECT_GT(obs::metrics().counter("mgr.hb.received").value, hb_before);

  // The slow node's pod is the straggler, with nonzero lag vs. median.
  const obs::ClusterHealth& h = manager_->health();
  obs::Straggler s = h.straggler(report.op_id);
  EXPECT_EQ(s.pod, "client-pod");
  EXPECT_GT(s.lag_us, 0u);

  // Both pods completed; the laggard finished after the median.
  const obs::PodHealth* fast = h.pod(report.op_id, "server-pod");
  const obs::PodHealth* lag = h.pod(report.op_id, "client-pod");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(lag, nullptr);
  EXPECT_TRUE(fast->done);
  EXPECT_TRUE(lag->done);
  EXPECT_GT(lag->done_at_us, fast->done_at_us);

  // The sustained lag raised an attributed early warning...
  EXPECT_GT(obs::metrics().counter("mgr.health.early_warnings").value, 0u);

  // ...and the beacons are in the causal trace under the op's spans.
  bool hb_in_trace = false;
  bool warn_in_trace = false;
  for (const obs::SpanRecord& r : trace_.recorder().spans()) {
    if (r.op != report.op_id || r.kind != obs::SpanKind::EVENT) continue;
    if (obs::ev::is(r.name, obs::ev::kHeartbeat) && r.parent != 0) {
      hb_in_trace = true;
    }
    if (obs::ev::is(r.name, obs::ev::kHealthWarn) &&
        obs::ev::field(r.name, obs::ev::kPod) == "client-pod") {
      warn_in_trace = true;
    }
  }
  EXPECT_TRUE(hb_in_trace);
  EXPECT_TRUE(warn_in_trace);

  // The snapshot names the straggler too (what zapc-top renders).
  obs::HealthDoc doc = read_health(manager_->health_json(report.op_id));
  ASSERT_TRUE(doc.op.has_value());
  EXPECT_EQ(doc.op->straggler.pod, "client-pod");
  EXPECT_GT(doc.op->straggler.lag_us, 0u);
}

TEST_F(HealthPlaneTest, PlaneOffSendsNoBeacons) {
  u64 hb_before = obs::metrics().counter("agent.hb.sent").value;
  auto report = checkpoint(Manager::CkptOptions{});  // heartbeat_us = 0
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(obs::metrics().counter("agent.hb.sent").value, hb_before);
}

TEST_F(HealthPlaneTest, StatusEndpointServesHealthSnapshot) {
  manager_->serve_status(7070);

  // A console node polls over the simulated network, like zapc-top.
  os::Node& console = cl_.add_node("console");
  auto ch = connect_channel(console.host_stack(),
                            net::SockAddr{mgr_node_->addr(), 7070});
  ASSERT_NE(ch, nullptr);
  std::string got;
  ch->set_on_msg([&](Bytes msg) {
    auto m = decode<HealthSnapshotMsg>(msg);
    if (m.is_ok()) got = m.value().json;
  });

  Manager::CkptOptions opts;
  opts.heartbeat_us = 5 * sim::kMillisecond;
  auto report = checkpoint(opts);
  ASSERT_TRUE(report.ok) << report.error;

  ASSERT_TRUE(ch->send(encode(HealthQuery{0})).is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  ASSERT_FALSE(got.empty());
  obs::HealthDoc doc = read_health(got);
  EXPECT_EQ(doc.op_id, report.op_id);
  ASSERT_TRUE(doc.op.has_value());
  EXPECT_EQ(doc.op->pods.size(), 2u);
}

TEST_F(HealthPlaneTest, StatusEndpointHandlesInterleavedQueries) {
  manager_->serve_status(7070);

  // Two consoles poll the same endpoint concurrently.
  os::Node& c1 = cl_.add_node("console1");
  os::Node& c2 = cl_.add_node("console2");
  auto ch1 = connect_channel(c1.host_stack(),
                             net::SockAddr{mgr_node_->addr(), 7070});
  auto ch2 = connect_channel(c2.host_stack(),
                             net::SockAddr{mgr_node_->addr(), 7070});
  ASSERT_NE(ch1, nullptr);
  ASSERT_NE(ch2, nullptr);
  std::vector<std::string> got1, got2;
  ch1->set_on_msg([&](Bytes msg) {
    auto m = decode<HealthSnapshotMsg>(msg);
    if (m.is_ok()) got1.push_back(m.value().json);
  });
  ch2->set_on_msg([&](Bytes msg) {
    auto m = decode<HealthSnapshotMsg>(msg);
    if (m.is_ok()) got2.push_back(m.value().json);
  });

  Manager::CkptOptions opts;
  opts.heartbeat_us = 5 * sim::kMillisecond;
  auto report = checkpoint(opts);
  ASSERT_TRUE(report.ok) << report.error;

  // A burst of queries lands with several in flight at once, from both
  // channels, mixing "latest" (op 0) with the explicit op id.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ch1->send(encode(HealthQuery{0})).is_ok());
    ASSERT_TRUE(
        ch2->send(encode(HealthQuery{report.op_id})).is_ok());
  }
  cl_.run_for(100 * sim::kMillisecond);

  // Every query got exactly one reply, and every reply is a well-formed
  // snapshot of the same completed op.
  ASSERT_EQ(got1.size(), 5u);
  ASSERT_EQ(got2.size(), 5u);
  for (const auto* side : {&got1, &got2}) {
    for (const std::string& json : *side) {
      EXPECT_EQ(read_health(json).op_id, report.op_id);
    }
  }

  // A long-lived console keeps getting answers on later polls.
  ASSERT_TRUE(ch1->send(encode(HealthQuery{0})).is_ok());
  cl_.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(got1.size(), 6u);
}

}  // namespace
}  // namespace zapc::core
