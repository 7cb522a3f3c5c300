// Pipelined lazy restart (DESIGN.md §13): the SAN QoS scheduler's
// weighted fair shares, ranged SAN reads, the pipelined/lazy cost-model
// identities, the EPILOGUE_DONE message, and the end-to-end
// properties — pipelining and laziness cut restart downtime
// monotonically, lazy images restart live apps byte-exactly across a
// node remap, demand faults pull cold regions forward, and a node crash
// inside the lazy window fails the op cleanly instead of hanging it.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/cost_model.h"
#include "core/manager.h"
#include "core/protocol.h"
#include "fault/fault.h"
#include "obs/event.h"
#include "obs/ledger.h"
#include "os/cluster.h"
#include "os/san.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"
#include "tools/trace_analysis.h"

ZAPC_REGISTER_PROGRAM(lazy_region_toucher, zapc::test::RegionToucher)

namespace zapc::core {
namespace {

using test::CounterProgram;
using test::EchoClient;
using test::EchoServer;
using test::RegionToucher;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 82, 0, i); }

// ---- SAN QoS scheduler ------------------------------------------------------

TEST(SanQos, WeightedFairSharesFollowPolicy) {
  os::VirtualSAN san;
  // A lone drain is clipped at the cap: even an idle SAN never hands the
  // whole pipe to background traffic, so a recovery arriving mid-chunk
  // finds immediate headroom.
  u64 d1 = san.stream_begin(os::SanStreamClass::BACKGROUND);
  EXPECT_DOUBLE_EQ(san.stream_share(d1), 0.85);
  EXPECT_EQ(san.active_drains(), 1u);
  EXPECT_FALSE(san.foreground_active());

  // Sibling drains split the pipe evenly (contention, not throttling).
  u64 d2 = san.stream_begin(os::SanStreamClass::BACKGROUND);
  EXPECT_DOUBLE_EQ(san.stream_share(d1), 0.5);
  EXPECT_DOUBLE_EQ(san.stream_share(d2), 0.5);

  // A foreground restart squeezes ALL drains to the background floor
  // and takes the rest for itself.
  u64 f1 = san.stream_begin(os::SanStreamClass::FOREGROUND);
  EXPECT_DOUBLE_EQ(san.stream_share(f1), 0.95);
  EXPECT_DOUBLE_EQ(san.stream_share(d1), 0.025);
  EXPECT_DOUBLE_EQ(san.stream_share(d2), 0.025);

  // Foregrounds split their pool evenly among themselves.
  u64 f2 = san.stream_begin(os::SanStreamClass::FOREGROUND);
  EXPECT_DOUBLE_EQ(san.stream_share(f1), 0.475);
  EXPECT_DOUBLE_EQ(san.stream_share(f2), 0.475);

  // A foreground with no drains active owns the whole pipe.
  san.stream_end(f2);
  san.stream_end(d1);
  san.stream_end(d2);
  EXPECT_DOUBLE_EQ(san.stream_share(f1), 1.0);

  // Streams re-consult at chunk boundaries, so ending the foreground is
  // the "resume" half of pause-resume: the drain snaps back.
  u64 d3 = san.stream_begin(os::SanStreamClass::BACKGROUND);
  EXPECT_DOUBLE_EQ(san.stream_share(d3), 0.05);
  san.stream_end(f1);
  EXPECT_DOUBLE_EQ(san.stream_share(d3), 0.85);
  san.stream_end(d3);

  // Unknown streams (already ended, or never begun) default to the
  // whole pipe rather than dividing by zero.
  EXPECT_DOUBLE_EQ(san.stream_share(d3), 1.0);
}

TEST(SanQos, PolicyKeepsSoloDrainSerializeBound) {
  // The cap is calibrated so a drain alone on the SAN is still bound by
  // the node's serializer, keeping COW latency unchanged when nothing
  // competes — and the floor keeps a concurrent drain's restart
  // slowdown well under the 10% bar.
  os::VirtualSAN san;
  CostModel m;
  const double cap = san.qos().drain_cap;
  EXPECT_GE(static_cast<double>(m.san_drain_bytes_per_sec) * cap,
            static_cast<double>(m.ckpt_bytes_per_sec));
  const u64 chunk = 1 << 20;
  EXPECT_EQ(m.qos_drain_chunk_cost(chunk, cap), m.serialize_cost(chunk));
  // Foreground fetch at a 0.95 share loses less than 10% of its rate.
  EXPECT_LE(m.restart_chunk_cost(chunk, 0.95),
            m.restart_chunk_cost(chunk, 1.0) * 11 / 10);
}

TEST(SanRangedRead, ReadAtClampsAndErrors) {
  os::VirtualSAN san;
  Bytes obj(10);
  for (std::size_t i = 0; i < obj.size(); ++i) obj[i] = static_cast<u8>(i);
  ASSERT_TRUE(san.write("img", obj).is_ok());

  auto mid = san.read_at("img", 2, 4);
  ASSERT_TRUE(mid.is_ok());
  ASSERT_EQ(mid.value().size(), 4u);
  EXPECT_EQ(mid.value()[0], 2u);
  EXPECT_EQ(mid.value()[3], 5u);

  // Reads past the end clamp; reads starting past the end are empty.
  auto tail = san.read_at("img", 8, 100);
  ASSERT_TRUE(tail.is_ok());
  EXPECT_EQ(tail.value().size(), 2u);
  auto past = san.read_at("img", 12, 4);
  ASSERT_TRUE(past.is_ok());
  EXPECT_TRUE(past.value().empty());

  auto missing = san.read_at("nope", 0, 4);
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.err(), Err::NO_ENT);
}

// ---- Cost model -------------------------------------------------------------

TEST(LazyCostModel, PipelinedChunkCostsSlowestLeg) {
  CostModel m;
  const u64 chunk = 1 << 20;
  // Full SAN share: decode (the slowest leg at defaults) dominates.
  EXPECT_EQ(m.restart_chunk_cost(chunk, 1.0),
            CostModel::bytes_cost(chunk, m.restart_decode_bytes_per_sec));
  // Squeezed fetch: the QoS share scales only the fetch leg, which then
  // dominates once it drops below the decode rate.
  EXPECT_EQ(m.restart_chunk_cost(chunk, 0.05),
            CostModel::bytes_cost(
                chunk, static_cast<u64>(
                           static_cast<double>(m.restart_fetch_bytes_per_sec) *
                           0.05)));
  EXPECT_GT(m.restart_chunk_cost(chunk, 0.05),
            m.restart_chunk_cost(chunk, 1.0));
  // A lazy fill has no rebuild leg; at full share it is decode-bound.
  EXPECT_EQ(m.lazy_fill_cost(chunk, 1.0),
            CostModel::bytes_cost(chunk, m.restart_decode_bytes_per_sec));
  EXPECT_GE(m.lazy_fill_cost(chunk, 0.05), m.lazy_fill_cost(chunk, 1.0));
}

TEST(LazyCostModel, SplitRatesHarmonizeToMonolithicRate) {
  // The pipelined legs are calibrated so paying them serially matches
  // the monolithic restart rate: pipelining changes the overlap, not
  // the work.
  CostModel m;
  const u64 bytes = 1ull << 30;
  const sim::Time serial =
      CostModel::bytes_cost(bytes, m.restart_fetch_bytes_per_sec) +
      CostModel::bytes_cost(bytes, m.restart_decode_bytes_per_sec) +
      CostModel::bytes_cost(bytes, m.restart_rebuild_bytes_per_sec);
  const sim::Time mono = CostModel::bytes_cost(bytes, m.restart_bytes_per_sec);
  const sim::Time lo = std::min(serial, mono);
  const sim::Time hi = std::max(serial, mono);
  EXPECT_LT(hi - lo, mono / 20) << "serial sum " << serial << "us vs "
                                << "monolithic " << mono << "us";
  // And the pipelined chunk is genuinely cheaper than the serial sum.
  const u64 chunk = 1 << 20;
  EXPECT_LT(m.restart_chunk_cost(chunk, 1.0) * 2,
            CostModel::bytes_cost(chunk, m.restart_fetch_bytes_per_sec) +
                CostModel::bytes_cost(chunk, m.restart_decode_bytes_per_sec) +
                CostModel::bytes_cost(chunk, m.restart_rebuild_bytes_per_sec));
}

// ---- Protocol ---------------------------------------------------------------

TEST(LazyProtocol, EpilogueDoneRoundTrips) {
  EpilogueDone in;
  in.op_id = 42;
  in.pod_name = "pod-a";
  in.ok = false;
  in.error = "fill failed";
  in.transient = true;
  in.image_bytes = 777;
  in.epilogue_us = 123456;
  in.dirtied_bytes = 4242;
  in.throttled_us = 11;
  in.contended_us = 22;
  in.granted_bps = 33;
  in.lazy_bytes = 98765;
  in.faults = 7;
  in.fault_bytes = 4096;
  Bytes wire = encode(in);
  auto t = peek_type(wire);
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(t.value(), MsgType::EPILOGUE_DONE);
  EXPECT_EQ(static_cast<int>(t.value()), 16);  // the old DRAIN_DONE id
  auto out = decode<EpilogueDone>(wire);
  ASSERT_TRUE(out.is_ok());
  const EpilogueDone& o = out.value();
  EXPECT_EQ(o.op_id, 42u);
  EXPECT_EQ(o.pod_name, "pod-a");
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.error, "fill failed");
  EXPECT_TRUE(o.transient);
  EXPECT_EQ(o.image_bytes, 777u);
  EXPECT_EQ(o.epilogue_us, 123456u);
  EXPECT_EQ(o.dirtied_bytes, 4242u);
  EXPECT_EQ(o.throttled_us, 11u);
  EXPECT_EQ(o.contended_us, 22u);
  EXPECT_EQ(o.granted_bps, 33u);
  EXPECT_EQ(o.lazy_bytes, 98765u);
  EXPECT_EQ(o.faults, 7u);
  EXPECT_EQ(o.fault_bytes, 4096u);
}

TEST(LazyProtocol, DrainEpilogueSendsTheShortFrame) {
  // A drain's epilogue carries no lazy counts: the frame stops after the
  // drain fields, and that short frame decodes with the counts at 0.
  EpilogueDone in;
  in.op_id = 9;
  in.pod_name = "pod-b";
  in.ok = true;
  in.image_bytes = 1 << 20;
  in.epilogue_us = 5000;
  in.dirtied_bytes = 64;
  in.throttled_us = 100;
  in.contended_us = 200;
  in.granted_bps = 300;
  Encoder e;
  e.put_u8(16);  // EPILOGUE_DONE
  e.put_u64(9);
  e.put_string("pod-b");
  e.put_u8(1);  // ok
  e.put_string("");
  e.put_u8(0);  // transient
  e.put_u64(1 << 20);  // image_bytes
  e.put_u64(5000);     // epilogue_us
  e.put_u64(64);       // dirtied_bytes
  e.put_u64(100);      // throttled_us
  e.put_u64(200);      // contended_us
  e.put_u64(300);      // granted_bps
  const Bytes wire = encode(in);
  EXPECT_EQ(wire, e.bytes());
  auto out = decode<EpilogueDone>(wire);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  const EpilogueDone& o = out.value();
  EXPECT_EQ(o.op_id, 9u);
  EXPECT_EQ(o.pod_name, "pod-b");
  EXPECT_TRUE(o.ok);
  EXPECT_EQ(o.image_bytes, 1u << 20);
  EXPECT_EQ(o.epilogue_us, 5000u);
  EXPECT_EQ(o.dirtied_bytes, 64u);
  EXPECT_EQ(o.granted_bps, 300u);
  EXPECT_EQ(o.lazy_bytes, 0u);
  EXPECT_EQ(o.faults, 0u);
  EXPECT_EQ(o.fault_bytes, 0u);
}

TEST(LazyProtocol, RestartCmdLazyFieldsRoundTripAndDefaultOff) {
  RestartCmd in;
  in.op_id = 9;
  in.pod_name = "pod-b";
  in.source_uri = "san://ckpt/b";
  in.pipelined = true;
  in.lazy = true;
  in.lazy_hot_permille = 125;
  in.lazy_wait_us = 5 * sim::kSecond;
  auto out = decode<RestartCmd>(encode(in));
  ASSERT_TRUE(out.is_ok());
  EXPECT_TRUE(out.value().pipelined);
  EXPECT_TRUE(out.value().lazy);
  EXPECT_EQ(out.value().lazy_hot_permille, 125u);
  EXPECT_EQ(out.value().lazy_wait_us, u64{5} * sim::kSecond);

  // A command that never set them decodes to the monolithic defaults.
  RestartCmd plain;
  plain.op_id = 10;
  plain.pod_name = "pod-c";
  plain.source_uri = "san://ckpt/c";
  auto pout = decode<RestartCmd>(encode(plain));
  ASSERT_TRUE(pout.is_ok());
  EXPECT_FALSE(pout.value().pipelined);
  EXPECT_FALSE(pout.value().lazy);
  EXPECT_EQ(pout.value().lazy_hot_permille, 0u);
}

// ---- End-to-end lazy restarts -----------------------------------------------

/// Cluster with a manager and four agent nodes, mirroring CowTest; pods
/// are created per test.
class LazyRestartTest : public ::testing::Test {
 protected:
  LazyRestartTest() {
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
  ~LazyRestartTest() override { fault::injector().clear(); }

  /// Every restore fetch and lazy fill released its QoS stream.
  void expect_san_streams_balanced() {
    EXPECT_EQ(cl_.san().active_foreground(), 0u);
    EXPECT_EQ(cl_.san().active_drains(), 0u);
  }

  /// A quiet pod whose image is split across several equal ballast
  /// regions, each with a distinct fill byte — the shape lazy restore
  /// ranks and defers, and the pattern the byte-exactness checks verify.
  void make_multi_region_pod(int agent_idx, u8 vip_oct,
                             const std::string& name, u32 nregions,
                             u32 region_bytes) {
    pod::Pod& p = agents_[agent_idx]->create_pod(vip(vip_oct), name);
    i32 pid = p.spawn(std::make_unique<CounterProgram>(1u << 30, 1000));
    for (u32 i = 0; i < nregions; ++i) {
      p.find_process(pid)->region("r" + std::to_string(i), region_bytes)
          .assign(region_bytes, static_cast<u8>(0x40 + i));
    }
  }

  Manager::CheckpointReport ckpt(std::vector<Manager::Target> targets) {
    Manager::CheckpointReport out;
    bool done = false;
    manager_->checkpoint(std::move(targets), CkptMode::SNAPSHOT,
                         [&](Manager::CheckpointReport r) {
                           out = std::move(r);
                           done = true;
                         },
                         Manager::CkptOptions{});
    for (int i = 0; i < 60000 && !done; ++i) {
      cl_.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  Manager::RestartReport restart(std::vector<Manager::Target> targets,
                                 Manager::RestartOptions opts) {
    Manager::RestartReport out;
    bool done = false;
    manager_->restart(std::move(targets), {},
                      [&](Manager::RestartReport r) {
                        out = std::move(r);
                        done = true;
                      },
                      opts);
    for (int i = 0; i < 120000 && !done; ++i) {
      cl_.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  Manager::Target target(int agent_idx, const std::string& pod,
                         const std::string& uri) {
    return {agents_[agent_idx]->addr(), pod, uri};
  }

  static Manager::RestartOptions lazy_opts() {
    Manager::RestartOptions o;
    o.pipelined = true;
    o.lazy = true;
    o.deadlines.lazy_us = 60 * sim::kSecond;
    return o;
  }

  os::Cluster cl_;
  Trace trace_;
  os::Node* mgr_node_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<Manager> manager_;
  obs::Ledger ledger_;
};

/// The headline property at test scale: the same image restarts three
/// ways, and downtime drops monotonically — monolithic > pipelined >
/// pipelined+lazy — while the lazy op's total latency stays bounded and
/// its cold bytes land off the downtime path.
TEST_F(LazyRestartTest, PipeliningAndLazinessCutDowntimeMonotonically) {
  make_multi_region_pod(0, 1, "pod-a", 8, 16 << 20);  // 128 MB image
  cl_.run_for(10 * sim::kMillisecond);
  auto cr = ckpt({target(0, "pod-a", "san://ckpt/a")});
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("pod-a").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  auto mono = restart({target(1, "pod-a", "san://ckpt/a")},
                      Manager::RestartOptions{});
  ASSERT_TRUE(mono.ok) << mono.error;
  EXPECT_EQ(mono.downtime_us, mono.total_us);
  EXPECT_EQ(mono.max_lazy_us, 0u);
  ASSERT_TRUE(agents_[1]->destroy_pod("pod-a").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  Manager::RestartOptions pipe_opts;
  pipe_opts.pipelined = true;
  auto pipe = restart({target(2, "pod-a", "san://ckpt/a")}, pipe_opts);
  ASSERT_TRUE(pipe.ok) << pipe.error;
  EXPECT_EQ(pipe.downtime_us, pipe.total_us);  // pipelined, still eager
  expect_san_streams_balanced();
  ASSERT_TRUE(agents_[2]->destroy_pod("pod-a").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  auto lazy = restart({target(3, "pod-a", "san://ckpt/a")}, lazy_opts());
  ASSERT_TRUE(lazy.ok) << lazy.error;

  // Monotone downtime, with real margins (the image's byte terms are
  // hundreds of milliseconds at these rates).
  EXPECT_LT(pipe.downtime_us + 50 * sim::kMillisecond, mono.downtime_us);
  EXPECT_LT(lazy.downtime_us + 30 * sim::kMillisecond, pipe.downtime_us);
  // The lazy op keeps running past resume: cold bytes fill in a window
  // the report attributes separately, bounded by the latency bar.
  EXPECT_LT(lazy.downtime_us, lazy.total_us);
  EXPECT_GT(lazy.lazy_bytes, u64{64} << 20);  // most of 128 MB deferred
  EXPECT_GT(lazy.max_lazy_us, 0u);
  EXPECT_LE(lazy.total_us, mono.total_us * 5 / 4);

  // The op ledger recorded the same split for the lazy restart.
  const obs::LedgerEntry* lazy_row = nullptr;
  for (const auto& e : ledger_.entries()) {
    if (e.op == lazy.op_id) lazy_row = &e;
  }
  ASSERT_NE(lazy_row, nullptr);
  EXPECT_EQ(lazy_row->downtime_us, lazy.downtime_us);
  EXPECT_GT(lazy_row->latency_us, lazy_row->downtime_us);
  EXPECT_EQ(lazy_row->lazy_bytes, lazy.lazy_bytes);
}

/// One Manager runs a COW checkpoint and a lazy restart side by side —
/// the checkpoint and restart slots of the shared op skeleton.  Each
/// closes on its own background epilogue with one ledger row, and
/// abort_current takes the checkpoint first.
TEST_F(LazyRestartTest, CowCheckpointAndLazyRestartRunConcurrently) {
  make_multi_region_pod(0, 1, "pod-a", 8, 4 << 20);
  make_multi_region_pod(1, 2, "pod-b", 8, 4 << 20);
  cl_.run_for(10 * sim::kMillisecond);
  auto base = ckpt({target(1, "pod-b", "san://ckpt/b")});
  ASSERT_TRUE(base.ok) << base.error;
  ASSERT_TRUE(agents_[1]->destroy_pod("pod-b").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  Manager::CkptOptions cow;
  cow.cow = true;
  cow.deadlines.drain_us = 60 * sim::kSecond;
  bool c_done = false;
  bool r_done = false;
  Manager::CheckpointReport c;
  Manager::RestartReport r;
  auto start_both = [&](int restart_agent) {
    c_done = r_done = false;
    manager_->checkpoint({target(0, "pod-a", "san://ckpt/a")},
                         CkptMode::SNAPSHOT,
                         [&](Manager::CheckpointReport rep) {
                           c = std::move(rep);
                           c_done = true;
                         },
                         cow);
    manager_->restart({target(restart_agent, "pod-b", "san://ckpt/b")},
                      base.metas,
                      [&](Manager::RestartReport rep) {
                        r = std::move(rep);
                        r_done = true;
                      },
                      lazy_opts());
  };
  start_both(2);
  for (int i = 0; i < 120000 && !(c_done && r_done); ++i) {
    cl_.run_for(sim::kMillisecond);
  }
  ASSERT_TRUE(c_done && r_done);
  ASSERT_TRUE(c.ok) << c.error;
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LT(c.downtime_us, c.total_us);  // closed on the drain epilogue
  EXPECT_LT(r.downtime_us, r.total_us);  // closed on the lazy epilogue
  EXPECT_GT(r.lazy_bytes, 0u);

  const obs::LedgerEntry* c_row = nullptr;
  const obs::LedgerEntry* r_row = nullptr;
  for (const auto& e : ledger_.entries()) {
    if (e.op == c.op_id) {
      EXPECT_EQ(c_row, nullptr) << "second ledger row for the checkpoint";
      c_row = &e;
    }
    if (e.op == r.op_id) {
      EXPECT_EQ(r_row, nullptr) << "second ledger row for the restart";
      r_row = &e;
    }
  }
  ASSERT_NE(c_row, nullptr);
  ASSERT_NE(r_row, nullptr);
  EXPECT_EQ(c_row->kind, "ckpt");
  EXPECT_EQ(r_row->kind, "restart");
  EXPECT_EQ(c_row->downtime_us, c.downtime_us);
  EXPECT_EQ(r_row->downtime_us, r.downtime_us);
  // The two ops really overlapped in time.
  EXPECT_LT(r_row->start_us, c_row->end_us);
  EXPECT_LT(c_row->start_us, r_row->end_us);

  // With both in flight, abort_current aborts the checkpoint and leaves
  // the restart running to completion.
  ASSERT_TRUE(agents_[2]->destroy_pod("pod-b").is_ok());
  cl_.run_for(50 * sim::kMillisecond);
  start_both(3);
  manager_->abort_current("operator abort");
  EXPECT_TRUE(c_done);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.error, "operator abort");
  EXPECT_FALSE(r_done);
  for (int i = 0; i < 120000 && !r_done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(r_done);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_NE(agents_[0]->find_pod("pod-a"), nullptr);
  EXPECT_FALSE(manager_->busy());
}

/// Transparency: a live TCP transfer checkpointed mid-flight restarts
/// lazily onto two fresh nodes and completes byte-exact, with the
/// client's ballast regions (cold, filled after resume) intact.
TEST_F(LazyRestartTest, LazyRestartOfLiveAppIsByteExactAcrossRemap) {
  pod::Pod& sp = agents_[0]->create_pod(vip(1), "server-pod");
  sp.spawn(std::make_unique<EchoServer>(5000));
  pod::Pod& cp = agents_[1]->create_pod(vip(2), "client-pod");
  i32 client_pid = cp.spawn(std::make_unique<EchoClient>(
      net::SockAddr{vip(1), 5000}, 2 << 20));
  constexpr u32 kBallast = 8 << 20;
  for (u32 i = 0; i < 3; ++i) {
    cp.find_process(client_pid)->region("b" + std::to_string(i), kBallast)
        .assign(kBallast, static_cast<u8>(0x60 + i));
  }
  cl_.run_for(20 * sim::kMillisecond);

  auto cr = ckpt({target(0, "server-pod", "san://ckpt/server"),
                  target(1, "client-pod", "san://ckpt/client")});
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);

  auto rr = restart({target(2, "server-pod", "san://ckpt/server"),
                     target(3, "client-pod", "san://ckpt/client")},
                    lazy_opts());
  ASSERT_TRUE(rr.ok) << rr.error;
  // The client pod's ballast gave the restore something to defer.
  EXPECT_GT(rr.lazy_bytes, 0u);
  EXPECT_LT(rr.downtime_us, rr.total_us);

  pod::Pod* rcp = agents_[3]->find_pod("client-pod");
  ASSERT_NE(rcp, nullptr);
  i32 code = -101;
  for (sim::Time t = 0; t < 120 * sim::kSecond; t += 10 * sim::kMillisecond) {
    cl_.run_for(10 * sim::kMillisecond);
    os::Process* p = rcp->find_process(client_pid);
    if (p != nullptr && p->state() == os::ProcState::EXITED) {
      code = p->exit_code();
      break;
    }
  }
  EXPECT_EQ(code, 0);  // byte-exact echo verification through the remap

  // Cold regions were installed byte-exactly too, not just accounted.
  os::Process* p = rcp->find_process(client_pid);
  ASSERT_NE(p, nullptr);
  for (u32 i = 0; i < 3; ++i) {
    auto it = p->regions().find("b" + std::to_string(i));
    ASSERT_NE(it, p->regions().end());
    ASSERT_EQ(it->second.size(), std::size_t{kBallast});
    EXPECT_EQ(it->second.front(), static_cast<u8>(0x60 + i));
    EXPECT_EQ(it->second.back(), static_cast<u8>(0x60 + i));
  }
  EXPECT_EQ(rcp->lazy_pending_count(), 0u);
}

/// N→M: both pods of the app consolidate onto ONE surviving node, the
/// connection remaps, and cold-region fills complete under the new
/// placement.
TEST_F(LazyRestartTest, ConsolidatedLazyRestartCompletesOnOneNode) {
  pod::Pod& sp = agents_[0]->create_pod(vip(1), "server-pod");
  sp.spawn(std::make_unique<EchoServer>(5000));
  pod::Pod& cp = agents_[1]->create_pod(vip(2), "client-pod");
  i32 client_pid = cp.spawn(std::make_unique<EchoClient>(
      net::SockAddr{vip(1), 5000}, 1 << 20));
  constexpr u32 kBallast = 8 << 20;
  for (u32 i = 0; i < 2; ++i) {
    cp.find_process(client_pid)->region("b" + std::to_string(i), kBallast)
        .assign(kBallast, static_cast<u8>(0x70 + i));
  }
  cl_.run_for(20 * sim::kMillisecond);

  auto cr = ckpt({target(0, "server-pod", "san://ckpt/server"),
                  target(1, "client-pod", "san://ckpt/client")});
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  cl_.run_for(100 * sim::kMillisecond);

  auto rr = restart({target(2, "server-pod", "san://ckpt/server"),
                     target(2, "client-pod", "san://ckpt/client")},
                    lazy_opts());
  ASSERT_TRUE(rr.ok) << rr.error;

  pod::Pod* rcp = agents_[2]->find_pod("client-pod");
  ASSERT_NE(rcp, nullptr);
  i32 code = -101;
  for (sim::Time t = 0; t < 120 * sim::kSecond; t += 10 * sim::kMillisecond) {
    cl_.run_for(10 * sim::kMillisecond);
    os::Process* p = rcp->find_process(client_pid);
    if (p != nullptr && p->state() == os::ProcState::EXITED) {
      code = p->exit_code();
      break;
    }
  }
  EXPECT_EQ(code, 0);

  // Two pods lazily restored on one agent: the offline checks keep their
  // windows and region fills apart.
  auto bad = tools::validate_ops(trace_.recorder().spans());
  EXPECT_TRUE(bad.empty()) << bad.front();
}

/// Emitter/reader agreement: a COW checkpoint overlapping a lazy
/// pipelined restart (whose program demand-faults its cold regions), a
/// redirected live migration of a connected pair, a blocking snapshot of
/// that pair mid-transfer and one failed op together record every event
/// the validator and critpath read, and their stream validates clean.  Dropping an emission fails here
/// instead of silently starving a check.
TEST_F(LazyRestartTest, RealRunsEmitEveryCheckedEventAndValidateClean) {
  make_multi_region_pod(0, 1, "pod-a", 8, 4 << 20);
  agents_[1]->create_pod(vip(2), "pod-b")
      .spawn(std::make_unique<RegionToucher>(8, 4 << 20));
  cl_.run_for(20 * sim::kMillisecond);
  auto base = ckpt({target(1, "pod-b", "san://ckpt/b")});
  ASSERT_TRUE(base.ok) << base.error;
  ASSERT_TRUE(agents_[1]->destroy_pod("pod-b").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  Manager::CkptOptions cow;
  cow.cow = true;
  cow.deadlines.drain_us = 60 * sim::kSecond;
  int pending = 2;
  bool c_ok = false;
  bool r_ok = false;
  manager_->checkpoint({target(0, "pod-a", "san://ckpt/a")},
                       CkptMode::SNAPSHOT,
                       [&](Manager::CheckpointReport rep) {
                         c_ok = rep.ok;
                         --pending;
                       },
                       cow);
  manager_->restart({target(2, "pod-b", "san://ckpt/b")}, base.metas,
                    [&](Manager::RestartReport rep) {
                      r_ok = rep.ok;
                      --pending;
                    },
                    lazy_opts());
  for (int i = 0; i < 120000 && pending > 0; ++i) {
    cl_.run_for(sim::kMillisecond);
  }
  ASSERT_TRUE(c_ok && r_ok);

  agents_[1]->create_pod(vip(3), "server-pod")
      .spawn(std::make_unique<EchoServer>(5000));
  agents_[3]->create_pod(vip(4), "client-pod")
      .spawn(std::make_unique<EchoClient>(net::SockAddr{vip(3), 5000},
                                          64 << 20));
  cl_.run_for(20 * sim::kMillisecond);  // mid-transfer
  bool m_done = false;
  Manager::MigrateReport m;
  manager_->migrate(
      {{agents_[1]->addr(), agents_[0]->addr(), "server-pod", vip(3)},
       {agents_[3]->addr(), agents_[2]->addr(), "client-pod", vip(4)}},
      [&](Manager::MigrateReport rep) {
        m = std::move(rep);
        m_done = true;
      });
  for (int i = 0; i < 60000 && !m_done; ++i) cl_.run_for(sim::kMillisecond);
  ASSERT_TRUE(m_done);
  ASSERT_TRUE(m.ok) << m.error;
  cl_.run_for(20 * sim::kMillisecond);

  // A blocking snapshot of the client alone mid-transfer: the server's
  // ACKs its filter dropped while it was suspended leave its data to be
  // retransmitted after the resume.
  ASSERT_TRUE(ckpt({target(2, "client-pod", "san://ckpt/client")}).ok);
  cl_.run_for(sim::kSecond);  // past the retransmission timeout

  EXPECT_FALSE(ckpt({target(0, "no-such-pod", "san://ckpt/x")}).ok);

  std::set<std::string_view> seen;
  for (const obs::SpanRecord& r : trace_.recorder().spans()) {
    if (r.kind == obs::SpanKind::EVENT) seen.insert(obs::ev::name_of(r.name));
  }
  for (std::string_view name : obs::ev::kCheckedEvents) {
    EXPECT_EQ(seen.count(name), 1u) << name << " never recorded";
  }
  EXPECT_EQ(seen.count(obs::ev::kOpFail), 1u);
  auto bad = tools::validate_ops(trace_.recorder().spans());
  EXPECT_TRUE(bad.empty()) << bad.front();
}

/// Demand faults: a program that touches every region right after
/// resume beats some of the background fills to their regions; each
/// such touch pays the fault tax and pulls the region forward, and the
/// op still converges with every region filled exactly once.
TEST_F(LazyRestartTest, DemandFaultsPullColdRegionsForward) {
  pod::Pod& p = agents_[0]->create_pod(vip(1), "pod-touch");
  i32 pid = p.spawn(std::make_unique<RegionToucher>(8, 8 << 20));
  // Materialize all eight regions before the checkpoint.
  cl_.run_for(20 * sim::kMillisecond);
  ASSERT_GE(p.find_process(pid)->regions().size(), 8u);

  auto cr = ckpt({target(0, "pod-touch", "san://ckpt/touch")});
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("pod-touch").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  Manager::RestartOptions opts = lazy_opts();
  opts.lazy_hot_permille = 125;  // one of eight regions eager
  auto rr = restart({target(1, "pod-touch", "san://ckpt/touch")}, opts);
  ASSERT_TRUE(rr.ok) << rr.error;

  EXPECT_GT(rr.lazy_bytes, u64{40} << 20);  // most regions deferred
  EXPECT_GT(rr.lazy_faults, 0u) << "an eager toucher should demand-fault "
                                   "at least one cold region";
  EXPECT_LT(rr.downtime_us, rr.total_us);
  expect_san_streams_balanced();

  // The pod survived its own faults: still running, nothing pending.
  pod::Pod* rp = agents_[1]->find_pod("pod-touch");
  ASSERT_NE(rp, nullptr);
  EXPECT_EQ(rp->lazy_pending_count(), 0u);
  os::Process* proc = rp->find_process(pid);
  ASSERT_NE(proc, nullptr);
  EXPECT_NE(proc->state(), os::ProcState::EXITED);
}

/// A Manager abort lands inside the lazy window, with a fill holding
/// the SAN: the agent tears the restored pod down and the fill's stream
/// is released, so no later drain is pinned to the QoS floor.
TEST_F(LazyRestartTest, ManagerAbortMidLazyWindowReleasesSanStream) {
  make_multi_region_pod(0, 1, "pod-a", 8, 16 << 20);
  cl_.run_for(10 * sim::kMillisecond);
  auto cr = ckpt({target(0, "pod-a", "san://ckpt/a")});
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("pod-a").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  Manager::RestartReport rr;
  bool done = false;
  manager_->restart({target(1, "pod-a", "san://ckpt/a")}, {},
                    [&](Manager::RestartReport r) {
                      rr = std::move(r);
                      done = true;
                    },
                    lazy_opts());
  // Run until the first fill has claimed a cold region and more remain.
  std::size_t cold = 0;
  bool mid_window = false;
  for (int i = 0; i < 20000 && !done && !mid_window; ++i) {
    cl_.run_for(sim::kMillisecond);
    pod::Pod* p = agents_[1]->find_pod("pod-a");
    if (p == nullptr) continue;
    if (cold == 0) cold = p->lazy_pending_count();
    mid_window = p->lazy_pending_count() > 0 &&
                 p->lazy_pending_count() < cold;
  }
  ASSERT_TRUE(mid_window);
  ASSERT_FALSE(done);
  EXPECT_EQ(cl_.san().active_foreground(), 1u);

  manager_->abort_current("operator abort");
  ASSERT_TRUE(done);
  EXPECT_FALSE(rr.ok);
  // The ABORT reaches the agent well inside the 16 MiB fill in flight:
  // the abort itself released the stream, not the fill's completion.
  cl_.run_for(2 * sim::kMillisecond);
  EXPECT_EQ(agents_[1]->find_pod("pod-a"), nullptr);
  expect_san_streams_balanced();
  cl_.run_for(200 * sim::kMillisecond);
  expect_san_streams_balanced();
}

/// Fault sweep: the target node dies inside the lazy window.  The op
/// must fail cleanly (no hang, no stuck state) and the Manager must be
/// able to run the next operation immediately.
TEST_F(LazyRestartTest, NodeCrashDuringLazyWindowFailsCleanly) {
  make_multi_region_pod(0, 1, "pod-a", 8, 16 << 20);
  cl_.run_for(10 * sim::kMillisecond);
  auto cr = ckpt({target(0, "pod-a", "san://ckpt/a")});
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("pod-a").is_ok());
  cl_.run_for(50 * sim::kMillisecond);

  // n2 (agents_[1]) dies the moment its restore enters the lazy-fill
  // phase — after the pod resumed, before its EPILOGUE_DONE.
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::CRASH_AT_PHASE;
  crash.node = "n2";
  crash.phase = "restart.lazy";
  fault::injector().arm(crash);

  Manager::RestartOptions opts = lazy_opts();
  opts.deadlines.lazy_us = 2 * sim::kSecond;
  opts.deadlines.restart_us = 10 * sim::kSecond;
  auto rr = restart({target(1, "pod-a", "san://ckpt/a")}, opts);
  EXPECT_FALSE(rr.ok);
  EXPECT_FALSE(rr.error.empty());
  fault::injector().clear();

  // The Manager cleaned up: a fresh op on the surviving nodes succeeds.
  make_multi_region_pod(2, 3, "pod-b", 2, 4 << 20);
  cl_.run_for(10 * sim::kMillisecond);
  auto cr2 = ckpt({target(2, "pod-b", "san://ckpt/b")});
  EXPECT_TRUE(cr2.ok) << cr2.error;
}

}  // namespace
}  // namespace zapc::core
