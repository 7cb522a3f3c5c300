// Incremental (delta) checkpoints, image codec (zero-elision + dedup),
// and pipelined migration streaming.
#include <gtest/gtest.h>

#include <algorithm>

#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "core/agent.h"
#include "core/manager.h"
#include "obs/metrics.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"
#include "tests/helpers.h"

namespace zapc::ckpt {
namespace {

using test::CounterProgram;
using test::EchoClient;
using test::EchoServer;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 78, 0, i); }

TEST(DirtyTracking, MutableRegionAccessBumpsGeneration) {
  os::Cluster cl;
  pod::Pod pod(cl.add_node("n1"), vip(1), "p");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(10, 1));
  os::Process* p = pod.find_process(pid);

  p->region("a", 64);
  p->region("b", 64);
  u64 ga = p->region_gens().at("a");
  u64 gb = p->region_gens().at("b");
  EXPECT_NE(ga, gb);  // every touch gets a unique generation

  p->region("a", 64);  // re-touch: generation advances
  EXPECT_GT(p->region_gens().at("a"), ga);
  EXPECT_EQ(p->region_gens().at("b"), gb);  // untouched stays put
  EXPECT_GE(p->region_gen_counter(), 3u);
}

TEST(DirtyTracking, DeltaCapturesOnlyDirtyRegionsButFullManifest) {
  os::Cluster cl;
  pod::Pod pod(cl.add_node("n1"), vip(1), "p");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(10, 1));
  os::Process* p = pod.find_process(pid);
  p->region("clean", 4096)[0] = 1;
  p->region("dirty", 4096)[0] = 2;
  pod.suspend();

  std::vector<ProcessImage> full = Standalone::save_processes(pod);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].regions.size(), 2u);
  EXPECT_EQ(full[0].manifest.size(), 2u);

  pod.resume();
  p->region("dirty", 4096)[1] = 3;
  pod.suspend();

  DeltaBaseline base = DeltaBaseline::from_images(full);
  std::vector<ProcessImage> delta = Standalone::save_processes(pod, &base);
  ASSERT_EQ(delta.size(), 1u);
  ASSERT_EQ(delta[0].regions.size(), 1u);  // only the dirty one
  EXPECT_EQ(delta[0].regions.count("dirty"), 1u);
  // The manifest still lists every live region (restart needs it to pull
  // the clean ones from the base).
  EXPECT_EQ(delta[0].manifest.size(), 2u);
  EXPECT_EQ(delta[0].manifest.at("clean").size, 4096u);
}

TEST(DirtyTracking, NewProcessInDeltaIsSavedInFull) {
  os::Cluster cl;
  pod::Pod pod(cl.add_node("n1"), vip(1), "p");
  i32 pid1 = pod.spawn(std::make_unique<CounterProgram>(10, 1));
  pod.find_process(pid1)->region("r", 64);
  pod.suspend();
  std::vector<ProcessImage> full = Standalone::save_processes(pod);
  pod.resume();

  i32 pid2 = pod.spawn(std::make_unique<CounterProgram>(10, 1));
  pod.find_process(pid2)->region("r2", 64);
  pod.suspend();
  DeltaBaseline base = DeltaBaseline::from_images(full);
  std::vector<ProcessImage> delta = Standalone::save_processes(pod, &base);
  ASSERT_EQ(delta.size(), 2u);
  // The pre-existing, untouched process ships no region bytes; the new
  // process (absent from the baseline) ships everything.
  EXPECT_EQ(delta[0].regions.size(), 0u);
  EXPECT_EQ(delta[1].regions.size(), 1u);
}

/// Captures a delta chain from a live pod: full, then `n` deltas with a
/// mutation between each.  Returns the encoded images in order.
struct Chain {
  std::vector<PodImage> images;  // [0] full, then deltas
  PodImage fresh_full;           // full capture of the final state
};

Chain make_chain(int n_deltas) {
  os::Cluster cl;
  pod::Pod pod(cl.add_node("n1"), vip(1), "p");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(1000, 10));
  os::Process* p = pod.find_process(pid);
  p->region("a", 4096).assign(4096, 0x11);
  p->region("b", 4096).assign(4096, 0x22);
  p->region("c", 4096).assign(4096, 0x33);
  cl.run_for(100);
  pod.suspend();

  Chain out;
  PodImage full;
  full.header = Standalone::save_header(pod);
  full.processes = Standalone::save_processes(pod);
  out.images.push_back(full);

  std::vector<ProcessImage> prev = full.processes;
  const char* names[] = {"a", "b", "c"};
  for (int k = 0; k < n_deltas; ++k) {
    pod.resume();
    cl.run_for(50);  // program state advances too
    // Touch one region per delta (rotating), growing one of them.
    Bytes& r = pod.find_process(pid)->region(names[k % 3], 4096);
    r[k] = static_cast<u8>(0x40 + k);
    if (k == 1) pod.find_process(pid)->region("d", 128).assign(128, 0x55);
    pod.suspend();

    DeltaBaseline base = DeltaBaseline::from_images(prev);
    PodImage d;
    d.header = Standalone::save_header(pod);
    d.header.codec_flags |= kCodecDelta;
    d.header.delta_seq = static_cast<u32>(k + 1);
    d.header.base_uri = "san://chain/" + std::to_string(k);
    d.processes = Standalone::save_processes(pod, &base);
    prev = d.processes;
    out.images.push_back(d);
  }

  out.fresh_full.header = Standalone::save_header(pod);
  out.fresh_full.processes = Standalone::save_processes(pod);
  return out;
}

TEST(DeltaCompose, FullPlusDeltasEqualsFreshFull) {
  Chain ch = make_chain(4);
  PodImage composed = ch.images[0];
  for (std::size_t k = 1; k < ch.images.size(); ++k) {
    auto r = compose_delta(std::move(composed), ch.images[k]);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    composed = std::move(r.value());
  }
  EXPECT_FALSE(composed.header.is_delta());
  ASSERT_EQ(composed.processes.size(), ch.fresh_full.processes.size());
  for (std::size_t i = 0; i < composed.processes.size(); ++i) {
    const ProcessImage& a = composed.processes[i];
    const ProcessImage& b = ch.fresh_full.processes[i];
    EXPECT_EQ(a.vpid, b.vpid);
    EXPECT_EQ(a.program_state, b.program_state);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (const auto& [name, bytes] : b.regions) {
      ASSERT_EQ(a.regions.count(name), 1u) << name;
      EXPECT_EQ(a.regions.at(name), bytes) << name;
    }
  }
  // Round-trips the wire format too.
  auto back = decode_image(encode_image(composed));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().processes[0].regions.at("d"),
            Bytes(128, 0x55));
}

TEST(DeltaCompose, RejectsMismatchedInputs) {
  Chain ch = make_chain(1);
  // delta-on-delta base and full-as-delta are both refused.
  EXPECT_EQ(compose_delta(ch.images[1], ch.images[1]).err(), Err::INVALID);
  EXPECT_EQ(compose_delta(ch.images[0], ch.fresh_full).err(), Err::INVALID);
  // A delta referencing a region the base lacks is a chain corruption.
  PodImage bad_base = ch.images[0];
  bad_base.processes[0].regions.erase("b");
  PodImage delta = ch.images[1];
  if (delta.processes[0].regions.count("b") == 0) {
    auto r = compose_delta(std::move(bad_base), delta);
    EXPECT_EQ(r.err(), Err::PROTO);
  }
}

TEST(Codec, ZeroElisionRoundTripsAndShrinks) {
  PodImage img;
  img.header.pod_name = "z";
  ProcessImage p;
  p.vpid = 1;
  p.kind = "test.counter";
  p.regions["zeros"] = Bytes(1 << 20, 0);
  p.regions["data"] = Bytes(4096, 0xAB);
  img.processes.push_back(p);

  Bytes plain = encode_image(img);
  u64 saved_before =
      obs::metrics().counter("ckpt.codec.zero_saved_bytes").value;
  img.header.codec_flags = kCodecZeroElide;
  Bytes elided = encode_image(img);
  EXPECT_LT(elided.size(), plain.size() / 2);
  EXPECT_GE(obs::metrics().counter("ckpt.codec.zero_saved_bytes").value,
            saved_before + (1 << 20));

  auto back = decode_image(elided);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().processes[0].regions.at("zeros"), Bytes(1 << 20, 0));
  EXPECT_EQ(back.value().processes[0].regions.at("data"), Bytes(4096, 0xAB));
}

TEST(Codec, DedupRoundTripsAcrossProcesses) {
  PodImage img;
  img.header.pod_name = "d";
  for (i32 v : {1, 2, 3}) {
    ProcessImage p;
    p.vpid = v;
    p.kind = "test.counter";
    p.regions["shared"] = Bytes(256 * 1024, 0x5C);  // identical content
    p.regions["own"] = Bytes(1024, static_cast<u8>(v));
    img.processes.push_back(p);
  }

  Bytes plain = encode_image(img);
  img.header.codec_flags = kCodecDedup;
  Bytes deduped = encode_image(img);
  // Two of the three identical 256K regions collapse to references.
  EXPECT_LT(deduped.size(), plain.size() - 2 * 200 * 1024);

  auto back = decode_image(deduped);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  for (const ProcessImage& p : back.value().processes) {
    EXPECT_EQ(p.regions.at("shared"), Bytes(256 * 1024, 0x5C));
  }
  EXPECT_EQ(back.value().processes[2].regions.at("own"), Bytes(1024, 3));
}

// ---- End-to-end through Agent/Manager --------------------------------------

struct Rig {
  os::Cluster cl;
  os::Node* mgr_node;
  std::vector<std::unique_ptr<core::Agent>> agents;
  std::unique_ptr<core::Manager> mgr;

  explicit Rig(int n) {
    mgr_node = &cl.add_node("mgr");
    for (int i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<core::Agent>(
          cl.add_node("n" + std::to_string(i + 1))));
    }
    mgr = std::make_unique<core::Manager>(*mgr_node);
  }

  core::Manager::CheckpointReport ckpt(
      std::vector<core::Manager::Target> targets,
      core::Manager::CkptOptions opts) {
    core::Manager::CheckpointReport out;
    bool done = false;
    mgr->checkpoint(std::move(targets), core::CkptMode::SNAPSHOT,
                    [&](auto r) {
                      out = std::move(r);
                      done = true;
                    },
                    opts);
    for (int i = 0; i < 60000 && !done; ++i) cl.run_for(sim::kMillisecond);
    return out;
  }

  core::Manager::RestartReport restart(
      std::vector<core::Manager::Target> targets,
      core::Manager::RestartOptions opts = {}) {
    core::Manager::RestartReport out;
    bool done = false;
    mgr->restart(
        std::move(targets), {},
        [&](auto r) {
          out = std::move(r);
          done = true;
        },
        opts);
    for (int i = 0; i < 60000 && !done; ++i) cl.run_for(sim::kMillisecond);
    return out;
  }
};

TEST(IncrementalE2E, DeltaChainRestartsOnDifferentNode) {
  Rig rig(2);
  pod::Pod& pod = rig.agents[0]->create_pod(vip(1), "job");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(8000, 100));
  // Large clean region: the deltas should never re-ship it.
  pod.find_process(pid)->region("ballast", 1 << 20).assign(1 << 20, 0xB1);
  rig.cl.run_for(20 * sim::kMillisecond);

  core::Manager::CkptOptions opts;
  opts.incremental = true;
  opts.chain_cap = 8;
  opts.codec_flags = kCodecZeroElide | kCodecDedup;

  auto target = [&](int agent, int k) {
    return core::Manager::Target{
        rig.agents[agent]->addr(), "job",
        "san://incr/job." + std::to_string(k)};
  };

  // Full, then two deltas, dirtying a region between each.
  u64 full_bytes = 0;
  for (int k = 0; k < 3; ++k) {
    pod.find_process(pid)->region("scratch", 64 << 10)[k] =
        static_cast<u8>(k + 1);
    rig.cl.run_for(10 * sim::kMillisecond);
    auto r = rig.ckpt({target(0, k)}, opts);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.agents.size(), 1u);
    EXPECT_EQ(r.agents[0].delta_seq, static_cast<u32>(k));
    if (k == 0) {
      full_bytes = r.agents[0].image_bytes;
    } else {
      // Only the 64K scratch region is dirty; the 1M ballast stays home.
      EXPECT_LT(r.agents[0].image_bytes, full_bytes / 4);
      EXPECT_GT(r.agents[0].logical_bytes, r.agents[0].image_bytes);
    }
  }

  u32 count_before =
      static_cast<CounterProgram&>(pod.find_process(pid)->program()).count();
  Bytes scratch_before =
      pod.find_process(pid)->regions().at("scratch").to_bytes();
  ASSERT_TRUE(rig.agents[0]->destroy_pod("job"));
  rig.cl.run_for(10 * sim::kMillisecond);

  // Restart from the *last delta* on the other agent: the agent must
  // fetch and compose the whole base chain.
  auto rr = rig.restart({{rig.agents[1]->addr(), "job", "san://incr/job.2"}});
  ASSERT_TRUE(rr.ok) << rr.error;
  pod::Pod* moved = rig.agents[1]->find_pod("job");
  ASSERT_NE(moved, nullptr);
  os::Process* p = moved->find_process(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(static_cast<CounterProgram&>(p->program()).count(), count_before);
  Bytes scratch_after = p->regions().at("scratch").to_bytes();
  EXPECT_EQ(scratch_after, scratch_before);
  EXPECT_EQ(scratch_after[0], 1);
  EXPECT_EQ(scratch_after[2], 3);
  EXPECT_GE(
      obs::metrics().counter("agent.restart.deltas_composed").value, 2u);

  EXPECT_EQ(p->regions().at("ballast"), Bytes(1 << 20, 0xB1));

  // The pod keeps running to completion after the composed restart.
  rig.cl.run_for(2 * sim::kSecond);
  EXPECT_EQ(p->state(), os::ProcState::EXITED);
  EXPECT_EQ(p->exit_code(), 0);
}

// ---- Zero-copy restore -----------------------------------------------------
// Restart decodes committed SAN objects (the image and its delta bases)
// through borrowed views: a view must never be consumed, and the record
// CRC must still be enforced on it.

TEST(ZeroCopyRestore, RestartTwiceFromOneImageLeavesItIntact) {
  Rig rig(3);
  pod::Pod& pod = rig.agents[0]->create_pod(vip(1), "job");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(1000000, 1000));
  const Bytes heap = test::pattern_bytes(256 << 10, 3);
  pod.find_process(pid)->region("heap", heap.size()) = heap;
  rig.cl.run_for(10 * sim::kMillisecond);

  core::Manager::CkptOptions opts;
  opts.incremental = true;
  opts.chain_cap = 8;
  auto full = rig.ckpt({{rig.agents[0]->addr(), "job", "san://zc/base"}}, opts);
  ASSERT_TRUE(full.ok) << full.error;
  pod.find_process(pid)->region("scratch", 4096)[0] = 7;
  rig.cl.run_for(5 * sim::kMillisecond);
  auto delta =
      rig.ckpt({{rig.agents[0]->addr(), "job", "san://zc/delta"}}, opts);
  ASSERT_TRUE(delta.ok) << delta.error;
  ASSERT_EQ(delta.agents[0].delta_seq, 1u);
  const Bytes base_obj = rig.cl.san().read("zc/base").value();
  const Bytes delta_obj = rig.cl.san().read("zc/delta").value();
  ASSERT_TRUE(rig.agents[0]->destroy_pod("job"));
  rig.cl.run_for(10 * sim::kMillisecond);

  // Monolithic and pipelined restores, each twice from the same delta
  // (whose base is read through a view too).
  std::vector<std::map<std::string, RegionBuf>> restored;
  for (bool pipelined : {false, true}) {
    for (int agent : {1, 2}) {
      core::Manager::RestartOptions ro;
      ro.pipelined = pipelined;
      auto rr = rig.restart(
          {{rig.agents[agent]->addr(), "job", "san://zc/delta"}}, ro);
      ASSERT_TRUE(rr.ok) << rr.error;
      pod::Pod* p = rig.agents[agent]->find_pod("job");
      ASSERT_NE(p, nullptr);
      ASSERT_NE(p->find_process(pid), nullptr);
      restored.push_back(p->find_process(pid)->regions());
      ASSERT_TRUE(rig.agents[agent]->destroy_pod("job"));
      rig.cl.run_for(10 * sim::kMillisecond);
      EXPECT_EQ(rig.cl.san().read("zc/base").value(), base_obj);
      EXPECT_EQ(rig.cl.san().read("zc/delta").value(), delta_obj);
    }
  }
  ASSERT_EQ(restored.size(), 4u);
  EXPECT_EQ(restored[0].at("heap"), heap);
  EXPECT_EQ(restored[0].at("scratch")[0], 7);
  for (const auto& r : restored) EXPECT_EQ(r, restored[0]);
}

TEST(ZeroCopyRestore, BitFlipInCommittedRegionFailsWithProto) {
  Rig rig(2);
  pod::Pod& pod = rig.agents[0]->create_pod(vip(1), "job");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(1000000, 1000));
  const Bytes heap = test::pattern_bytes(64 << 10, 5);
  pod.find_process(pid)->region("heap", heap.size()) = heap;
  rig.cl.run_for(10 * sim::kMillisecond);
  auto r = rig.ckpt({{rig.agents[0]->addr(), "job", "san://zc/job"}}, {});
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(rig.agents[0]->destroy_pod("job"));
  rig.cl.run_for(10 * sim::kMillisecond);

  // Flip one bit in the middle of the MEM_REGION payload.
  Bytes obj = rig.cl.san().read("zc/job").value();
  auto at = std::search(obj.begin(), obj.end(), heap.begin(),
                        heap.begin() + 64);
  ASSERT_NE(at, obj.end());
  obj[static_cast<std::size_t>(at - obj.begin()) + heap.size() / 2] ^= 0x10;
  ASSERT_TRUE(rig.cl.san().write("zc/job", obj).is_ok());

  // The view the agent decodes fails the record CRC with Err::PROTO...
  auto view = rig.cl.san().view("zc/job");
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(decode_image(*view.value()).err(), Err::PROTO);

  // ...so the restart fails on it and leaves no pod behind.
  auto rr = rig.restart({{rig.agents[1]->addr(), "job", "san://zc/job"}});
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("record crc mismatch"), std::string::npos)
      << rr.error;
  EXPECT_EQ(rig.agents[1]->find_pod("job"), nullptr);
}

TEST(IncrementalE2E, ChainCapForcesPeriodicFull) {
  Rig rig(1);
  pod::Pod& pod = rig.agents[0]->create_pod(vip(1), "job");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(1000000, 1000));
  rig.cl.run_for(10 * sim::kMillisecond);

  core::Manager::CkptOptions opts;
  opts.incremental = true;
  opts.chain_cap = 2;

  std::vector<u32> seqs;
  for (int k = 0; k < 6; ++k) {
    pod.find_process(pid)->region("r", 4096)[0] = static_cast<u8>(k);
    rig.cl.run_for(5 * sim::kMillisecond);
    auto r = rig.ckpt({{rig.agents[0]->addr(), "job",
                        "san://cap/job." + std::to_string(k)}},
                      opts);
    ASSERT_TRUE(r.ok) << r.error;
    seqs.push_back(r.agents[0].delta_seq);
  }
  // cap=2: full, d1, d2, full, d1, d2.
  EXPECT_EQ(seqs, (std::vector<u32>{0, 1, 2, 0, 1, 2}));
}

TEST(IncrementalE2E, ReusingAChainUriForcesFull) {
  Rig rig(1);
  pod::Pod& pod = rig.agents[0]->create_pod(vip(1), "job");
  i32 pid = pod.spawn(std::make_unique<CounterProgram>(1000000, 1000));
  rig.cl.run_for(10 * sim::kMillisecond);

  core::Manager::CkptOptions opts;
  opts.incremental = true;
  opts.chain_cap = 8;

  auto ck = [&](const std::string& uri) {
    pod.find_process(pid)->region("r", 4096)[0] ^= 1;
    rig.cl.run_for(5 * sim::kMillisecond);
    auto r = rig.ckpt({{rig.agents[0]->addr(), "job", uri}}, opts);
    EXPECT_TRUE(r.ok) << r.error;
    return r.agents.empty() ? ~0u : r.agents[0].delta_seq;
  };
  EXPECT_EQ(ck("san://u/a"), 0u);  // full
  EXPECT_EQ(ck("san://u/b"), 1u);  // delta on a
  // Writing to "a" again would overwrite the live base of the chain, so
  // the agent must fall back to a full image.
  EXPECT_EQ(ck("san://u/a"), 0u);
  // ...and the chain restarts cleanly from the new full.
  EXPECT_EQ(ck("san://u/c"), 1u);
}

TEST(IncrementalE2E, MaterializedMigrationStaysByteExact) {
  // The non-streamed (materialize-then-send) migration path must keep
  // working now that streaming is the default.
  Rig rig(4);
  pod::Pod& sp = rig.agents[0]->create_pod(vip(1), "srv");
  sp.spawn(std::make_unique<EchoServer>(5000));
  pod::Pod& cp = rig.agents[1]->create_pod(vip(2), "cli");
  i32 cpid = cp.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 4 << 20));
  rig.cl.run_for(20 * sim::kMillisecond);  // mid-transfer

  core::Manager::MigrateOptions mo;
  mo.pipelined_stream = false;
  bool done = false;
  core::Manager::MigrateReport mr;
  rig.mgr->migrate(
      {
          {rig.agents[0]->addr(), rig.agents[2]->addr(), "srv", vip(1)},
          {rig.agents[1]->addr(), rig.agents[3]->addr(), "cli", vip(2)},
      },
      [&](core::Manager::MigrateReport r) {
        mr = std::move(r);
        done = true;
      },
      mo);
  for (int i = 0; i < 60000 && !done; ++i) rig.cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(mr.ok) << mr.error;

  pod::Pod* moved = rig.agents[3]->find_pod("cli");
  ASSERT_NE(moved, nullptr);
  for (int i = 0; i < 12000; ++i) {
    rig.cl.run_for(10 * sim::kMillisecond);
    os::Process* p = moved->find_process(cpid);
    if (p->state() == os::ProcState::EXITED) {
      EXPECT_EQ(p->exit_code(), 0);
      return;
    }
  }
  FAIL() << "client did not finish after materialized migration";
}

TEST(IncrementalE2E, PipelinedMigrationWithCodecStaysByteExact) {
  Rig rig(4);
  pod::Pod& sp = rig.agents[0]->create_pod(vip(1), "srv");
  sp.spawn(std::make_unique<EchoServer>(5000));
  pod::Pod& cp = rig.agents[1]->create_pod(vip(2), "cli");
  i32 cpid = cp.spawn(
      std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 4 << 20));
  rig.cl.run_for(20 * sim::kMillisecond);

  core::Manager::MigrateOptions mo;
  mo.pipelined_stream = true;
  mo.codec_flags = kCodecZeroElide | kCodecDedup;
  bool done = false;
  core::Manager::MigrateReport mr;
  rig.mgr->migrate(
      {
          {rig.agents[0]->addr(), rig.agents[2]->addr(), "srv", vip(1)},
          {rig.agents[1]->addr(), rig.agents[3]->addr(), "cli", vip(2)},
      },
      [&](core::Manager::MigrateReport r) {
        mr = std::move(r);
        done = true;
      },
      mo);
  for (int i = 0; i < 60000 && !done; ++i) rig.cl.run_for(sim::kMillisecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(mr.ok) << mr.error;
  EXPECT_EQ(rig.agents[1]->find_pod("cli"), nullptr);

  pod::Pod* moved = rig.agents[3]->find_pod("cli");
  ASSERT_NE(moved, nullptr);
  for (int i = 0; i < 12000; ++i) {
    rig.cl.run_for(10 * sim::kMillisecond);
    os::Process* p = moved->find_process(cpid);
    if (p->state() == os::ProcState::EXITED) {
      EXPECT_EQ(p->exit_code(), 0);
      return;
    }
  }
  FAIL() << "client did not finish after pipelined migration";
}

}  // namespace
}  // namespace zapc::ckpt
