// Application workload tests: the four paper benchmarks complete
// correctly, and — the core end-to-end property — survive coordinated
// checkpoint-restart (including migration) mid-execution with correct
// final results.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "apps/bratu.h"
#include "apps/bt.h"
#include "apps/cpi.h"
#include "apps/launcher.h"
#include "apps/ray.h"
#include "apps/ray_scene.h"
#include "ckpt/image.h"
#include "core/agent.h"
#include "core/manager.h"
#include "fault/fault.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/helpers.h"

namespace zapc::apps {
namespace {

/// Test cluster with agents on every node and a manager node.
struct TestRig {
  os::Cluster cl;
  os::Node* mgr_node;
  std::vector<core::Agent*> agents;
  std::vector<std::unique_ptr<core::Agent>> agent_store;
  std::unique_ptr<core::Manager> manager;

  explicit TestRig(int nodes) {
    mgr_node = &cl.add_node("mgr");
    for (int i = 0; i < nodes; ++i) {
      os::Node& n = cl.add_node("n" + std::to_string(i + 1));
      agent_store.push_back(std::make_unique<core::Agent>(n));
      agents.push_back(agent_store.back().get());
    }
    manager = std::make_unique<core::Manager>(*mgr_node);
  }

  /// The result blob rank 0 stored at `path`, decoded as an R (BtResult,
  /// BratuResult or CpiResult); a missing or malformed blob fails the
  /// test.
  template <class R>
  R result(const std::string& path) {
    R r;
    auto out = cl.san().read(path);
    EXPECT_TRUE(out.is_ok()) << path;
    if (out) {
      EXPECT_TRUE(decode_fields(out.value(), r).is_ok()) << path;
    }
    return r;
  }

  /// Runs until the job finishes; returns its worst exit code.
  i32 run_job(const JobHandle& job, sim::Time budget = 300 * sim::kSecond) {
    for (sim::Time t = 0; t < budget; t += 20 * sim::kMillisecond) {
      cl.run_for(20 * sim::kMillisecond);
      if (job.finished()) return job.exit_code();
    }
    return -1;
  }

  /// Synchronous wrapper around Manager::checkpoint.
  core::Manager::CheckpointReport checkpoint(
      const std::vector<core::Manager::Target>& targets,
      core::CkptMode mode = core::CkptMode::SNAPSHOT) {
    core::Manager::CheckpointReport out;
    bool done = false;
    manager->checkpoint(targets, mode, [&](auto r) {
      out = std::move(r);
      done = true;
    });
    for (int i = 0; i < 60000 && !done; ++i) {
      cl.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  core::Manager::RestartReport restart(
      const std::vector<core::Manager::Target>& targets) {
    core::Manager::RestartReport out;
    bool done = false;
    manager->restart(targets, {}, [&](auto r) {
      out = std::move(r);
      done = true;
    });
    for (int i = 0; i < 60000 && !done; ++i) {
      cl.run_for(sim::kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }
};

CpiProgram::Params cpi_params(i32 rank, i32 size) {
  CpiProgram::Params p;
  p.rank = rank;
  p.size = size;
  p.intervals = 4'000'000;
  p.rounds = 2;
  return p;
}

JobHandle launch_cpi(TestRig& rig, i32 nranks) {
  return launch_mpi_job(rig.agents, "cpi", nranks, [&](i32 r) {
    return std::make_unique<CpiProgram>(cpi_params(r, nranks));
  });
}

TEST(Apps, CpiComputesPi) {
  TestRig rig(4);
  JobHandle job = launch_cpi(rig, 4);
  EXPECT_EQ(rig.run_job(job), 0);
  EXPECT_NEAR(rig.result<CpiResult>("results/cpi").pi, M_PI, 1e-6);
}

TEST(Apps, CpiSingleRank) {
  TestRig rig(1);
  JobHandle job = launch_cpi(rig, 1);
  EXPECT_EQ(rig.run_job(job), 0);
}

TEST(Apps, CpiResultLostToStorageExitsNonzero) {
  TestRig rig(1);
  fault::FaultSpec s;
  s.kind = fault::FaultKind::SAN_WRITE_FAIL;
  s.san_prefix = "results/";
  fault::injector().arm(s);
  JobHandle job = launch_cpi(rig, 1);
  const i32 code = rig.run_job(job);
  fault::injector().clear();
  EXPECT_EQ(code, 4);
  EXPECT_FALSE(rig.cl.san().exists("results/cpi"));
}

TEST(Apps, BratuConverges) {
  TestRig rig(4);
  BratuProgram::Params base;
  base.n = 96;
  base.iterations = 300;
  base.size = 4;
  JobHandle job = launch_mpi_job(rig.agents, "bratu", 4, [&](i32 r) {
    BratuProgram::Params p = base;
    p.rank = r;
    return std::make_unique<BratuProgram>(p);
  });
  EXPECT_EQ(rig.run_job(job), 0);
  const double residual = rig.result<BratuResult>("results/bratu").residual;
  EXPECT_LT(residual, 1.0);
  EXPECT_TRUE(std::isfinite(residual));
}

TEST(Apps, BratuResidualIndependentOfRankCount) {
  // Decomposition correctness: 1-rank and 3-rank runs converge to the
  // same residual trajectory endpoint.
  double res[2];
  for (int trial = 0; trial < 2; ++trial) {
    i32 nr = trial == 0 ? 1 : 3;
    TestRig rig(static_cast<int>(nr));
    BratuProgram::Params base;
    base.n = 48;
    base.iterations = 100;
    base.reduce_every = 100;  // only the final reduce
    base.size = nr;
    JobHandle job = launch_mpi_job(rig.agents, "bratu", nr, [&](i32 r) {
      BratuProgram::Params p = base;
      p.rank = r;
      return std::make_unique<BratuProgram>(p);
    });
    EXPECT_EQ(rig.run_job(job), 0);
    res[trial] = rig.result<BratuResult>("results/bratu").residual;
  }
  EXPECT_NEAR(res[0], res[1], 1e-9 + 1e-6 * std::abs(res[0]));
}

TEST(Apps, BtDiffusionDecays) {
  TestRig rig(4);
  BtProgram::Params base;
  base.n = 128;
  base.steps = 20;
  base.size = 4;
  JobHandle job = launch_mpi_job(rig.agents, "bt", 4, [&](i32 r) {
    BtProgram::Params p = base;
    p.rank = r;
    return std::make_unique<BtProgram>(p);
  });
  EXPECT_EQ(rig.run_job(job), 0);
  const BtResult r = rig.result<BtResult>("results/bt");
  EXPECT_LT(r.norm, r.initial_norm);
  EXPECT_GT(r.norm, 0.0);
}

/// BT's final norm, bit for bit, after an uninterrupted `ranks`-rank run
/// on an n×n grid.
u64 bt_final_norm_bits(i32 ranks, u32 n) {
  TestRig rig(ranks);
  BtProgram::Params base;
  base.n = n;
  base.steps = 20;
  base.size = ranks;
  JobHandle job = launch_mpi_job(rig.agents, "bt", ranks, [&](i32 r) {
    BtProgram::Params p = base;
    p.rank = r;
    return std::make_unique<BtProgram>(p);
  });
  EXPECT_EQ(rig.run_job(job), 0);
  return std::bit_cast<u64>(rig.result<BtResult>("results/bt").norm);
}

// Pins BT's numerics: any reordering of the solver's floating-point
// arithmetic moves these bits.  The 3-rank n=37 run gives ranks 12, 12
// and 13 local rows, none a multiple of the row block.
TEST(Apps, BtFinalNormIsBitIdentical) {
  EXPECT_EQ(bt_final_norm_bits(4, 128), 0x3fe0163f8407b4d0ull);
  EXPECT_EQ(bt_final_norm_bits(3, 37), 0x3fdffc6c0adbbafbull);
}

TEST(Apps, BtBlockedSweepsMatchPerLineSolveBitForBit) {
  const double a = 0.1;
  const u32 count = 13;  // lines per sweep: one full block of 8 plus 5
  for (u32 len : {1u, 2u, 7u, 256u}) {
    SCOPED_TRACE(len);
    std::vector<double> rhs(static_cast<std::size_t>(len) * count);
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      rhs[i] = std::sin(0.37 * static_cast<double>(i)) + 0.5;
    }
    const ThomasTable t(len, a);
    std::vector<double> scratch(len);

    // x-sweep: `count` contiguous rows of `len`.
    std::vector<double> want = rhs;
    for (u32 r = 0; r < count; ++r) {
      test::thomas_per_line(want.data() + static_cast<std::size_t>(r) * len,
                            len, a, scratch.data(), 1);
    }
    std::vector<double> got = rhs;
    thomas_rows(got.data(), count, t);
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);

    // y-sweep: `count` columns of a row-major len×count block.
    want = rhs;
    for (u32 c = 0; c < count; ++c) {
      test::thomas_per_line(want.data() + c, len, a, scratch.data(), count);
    }
    got = rhs;
    thomas_columns(got.data(), count, t);
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
  }
}

/// One BT step (its INIT) in a bare pod; the pod is returned for
/// inspection of the step's region accesses and system calls.
std::unique_ptr<pod::Pod> bt_after_init(os::Node& node, u8 host,
                                        u64 workspace_bytes) {
  auto pod = std::make_unique<pod::Pod>(
      node, net::IpAddr(10, 81, 0, host), "bt" + std::to_string(host));
  BtProgram::Params p;
  p.n = 16;
  p.steps = 4;
  p.workspace_bytes = workspace_bytes;
  const i32 pid = pod->spawn(std::make_unique<BtProgram>(p));
  (void)pod->step_process(*pod->find_process(pid));
  return pod;
}

// BT only sizes its workspace, so after INIT the workspace is a zero
// view holding no memory.  Reserving it is the same access region()
// was: one system call, one touch, one generation bump.
TEST(Apps, BtWorkspaceIsAZeroViewAfterInit) {
  os::Cluster cl;
  os::Node& node = cl.add_node("n1");
  constexpr u64 kWorkspace = 3 << 20;
  auto with = bt_after_init(node, 1, kWorkspace);
  auto without = bt_after_init(node, 2, 0);
  const os::Process& a = *with->processes().front();
  const os::Process& b = *without->processes().front();

  const RegionBuf& ws = a.regions().at("workspace");
  EXPECT_TRUE(ws.is_zeros());
  EXPECT_EQ(ws.size(), kWorkspace);
  EXPECT_EQ(b.regions().count("workspace"), 0u);

  EXPECT_EQ(a.region_touches().at("workspace"), 1u);
  EXPECT_EQ(a.region_touches().at("grid"), b.region_touches().at("grid"));
  // The workspace access follows the grid's and bumps the clock once.
  EXPECT_EQ(a.region_gens().at("grid"), b.region_gens().at("grid"));
  EXPECT_EQ(a.region_gens().at("workspace"), a.region_gens().at("grid") + 1);
  EXPECT_EQ(a.region_gen_counter(), b.region_gen_counter() + 1);
  EXPECT_EQ(with->total_syscalls(), without->total_syscalls() + 1);
}

TEST(Apps, RayTracerRendersScene) {
  TestRig rig(4);
  RayMaster::Params mp;
  mp.workers = 3;
  mp.width = 160;
  mp.height = 120;
  JobHandle job = launch_pvm_job(
      rig.agents, "ray", 3,
      [&] { return std::make_unique<RayMaster>(mp); },
      [&](i32) {
        RayWorker::Params wp;
        wp.master = net::SockAddr{job_vips(4)[0], mp.port};
        wp.width = mp.width;
        wp.cost_per_row = 50;
        return std::make_unique<RayWorker>(wp);
      });
  EXPECT_EQ(rig.run_job(job), 0);
  auto img = rig.cl.san().read("results/ray.ppm");
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().size(), 160u * 120u * 3u);
}

TEST(Apps, RayRenderingIsDeterministic) {
  Bytes a(64 * 8 * 3), b(64 * 8 * 3);
  ray::render_band(64, 48, 8, 16, a.data());
  ray::render_band(64, 48, 8, 16, b.data());
  EXPECT_EQ(a, b);
}

// ---- Checkpoint-restart of real applications --------------------------------

TEST(Apps, CpiSurvivesCheckpointRestartMigration) {
  TestRig rig(8);  // 4 source + 4 destination nodes
  std::vector<core::Agent*> src(rig.agents.begin(), rig.agents.begin() + 4);
  JobHandle job = launch_mpi_job(rig.agents, "cpi", 4, [&](i32 r) {
    CpiProgram::Params p = cpi_params(r, 4);
    // Long enough (in virtual time) to checkpoint mid-flight.
    p.intervals = 40'000'000;
    p.intervals_per_step = 100'000;
    p.cost_per_step = 2000;
    return std::make_unique<CpiProgram>(p);
  });

  rig.cl.run_for(100 * sim::kMillisecond);  // mid-computation
  ASSERT_FALSE(job.finished());

  auto cr = rig.checkpoint(job.san_targets());
  ASSERT_TRUE(cr.ok) << cr.error;

  // Kill the original pods; restart everything on the other 4 nodes.
  for (const auto& pn : job.pod_names) {
    for (core::Agent* a : rig.agents) (void)a->destroy_pod(pn);
  }
  std::vector<core::Manager::Target> rt;
  for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
    rt.push_back(core::Manager::Target{
        rig.agents[4 + i]->addr(), job.pod_names[i],
        "san://ckpt/" + job.pod_names[i]});
  }
  auto rr = rig.restart(rt);
  ASSERT_TRUE(rr.ok) << rr.error;

  EXPECT_EQ(rig.run_job(job), 0);
  EXPECT_NEAR(rig.result<CpiResult>("results/cpi").pi, M_PI, 1e-6);
}

TEST(Apps, BratuRestartFromTruncatedProgramStateFails) {
  // A PROCESS record whose program state lost its last byte, re-framed
  // with a valid CRC, must fail the restart rather than resume the rank
  // from default parameters.
  TestRig rig(2);
  BratuProgram::Params base;
  base.n = 48;
  base.iterations = 2000;
  base.tol = 0;
  base.size = 2;
  JobHandle job = launch_mpi_job(rig.agents, "bratu", 2, [&](i32 r) {
    BratuProgram::Params p = base;
    p.rank = r;
    return std::make_unique<BratuProgram>(p);
  });
  rig.cl.run_for(50 * sim::kMillisecond);
  ASSERT_FALSE(job.finished());
  auto targets = job.san_targets();
  ASSERT_TRUE(rig.checkpoint(targets).ok);
  for (const auto& pn : job.pod_names) {
    for (core::Agent* a : rig.agents) (void)a->destroy_pod(pn);
  }

  const std::string path = targets[1].uri.substr(std::string("san://").size());
  auto image = ckpt::decode_image(rig.cl.san().read(path).value());
  ASSERT_TRUE(image.is_ok()) << image.status().to_string();
  ASSERT_EQ(image.value().processes.size(), 1u);
  Bytes& state = image.value().processes[0].program_state;
  ASSERT_FALSE(state.empty());
  state.pop_back();
  ASSERT_TRUE(
      rig.cl.san().write(path, ckpt::encode_image(image.value())).is_ok());

  auto rr = rig.restart(targets);
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("agent reported restart failure for " +
                          targets[1].pod_name),
            std::string::npos)
      << rr.error;
  for (core::Agent* a : rig.agents) {
    EXPECT_EQ(a->find_pod(targets[1].pod_name), nullptr);
  }
}

TEST(Apps, BratuSurvivesSnapshotAndCrashRestart) {
  TestRig rig(3);
  BratuProgram::Params base;
  base.n = 96;
  base.iterations = 2000;
  base.tol = 0;  // no early convergence stop: fixed virtual duration
  base.cost_per_row = 20;
  base.size = 3;
  JobHandle job = launch_mpi_job(rig.agents, "bratu", 3, [&](i32 r) {
    BratuProgram::Params p = base;
    p.rank = r;
    return std::make_unique<BratuProgram>(p);
  });

  rig.cl.run_for(100 * sim::kMillisecond);
  ASSERT_FALSE(job.finished());
  auto targets = job.san_targets();  // capture before the pods vanish
  auto cr = rig.checkpoint(targets);
  ASSERT_TRUE(cr.ok) << cr.error;

  // Let it progress past the checkpoint, then "crash" and rewind.
  rig.cl.run_for(100 * sim::kMillisecond);
  for (const auto& pn : job.pod_names) {
    for (core::Agent* a : rig.agents) (void)a->destroy_pod(pn);
  }
  auto rr = rig.restart(targets);
  ASSERT_TRUE(rr.ok) << rr.error;

  EXPECT_EQ(rig.run_job(job), 0);
  EXPECT_TRUE(
      std::isfinite(rig.result<BratuResult>("results/bratu").residual));
}

TEST(Apps, BtSurvivesCheckpointDuringHaloExchange) {
  TestRig rig(4);
  BtProgram::Params base;
  base.n = 128;
  base.steps = 30;
  base.size = 4;
  JobHandle job = launch_mpi_job(rig.agents, "bt", 4, [&](i32 r) {
    BtProgram::Params p = base;
    p.rank = r;
    return std::make_unique<BtProgram>(p);
  });

  // Take several snapshots while halo traffic is in flight.
  for (int k = 0; k < 3; ++k) {
    rig.cl.run_for(30 * sim::kMillisecond);
    if (job.finished()) break;
    auto cr = rig.checkpoint(job.san_targets());
    ASSERT_TRUE(cr.ok) << "snapshot " << k << ": " << cr.error;
  }
  EXPECT_EQ(rig.run_job(job), 0);
}

TEST(Apps, RaySurvivesWorkerMigration) {
  TestRig rig(6);
  RayMaster::Params mp;
  mp.workers = 3;
  mp.width = 200;
  mp.height = 150;
  JobHandle job = launch_pvm_job(
      rig.agents, "ray", 3,
      [&] { return std::make_unique<RayMaster>(mp); },
      [&](i32) {
        RayWorker::Params wp;
        wp.master = net::SockAddr{job_vips(4)[0], mp.port};
        wp.width = mp.width;
        wp.cost_per_row = 3000;  // slow render so we checkpoint mid-task
        return std::make_unique<RayWorker>(wp);
      });

  rig.cl.run_for(50 * sim::kMillisecond);
  ASSERT_FALSE(job.finished());

  auto cr = rig.checkpoint(job.san_targets());
  ASSERT_TRUE(cr.ok) << cr.error;
  for (const auto& pn : job.pod_names) {
    for (core::Agent* a : rig.agents) (void)a->destroy_pod(pn);
  }
  // Restart master + workers on the two spare nodes and two originals.
  std::vector<core::Manager::Target> rt;
  for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
    rt.push_back(core::Manager::Target{
        rig.agents[(i + 4) % rig.agents.size()]->addr(), job.pod_names[i],
        "san://ckpt/" + job.pod_names[i]});
  }
  auto rr = rig.restart(rt);
  ASSERT_TRUE(rr.ok) << rr.error;

  EXPECT_EQ(rig.run_job(job), 0);
  auto img = rig.cl.san().read("results/ray.ppm");
  ASSERT_TRUE(img.is_ok());
  EXPECT_EQ(img.value().size(), 200u * 150u * 3u);
}

TEST(Apps, LauncherPlacesOnePodPerRank) {
  TestRig rig(2);
  JobHandle job = launch_cpi(rig, 4);  // 4 ranks on 2 nodes
  EXPECT_EQ(job.pod_names.size(), 4u);
  EXPECT_EQ(rig.agents[0]->pod_count(), 2u);
  EXPECT_EQ(rig.agents[1]->pod_count(), 2u);
  EXPECT_EQ(rig.run_job(job), 0);
}

}  // namespace
}  // namespace zapc::apps
