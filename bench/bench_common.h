// Shared harness for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one figure/series from the paper's
// evaluation (§6): it builds the simulated BladeCenter, runs the four
// workloads across cluster sizes, and prints the same rows/series the
// paper reports.  Absolute values come from the simulation's cost model;
// the *shape* (who wins, scaling trends, ratios) is what reproduces.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/bratu.h"
#include "apps/bt.h"
#include "apps/cpi.h"
#include "apps/launcher.h"
#include "apps/ray.h"
#include "core/agent.h"
#include "core/manager.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/stats.h"
#include "os/cluster.h"

namespace zapc::bench {

/// The paper's cluster configurations: 1..16 "nodes" (the 16-node config
/// is eight dual-processor blades; §6).
inline const std::vector<int> kClusterSizes = {1, 2, 4, 8, 16};
inline const std::vector<int> kBtSizes = {1, 4, 9, 16};  // BT needs squares

/// One simulated testbed: `n` application nodes (+1 manager node), an
/// agent per node, a manager.
struct Testbed {
  os::Cluster cl;
  os::Node* mgr_node = nullptr;
  std::vector<core::Agent*> agents;
  std::vector<std::unique_ptr<core::Agent>> agent_store;
  std::unique_ptr<core::Manager> manager;
  core::Trace trace;
  /// In-memory op ledger (DESIGN.md §10): one entry per coordinated op
  /// this testbed's Manager ran.  Benches can persist it next to their
  /// evidence with `ledger.write_file("bench_results/<name>.ledger.jsonl")`.
  obs::Ledger ledger;

  explicit Testbed(int n, bool dual_cpu = false) {
    // RAII spans recorded on this testbed's trace stamp from its virtual
    // clock.  (The Manager/Agent pipeline stamps explicitly and does not
    // need this.)  The recorder belongs to the Testbed, so no cross-
    // testbed ownership issue arises when warm-up testbeds die.
    trace.recorder().set_clock([this] { return cl.now(); });
    mgr_node = &cl.add_node("mgr");
    for (int i = 0; i < n; ++i) {
      os::Node& node =
          cl.add_node("n" + std::to_string(i + 1), dual_cpu ? 2 : 1);
      agent_store.push_back(std::make_unique<core::Agent>(
          node, core::Agent::kDefaultPort, core::CostModel{}, &trace));
      agents.push_back(agent_store.back().get());
    }
    manager = std::make_unique<core::Manager>(*mgr_node, &trace);
    manager->set_ledger(&ledger);
  }

  /// Runs until the job completes; returns virtual completion time (us),
  /// or 0 on failure/timeout.
  sim::Time run_to_completion(const apps::JobHandle& job,
                              sim::Time budget = 3600 * sim::kSecond) {
    while (cl.now() < budget) {
      cl.run_for(50 * sim::kMillisecond);
      if (job.finished()) {
        return job.exit_code() == 0 ? cl.now() : 0;
      }
    }
    return 0;
  }

  core::Manager::CheckpointReport checkpoint_sync(
      const std::vector<core::Manager::Target>& targets,
      core::CkptMode mode = core::CkptMode::SNAPSHOT,
      bool redirect = false,
      core::Manager::CkptOptions opts = {}) {
    core::Manager::CheckpointReport out;
    bool done = false;
    opts.redirect_send_queues = opts.redirect_send_queues || redirect;
    manager->checkpoint(targets, mode,
                        [&](auto r) {
                          out = std::move(r);
                          done = true;
                        },
                        opts);
    for (int i = 0; i < 120000 && !done; ++i) {
      cl.run_for(sim::kMillisecond);
    }
    return out;
  }

  core::Manager::RestartReport restart_sync(
      const std::vector<core::Manager::Target>& targets,
      core::Manager::RestartOptions opts = {}) {
    core::Manager::RestartReport out;
    bool done = false;
    manager->restart(targets, {},
                     [&](auto r) {
                       out = std::move(r);
                       done = true;
                     },
                     opts);
    for (int i = 0; i < 120000 && !done; ++i) {
      cl.run_for(sim::kMillisecond);
    }
    return out;
  }
};

// ---- Workload definitions (paper §6 scaling: fixed global problem) ---------

inline apps::JobHandle launch_cpi(Testbed& tb, int nranks) {
  return apps::launch_mpi_job(
      tb.agents, "cpi", nranks, [&](i32 r) {
        apps::CpiProgram::Params p;
        p.rank = r;
        p.size = nranks;
        p.intervals = 64'000'000;  // fixed total work
        p.rounds = 3;
        p.intervals_per_step = 250'000;
        p.cost_per_step = 2500;
        // Image-size model (paper Fig. 6c: 16 MB on 1 node -> 7 MB on 16).
        p.workspace_bytes = (6ull << 20) + (10ull << 20) / nranks;
        return std::make_unique<apps::CpiProgram>(p);
      });
}

inline apps::JobHandle launch_bt(Testbed& tb, int nranks) {
  return apps::launch_mpi_job(
      tb.agents, "bt", nranks, [&](i32 r) {
        apps::BtProgram::Params p;
        p.rank = r;
        p.size = nranks;
        p.n = 1024;  // 8 MB global grid, split across ranks
        p.steps = 40;
        p.cost_per_row = 18;
        // Largest images in the paper: 340 MB on 1 node -> ~35 MB on 16.
        p.workspace_bytes = (12ull << 20) + (320ull << 20) / nranks;
        return std::make_unique<apps::BtProgram>(p);
      });
}

inline apps::JobHandle launch_bratu(Testbed& tb, int nranks) {
  return apps::launch_mpi_job(
      tb.agents, "bratu", nranks, [&](i32 r) {
        apps::BratuProgram::Params p;
        p.rank = r;
        p.size = nranks;
        p.n = 512;
        p.iterations = 300;
        p.reduce_every = 10;
        p.tol = 0;  // fixed duration (no early stop)
        p.cost_per_row = 20;
        // PETSc images: 145 MB on 1 node -> ~24 MB on 16.
        p.workspace_bytes = (16ull << 20) + (128ull << 20) / nranks;
        return std::make_unique<apps::BratuProgram>(p);
      });
}

inline apps::JobHandle launch_ray(Testbed& tb, int workers) {
  apps::RayMaster::Params mp;
  mp.workers = workers;
  mp.width = 400;
  mp.height = 300;
  mp.band_rows = 10;
  return apps::launch_pvm_job(
      tb.agents, "ray", workers,
      [&] { return std::make_unique<apps::RayMaster>(mp); },
      [&](i32) {
        apps::RayWorker::Params wp;
        wp.master = net::SockAddr{apps::job_vips(workers + 1)[0], mp.port};
        wp.width = mp.width;
        wp.rows_per_step = 2;
        wp.cost_per_row = 4000;
        wp.scene_bytes = 9 << 20;  // POV-Ray: ~10 MB regardless of nodes
        return std::make_unique<apps::RayWorker>(wp);
      });
}

/// Named launcher for the sweep loops.  For PVM (ray), `n` endpoints
/// means 1 master + (n-1) workers when n > 1, or a 1-worker farm at n=1.
struct Workload {
  std::string name;
  std::function<apps::JobHandle(Testbed&, int)> launch;
  std::vector<int> sizes;
};

inline std::vector<Workload> paper_workloads() {
  return {
      {"CPI", [](Testbed& tb, int n) { return launch_cpi(tb, n); },
       kClusterSizes},
      {"BT/NAS", [](Testbed& tb, int n) { return launch_bt(tb, n); },
       kBtSizes},
      {"PETSc", [](Testbed& tb, int n) { return launch_bratu(tb, n); },
       kClusterSizes},
      {"POV-Ray",
       [](Testbed& tb, int n) {
         return launch_ray(tb, std::max(1, n - 1));
       },
       kClusterSizes},
  };
}

/// Number of cluster nodes needed to host a job of n endpoints (the
/// ray job adds a master).
inline int nodes_for(const std::string& name, int n) {
  return name == "POV-Ray" ? std::max(2, n) : n;
}

inline void print_header(const std::string& title,
                         const std::string& columns) {
  std::printf("\n%s\n", title.c_str());
  for (std::size_t i = 0; i < title.size(); ++i) std::printf("=");
  std::printf("\n%s\n", columns.c_str());
}

/// Machine-readable evidence for one bench binary: captures a metrics
/// baseline at construction, accumulates the bench's result rows, and on
/// write() emits bench_results/<name>.json in the zapc.obs.v1 schema —
/// metrics are reported as the delta over this bench's run, so counts
/// from the process-global registry don't bleed between benches.
class JsonEvidence {
 public:
  explicit JsonEvidence(std::string name) {
    doc_.name = std::move(name);
    // Register the canonical metric vocabulary up front so every export
    // carries the full key set (zeros included) and stays diffable.
    obs::stats::ensure_core_metrics();
    baseline_ = obs::metrics().snapshot();
  }

  /// Appends one result row (arbitrary JSON object, typically mirroring
  /// a printed table line).
  void add_row(obs::Json row) { doc_.rows.push_back(std::move(row)); }

  /// Writes bench_results/<name>.json; returns the path.  Optionally
  /// embeds a span stream (e.g. a Testbed trace's recorder).
  std::string write(const obs::SpanRecorder* spans = nullptr) {
    doc_.metrics = obs::metrics().snapshot().diff_since(baseline_);
    if (spans != nullptr) doc_.spans = spans->spans();
    std::filesystem::create_directories("bench_results");
    std::string path = "bench_results/" + doc_.name + ".json";
    std::ofstream f(path);
    f << obs::to_json(doc_).dump(2) << "\n";
    std::printf("\n[evidence] %s\n", path.c_str());
    return path;
  }

 private:
  obs::Evidence doc_;
  obs::MetricsSnapshot baseline_;
};

}  // namespace zapc::bench

namespace zapc::bench {

/// Results of the paper's checkpoint methodology: "taking ten checkpoints
/// evenly distributed during each application execution" (§6.2).
struct CkptSweep {
  int checkpoints = 0;
  double avg_total_ms = 0;       // Fig. 6a series
  double max_total_ms = 0;
  double min_total_ms = 1e18;
  double avg_net_ms = 0;         // network-state portion (§6.2 text)
  double avg_image_mb = 0;       // Fig. 6c series (largest pod)
  double avg_net_kb = 0;         // network-state data size
  double avg_sync_ms = 0;        // time to the single synchronization
  bool job_ok = false;
};

/// Runs the workload once untimed to learn its duration, then reruns it
/// taking `num` evenly spaced checkpoints.
inline CkptSweep sweep_checkpoints(const Workload& w, int n, int num = 10) {
  CkptSweep out;

  sim::Time duration;
  {
    Testbed warm(nodes_for(w.name, n));
    apps::JobHandle job = w.launch(warm, n);
    duration = warm.run_to_completion(job);
    if (duration == 0) return out;
  }

  Testbed tb(nodes_for(w.name, n));
  apps::JobHandle job = w.launch(tb, n);
  auto targets = job.san_targets();
  sim::Time interval = duration / static_cast<sim::Time>(num + 1);

  for (int k = 0; k < num && !job.finished(); ++k) {
    tb.cl.run_for(interval);
    if (job.finished()) break;
    auto r = tb.checkpoint_sync(targets);
    if (!r.ok) return out;
    double ms = static_cast<double>(r.total_us) / 1000.0;
    out.avg_total_ms += ms;
    out.max_total_ms = std::max(out.max_total_ms, ms);
    out.min_total_ms = std::min(out.min_total_ms, ms);
    out.avg_net_ms += static_cast<double>(r.max_net_ckpt_us) / 1000.0;
    out.avg_image_mb +=
        static_cast<double>(r.max_image_bytes) / (1 << 20);
    out.avg_net_kb += static_cast<double>(r.max_network_bytes) / 1024.0;
    out.avg_sync_ms += static_cast<double>(r.sync_us) / 1000.0;
    ++out.checkpoints;
  }
  if (out.checkpoints > 0) {
    out.avg_total_ms /= out.checkpoints;
    out.avg_net_ms /= out.checkpoints;
    out.avg_image_mb /= out.checkpoints;
    out.avg_net_kb /= out.checkpoints;
    out.avg_sync_ms /= out.checkpoints;
  }
  out.job_ok = tb.run_to_completion(job) != 0;
  return out;
}

/// Restart measurement (Fig. 6b): checkpoint mid-execution ("during which
/// the most extensive application processing is taking place"), destroy,
/// restart on the same nodes, and report the Manager-observed times.
struct RestartMeasure {
  double restart_ms = 0;
  double connectivity_ms = 0;
  double net_restore_ms = 0;
  double ckpt_ms = 0;
  bool ok = false;
};

inline RestartMeasure measure_restart(const Workload& w, int n) {
  RestartMeasure out;
  sim::Time duration;
  {
    Testbed warm(nodes_for(w.name, n));
    apps::JobHandle job = w.launch(warm, n);
    duration = warm.run_to_completion(job);
    if (duration == 0) return out;
  }

  Testbed tb(nodes_for(w.name, n));
  apps::JobHandle job = w.launch(tb, n);
  auto targets = job.san_targets();
  tb.cl.run_for(duration / 2);
  if (job.finished()) return out;

  auto cr = tb.checkpoint_sync(targets);
  if (!cr.ok) return out;
  out.ckpt_ms = static_cast<double>(cr.total_us) / 1000.0;

  for (const auto& pn : job.pod_names) {
    for (core::Agent* a : tb.agents) (void)a->destroy_pod(pn);
  }
  tb.cl.run_for(100 * sim::kMillisecond);

  auto rr = tb.restart_sync(targets);
  if (!rr.ok) return out;
  out.restart_ms = static_cast<double>(rr.total_us) / 1000.0;
  out.connectivity_ms = static_cast<double>(rr.max_connectivity_us) / 1000.0;
  out.net_restore_ms = static_cast<double>(rr.max_net_restore_us) / 1000.0;
  out.ok = tb.run_to_completion(job) != 0;
  return out;
}

}  // namespace zapc::bench
