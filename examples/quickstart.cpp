// Quickstart: the smallest end-to-end ZapC session.
//
//  1. Build a simulated two-node cluster with a ZapC agent on each node
//     and a manager.
//  2. Launch a two-rank MPI job (parallel-Pi), one pod per rank.
//  3. Take a coordinated snapshot mid-run — the application never
//     notices.
//  4. Let the job finish and verify the result.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "apps/cpi.h"
#include "apps/launcher.h"
#include "core/agent.h"
#include "core/manager.h"
#include "os/cluster.h"

using namespace zapc;

int main() {
  // --- 1. The cluster: two application nodes plus a manager node. -------
  os::Cluster cluster;
  os::Node& mgr_node = cluster.add_node("mgr");
  os::Node& node1 = cluster.add_node("node1");
  os::Node& node2 = cluster.add_node("node2");

  core::Agent agent1(node1);
  core::Agent agent2(node2);
  core::Manager manager(mgr_node);

  // --- 2. The application: 2-rank parallel Pi in two pods. ---------------
  apps::JobHandle job = apps::launch_mpi_job(
      {&agent1, &agent2}, "pi", 2, [](i32 rank) {
        apps::CpiProgram::Params p;
        p.rank = rank;
        p.size = 2;
        p.intervals = 50'000'000;
        p.rounds = 4;
        return std::make_unique<apps::CpiProgram>(p);
      });
  std::printf("launched %zu pods: %s on %s, %s on %s\n",
              job.pod_names.size(), job.pod_names[0].c_str(),
              node1.name().c_str(), job.pod_names[1].c_str(),
              node2.name().c_str());

  // --- 3. Coordinated snapshot mid-run. -----------------------------------
  cluster.run_for(40 * sim::kMillisecond);  // mid-computation
  bool done = false;
  manager.checkpoint(
      job.san_targets(), core::CkptMode::SNAPSHOT,
      [&](core::Manager::CheckpointReport r) {
        std::printf("checkpoint %s in %.1f ms (largest image %.1f MB, "
                    "network data %.1f KB)\n",
                    r.ok ? "completed" : "FAILED",
                    static_cast<double>(r.total_us) / 1000.0,
                    static_cast<double>(r.max_image_bytes) / (1 << 20),
                    static_cast<double>(r.max_network_bytes) / 1024.0);
        done = true;
      });
  while (!done) cluster.run_for(sim::kMillisecond);

  // --- 4. The application continues untouched and finishes. ---------------
  while (!job.finished()) cluster.run_for(10 * sim::kMillisecond);
  std::printf("job finished with exit code %d\n", job.exit_code());

  auto result = cluster.san().read("results/cpi");
  apps::CpiResult cpi;
  if (result.is_ok() && decode_fields(result.value(), cpi).is_ok()) {
    std::printf("computed pi = %.12f\n", cpi.pi);
  }
  return job.exit_code();
}
