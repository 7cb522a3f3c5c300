// Rolling cluster maintenance (paper §1: "improved service availability
// and administration by checkpointing applications processes before
// cluster node maintenance and restarting them on other cluster nodes so
// that applications can continue to run with minimal downtime").
//
// A long-running 3-rank BT solver is repeatedly migrated so each node in
// turn can be drained: on every round, the whole application is
// checkpointed (coordinated, consistent), the drained node's pod is
// restarted on the spare node, and the other pods return to their hosts.
// The solver never restarts from scratch and finishes with correct
// physics.
#include <cstdio>

#include "apps/bt.h"
#include "apps/launcher.h"
#include "core/agent.h"
#include "core/manager.h"
#include "os/cluster.h"

using namespace zapc;

int main() {
  os::Cluster cluster;
  os::Node& mgr_node = cluster.add_node("mgr");
  std::vector<std::unique_ptr<core::Agent>> agents;
  std::vector<core::Agent*> all;
  for (int i = 0; i < 4; ++i) {  // 3 active + 1 spare
    os::Node& n = cluster.add_node("node" + std::to_string(i + 1));
    agents.push_back(std::make_unique<core::Agent>(n));
    all.push_back(agents.back().get());
  }
  core::Manager manager(mgr_node);

  std::vector<core::Agent*> active(all.begin(), all.begin() + 3);
  apps::JobHandle job = apps::launch_mpi_job(
      active, "bt", 3, [](i32 rank) {
        apps::BtProgram::Params p;
        p.rank = rank;
        p.size = 3;
        p.n = 256;
        p.steps = 120;
        return std::make_unique<apps::BtProgram>(p);
      });
  job.all_agents = all;

  // Current placement: pod index -> agent.
  std::vector<core::Agent*> placement(active);

  for (int round = 0; round < 3 && !job.finished(); ++round) {
    cluster.run_for(150 * sim::kMillisecond);
    if (job.finished()) break;

    core::Agent* draining = placement[static_cast<std::size_t>(round)];
    core::Agent* spare = nullptr;
    for (core::Agent* a : all) {
      bool used = false;
      for (core::Agent* p : placement) used = used || p == a;
      if (!used) spare = a;
    }
    std::printf("round %d: draining %s; its pod moves to %s\n", round,
                draining->node().name().c_str(),
                spare->node().name().c_str());

    // Coordinated checkpoint of the whole job from the current hosts.
    std::vector<core::Manager::Target> ckpt_targets;
    for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
      ckpt_targets.push_back({placement[i]->addr(), job.pod_names[i],
                              "san://maint/" + job.pod_names[i]});
    }
    bool done = false, ok = false;
    manager.checkpoint(ckpt_targets, core::CkptMode::MIGRATE,
                       [&](core::Manager::CheckpointReport r) {
                         ok = r.ok;
                         done = true;
                       });
    while (!done) cluster.run_for(sim::kMillisecond);
    if (!ok) {
      std::printf("checkpoint failed; aborting maintenance\n");
      return 1;
    }

    // New placement: drained pod -> spare; everyone else stays.
    placement[static_cast<std::size_t>(round)] = spare;
    std::vector<core::Manager::Target> restart_targets;
    for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
      restart_targets.push_back({placement[i]->addr(), job.pod_names[i],
                                 "san://maint/" + job.pod_names[i]});
    }
    done = false;
    manager.restart(restart_targets, {},
                    [&](core::Manager::RestartReport r) {
                      ok = r.ok;
                      done = true;
                    });
    while (!done) cluster.run_for(sim::kMillisecond);
    if (!ok) {
      std::printf("restart failed; aborting maintenance\n");
      return 1;
    }
    std::printf("  %s is now free for maintenance\n",
                draining->node().name().c_str());
  }

  while (!job.finished()) cluster.run_for(20 * sim::kMillisecond);
  std::printf("solver survived %s, exit code %d\n",
              "three rolling migrations", job.exit_code());

  auto out = cluster.san().read("results/bt");
  apps::BtResult bt;
  if (out.is_ok() && decode_fields(out.value(), bt).is_ok()) {
    std::printf("diffusion norm %.6f -> %.6f (decayed: %s)\n",
                bt.initial_norm, bt.norm,
                bt.norm < bt.initial_norm ? "yes" : "NO");
  }
  return job.exit_code();
}
