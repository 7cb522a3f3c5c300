// zapc-soak: seeded fault-injection soak of the coordinated protocol.
//
// For each seed this builds a fresh simulated cluster running a live
// echo application, arms a FaultPlan::random schedule (crash-at-phase,
// message drop/dup/stall, torn SAN writes, slow nodes) and drives a
// coordinated checkpoint with phase deadlines and whole-op retry
// enabled.  After the dust settles it asserts the invariants the
// failure-hardened protocol guarantees:
//
//   * the operation terminates within the configured deadlines (no op
//     hangs forever, whatever was injected);
//   * no half-written `<uri>.tmp` image is left on the SAN, and nothing
//     lands at a final image path unless a checkpoint committed;
//   * an aborted checkpoint is transparent: the application resumes and
//     completes with byte-exact verification;
//   * when a node died mid-operation, the last committed images still
//     restart the application on fresh nodes (checked whenever no
//     partial commit raced the abort past the barrier);
//   * the recorded span stream passes every zapc-trace --validate
//     invariant (single barrier, op.fail pairing, ordering, ...).
//
//   zapc-soak [--seeds N] [--start S] [--verbose]
//   zapc-soak --kill-nodes [--seeds N] [--start S] [--verbose]
//
// --kill-nodes soaks the self-healing supervisor (DESIGN.md §12)
// instead: each seed runs a supervised cluster with a periodic
// checkpoint policy, crashes the server's or client's node at a
// seed-random instant, and asserts unattended recovery end to end:
//
//   * the application survives byte-exactly with zero operator action;
//   * lost work is bounded by one checkpoint interval: the committed
//     set the recovery restored from was no older than the interval
//     (plus one op latency) at the moment of death;
//   * the ledger holds exactly one successful trigger=supervisor
//     restart row per kill, carrying a positive MTTR;
//   * the supervisor returns to IDLE, no orphan temp image remains.
//
// Exit 0 = every seed clean; 1 = at least one violated invariant.  The
// offending seeds are listed, and each replays deterministically: the
// same seed always produces the same fault schedule and event order.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "core/trace.h"
#include "fault/fault.h"
#include "obs/flight.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "os/cluster.h"
#include "super/supervisor.h"
#include "tests/guest_programs.h"
#include "tools/trace_analysis.h"
#include "util/rng.h"

// Restores re-create guest programs through the registry by kind.
ZAPC_REGISTER_PROGRAM(soak_echo_server, zapc::test::EchoServer)
ZAPC_REGISTER_PROGRAM(soak_echo_client, zapc::test::EchoClient)

namespace zapc {
namespace {

constexpr u32 kEchoBytes = 1 << 20;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

u64 counter_value(const std::string& name) {
  const auto snap = obs::metrics().snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Runs until the process exits or the virtual-time budget runs out.
/// Returns the exit code, or an out-of-band negative value.
i32 wait_exit(os::Cluster& cl, pod::Pod* pod, i32 pid, sim::Time budget) {
  if (pod == nullptr) return -100;
  for (sim::Time t = 0; t < budget; t += 10 * sim::kMillisecond) {
    cl.run_for(10 * sim::kMillisecond);
    os::Process* p = pod->find_process(pid);
    if (p != nullptr && p->state() == os::ProcState::EXITED) {
      return p->exit_code();
    }
  }
  return -101;
}

core::Manager::CkptOptions soak_ckpt_options(bool incremental) {
  core::Manager::CkptOptions opts;
  opts.incremental = incremental;
  opts.deadlines.connect_us = 2 * sim::kSecond;
  opts.deadlines.meta_us = 5 * sim::kSecond;
  opts.deadlines.done_us = 5 * sim::kSecond;
  opts.deadlines.agent_barrier_us = 5 * sim::kSecond;
  // COW ops park in drain_wait after the pods resume; without this a
  // dropped EPILOGUE_DONE would hang the op forever.
  opts.deadlines.drain_us = 5 * sim::kSecond;
  opts.retry.max_retries = 2;
  opts.retry.backoff_us = 200 * sim::kMillisecond;
  return opts;
}

struct CkptOutcome {
  bool completed = false;  // the done callback ran at all
  core::Manager::CheckpointReport report;
};

CkptOutcome run_checkpoint(os::Cluster& cl, core::Manager& manager,
                           const std::vector<core::Manager::Target>& targets,
                           const core::Manager::CkptOptions& opts) {
  CkptOutcome out;
  manager.checkpoint(targets, core::CkptMode::SNAPSHOT,
                     [&](core::Manager::CheckpointReport r) {
                       out.report = std::move(r);
                       out.completed = true;
                     },
                     opts);
  for (int i = 0; i < 40000 && !out.completed; ++i) {
    cl.run_for(sim::kMillisecond);
  }
  return out;
}

/// One seeded schedule; returns the list of violated invariants.
std::vector<std::string> run_seed(u64 seed, bool verbose) {
  std::vector<std::string> bad;
  fault::injector().clear();

  os::Cluster cl;
  core::Trace trace;
  os::Node& mgr_node = cl.add_node("mgr");
  std::vector<os::Node*> nodes;
  std::vector<std::unique_ptr<core::Agent>> agents;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(&cl.add_node("n" + std::to_string(i + 1)));
    agents.push_back(std::make_unique<core::Agent>(
        *nodes.back(), core::Agent::kDefaultPort, core::CostModel{}, &trace));
  }
  core::Manager manager(mgr_node, &trace);
  // Every op attempt must leave exactly one ledger line — asserted below.
  obs::Ledger ledger;
  manager.set_ledger(&ledger);
  const u64 attrib_failures_before =
      counter_value("mgr.ledger.attrib_failures");

  pod::Pod& sp = agents[0]->create_pod(vip(1), "server-pod");
  (void)sp.spawn(std::make_unique<test::EchoServer>(5000));
  pod::Pod& cp = agents[1]->create_pod(vip(2), "client-pod");
  i32 client_pid = cp.spawn(std::make_unique<test::EchoClient>(
      net::SockAddr{vip(1), 5000}, kEchoBytes));
  cl.run_for(20 * sim::kMillisecond);

  const std::vector<core::Manager::Target> targets = {
      {agents[0]->addr(), "server-pod", "san://ckpt/server"},
      {agents[1]->addr(), "client-pod", "san://ckpt/client"},
  };

  // Every fourth seed first commits a clean baseline, then injects into
  // an *incremental* checkpoint on top of it: the aborted-delta and
  // last-good-image invariants only bite when there is a prior image.
  const bool with_baseline = seed % 4 == 0;
  if (with_baseline) {
    CkptOutcome base =
        run_checkpoint(cl, manager, targets, soak_ckpt_options(false));
    if (!base.completed || !base.report.ok) {
      bad.push_back("baseline checkpoint failed with no faults armed: " +
                    base.report.error);
      return bad;
    }
  }

  fault::FaultPlan plan = fault::FaultPlan::random(
      seed, {{nodes[0]->name(), nodes[0]->addr().v},
             {nodes[1]->name(), nodes[1]->addr().v}});
  plan.arm();
  if (verbose) {
    std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
                plan.describe().c_str());
  }

  const u64 committed_before = counter_value("ckpt.commit.committed");
  // Half the seeds run the faulted op in COW concurrent mode, so the
  // drain-phase failure paths (crash mid-drain, lost EPILOGUE_DONE, SAN
  // write faults after the pods resumed) get the same soak coverage as
  // the blocking protocol.
  core::Manager::CkptOptions faulted_opts = soak_ckpt_options(with_baseline);
  faulted_opts.cow = seed % 2 == 1;
  CkptOutcome cr = run_checkpoint(cl, manager, targets, faulted_opts);
  if (!cr.completed) {
    bad.push_back("checkpoint neither finished nor aborted within 40s "
                  "virtual (deadline leak); plan: " + plan.describe());
  }
  fault::injector().clear();
  // Long enough for any in-flight abort, stalled frame (<= 2s) or agent
  // barrier watchdog (5s) to run its course.
  cl.run_for(6 * sim::kSecond);
  const u64 committed_delta =
      counter_value("ckpt.commit.committed") - committed_before;

  // ---- Storage invariants: no torn/orphan temp, no final image unless
  // some checkpoint actually committed.
  for (const std::string& path : cl.san().list("")) {
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".tmp") == 0) {
      bad.push_back("orphan temp image on SAN: " + path);
    }
  }
  if (!with_baseline && committed_delta == 0 &&
      !cl.san().list("ckpt/").empty()) {
    bad.push_back("final image present although nothing committed");
  }

  const bool crashed = nodes[0]->failed() || nodes[1]->failed();

  if (!crashed) {
    // Surviving cluster: whatever happened to the checkpoint, the
    // application must be unharmed and verify every echoed byte.
    if (cr.completed) {
      i32 ec = wait_exit(cl, agents[1]->find_pod("client-pod"), client_pid,
                         240 * sim::kSecond);
      if (ec != 0) {
        bad.push_back("application did not survive the faulty checkpoint "
                      "(client exit " + std::to_string(ec) + ", checkpoint " +
                      (cr.report.ok ? "ok" : "aborted") + ")");
      }
    }
  } else {
    // A node died.  Any surviving pod must have been resumed, not left
    // suspended behind the aborted barrier.
    const char* pod_names[] = {"server-pod", "client-pod"};
    for (int i = 0; i < 2; ++i) {
      if (nodes[i]->failed()) continue;
      pod::Pod* p = agents[i]->find_pod(pod_names[i]);
      if (p != nullptr && p->suspended()) {
        bad.push_back(std::string(pod_names[i]) +
                      " left suspended after the abort");
      }
    }
    // The last *committed* checkpoint must restart elsewhere.  Skipped
    // when an abort raced a partial commit past the barrier (some agents
    // committed, some did not: the SAN then mixes epochs by design) or
    // when the op never terminated (already reported above).
    const bool have_images = cl.san().exists("ckpt/server") &&
                             cl.san().exists("ckpt/client");
    const bool consistent = cr.report.ok || committed_delta == 0;
    if (cr.completed && have_images && consistent) {
      (void)agents[0]->destroy_pod("server-pod");
      (void)agents[1]->destroy_pod("client-pod");
      cl.run_for(100 * sim::kMillisecond);

      core::Manager::RestartOptions ropts;
      ropts.deadlines.connect_us = 2 * sim::kSecond;
      ropts.deadlines.restart_us = 10 * sim::kSecond;
      ropts.retry.max_retries = 2;
      ropts.retry.backoff_us = 200 * sim::kMillisecond;
      // Seed-random restore scheme, so the pipelined/lazy paths (hot-set
      // ranking, demand faults racing background fills, the lazy epilogue)
      // soak alongside the monolithic one.
      ropts.pipelined = seed % 3 != 0;
      ropts.lazy = seed % 3 == 2;
      ropts.deadlines.lazy_us = 5 * sim::kSecond;
      bool rdone = false;
      core::Manager::RestartReport rr;
      manager.restart(
          {
              {agents[2]->addr(), "server-pod", "san://ckpt/server"},
              {agents[3]->addr(), "client-pod", "san://ckpt/client"},
          },
          {},
          [&](core::Manager::RestartReport r) {
            rr = std::move(r);
            rdone = true;
          },
          ropts);
      for (int i = 0; i < 40000 && !rdone; ++i) cl.run_for(sim::kMillisecond);
      if (!rdone) {
        bad.push_back("restart from committed images never completed");
      } else if (!rr.ok) {
        bad.push_back("restart from last committed images failed: " +
                      rr.error);
      } else {
        i32 ec = wait_exit(cl, agents[3]->find_pod("client-pod"), client_pid,
                           240 * sim::kSecond);
        if (ec != 0) {
          bad.push_back("restored application failed verification (client "
                        "exit " + std::to_string(ec) + ")");
        }
      }
    }
  }

  // ---- Ledger invariants (DESIGN.md §10): every op attempt that opened
  // a Manager root span left exactly one ledger line (retries mint fresh
  // op ids, so each attempt is its own row), attribution never failed,
  // and each attributed critical path sums to its downtime within 1%.
  if (cr.completed) {
    std::map<obs::OpId, int> roots;
    for (const auto& s : trace.recorder().spans()) {
      if (s.kind == obs::SpanKind::SPAN && s.op != 0 &&
          (s.name == "mgr.ckpt" || s.name == "mgr.restart")) {
        ++roots[s.op];
      }
    }
    std::map<obs::OpId, int> lines;
    for (const auto& e : ledger.entries()) ++lines[e.op];
    for (const auto& [op, n] : roots) {
      auto it = lines.find(op);
      if (it == lines.end()) {
        bad.push_back("ledger: no line for op " + std::to_string(op));
      } else if (it->second != 1) {
        bad.push_back("ledger: op " + std::to_string(op) + " has " +
                      std::to_string(it->second) + " lines, expected 1");
      }
    }
    for (const auto& [op, n] : lines) {
      if (roots.count(op) == 0) {
        bad.push_back("ledger: line for op " + std::to_string(op) +
                      " which has no Manager root span");
      }
    }
    if (counter_value("mgr.ledger.attrib_failures") !=
        attrib_failures_before) {
      bad.push_back("ledger: critical-path attribution failed");
    }
    for (const auto& e : ledger.entries()) {
      if (!e.has_attrib || e.attrib.downtime_us == 0) continue;
      u64 sum = 0;
      for (const auto& seg : e.attrib.segments) sum += seg.duration();
      const u64 diff = sum > e.attrib.downtime_us
                           ? sum - e.attrib.downtime_us
                           : e.attrib.downtime_us - sum;
      if (diff * 100 > e.attrib.downtime_us) {
        bad.push_back("ledger: op " + std::to_string(e.op) +
                      " segments sum to " + std::to_string(sum) +
                      "us, downtime " +
                      std::to_string(e.attrib.downtime_us) + "us");
      }
    }
  }

  // ---- Offline evidence invariants, same checks as zapc-trace
  // --validate.  A dead agent legitimately leaves its spans open.
  tools::ValidateOptions vopts;
  vopts.allow_open_spans = crashed;
  for (const std::string& v :
       tools::validate_ops(trace.recorder().spans(), vopts)) {
    bad.push_back("trace: " + v);
  }

  fault::injector().clear();
  return bad;
}

/// One supervised kill seed (--kill-nodes); returns violated invariants.
std::vector<std::string> run_kill_seed(u64 seed, bool verbose) {
  // Big enough that the transfer is still in flight when the node dies
  // and the detector + restart have run (echo moves ~60-115 MB/s of
  // virtual time; kills land before 900ms).
  constexpr u32 kKillEchoBytes = 128 << 20;
  constexpr sim::Time kInterval = 250 * sim::kMillisecond;

  std::vector<std::string> bad;
  fault::injector().clear();

  os::Cluster cl;
  core::Trace trace;
  os::Node& mgr_node = cl.add_node("mgr");
  std::vector<os::Node*> nodes;
  std::vector<std::unique_ptr<core::Agent>> agents;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(&cl.add_node("n" + std::to_string(i + 1)));
    agents.push_back(std::make_unique<core::Agent>(
        *nodes.back(), core::Agent::kDefaultPort, core::CostModel{}, &trace));
  }
  core::Manager manager(mgr_node, &trace);
  obs::Ledger ledger;
  manager.set_ledger(&ledger);

  pod::Pod& sp = agents[0]->create_pod(vip(1), "server-pod");
  (void)sp.spawn(std::make_unique<test::EchoServer>(5000));
  pod::Pod& cp = agents[1]->create_pod(vip(2), "client-pod");
  i32 client_pid = cp.spawn(std::make_unique<test::EchoClient>(
      net::SockAddr{vip(1), 5000}, kKillEchoBytes));
  cl.run_for(20 * sim::kMillisecond);

  super::Supervisor::Options sopts;
  sopts.heartbeat_us = 20 * sim::kMillisecond;  // dead after 320ms
  sopts.coalesce_us = 10 * sim::kMillisecond;
  sopts.recovery_backoff_us = 50 * sim::kMillisecond;
  sopts.ckpt_interval_us = kInterval;
  sopts.ckpt.deadlines.connect_us = 1 * sim::kSecond;
  sopts.ckpt.deadlines.meta_us = 3 * sim::kSecond;
  sopts.ckpt.deadlines.done_us = 3 * sim::kSecond;
  sopts.ckpt.deadlines.agent_barrier_us = 3 * sim::kSecond;
  sopts.ckpt.deadlines.drain_us = 3 * sim::kSecond;
  sopts.restart.deadlines.connect_us = 1 * sim::kSecond;
  sopts.restart.deadlines.restart_us = 5 * sim::kSecond;
  // Seed-random recovery restore scheme: lazy recoveries exercise the
  // crash-during-lazy-window paths under the kill soak.
  sopts.restart.pipelined = seed % 3 != 0;
  sopts.restart.lazy = seed % 3 == 2;
  sopts.restart.deadlines.lazy_us = 3 * sim::kSecond;
  std::vector<super::Supervisor::AgentRef> refs;
  for (int i = 0; i < 4; ++i) {
    refs.push_back({agents[i]->addr(), nodes[i]->name()});
  }
  // Destroyed before the agents (scoped below them): channels close
  // while their endpoints are still alive.
  super::Supervisor supervisor(mgr_node, manager, std::move(refs), sopts,
                               &trace);
  supervisor.start({
      {agents[0]->addr(), "server-pod", "san://ckpt/server"},
      {agents[1]->addr(), "client-pod", "san://ckpt/client"},
  });

  // Seed-random victim and instant.  The window starts after the first
  // periodic commit (~interval + op) and ends while the transfer is
  // still far from done.
  Rng rng(seed ^ 0xB1DEA7Full);
  const bool kill_server = rng.chance(0.5);
  const std::string victim = kill_server ? "n1" : "n2";
  const sim::Time kill_at =
      400 * sim::kMillisecond +
      static_cast<sim::Time>(rng.below(500)) * sim::kMillisecond;

  fault::FaultSpec kill;
  kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
  kill.node = victim;
  kill.at_us = kill_at;
  fault::injector().arm(kill);
  if (verbose) {
    std::printf("seed %llu: kill %s at %llums\n",
                static_cast<unsigned long long>(seed), victim.c_str(),
                static_cast<unsigned long long>(kill_at / 1000));
  }

  // Run to just before the kill and note the newest committed set: the
  // recovery must restore from it (or newer), bounding lost work.
  cl.run_for(kill_at - cl.now() - 10 * sim::kMillisecond);
  if (supervisor.catalog().size() == 0) {
    bad.push_back("no committed set before the kill (interval " +
                  std::to_string(kInterval) + "us, kill at " +
                  std::to_string(kill_at) + "us)");
    fault::injector().clear();
    return bad;
  }
  const sim::Time last_commit_us = supervisor.catalog().latest()->t_us;

  // Zero operator action from here on.  The client finishes wherever
  // its pod now lives; pods stranded on the dead node never exit.
  i32 ec = -101;
  for (sim::Time t = 0; t < 240 * sim::kSecond && ec == -101;
       t += 10 * sim::kMillisecond) {
    cl.run_for(10 * sim::kMillisecond);
    for (int i = 0; i < 4; ++i) {
      if (nodes[i]->failed()) continue;
      pod::Pod* p = agents[i]->find_pod("client-pod");
      if (p == nullptr) continue;
      os::Process* proc = p->find_process(client_pid);
      if (proc != nullptr && proc->state() == os::ProcState::EXITED) {
        ec = proc->exit_code();
      }
    }
  }
  fault::injector().clear();

  if (ec != 0) {
    bad.push_back("application did not survive the kill byte-exactly "
                  "(client exit " + std::to_string(ec) + ", victim " +
                  victim + " at " + std::to_string(kill_at) + "us)");
  }
  if (supervisor.state() != super::Supervisor::State::IDLE) {
    bad.push_back("supervisor not back to IDLE after the recovery");
  }
  if (supervisor.recoveries() != 1) {
    bad.push_back("expected exactly 1 recovery, got " +
                  std::to_string(supervisor.recoveries()));
  }

  // Lost work ≤ one checkpoint interval: the set restored from was at
  // most interval + one op latency old when the node died.
  const sim::Time age_at_kill = kill_at - last_commit_us;
  if (age_at_kill > kInterval + 250 * sim::kMillisecond) {
    bad.push_back("restored set was " + std::to_string(age_at_kill) +
                  "us old at the kill; lost work exceeds the " +
                  std::to_string(kInterval) + "us interval");
  }

  // Exactly one successful supervisor restart row, with a real MTTR.
  int recovery_rows = 0;
  for (const obs::LedgerEntry& e : ledger.entries()) {
    if (e.kind != "restart" || e.trigger != "supervisor") continue;
    if (e.outcome != "ok") continue;
    ++recovery_rows;
    if (e.mttr_us == 0) {
      bad.push_back("supervisor restart row carries no MTTR");
    }
  }
  if (recovery_rows != 1) {
    bad.push_back("expected exactly 1 ok supervisor restart ledger row, "
                  "got " + std::to_string(recovery_rows));
  }

  for (const std::string& path : cl.san().list("")) {
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".tmp") == 0) {
      bad.push_back("orphan temp image on SAN: " + path);
    }
  }
  return bad;
}

}  // namespace
}  // namespace zapc

int main(int argc, char** argv) {
  zapc::u64 nseeds = 200;
  zapc::u64 start = 1;
  bool verbose = false;
  bool kill_nodes = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      nseeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--start" && i + 1 < argc) {
      start = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--kill-nodes") {
      kill_nodes = true;
    } else {
      std::fprintf(stderr,
                   "usage: zapc-soak [--kill-nodes] [--seeds N] [--start S] "
                   "[--verbose]\n");
      return 2;
    }
  }

  // Postmortems from injected failures land out of the way (the soak
  // itself only consults the in-memory span stream).
  zapc::obs::flight().set_dir("zapc-soak-postmortems");

  zapc::u64 failures = 0;
  std::vector<zapc::u64> bad_seeds;
  for (zapc::u64 seed = start; seed < start + nseeds; ++seed) {
    auto problems = kill_nodes ? zapc::run_kill_seed(seed, verbose)
                               : zapc::run_seed(seed, verbose);
    if (problems.empty()) continue;
    ++failures;
    bad_seeds.push_back(seed);
    for (const auto& p : problems) {
      std::printf("FAIL seed %llu: %s\n",
                  static_cast<unsigned long long>(seed), p.c_str());
    }
  }

  if (failures == 0) {
    std::printf("zapc-soak%s: %llu seeds clean (%llu..%llu)\n",
                kill_nodes ? " --kill-nodes" : "",
                static_cast<unsigned long long>(nseeds),
                static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(start + nseeds - 1));
    return 0;
  }
  std::printf("zapc-soak: %llu of %llu seeds violated invariants:",
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(nseeds));
  for (zapc::u64 s : bad_seeds) {
    std::printf(" %llu", static_cast<unsigned long long>(s));
  }
  std::printf("\n");
  return 1;
}
