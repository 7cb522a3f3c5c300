// bench_mttr: unattended-recovery time vs checkpoint interval.
//
// The self-healing supervisor (DESIGN.md §12) bounds two quantities a
// failed node costs the application: the mean time to repair (death
// confirmed -> every pod running again) and the lost work (the age of
// the committed set the recovery restored from).  This bench sweeps the
// periodic-checkpoint interval over a fixed kill scenario — echo pair,
// server's node crashes mid-transfer — and reports both, plus the
// detection latency of the heartbeat plane.
//
// The shape to reproduce: MTTR is interval-independent (detection +
// one coordinated restart), while lost work scales with the interval.
// Evidence lands at bench_results/mttr.json; CI pins mttr_ms and
// detect_ms with check_bench_regression --max-increase.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "fault/fault.h"
#include "obs/ledger.h"
#include "obs/vtime.h"
#include "super/supervisor.h"
#include "tests/guest_programs.h"

ZAPC_REGISTER_PROGRAM(mttr_echo_server, zapc::test::EchoServer)
ZAPC_REGISTER_PROGRAM(mttr_echo_client, zapc::test::EchoClient)

namespace {

using namespace zapc;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

constexpr u32 kEchoBytes = 320 << 20;

struct KillResult {
  bool ok = false;
  sim::Time detect_us = 0;     // kill -> death confirmed
  sim::Time mttr_us = 0;       // confirmed -> every pod restored
  sim::Time lost_work_us = 0;  // age of the restored set at the kill
  u32 ckpts = 0;               // periodic commits over the whole run
};

KillResult run_kill(sim::Time interval_us, obs::Ledger& ledger) {
  KillResult out;
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
  manager.set_ledger(&ledger);

  pod::Pod& sp = agents[0]->create_pod(vip(1), "server-pod");
  (void)sp.spawn(std::make_unique<test::EchoServer>(5000));
  pod::Pod& cp = agents[1]->create_pod(vip(2), "client-pod");
  i32 client_pid = cp.spawn(std::make_unique<test::EchoClient>(
      net::SockAddr{vip(1), 5000}, kEchoBytes));
  cl.run_for(20 * sim::kMillisecond);

  super::Supervisor::Options sopts;
  sopts.heartbeat_us = 20 * sim::kMillisecond;  // dead after 320ms
  sopts.coalesce_us = 10 * sim::kMillisecond;
  sopts.recovery_backoff_us = 50 * sim::kMillisecond;
  sopts.ckpt_interval_us = interval_us;
  sopts.ckpt.deadlines.connect_us = 1 * sim::kSecond;
  sopts.ckpt.deadlines.meta_us = 3 * sim::kSecond;
  sopts.ckpt.deadlines.done_us = 3 * sim::kSecond;
  sopts.ckpt.deadlines.agent_barrier_us = 3 * sim::kSecond;
  sopts.ckpt.deadlines.drain_us = 3 * sim::kSecond;
  sopts.restart.deadlines.connect_us = 1 * sim::kSecond;
  sopts.restart.deadlines.restart_us = 5 * sim::kSecond;
  // Recover with the pipelined lazy restore (DESIGN.md §13): the pods
  // resume after the hot set lands, so MTTR stops at the resume instant
  // while cold regions fill in behind it.
  sopts.restart.pipelined = true;
  sopts.restart.lazy = true;
  sopts.restart.deadlines.lazy_us = 5 * sim::kSecond;
  std::vector<super::Supervisor::AgentRef> refs;
  for (int i = 0; i < 4; ++i) {
    refs.push_back({agents[i]->addr(), nodes[i]->name()});
  }
  super::Supervisor supervisor(mgr_node, manager, std::move(refs), sopts,
                               &trace);
  supervisor.start({
      {agents[0]->addr(), "server-pod", "san://ckpt/server"},
      {agents[1]->addr(), "client-pod", "san://ckpt/client"},
  });

  // Wait for the first committed set, then kill just before the NEXT
  // one would land: the restored set is then almost a full interval
  // old — the worst case the lost-work bound promises to cover.  The
  // 85% offset stays under the earliest jittered tick (90% of the
  // interval), so no fresher commit slips in ahead of the kill.
  while (supervisor.catalog().size() == 0 && cl.now() < 20 * sim::kSecond) {
    cl.run_for(10 * sim::kMillisecond);
  }
  if (supervisor.catalog().size() == 0) {
    std::fprintf(stderr, "bench_mttr: no committed set within 20s "
                 "(interval %llu us)\n",
                 static_cast<unsigned long long>(interval_us));
    return out;
  }
  const sim::Time kill_at =
      supervisor.catalog().latest()->t_us + (interval_us * 85) / 100;
  fault::FaultSpec kill;
  kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
  kill.node = "n1";
  kill.at_us = kill_at;
  fault::injector().arm(kill);
  // Drive to just before the kill and re-sample: the set the recovery
  // restores from is the newest commit at the moment of death.
  if (kill_at > cl.now() + 10 * sim::kMillisecond) {
    cl.run_for(kill_at - cl.now() - 10 * sim::kMillisecond);
  }
  const sim::Time last_commit_us = supervisor.catalog().latest()->t_us;

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

  const std::optional<obs::LastRecovery>& lr = supervisor.last_recovery();
  if (ec != 0 || !lr || !lr->ok) {
    std::fprintf(stderr, "bench_mttr: client exit %d, recovery %s "
                 "(interval %llu us)\n", ec, lr && lr->ok ? "ok" : "failed",
                 static_cast<unsigned long long>(interval_us));
    return out;
  }
  out.ok = true;
  out.detect_us = lr->detect_us - kill_at;
  out.mttr_us = lr->mttr_us;
  out.lost_work_us = kill_at - last_commit_us;
  out.ckpts = static_cast<u32>(supervisor.catalog().size());
  return out;
}

}  // namespace

int main() {
  bench::JsonEvidence evidence("mttr");
  obs::Ledger ledger;  // one evidence ledger across the whole sweep
  bench::print_header(
      "Unattended recovery: MTTR vs checkpoint interval "
      "(node kill after the first committed set)",
      "interval   detect     mttr       lost-work  commits");

  // The sweep floor is bounded below by the guests' TCP RTO (200ms):
  // every coordinated freeze drops the in-flight window, and an interval
  // shorter than the RTO floor re-freezes before the window can be
  // re-established — the transfer starves no matter how the cadence is
  // jittered.  DESIGN.md §12 records the constraint; the supervisor's
  // jittered tick handles the border region, but sweeping below the
  // floor would measure a misconfiguration, not the recovery path.
  const std::vector<sim::Time> intervals = {
      250 * sim::kMillisecond, 500 * sim::kMillisecond,
      1000 * sim::kMillisecond};
  bool all_ok = true;
  for (sim::Time interval : intervals) {
    KillResult r = run_kill(interval, ledger);
    if (!r.ok) {
      std::printf("%-10s FAILED\n", obs::vtime_us(interval).c_str());
      all_ok = false;
      continue;
    }
    std::printf("%-10s %-10s %-10s %-10s %u\n",
                obs::vtime_us(interval).c_str(),
                obs::vtime_us(r.detect_us).c_str(),
                obs::vtime_us(r.mttr_us).c_str(),
                obs::vtime_us(r.lost_work_us).c_str(), r.ckpts);
    obs::Json row = obs::Json::object();
    row["interval_ms"] = static_cast<double>(interval) / 1000.0;
    row["detect_ms"] = static_cast<double>(r.detect_us) / 1000.0;
    row["mttr_ms"] = static_cast<double>(r.mttr_us) / 1000.0;
    row["lost_work_ms"] = static_cast<double>(r.lost_work_us) / 1000.0;
    row["commits"] = static_cast<u64>(r.ckpts);
    evidence.add_row(std::move(row));

    // The lost-work bound the supervisor promises: at most one interval
    // plus one op latency separated the kill from a committed set.
    if (r.lost_work_us > interval + 250 * sim::kMillisecond) {
      std::printf("  BOUND VIOLATED: lost work %s > interval %s + 250ms\n",
                  obs::vtime_us(r.lost_work_us).c_str(),
                  obs::vtime_us(interval).c_str());
      all_ok = false;
    }
  }
  evidence.write();
  Status st = ledger.write_file("bench_results/mttr.ledger.jsonl");
  if (!st.is_ok()) {
    std::printf("ledger write failed: %s\n", st.to_string().c_str());
    all_ok = false;
  }
  return all_ok ? 0 : 1;
}
