// zapc-top: live per-pod view of a coordinated operation.
//
// Reference client of the Manager's status endpoint (DESIGN.md §9).
// The tool builds a simulated testbed in-process, optionally injects a
// SLOW_NODE fault, runs a coordinated checkpoint with the introspection
// plane on, and — from a separate console node, over the wire — polls
// the endpoint with HEALTH_QUERY, rendering each zapc.obs.health.v1
// reply as a refreshing per-pod table: phase, %done, throughput, lag
// vs. the cluster median, heartbeat age.  That is the operator view of
// "which pod is dragging the barrier right now".
//
//   zapc-top                  # watch a checkpoint with one slow node
//   zapc-top --snapshot       # print one mid-op JSON document (scripting)
//   zapc-top --check          # exit 0 iff the straggler is the slow node
//
// Knobs: --nodes N, --slow NODE, --mult X (1 = no fault), --hb-ms N,
// --refresh-ms N, --no-ansi.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "bench/bench_common.h"
#include "fault/fault.h"
#include "obs/health.h"
#include "obs/vtime.h"
#include "super/supervisor.h"

namespace {

using namespace zapc;

struct Options {
  int nodes = 4;
  std::string slow = "n2";
  double mult = 3.0;
  u64 hb_us = 10 * sim::kMillisecond;
  u64 refresh_us = 20 * sim::kMillisecond;
  bool snapshot = false;
  bool check = false;
  bool ansi = true;
};

constexpr u16 kStatusPort = 7070;

/// One rendered frame of the table.
void render(const obs::HealthDoc& doc, bool ansi) {
  if (ansi) std::printf("\033[2J\033[H");
  const obs::OpStatus* op = doc.op ? &*doc.op : nullptr;
  std::printf("zapc-top  t=%s  op=%llu kind=%s %s\n",
              obs::vtime_us(doc.t_us).c_str(),
              static_cast<unsigned long long>(doc.op_id),
              op != nullptr ? op->kind.c_str() : "",
              op != nullptr && op->active ? "active" : "finished");
  std::printf("%-10s %-18s %7s %9s %10s %10s %8s\n", "POD", "PHASE",
              "%DONE", "MB/s", "ETA", "LAG", "HB-AGE");
  if (op == nullptr) return;
  for (const auto& [name, p] : op->pods) {
    double mbps = static_cast<double>(p.throughput_bps) / (1 << 20);
    std::printf("%-10s %-18s %7.1f %9.1f %10s %10s %8s\n", name.c_str(),
                p.phase.c_str(), p.pct_done, mbps,
                obs::vtime_us(p.eta_us).c_str(),
                obs::vtime_us(p.lag_us).c_str(),
                obs::vtime_us(p.heartbeat_age_us).c_str());
  }
  if (const obs::Straggler& s = op->straggler; !s.pod.empty()) {
    std::printf("straggler: %s (%s, lag %s)\n", s.pod.c_str(),
                s.phase.c_str(), obs::vtime_us(s.lag_us).c_str());
  }
  // Supervisor pane: the failure detector's per-node verdicts plus the
  // autonomic loop's state line (the "supervisor" section is present
  // whenever a Supervisor is attached to the Manager).
  if (const auto& sup = doc.supervisor; sup.has_value()) {
    std::printf("\n%-10s %-12s %10s %6s %8s\n", "NODE", "LIVENESS",
                "BEACON-AGE", "FLAPS", "BEACONS");
    for (const obs::NodeLiveness& n : sup->nodes) {
      std::printf("%-10s %-12s %10s %6u %8u\n", n.node.c_str(),
                  n.state.c_str(), obs::vtime_us(n.beacon_age_us).c_str(),
                  n.false_alarms, n.beacons);
    }
    std::printf("supervisor: %s  recoveries=%u attempts_left=%u "
                "catalog=%llu\n",
                sup->state.c_str(), sup->recoveries, sup->attempts_remaining,
                static_cast<unsigned long long>(sup->catalog_entries));
  }
  std::fflush(stdout);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: zapc-top [--snapshot] [--check] [--nodes N] [--slow NODE]\n"
      "                [--mult X] [--hb-ms N] [--refresh-ms N] [--no-ansi]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--snapshot") {
      opt.snapshot = true;
    } else if (a == "--check") {
      opt.check = true;
    } else if (a == "--no-ansi") {
      opt.ansi = false;
    } else if (a == "--nodes") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.nodes = std::atoi(v);
    } else if (a == "--slow") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.slow = v;
    } else if (a == "--mult") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.mult = std::atof(v);
    } else if (a == "--hb-ms") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.hb_us = static_cast<u64>(std::atoi(v)) * sim::kMillisecond;
    } else if (a == "--refresh-ms") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.refresh_us = static_cast<u64>(std::atoi(v)) * sim::kMillisecond;
    } else {
      return usage();
    }
  }
  if (opt.nodes < 1 || opt.hb_us == 0 || opt.refresh_us == 0) return usage();
  // Snapshot/check are scripting modes: no table frames.
  bool live = !opt.snapshot && !opt.check;

  fault::injector().clear();
  bench::Testbed tb(opt.nodes);
  apps::JobHandle job = bench::launch_bt(tb, opt.nodes);
  tb.cl.run_for(200 * sim::kMillisecond);
  if (job.finished()) {
    std::fprintf(stderr, "zapc-top: job finished before checkpoint\n");
    return 1;
  }

  // Pod → hosting node, for the --check attribution assert.
  std::map<std::string, std::string> pod_node;
  {
    auto hosts = job.hosts();
    for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
      if (hosts[i] != nullptr) {
        pod_node[job.pod_names[i]] = hosts[i]->node().name();
      }
    }
  }

  if (opt.mult > 1.0) {
    fault::FaultSpec slow;
    slow.kind = fault::FaultKind::SLOW_NODE;
    slow.node = opt.slow;
    slow.multiplier = opt.mult;
    fault::injector().arm(slow);
  }

  // Attach the self-healing supervisor (no periodic policy: the tool
  // drives its own checkpoint) so every snapshot carries the per-node
  // liveness verdicts and the autonomic-loop state line.
  std::vector<super::Supervisor::AgentRef> refs;
  for (core::Agent* a : tb.agents) {
    refs.push_back({a->addr(), a->node().name()});
  }
  super::Supervisor::Options sopts;
  sopts.heartbeat_us = opt.hb_us;
  super::Supervisor supervisor(*tb.mgr_node, *tb.manager, std::move(refs),
                               sopts, &tb.trace);
  supervisor.start(job.san_targets());

  tb.manager->serve_status(kStatusPort);

  // The console node: a separate machine polling the endpoint over the
  // simulated network, exactly as a real operator tool would.
  os::Node& console = tb.cl.add_node("console");
  auto ch = core::connect_channel(
      console.host_stack(), net::SockAddr{tb.mgr_node->addr(), kStatusPort});
  if (ch == nullptr) {
    std::fprintf(stderr, "zapc-top: cannot reach status endpoint\n");
    return 1;
  }
  // Latest mid-op document with beacon data.
  std::optional<obs::HealthDoc> best;
  u32 frames = 0;
  Status bad_frame;  // first reply that failed to read
  ch->set_on_msg([&](Bytes msg) {
    auto m = core::decode<core::HealthSnapshotMsg>(msg);
    auto j = m ? obs::json_parse(m.value().json)
               : Result<obs::Json>(m.status());
    auto doc = j ? obs::from_json<obs::HealthDoc>(j.value())
                 : Result<obs::HealthDoc>(j.status());
    if (!doc) {
      if (bad_frame) bad_frame = doc.status();
      return;
    }
    const obs::HealthDoc& d = doc.value();
    if (d.op && d.op->active &&
        std::any_of(d.op->pods.begin(), d.op->pods.end(),
                    [](const auto& p) { return p.second.beacons > 0; })) {
      best = d;
    }
    ++frames;
    if (live) render(d, opt.ansi);
  });

  bool done = false;
  core::Manager::CheckpointReport report;
  core::Manager::CkptOptions copts;
  copts.heartbeat_us = opt.hb_us;
  copts.warn_lag_us = 4 * opt.hb_us;
  tb.manager->checkpoint(job.san_targets(), core::CkptMode::SNAPSHOT,
                         [&](core::Manager::CheckpointReport r) {
                           report = std::move(r);
                           done = true;
                         },
                         copts);

  // Drive the sim, polling once per refresh tick (plus a few post-op
  // ticks so the final snapshot shows every pod done).
  int grace = 3;
  while (!done || grace-- > 0) {
    (void)ch->send(core::encode(core::HealthQuery{0}));
    tb.cl.run_for(opt.refresh_us);
    if (tb.cl.now() > 3600 * sim::kSecond) break;
  }
  fault::injector().clear();

  if (!bad_frame) {
    std::fprintf(stderr, "zapc-top: malformed snapshot: %s\n",
                 bad_frame.to_string().c_str());
    return 1;
  }
  if (!done || !report.ok) {
    std::fprintf(stderr, "zapc-top: checkpoint failed: %s\n",
                 report.error.c_str());
    return 1;
  }
  if (frames == 0 || !best.has_value()) {
    std::fprintf(stderr, "zapc-top: no mid-op snapshot captured\n");
    return 1;
  }

  if (opt.snapshot) {
    std::printf("%s\n", obs::to_json(*best).dump(2).c_str());
  }
  const std::string& straggler_pod = best->op->straggler.pod;
  const u64 straggler_lag = best->op->straggler.lag_us;
  std::fprintf(stderr, "zapc-top: %u frames, straggler=%s lag=%s\n", frames,
               straggler_pod.empty() ? "none" : straggler_pod.c_str(),
               obs::vtime_us(straggler_lag).c_str());

  if (opt.check) {
    if (straggler_pod.empty() || straggler_lag == 0) {
      std::fprintf(stderr, "zapc-top: CHECK FAILED: no straggler named\n");
      return 1;
    }
    if (pod_node[straggler_pod] != opt.slow) {
      std::fprintf(stderr,
                   "zapc-top: CHECK FAILED: straggler %s on node %s, "
                   "expected the slow node %s\n",
                   straggler_pod.c_str(), pod_node[straggler_pod].c_str(),
                   opt.slow.c_str());
      return 1;
    }
    std::printf("zapc-top check: straggler %s on slow node %s, lag %s\n",
                straggler_pod.c_str(), opt.slow.c_str(),
                obs::vtime_us(straggler_lag).c_str());
  }
  return 0;
}
