// Figure 2 — Coordinated checkpoint timeline.
//
// Regenerates the paper's timeline: per-agent spans for the numbered
// steps of the checkpoint algorithm (Figure 1) and the single
// synchronization point at the Manager.  The key property: the agents run
// concurrently and asynchronously for nearly the whole operation; only
// the post-meta-data "continue" barrier synchronizes them, and the
// standalone checkpoint overlaps that wait.
#include <algorithm>

#include "bench/bench_common.h"
#include "obs/event.h"

namespace zapc::bench {
namespace {

void run() {
  JsonEvidence ev("fig2_timeline");
  const int n = 4;
  Testbed tb(n);
  apps::JobHandle job = launch_cpi(tb, n);
  tb.cl.run_for(200 * sim::kMillisecond);  // mid-computation

  tb.trace.clear();
  sim::Time t0 = tb.cl.now();
  auto report = tb.checkpoint_sync(job.san_targets());
  if (!report.ok) {
    std::printf("checkpoint failed: %s\n", report.error.c_str());
    return;
  }

  print_header("Figure 2: coordinated checkpoint timeline (CPI, 4 nodes)",
               "  t(ms)  who            record");
  const obs::SpanRecorder& rec = tb.trace.recorder();
  for (const obs::SpanRecord& r : rec.spans()) {
    double ms = static_cast<double>(r.start - t0) / 1000.0;
    std::printf("%7.2f  %-14s %s", ms, r.who.c_str(), r.name.c_str());
    if (r.kind == obs::SpanKind::SPAN) {
      std::printf("  (%.2f ms)", static_cast<double>(r.end - r.start) / 1000.0);
    }
    std::printf("\n");
  }

  // Validate the single-synchronization property: every agent reported
  // its meta-data (closed its network checkpoint) before the Manager's
  // continue, and the standalone checkpoints ran past it.
  sim::Time sync_t = 0;
  std::vector<sim::Time> meta_times, standalone_times;
  for (const obs::SpanRecord& r : rec.spans()) {
    if (r.kind == obs::SpanKind::EVENT &&
        obs::ev::is(r.name, obs::ev::kContinue)) {
      sync_t = r.start;
    }
    if (r.kind != obs::SpanKind::SPAN) continue;
    if (r.name == "ckpt.netckpt") meta_times.push_back(r.end);
    if (r.name == "ckpt.standalone") standalone_times.push_back(r.end);
  }
  bool all_meta_before_sync =
      !meta_times.empty() &&
      *std::max_element(meta_times.begin(), meta_times.end()) <= sync_t;
  bool overlap =
      !standalone_times.empty() &&
      *std::max_element(standalone_times.begin(), standalone_times.end()) >
          sync_t;
  std::printf(
      "\nsingle sync point at %.2f ms; all meta-data before it: %s;\n"
      "standalone checkpoints overlap the barrier: %s\n",
      static_cast<double>(sync_t - t0) / 1000.0,
      all_meta_before_sync ? "yes" : "NO", overlap ? "yes" : "NO");

  obs::Json row = obs::Json::object();
  row["nodes"] = n;
  row["t0_us"] = t0;
  row["sync_point_ms"] = static_cast<double>(sync_t - t0) / 1000.0;
  row["all_meta_before_sync"] = all_meta_before_sync;
  row["standalone_overlaps_barrier"] = overlap;
  row["total_ms"] = static_cast<double>(report.total_us) / 1000.0;
  ev.add_row(std::move(row));
  ev.write(&tb.trace.recorder());
  // Persist the op ledger next to the evidence: the committed baseline
  // zapc-report --check runs against in CI (DESIGN.md §10).
  std::string lpath = "bench_results/fig2_timeline.ledger.jsonl";
  if (tb.ledger.write_file(lpath).is_ok()) {
    std::printf("[evidence] %s\n", lpath.c_str());
  }
}

}  // namespace
}  // namespace zapc::bench

int main() { zapc::bench::run(); }
