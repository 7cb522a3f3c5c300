// zapc-report: offline downtime attribution and run-ledger reporting.
//
// The post-hoc complement of zapc-top (DESIGN.md §10): where zapc-top
// answers "which pod is dragging the barrier right now", zapc-report
// answers "which pod, phase, or message edge actually determined each
// op's downtime — and is that drifting across runs".  It reads the
// Manager's append-only op ledger (*.ledger.jsonl, zapc.obs.ledger.v1),
// plain span evidence (*.json, zapc.obs.v1 / postmortem — attribution is
// recomputed from the span tree), or whole directories of either.
//
//   zapc-report bench_results/               # per-op tables + aggregates
//   zapc-report run.ledger.jsonl             # one run's ledger
//   zapc-report --check bench_results/       # CI integrity gate: every op
//                                            # attributes, segments sum to
//                                            # the downtime within 1%, and
//                                            # it matches the ledger's
//   zapc-report --compare old/ new/          # run-over-run drift
//   zapc-report --check --compare old/ new/  # fail when p95 downtime
//                                            # regressed > --max-increase %
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/critpath.h"
#include "obs/ledger.h"
#include "obs/vtime.h"
#include "tools/trace_analysis.h"

namespace {

namespace fs = std::filesystem;
using namespace zapc;

struct Options {
  std::vector<std::string> paths;
  bool check = false;
  bool compare = false;
  bool per_op = true;
  double max_increase = 10.0;  // --check --compare: % p95 regression cap
};

/// Everything in one run set, normalized to ledger entries (evidence
/// docs become synthetic entries carrying a freshly computed
/// attribution).
struct RunSet {
  std::vector<obs::LedgerEntry> ops;
  int files = 0;
  int skipped_torn = 0;
  int attrib_failures = 0;
  std::vector<std::string> errors;  // per-file problems (--check fails)
};

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

void load_ledger_file(const std::string& path, RunSet& out) {
  auto r = obs::Ledger::load(path);
  if (!r.is_ok()) {
    out.errors.push_back(path + ": " + r.status().to_string());
    return;
  }
  out.files++;
  out.skipped_torn += r.value().skipped_torn;
  for (auto& e : r.value().entries) out.ops.push_back(std::move(e));
}

void load_evidence_file(const std::string& path, RunSet& out,
                        bool lenient) {
  auto doc = tools::load_trace_doc(path);
  if (!doc.is_ok()) {
    // Directory scans hit non-trace JSON (schema-less rows etc.); only
    // an explicitly named file is worth failing over.
    if (!lenient) {
      out.errors.push_back(path + ": " + doc.status().to_string());
    }
    return;
  }
  out.files++;
  for (const tools::OpTrace& op : tools::group_by_op(doc.value().spans)) {
    auto a = obs::attribute_op(op.records);
    if (!a.is_ok()) {
      out.attrib_failures++;
      out.errors.push_back(path + ": op " + std::to_string(op.op) +
                           ": attribution failed: " +
                           a.status().to_string());
      continue;
    }
    obs::LedgerEntry e;
    e.op = a.value().op;
    e.kind = a.value().kind;
    e.outcome = "ok";  // completed evidence; failures live in postmortems
    e.start_us = a.value().start;
    e.end_us = a.value().end;
    e.downtime_us = a.value().downtime_us;
    e.latency_us = a.value().latency_us;
    e.attrib = std::move(a).value();
    e.has_attrib = true;
    out.ops.push_back(std::move(e));
  }
}

void load_path(const std::string& path, RunSet& out) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& ent : fs::directory_iterator(path, ec)) {
      files.push_back(ent.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string& f : files) {
      if (ends_with(f, ".jsonl")) {
        load_ledger_file(f, out);
      } else if (ends_with(f, ".json")) {
        load_evidence_file(f, out, /*lenient=*/true);
      }
    }
    return;
  }
  if (ends_with(path, ".jsonl")) {
    load_ledger_file(path, out);
  } else {
    load_evidence_file(path, out, /*lenient=*/false);
  }
}

u64 percentile(std::vector<u64> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Critical-path time per phase for one entry; with no attribution the
/// agent-reported per-phase durations stand in.
std::map<std::string, obs::Time> entry_phases(const obs::LedgerEntry& e) {
  if (e.has_attrib) return e.attrib.phase_totals();
  std::map<std::string, obs::Time> out;
  for (const auto& [name, us] : e.phase_us) out[name] = us;
  return out;
}

struct Aggregate {
  std::map<std::string, std::vector<u64>> downtime;  // kind → samples
  std::map<std::string, std::vector<u64>> latency;   // kind → samples
  std::map<std::string, std::vector<u64>> drain;     // kind → drain samples
  std::map<std::string, std::map<std::string, std::vector<u64>>>
      phases;                                 // kind → phase → samples
  std::map<std::string, int> critical_pods;   // pod → times critical
  std::map<std::string, std::map<std::string, int>>
      triggers;                // kind → trigger → op count
  std::vector<u64> mttr;       // supervisor recoveries: detect → restored
  // SAN QoS drain attribution: total drain time spent throttled behind
  // a foreground stream vs merely contending with sibling drains.
  u64 drain_throttled_us = 0;
  u64 drain_contended_us = 0;
  u64 lazy_faults = 0;
  u64 lazy_bytes = 0;
  int ok = 0;
  int aborted = 0;
};

Aggregate aggregate(const RunSet& rs) {
  Aggregate a;
  for (const obs::LedgerEntry& e : rs.ops) {
    if (e.outcome == "aborted") {
      a.aborted++;
    } else {
      a.ok++;
    }
    a.downtime[e.kind].push_back(e.downtime_us);
    a.latency[e.kind].push_back(
        e.latency_us != 0 ? e.latency_us : e.downtime_us);
    if (e.has_attrib && !e.attrib.drain_segments.empty()) {
      a.drain[e.kind].push_back(e.attrib.max_drain_us());
    } else if (auto it = e.phase_us.find("drain"); it != e.phase_us.end()) {
      a.drain[e.kind].push_back(it->second);
    }
    for (const auto& [phase, us] : entry_phases(e)) {
      a.phases[e.kind][phase].push_back(us);
    }
    std::string pod =
        e.has_attrib ? e.attrib.critical_pod : e.straggler_pod;
    if (!pod.empty()) a.critical_pods[pod]++;
    a.triggers[e.kind][e.trigger.empty() ? "manual" : e.trigger]++;
    if (e.mttr_us > 0 && e.outcome == "ok") a.mttr.push_back(e.mttr_us);
    a.drain_throttled_us += e.drain_throttled_us;
    a.drain_contended_us += e.drain_contended_us;
    a.lazy_faults += e.lazy_faults;
    a.lazy_bytes += e.lazy_bytes;
  }
  return a;
}

void print_op(const obs::LedgerEntry& e) {
  std::printf("op %llu %-7s %-7s downtime %-10s attempt %u",
              static_cast<unsigned long long>(e.op), e.kind.c_str(),
              e.outcome.c_str(), obs::vtime_us(e.downtime_us).c_str(),
              e.attempt == 0 ? 1 : e.attempt);
  u64 latency = e.latency_us != 0 ? e.latency_us : e.downtime_us;
  if (latency > e.downtime_us) {
    std::printf("  latency %s", obs::vtime_us(latency).c_str());
  }
  if (!e.trigger.empty() && e.trigger != "manual") {
    std::printf("  trigger=%s", e.trigger.c_str());
  }
  if (e.mttr_us > 0) {
    std::printf("  mttr %s", obs::vtime_us(e.mttr_us).c_str());
  }
  if (!e.error.empty()) std::printf("  error=%s", e.error.c_str());
  std::printf("\n");
  if (e.lazy_faults != 0 || e.lazy_bytes != 0) {
    std::printf("  lazy restore: %llu cold byte(s) filled off the downtime "
                "path, %llu demand fault(s)\n",
                static_cast<unsigned long long>(e.lazy_bytes),
                static_cast<unsigned long long>(e.lazy_faults));
  }
  if (e.drain_throttled_us != 0 || e.drain_contended_us != 0) {
    // Attribute the slow drain: QoS deliberately starving it behind a
    // foreground restart/migration stream is working as intended;
    // sibling-drain contention is a capacity signal.
    const char* dominant =
        e.drain_throttled_us >= e.drain_contended_us
            ? "throttled behind a foreground stream (QoS)"
            : "contending with sibling drains";
    std::printf("  drain slowdown: %s throttled, %s contended -> %s",
                obs::vtime_us(e.drain_throttled_us).c_str(),
                obs::vtime_us(e.drain_contended_us).c_str(), dominant);
    if (e.drain_granted_bps != 0) {
      std::printf(" (worst grant %.0f MB/s)",
                  static_cast<double>(e.drain_granted_bps) / (1 << 20));
    }
    std::printf("\n");
  }
  if (!e.straggler_pod.empty()) {
    std::printf("  straggler: %s (%s, lag %s)\n", e.straggler_pod.c_str(),
                e.straggler_phase.c_str(),
                obs::vtime_us(e.straggler_lag_us).c_str());
  }
  if (!e.has_attrib) {
    if (!e.phase_us.empty()) {
      std::printf("  slowest-pod phases:");
      for (const auto& [name, us] : e.phase_us) {
        std::printf(" %s=%s", name.c_str(), obs::vtime_us(us).c_str());
      }
      std::printf("\n");
    }
    return;
  }
  const obs::OpAttribution& a = e.attrib;
  std::printf("  critical path (%s -> %s, %s total):\n",
              obs::vtime_us(a.start).c_str(), obs::vtime_us(a.end).c_str(),
              obs::vtime_us(a.downtime_us).c_str());
  for (const obs::CritSegment& s : a.segments) {
    double pct = a.downtime_us > 0
                     ? 100.0 * static_cast<double>(s.duration()) /
                           static_cast<double>(a.downtime_us)
                     : 0.0;
    std::printf("    %10s %5.1f%%  %-10s %-12s %s\n",
                obs::vtime_us(s.duration()).c_str(), pct,
                s.who.c_str(), s.pod.empty() ? "-" : s.pod.c_str(),
                s.phase.c_str());
  }
  if (!a.critical_pod.empty()) {
    std::printf("  critical pod: %s (%s on path), phase %s (%s)\n",
                a.critical_pod.c_str(),
                obs::vtime_us(a.pod_critical_us(a.critical_pod)).c_str(),
                a.critical_phase.c_str(),
                obs::vtime_us(a.critical_phase_us).c_str());
  }
  if (!a.drain_segments.empty()) {
    std::printf(
        "  background epilogues (off the downtime critical path):\n");
    for (const obs::CritSegment& s : a.drain_segments) {
      std::printf("    %10s         %-10s %-12s %s\n",
                  obs::vtime_us(s.duration()).c_str(), s.who.c_str(),
                  s.pod.empty() ? "-" : s.pod.c_str(), s.phase.c_str());
    }
  }
  if (!a.slack.empty()) {
    std::printf("  slack:");
    for (const obs::PodSlack& s : a.slack) {
      std::printf(" %s=+%s", s.pod.c_str(),
                  obs::vtime_us(s.slack_us).c_str());
    }
    std::printf("\n");
  }
}

void print_aggregate(const Aggregate& a) {
  std::printf("\n== aggregates: %d ok, %d aborted ==\n", a.ok, a.aborted);
  for (const auto& [kind, samples] : a.downtime) {
    std::printf("%-8s ops %-4zu downtime p50 %-10s p95 %-10s",
                kind.c_str(), samples.size(),
                obs::vtime_us(percentile(samples, 0.5)).c_str(),
                obs::vtime_us(percentile(samples, 0.95)).c_str());
    // Latency diverges from downtime only for COW checkpoints; keep the
    // table narrow for runs without any.
    if (auto lit = a.latency.find(kind);
        lit != a.latency.end() && lit->second != samples) {
      std::printf(" latency p95 %-10s",
                  obs::vtime_us(percentile(lit->second, 0.95)).c_str());
    }
    std::printf("\n");
    if (auto dit = a.drain.find(kind); dit != a.drain.end()) {
      std::printf("  %-22s p50 %-10s p95 %-10s (off critical path)\n",
                  "background epilogue",
                  obs::vtime_us(percentile(dit->second, 0.5)).c_str(),
                  obs::vtime_us(percentile(dit->second, 0.95)).c_str());
      if (kind == "ckpt" &&
          (a.drain_throttled_us != 0 || a.drain_contended_us != 0)) {
        std::printf("  %-22s throttled %-10s contended %-10s (QoS)\n",
                    "drain slowdown",
                    obs::vtime_us(a.drain_throttled_us).c_str(),
                    obs::vtime_us(a.drain_contended_us).c_str());
      }
    }
    if (kind == "restart" && (a.lazy_faults != 0 || a.lazy_bytes != 0)) {
      std::printf("  %-22s %llu byte(s), %llu demand fault(s)\n",
                  "lazy cold fills",
                  static_cast<unsigned long long>(a.lazy_bytes),
                  static_cast<unsigned long long>(a.lazy_faults));
    }
    // Who initiated these ops: operator-driven vs the self-healing
    // supervisor's periodic policy / recoveries.
    if (auto tit = a.triggers.find(kind);
        tit != a.triggers.end() &&
        (tit->second.size() > 1 || tit->second.count("manual") == 0)) {
      std::printf("  %-22s", "triggers");
      for (const auto& [trig, n] : tit->second) {
        std::printf(" %s=%d", trig.c_str(), n);
      }
      std::printf("\n");
    }
    auto pit = a.phases.find(kind);
    if (pit == a.phases.end()) continue;
    for (const auto& [phase, ps] : pit->second) {
      std::printf("  %-22s p50 %-10s p95 %-10s\n", phase.c_str(),
                  obs::vtime_us(percentile(ps, 0.5)).c_str(),
                  obs::vtime_us(percentile(ps, 0.95)).c_str());
    }
  }
  if (!a.mttr.empty()) {
    std::printf(
        "recovery MTTR (detect -> restored): %zu recover(ies) "
        "p50 %-10s p95 %-10s max %s\n",
        a.mttr.size(), obs::vtime_us(percentile(a.mttr, 0.5)).c_str(),
        obs::vtime_us(percentile(a.mttr, 0.95)).c_str(),
        obs::vtime_us(percentile(a.mttr, 1.0)).c_str());
  }
  if (!a.critical_pods.empty()) {
    std::vector<std::pair<int, std::string>> top;
    for (const auto& [pod, n] : a.critical_pods) top.push_back({n, pod});
    std::sort(top.rbegin(), top.rend());
    std::printf("top critical pods:");
    for (std::size_t i = 0; i < top.size() && i < 5; ++i) {
      std::printf(" %s(%d)", top[i].second.c_str(), top[i].first);
    }
    std::printf("\n");
  }
}

/// --check integrity: every loaded op attributed (where a span tree or
/// ledger attribution exists), segment durations summing to the
/// attributed downtime within 1%, and that downtime agreeing with the
/// op's measured downtime within 1%.
int check_integrity(const RunSet& rs) {
  int failures = 0;
  for (const std::string& e : rs.errors) {
    std::fprintf(stderr, "zapc-report: CHECK: %s\n", e.c_str());
    failures++;
  }
  for (const obs::LedgerEntry& e : rs.ops) {
    if (e.latency_us != 0 && e.latency_us < e.downtime_us) {
      std::fprintf(stderr,
                   "zapc-report: CHECK: op %llu: latency %llu < downtime "
                   "%llu\n",
                   static_cast<unsigned long long>(e.op),
                   static_cast<unsigned long long>(e.latency_us),
                   static_cast<unsigned long long>(e.downtime_us));
      failures++;
    }
    if (!e.has_attrib) continue;
    u64 sum = 0;
    for (const obs::CritSegment& s : e.attrib.segments) {
      sum += s.duration();
    }
    u64 total = e.attrib.downtime_us;
    u64 diff = sum > total ? sum - total : total - sum;
    if (total > 0 && diff * 100 > total) {
      std::fprintf(stderr,
                   "zapc-report: CHECK: op %llu: segments sum %llu != "
                   "downtime %llu (>1%% off)\n",
                   static_cast<unsigned long long>(e.op),
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(total));
      failures++;
    }
    // The walk must end downtime where the Manager did: a background
    // epilogue (COW drain, lazy fill) attributed as downtime shows up
    // here, even when its segments sum consistently.
    u64 measured = e.downtime_us;
    u64 off = total > measured ? total - measured : measured - total;
    if (off * 100 > measured) {
      std::fprintf(stderr,
                   "zapc-report: CHECK: op %llu: critical-path downtime "
                   "%llu != ledger downtime %llu (>1%% off)\n",
                   static_cast<unsigned long long>(e.op),
                   static_cast<unsigned long long>(total),
                   static_cast<unsigned long long>(measured));
      failures++;
    }
  }
  if (rs.ops.empty()) {
    std::fprintf(stderr, "zapc-report: CHECK: no ops found\n");
    failures++;
  }
  return failures;
}

int compare_runs(const RunSet& a, const RunSet& b, const Options& opt) {
  Aggregate aa = aggregate(a);
  Aggregate ab = aggregate(b);
  int regressions = 0;
  std::printf("== compare: %zu ops -> %zu ops ==\n", a.ops.size(),
              b.ops.size());
  for (const auto& [kind, bs] : ab.downtime) {
    auto ait = aa.downtime.find(kind);
    if (ait == aa.downtime.end()) {
      std::printf("%-8s (new kind) p95 %s\n", kind.c_str(),
                  obs::vtime_us(percentile(bs, 0.95)).c_str());
      continue;
    }
    u64 pa = percentile(ait->second, 0.95);
    u64 pb = percentile(bs, 0.95);
    double delta =
        pa > 0 ? 100.0 * (static_cast<double>(pb) / pa - 1.0) : 0.0;
    bool bad = opt.check && pa > 0 && delta > opt.max_increase;
    std::printf("%-8s downtime p95 %-10s -> %-10s  %+6.1f%%%s\n",
                kind.c_str(), obs::vtime_us(pa).c_str(),
                obs::vtime_us(pb).c_str(), delta,
                bad ? "  REGRESSION" : "");
    if (bad) regressions++;
    auto bpit = ab.phases.find(kind);
    auto apit = aa.phases.find(kind);
    if (bpit == ab.phases.end() || apit == aa.phases.end()) continue;
    for (const auto& [phase, ps] : bpit->second) {
      auto old_ps = apit->second.find(phase);
      if (old_ps == apit->second.end()) continue;
      u64 qa = percentile(old_ps->second, 0.95);
      u64 qb = percentile(ps, 0.95);
      double d =
          qa > 0 ? 100.0 * (static_cast<double>(qb) / qa - 1.0) : 0.0;
      std::printf("  %-22s p95 %-10s -> %-10s  %+6.1f%%\n", phase.c_str(),
                  obs::vtime_us(qa).c_str(), obs::vtime_us(qb).c_str(), d);
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "zapc-report: CHECK FAILED: %d p95 regression(s) over "
                 "%.1f%%\n",
                 regressions, opt.max_increase);
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: zapc-report [--check] [--no-per-op] PATH...\n"
      "       zapc-report --compare [--check] [--max-increase PCT] A B\n"
      "PATH: *.ledger.jsonl op ledger, *.json span evidence, or a\n"
      "directory of either (e.g. bench_results/)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--check") {
      opt.check = true;
    } else if (a == "--compare") {
      opt.compare = true;
    } else if (a == "--no-per-op") {
      opt.per_op = false;
    } else if (a == "--max-increase") {
      if (i + 1 >= argc) return usage();
      opt.max_increase = std::atof(argv[++i]);
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      opt.paths.push_back(a);
    }
  }
  if (opt.paths.empty()) return usage();
  if (opt.compare && opt.paths.size() != 2) return usage();

  if (opt.compare) {
    RunSet ra, rb;
    load_path(opt.paths[0], ra);
    load_path(opt.paths[1], rb);
    for (const RunSet* rs : {&ra, &rb}) {
      for (const std::string& e : rs->errors) {
        std::fprintf(stderr, "zapc-report: %s\n", e.c_str());
      }
    }
    return compare_runs(ra, rb, opt);
  }

  RunSet rs;
  for (const std::string& p : opt.paths) load_path(p, rs);

  if (opt.per_op && !opt.check) {
    for (const obs::LedgerEntry& e : rs.ops) print_op(e);
  }
  if (!opt.check) {
    for (const std::string& e : rs.errors) {
      std::fprintf(stderr, "zapc-report: %s\n", e.c_str());
    }
  }
  print_aggregate(aggregate(rs));
  if (rs.skipped_torn > 0) {
    std::printf("(%d torn trailing ledger line(s) skipped)\n",
                rs.skipped_torn);
  }

  if (opt.check) {
    int failures = check_integrity(rs);
    if (failures > 0) {
      std::fprintf(stderr, "zapc-report: CHECK FAILED: %d problem(s)\n",
                   failures);
      return 1;
    }
    std::printf(
        "zapc-report check: %zu op(s) from %d file(s), every critical "
        "path sums to its downtime and matches the ledger's within 1%%\n",
        rs.ops.size(), rs.files);
  }
  return 0;
}
