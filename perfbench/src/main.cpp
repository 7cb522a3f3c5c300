// zapc_perfbench: one run of one workload of the two-clock benchmark.
//
//   zapc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload once and prints the end-to-end metrics.
// --trace 1 runs it untraced, then traced (benchmark spans, registry
// deltas, layer replays), checks that both passes agree exactly on every
// virtual time and count, and prints the per-layer metrics.  The last
// line of stdout is the result object {"correct", "attempted", "failed",
// "metrics"}; the line before it records each tail's percentile and n.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "replay.h"
#include "stats.h"

namespace zapc::perfbench {
namespace {

struct Metric {
  double value = 0;
  std::string unit;
};

/// Op wall ms, at reference host speed when `scaled`.
std::vector<double> walls(const RunOutput& r, const std::string& kind,
                          bool scaled = true) {
  std::vector<double> v;
  for (const OpRecord& op : r.ops) {
    if (op.ok && !op.warmup && (kind.empty() || op.kind == kind)) {
      v.push_back(scaled ? op.wall_ms * op.host : op.wall_ms);
    }
  }
  return v;
}

std::vector<double> vms(const RunOutput& r, const std::string& kind,
                        bool downtime) {
  std::vector<double> v;
  for (const OpRecord& op : r.ops) {
    if (op.ok && !op.warmup && op.kind == kind) {
      v.push_back((downtime ? op.downtime_us : op.latency_us) / 1000.0);
    }
  }
  return v;
}

/// The wall metrics, at reference host speed when `scaled`.
std::map<std::string, Metric> wall_metrics(const RunOutput& r, bool scaled,
                                           std::map<std::string, Tail>& tails) {
  auto at_speed = [scaled](const std::vector<double>& v,
                           const std::vector<double>& host) {
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      out.push_back(v[i] * (scaled ? host[i] : 1.0));
    }
    return out;
  };
  std::map<std::string, Metric> m;
  m["setup_s"] = {median(at_speed(r.setup_s, r.setup_host)), "s"};
  // A total over all slices: on cow-delta-lazy the median of per-slice
  // rates spread twice as wide across seeds as the total did.
  const double run_ms = scaled ? r.run_wall_scaled_ms : r.run_wall_ms;
  m["run_wall_ms_per_vs"] = {
      r.run_vt > 0 ? run_ms * 1e6 / static_cast<double>(r.run_vt) : 0, "ms/s"};
  for (const char* kind : {"ckpt", "restart", "migrate"}) {
    const std::string k = kind;
    std::vector<double> w = walls(r, k, scaled);
    m[k + "_wall_ms_p50"] = {median(w), "ms"};
    Tail t = tail(w);
    tails[k + "_wall_ms_tail"] = t;
    m[k + "_wall_ms_tail"] = {t.value, "ms"};
  }
  return m;
}

std::map<std::string, Metric> end_to_end(const RunOutput& r,
                                         std::map<std::string, Tail>& tails) {
  std::map<std::string, Metric> m = wall_metrics(r, true, tails);
  m["peak_rss_mb"] = {r.peak_rss_mb, "MiB"};
  // Virtual milliseconds: what the cost model charges.
  m["ckpt_downtime_vms"] = {median(vms(r, "ckpt", true)), "vms"};
  m["ckpt_latency_vms"] = {median(vms(r, "ckpt", false)), "vms"};
  m["restart_downtime_vms"] = {median(vms(r, "restart", true)), "vms"};
  m["restart_latency_vms"] = {median(vms(r, "restart", false)), "vms"};
  m["migrate_downtime_vms"] = {median(vms(r, "migrate", true)), "vms"};
  return m;
}

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> u = {
      {"sim.events_per_op", "count"},
      {"sim.wall_ns_per_event", "ns"},
      {"net.tcp.retransmits_per_op", "count"},
      {"net.altq.installs_per_op", "count"},
      {"net.inflight_kb_at_ckpt", "KiB"},
      {"pod.syscalls_per_vs", "1/s"},
      {"ckpt.image_mb", "MiB"},
      {"ckpt.capture_mbps", "MiB/s"},
      {"ckpt.encode_mbps", "MiB/s"},
      {"ckpt.decode_mbps", "MiB/s"},
      {"ckpt.compose_ms", "ms"},
      {"ckpt.delta_written_frac", "ratio"},
      {"ckpt.codec_saved_frac", "ratio"},
      {"util.crc32_mbps", "MiB/s"},
      {"os.san.write_mbps", "MiB/s"},
      {"os.san.read_mbps", "MiB/s"},
      {"os.san.read_at_mbps", "MiB/s"},
      {"os.san.footprint_mb", "MiB"},
      {"os.san.objects", "count"},
      {"os.san.throttled_vms", "vms"},
      {"os.san.contended_vms", "vms"},
      {"core.ckpt.sync_vms", "vms"},
      {"core.ckpt.net_vms", "vms"},
      {"core.ckpt.drain_vms", "vms"},
      {"core.ckpt.dirtied_mb", "MiB"},
      {"core.restart.connectivity_vms", "vms"},
      {"core.restart.net_restore_vms", "vms"},
      {"core.restart.lazy_vms", "vms"},
      {"core.restart.lazy_mb", "MiB"},
      {"core.restart.fault_frac", "ratio"},
      {"core.op.attempts_per_op", "count"},
      {"agent.ckpt.suspend_us", "vus"},
      {"agent.ckpt.netckpt_us", "vus"},
      {"agent.ckpt.standalone_us", "vus"},
      {"agent.ckpt.stream_us", "vus"},
      {"agent.ckpt.barrier_wait_us", "vus"},
      {"agent.restart.connectivity_us", "vus"},
      {"agent.restart.netstate_us", "vus"},
      {"agent.restart.standalone_us", "vus"},
      {"core.cost_model.encode_ratio", "ratio"},
      {"core.cost_model.decode_ratio", "ratio"},
      {"core.cost_model.san_write_ratio", "ratio"},
      {"core.cost_model.san_read_ratio", "ratio"},
      {"obs.spans_per_op", "count"},
      {"obs.critpath_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
      {"super.catalog_kb", "KiB"},
      {"super.catalog_entries", "count"},
      {"super.catalog_rewrite_ms", "ms"},
  };
  return u;
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::map<std::string, Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    s += (first ? "" : ", ") + std::string("\"") + name +
         "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// The unscaled wall metrics and the host-speed kernel's median, for the
/// record: {"raw": {name: value}, "host_kernel_ms": ...}.
void print_raw(const RunOutput& r) {
  std::map<std::string, Tail> unused;
  std::string s = "{\"raw\": {";
  bool first = true;
  char buf[160];
  for (const auto& [name, m] : wall_metrics(r, false, unused)) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                  name.c_str(), m.value);
    s += buf;
    first = false;
  }
  std::snprintf(buf, sizeof buf, "}, \"host_kernel_ms\": %.17g}",
                median(r.host_kernel_ms));
  s += buf;
  std::printf("%s\n", s.c_str());
}

void print_tails(const std::map<std::string, Tail>& tails) {
  std::string s = "{\"tails\": {";
  bool first = true;
  char buf[160];
  for (const auto& [name, t] : tails) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"percentile\": %.1f, \"n\": %zu}",
                  first ? "" : ", ", name.c_str(), t.pct, t.n);
    s += buf;
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: zapc_perfbench --workload <bulk-snapshot|mesh-migrate|"
               "cow-delta-lazy> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace zapc::perfbench

int main(int argc, char** argv) {
  using namespace zapc::perfbench;
  Config cfg;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      cfg.workload = v;
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      cfg.seconds = std::atoi(v);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end() ||
      cfg.seconds < 1 || (trace != 0 && trace != 1)) {
    return usage();
  }

  RunOutput plain = run_workload(cfg, nullptr);
  std::map<std::string, Tail> tails;
  std::map<std::string, Metric> e2e = end_to_end(plain, tails);
  if (trace == 0) {
    print_raw(plain);
    print_tails(tails);
    print_result(plain.job_ok, plain.attempted, plain.failed, e2e);
    return 0;
  }

  Tracer tracer;
  RunOutput traced = run_workload(cfg, &tracer);
  // Non-perturbation gate: the traced pass must reproduce every virtual
  // time and count of the untraced one.
  const bool same = traced.fingerprint == plain.fingerprint;
  if (!same) {
    std::size_t i = 0;
    while (i < plain.fingerprint.size() && i < traced.fingerprint.size() &&
           plain.fingerprint[i] == traced.fingerprint[i]) {
      ++i;
    }
    std::fprintf(stderr,
                 "perfbench: traced pass diverged from the untraced one at "
                 "fingerprint entry %zu of %zu\n",
                 i, plain.fingerprint.size());
  }
  std::map<std::string, Metric> layers;
  for (const auto& [name, v] : tracer.layer_metrics()) {
    layers[name] = {v, layer_units().at(name)};
  }
  const double base = median(walls(plain, ""));
  layers["obs.trace_overhead_frac"] = {
      base > 0 ? (median(walls(traced, "")) - base) / base : 0, "ratio"};
  print_tails(tails);
  print_result(plain.job_ok && traced.job_ok && same,
               plain.attempted + traced.attempted,
               plain.failed + traced.failed + (same ? 0 : 1), layers);
  return 0;
}
