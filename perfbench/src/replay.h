// Traced pass: the benchmark's own spans around each Manager call and job
// slice, metrics-registry deltas per op, and layer replays — timed calls
// of each module's public functions on the op's real artifacts (the
// committed image, the live pods, the op's span tree).
//
// Replays are read-only toward the simulation: they read the cluster's
// SAN and pods, write only to a scratch VirtualSAN of their own, and run
// between ops, after the op's registry window closed, so neither the
// virtual clock nor the per-op counts can see them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"

namespace zapc::perfbench {

class Tracer {
 public:
  /// Benchmark-side span: one Manager call or one job slice (wall ms
  /// since the pass started).
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
  };

  /// Heavy byte replays (SAN, codec, CRC, capture) run on at most this
  /// many measured ops per kind; span and critical-path replays on all.
  static constexpr int kByteReplaysPerKind = 3;

  Tracer() : t0_(Clock::now()) {}

  // ---- Hooks the harness calls ----------------------------------------------
  /// Opens the registry window of one Manager call.
  void op_begin(Bed& b);
  /// Closes it; `name` labels the span ("mgr.checkpoint", ...).
  void op_end(Bed& b, const std::string& name, Clock::time_point start,
              Clock::time_point end);
  /// After a checkpoint report: report figures, drain rows of the ledger,
  /// and (when `replay_bytes`) the byte replays of every committed image.
  void on_ckpt(Bed& b, const core::Manager::CheckpointReport& r,
               const std::vector<core::Manager::Target>& targets,
               bool replay_bytes);
  void on_restart(Bed& b, const core::Manager::RestartReport& r,
                  const std::vector<std::string>& pods, bool replay_bytes);
  /// Job slice bracket: syscall counts of `pods` and engine events.
  void slice_begin(Bed& b, const std::vector<std::string>& pods);
  void slice_end(Bed& b, const std::vector<std::string>& pods, sim::Time vt,
                 Clock::time_point start, Clock::time_point end);

  /// Every per-layer metric, computed from what the hooks gathered.
  std::map<std::string, double> layer_metrics() const;

  /// Catalog figures are read by the workload that owns the catalog.
  void set_catalog(double kb, double entries, double rewrite_ms) {
    catalog_kb_ = kb;
    catalog_entries_ = entries;
    catalog_rewrite_ms_ = rewrite_ms;
  }

 private:
  void replay_image(Bed& b, const std::string& path);
  void replay_capture(Bed& b, const std::string& pod);
  void replay_critpath(Bed& b, obs::OpId op);
  void note_san(Bed& b);

  Clock::time_point t0_;
  std::vector<Span> spans_;
  obs::MetricsSnapshot op_base_;
  std::size_t op_spans_base_ = 0;
  u64 slice_events_base_ = 0;
  u64 slice_syscalls_base_ = 0;

  // Registry totals over op windows.
  u64 ops_ = 0;
  std::map<std::string, u64> counters_;
  std::map<std::string, std::pair<u64, u64>> hists_;  // name → (sum, count)
  u64 op_spans_ = 0;
  // Job slices.
  u64 slice_events_ = 0;
  u64 slice_syscalls_ = 0;
  sim::Time slice_vt_ = 0;

  // Report figures, one entry per op.
  std::vector<double> sync_ms_, net_ms_, drain_ms_, dirtied_mb_;
  std::vector<double> inflight_kb_, image_mb_;
  std::vector<double> conn_ms_, net_restore_ms_, lazy_ms_, lazy_mb_;
  std::vector<double> throttled_ms_, contended_ms_;
  u64 lazy_faults_ = 0, lazy_regions_ = 0;
  u64 attempts_ = 0, reports_ = 0;
  u64 image_bytes_total_ = 0;

  // Replays: bytes and wall seconds per layer function.
  struct Rate {
    double bytes = 0;
    double secs = 0;
    void add(double b, double s) {
      bytes += b;
      secs += s;
    }
    double mibps() const { return secs > 0 ? bytes / secs / (1 << 20) : 0; }
  };
  Rate capture_, encode_, decode_, crc_, san_write_, san_read_, san_read_at_;
  std::vector<double> compose_ms_, critpath_ms_;
  double san_footprint_mb_ = 0, san_objects_ = 0;
  double catalog_kb_ = 0, catalog_entries_ = 0, catalog_rewrite_ms_ = 0;
};

}  // namespace zapc::perfbench
