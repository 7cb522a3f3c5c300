// Incremental checkpointing + pipelined migration streaming benchmark.
//
// Three experiments:
//  1. Dirty-ratio sweep: a pod whose program re-touches a fixed fraction
//     of its memory regions between checkpoints.  Incremental mode should
//     write only the dirty regions, so bytes-on-SAN per checkpoint drop
//     roughly in proportion to the dirty ratio (≥5x reduction at 10%
//     dirty is the acceptance bar).
//  2. Interval sweep: the program rotates its working set, so a longer
//     interval between checkpoints dirties more distinct regions and the
//     incremental advantage shrinks — the classic interval/dirty-rate
//     trade-off.
//  3. Migration streaming: the same pod migrated with the image
//     materialized-then-sent vs streamed chunk-by-chunk as serialization
//     produces it.  Pipelining overlaps serialize and transfer, so
//     downtime must be strictly lower at equal image size.
#include "bench/bench_common.h"
#include "ckpt/image.h"

namespace zapc::bench {

/// Touches `dirty_per_step` of its `regions` memory regions each step,
/// writing fresh bytes so the touched regions are genuinely dirty.  With
/// `rotate` the working set advances each step (so a longer checkpoint
/// interval accumulates more distinct dirty regions); without it the same
/// hot set is re-touched forever (steady-state dirty ratio).
class DirtyWorkload final : public os::FieldProgram<DirtyWorkload> {
 public:
  struct Params {
    u32 regions = 64;
    u32 region_bytes = 256 * 1024;
    u32 dirty_per_step = 6;
    bool rotate = false;
    sim::Time step_cost = sim::kMillisecond;

    template <class F>
    friend void io(F& f, Params& p) {
      f(p.regions, p.region_bytes, p.dirty_per_step, p.rotate, p.step_cost);
    }
  };

  DirtyWorkload() = default;
  explicit DirtyWorkload(Params p) : p_(p) {}

  const char* kind() const override { return "bench.dirty_workload"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    if (pc_ == 0) {  // allocate and fill every region once
      for (u32 i = 0; i < p_.regions; ++i) {
        fill(sys.region(region_name(i), p_.region_bytes), i);
      }
      pc_ = 1;
      return StepResult::yield(p_.step_cost);
    }
    for (u32 i = 0; i < p_.dirty_per_step; ++i) {
      u32 idx = (cursor_ + i) % p_.regions;
      fill(sys.region(region_name(idx), p_.region_bytes), idx + step_);
    }
    if (p_.rotate) cursor_ = (cursor_ + p_.dirty_per_step) % p_.regions;
    ++step_;
    return StepResult::yield(p_.step_cost);
  }


 private:
  template <class F>
  friend void io(F& f, DirtyWorkload& p) {
    f(p.p_, p.pc_, p.cursor_, p.step_);
  }

  static std::string region_name(u32 i) { return "seg" + std::to_string(i); }
  static void fill(Bytes& b, u32 seed) {
    for (std::size_t i = 0; i < b.size(); i += 4096) {
      b[i] = static_cast<u8>((seed * 131 + i) & 0xFF);
    }
  }

  Params p_;
  u32 pc_ = 0;
  u32 cursor_ = 0;
  u32 step_ = 0;
};

namespace {

constexpr u32 kRegions = 64;
constexpr u32 kRegionBytes = 256 * 1024;  // 16 MiB pod state

struct IncrRun {
  double full_mb = 0;       // first (full) image
  double avg_delta_mb = 0;  // subsequent deltas
  double ratio = 0;         // full / delta bytes written
  u32 deltas = 0;
  u32 last_seq = 0;
  bool ok = false;
};

/// One full + `num_deltas` incremental checkpoints at `interval_steps`
/// program steps apart, each to a fresh SAN URI so the chain grows.
IncrRun run_incremental(double dirty_fraction, u32 interval_steps,
                        bool rotate, u32 num_deltas, u32 chain_cap = 32) {
  IncrRun out;
  Testbed tb(1);
  DirtyWorkload::Params p;
  p.regions = kRegions;
  p.region_bytes = kRegionBytes;
  p.dirty_per_step = std::max<u32>(
      1, static_cast<u32>(dirty_fraction * kRegions + 0.5));
  p.rotate = rotate;
  pod::Pod& pod = tb.agents[0]->create_pod(net::IpAddr(10, 90, 0, 1), "dirty");
  pod.spawn(std::make_unique<DirtyWorkload>(p));
  tb.cl.run_for(10 * sim::kMillisecond);  // let it allocate + settle

  core::Manager::CkptOptions opts;
  opts.incremental = true;
  opts.chain_cap = chain_cap;
  opts.codec_flags = ckpt::kCodecZeroElide | ckpt::kCodecDedup;

  for (u32 k = 0; k <= num_deltas; ++k) {
    tb.cl.run_for(interval_steps * sim::kMillisecond);
    auto r = tb.checkpoint_sync(
        {{tb.agents[0]->addr(), "dirty",
          "san://incr/dirty." + std::to_string(k)}},
        core::CkptMode::SNAPSHOT, false, opts);
    if (!r.ok || r.agents.size() != 1) return out;
    double mb = static_cast<double>(r.agents[0].image_bytes) / (1 << 20);
    if (k == 0) {
      if (r.agents[0].delta_seq != 0) return out;  // first must be full
      out.full_mb = mb;
    } else {
      out.avg_delta_mb += mb;
      out.last_seq = r.agents[0].delta_seq;
      ++out.deltas;
    }
  }
  if (out.deltas == 0 || out.full_mb <= 0) return out;
  out.avg_delta_mb /= out.deltas;
  out.ratio = out.full_mb / out.avg_delta_mb;
  out.ok = true;
  return out;
}

struct MigrateRun {
  double total_ms = 0;      // migrate invocation → job resumed
  double ckpt_ms = 0;       // checkpoint (downtime) portion
  double image_mb = 0;
  bool ok = false;
};

MigrateRun run_migrate(Testbed& tb, bool pipelined) {
  MigrateRun out;
  DirtyWorkload::Params p;
  p.regions = kRegions;
  p.region_bytes = kRegionBytes;
  p.dirty_per_step = 4;
  std::string pod_name = pipelined ? "mig-pipe" : "mig-mat";
  net::IpAddr vip(10, 91, 0, pipelined ? 2 : 1);
  int src = pipelined ? 2 : 0;
  int dst = pipelined ? 3 : 1;
  pod::Pod& pod = tb.agents[src]->create_pod(vip, pod_name);
  pod.spawn(std::make_unique<DirtyWorkload>(p));
  tb.cl.run_for(50 * sim::kMillisecond);

  core::Manager::MigrateOptions mo;
  mo.pipelined_stream = pipelined;
  bool done = false;
  core::Manager::MigrateReport mr;
  tb.manager->migrate(
      {{tb.agents[src]->addr(), tb.agents[dst]->addr(), pod_name, vip}},
      [&](core::Manager::MigrateReport r) {
        mr = std::move(r);
        done = true;
      },
      mo);
  for (int i = 0; i < 120000 && !done; ++i) tb.cl.run_for(sim::kMillisecond);
  if (!done || !mr.ok) return out;
  out.total_ms = static_cast<double>(mr.total_us) / 1000.0;
  out.ckpt_ms = static_cast<double>(mr.checkpoint.total_us) / 1000.0;
  out.image_mb =
      static_cast<double>(mr.checkpoint.max_image_bytes) / (1 << 20);
  out.ok = tb.agents[dst]->find_pod(pod_name) != nullptr;
  return out;
}

void run() {
  JsonEvidence ev("incremental");

  // ---- 1. dirty-ratio sweep (steady-state hot set) -------------------------
  print_header(
      "Incremental checkpoints: bytes written vs dirty ratio "
      "(64 x 256 KiB regions, fixed hot set)",
      "dirty%     full(MB)   delta(MB)   reduction");
  bool ratio_bar_met = false;
  for (double frac : {0.05, 0.10, 0.25, 0.50, 1.0}) {
    IncrRun r = run_incremental(frac, /*interval_steps=*/5,
                                /*rotate=*/false, /*num_deltas=*/5);
    std::printf("%5.0f%% %12.2f %11.2f %10.1fx%s\n", frac * 100, r.full_mb,
                r.avg_delta_mb, r.ratio, r.ok ? "" : "  FAILED");
    if (frac == 0.10 && r.ok && r.ratio >= 5.0) ratio_bar_met = true;
    obs::Json row = obs::Json::object();
    row["experiment"] = "dirty_ratio";
    row["dirty_fraction"] = frac;
    row["full_mb"] = r.full_mb;
    row["avg_delta_mb"] = r.avg_delta_mb;
    row["reduction_x"] = r.ratio;
    row["deltas"] = r.deltas;
    row["ok"] = r.ok;
    ev.add_row(std::move(row));
  }
  std::printf("\n10%%-dirty steady state achieves >=5x reduction: %s\n",
              ratio_bar_met ? "yes" : "NO");

  // ---- 2. interval sweep (rotating working set) ----------------------------
  print_header(
      "Checkpoint interval vs incremental advantage "
      "(10% of regions rotate dirty per step)",
      "interval(steps)   delta(MB)   reduction");
  for (u32 interval : {1u, 2u, 4u, 8u}) {
    IncrRun r = run_incremental(0.10, interval, /*rotate=*/true,
                                /*num_deltas=*/5);
    std::printf("%10u %15.2f %10.1fx%s\n", interval, r.avg_delta_mb,
                r.ratio, r.ok ? "" : "  FAILED");
    obs::Json row = obs::Json::object();
    row["experiment"] = "interval";
    row["interval_steps"] = interval;
    row["avg_delta_mb"] = r.avg_delta_mb;
    row["reduction_x"] = r.ratio;
    row["ok"] = r.ok;
    ev.add_row(std::move(row));
  }

  // ---- 3. chain cap forces a periodic full image ---------------------------
  {
    IncrRun r = run_incremental(0.10, 5, /*rotate=*/false,
                                /*num_deltas=*/6, /*chain_cap=*/4);
    // Chain: full, d1..d4, then the cap forces a full (seq back to 0),
    // then d1 again.
    std::printf("\nChain cap 4: after 6 incremental checkpoints the last "
                "delta_seq is %u (cap restarted the chain)\n", r.last_seq);
    obs::Json row = obs::Json::object();
    row["experiment"] = "chain_cap";
    row["chain_cap"] = 4;
    row["checkpoints_after_full"] = 6;
    row["last_delta_seq"] = r.last_seq;
    row["ok"] = r.ok && r.last_seq < 4;
    ev.add_row(std::move(row));
  }

  // ---- 4. migration: materialize-then-send vs pipelined streaming ----------
  Testbed tb(4);
  MigrateRun mat = run_migrate(tb, false);
  MigrateRun pipe = run_migrate(tb, true);
  print_header(
      "Migration downtime: materialized image vs pipelined streaming",
      "mode             image(MB)   ckpt(ms)   total(ms)");
  std::printf("materialize %14.2f %10.2f %11.2f%s\n", mat.image_mb,
              mat.ckpt_ms, mat.total_ms, mat.ok ? "" : "  FAILED");
  std::printf("pipelined   %14.2f %10.2f %11.2f%s\n", pipe.image_mb,
              pipe.ckpt_ms, pipe.total_ms, pipe.ok ? "" : "  FAILED");
  bool overlap_wins = mat.ok && pipe.ok && pipe.total_ms < mat.total_ms;
  std::printf("\nPipelined streaming strictly lowers downtime: %s\n",
              overlap_wins ? "yes" : "NO");
  for (auto [mode, r] :
       {std::pair<const char*, MigrateRun&>{"materialize", mat},
        std::pair<const char*, MigrateRun&>{"pipelined", pipe}}) {
    obs::Json row = obs::Json::object();
    row["experiment"] = "migration";
    row["mode"] = mode;
    row["image_mb"] = r.image_mb;
    row["ckpt_ms"] = r.ckpt_ms;
    row["total_ms"] = r.total_ms;
    row["ok"] = r.ok;
    ev.add_row(std::move(row));
  }
  obs::Json verdict = obs::Json::object();
  verdict["experiment"] = "summary";
  verdict["ratio_bar_met"] = ratio_bar_met;
  verdict["pipelined_faster"] = overlap_wins;
  ev.add_row(std::move(verdict));

  std::printf(
      "\nShape check: bytes written per incremental checkpoint track the\n"
      "dirty ratio (manifest overhead aside), longer intervals erode the\n"
      "advantage as the rotating working set touches more regions, and\n"
      "streaming the migration image overlaps serialization with the\n"
      "transfer so downtime drops below the materialize-then-send path.\n");
  ev.write(&tb.trace.recorder());
}

}  // namespace
}  // namespace zapc::bench

ZAPC_REGISTER_PROGRAM(bench_dirty_workload, zapc::bench::DirtyWorkload)

int main() { zapc::bench::run(); }
