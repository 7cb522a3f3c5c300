#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "apps/bratu.h"
#include "apps/bt.h"
#include "fault/fault.h"
#include "host_speed.h"
#include "replay.h"
#include "super/supervisor.h"
#include "util/rng.h"

namespace zapc::perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

constexpr sim::Time kMs = sim::kMillisecond;
/// Virtual-time cap on waiting for one op's report.
constexpr sim::Time kOpBudget = 120 * sim::kSecond;

// ---- Jobs -------------------------------------------------------------------

/// A job: enough to launch it and to launch its uninterrupted reference.
struct JobSpec {
  std::string app;  // "bt" | "bratu"
  int nodes = 4;
  bool dual_cpu = false;
  int launch_nodes = 4;  // the job starts on agents [0, launch_nodes)
  i32 ranks = 4;
  u32 n = 512;
  u32 steps = 40;  // BT steps / bratu iterations
  sim::Time cost_per_row = 20;
  u64 workspace = 0;
};

apps::JobHandle launch(Bed& b, const JobSpec& s, const std::string& name) {
  std::vector<core::Agent*> on(b.agents.begin(),
                               b.agents.begin() + s.launch_nodes);
  apps::JobHandle job;
  if (s.app == "bt") {
    job = apps::launch_mpi_job(on, name, s.ranks, [&](i32 r) {
      apps::BtProgram::Params p;
      p.rank = r;
      p.size = s.ranks;
      p.n = s.n;
      p.steps = s.steps;
      p.cost_per_row = s.cost_per_row;
      p.workspace_bytes = s.workspace;
      return std::make_unique<apps::BtProgram>(p);
    });
  } else {
    job = apps::launch_mpi_job(on, name, s.ranks, [&](i32 r) {
      apps::BratuProgram::Params p;
      p.rank = r;
      p.size = s.ranks;
      p.n = s.n;
      p.iterations = s.steps;
      p.reduce_every = 10;
      p.tol = 0;  // fixed duration
      p.cost_per_row = s.cost_per_row;
      p.workspace_bytes = s.workspace;
      return std::make_unique<apps::BratuProgram>(p);
    });
  }
  job.all_agents = b.agents;  // pods may migrate anywhere in the bed
  return job;
}

/// What a finished job leaves behind: every rank's exit code (BT's own
/// grid verification and bratu's residual check decide it) and rank 0's
/// result record — BT's final and initial norms and step count, bratu's
/// residual() and iteration count.
struct JobResult {
  bool finished = false;
  i32 exit_code = -1;
  Bytes record;
};

/// Leading f64 fields of each app's result record; the rest are counts.
std::size_t record_floats(const std::string& app) {
  return app == "bt" ? 2 : 1;
}

/// Same result as the reference.  The floats are norms the apps reduce
/// with MpiComm::try_allreduce_sum, which adds the ranks' contributions
/// in arrival order; a checkpoint or migration reorders arrivals, so the
/// sums may differ in the last bits.  They must agree to 1e-12 relative;
/// exit codes and counts must match exactly.
bool same_result(const std::string& app, const JobResult& got,
                 const JobResult& want) {
  if (!got.finished || !want.finished || got.exit_code != want.exit_code ||
      got.record.size() != want.record.size()) {
    return false;
  }
  const std::size_t nf = record_floats(app);
  if (got.record.size() < nf * sizeof(double)) return false;
  for (std::size_t i = 0; i < nf; ++i) {
    double a = 0, b = 0;
    std::memcpy(&a, got.record.data() + i * sizeof(double), sizeof a);
    std::memcpy(&b, want.record.data() + i * sizeof(double), sizeof b);
    if (!(std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b)))) {
      return false;
    }
  }
  return std::equal(got.record.begin() + nf * sizeof(double),
                    got.record.end(),
                    want.record.begin() + nf * sizeof(double));
}

JobResult collect(Bed& b, const JobSpec& s, const apps::JobHandle& job) {
  JobResult r;
  r.finished = job.finished();
  if (!r.finished) return r;
  r.exit_code = job.exit_code();
  auto rec = b.cl.san().read("results/" + s.app);
  if (rec) r.record = rec.value();
  return r;
}

/// The same job, uninterrupted, on a fresh bed of the same shape.
JobResult reference(const JobSpec& s) {
  Bed b(s.nodes, s.dual_cpu);
  apps::JobHandle job = launch(b, s, s.app);
  (void)b.run_to_completion(job);
  return collect(b, s, job);
}

/// One uninterrupted reference per job shape per process: every job
/// instance of every pass with the same spec must reproduce it.
const JobResult& cached_reference(const JobSpec& s) {
  static std::map<std::string, JobResult> cache;
  const std::string key = s.app + "/" + std::to_string(s.nodes) + "/" +
                          std::to_string(s.ranks) + "/" + std::to_string(s.n) +
                          "/" + std::to_string(s.steps) + "/" +
                          std::to_string(s.cost_per_row) + "/" +
                          std::to_string(s.workspace);
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, reference(s)).first;
  return it->second;
}

// ---- The operator ------------------------------------------------------

/// Issues Manager ops one at a time, drives the engine until each report
/// arrives, and records both clocks.  Also owns the job: instances are
/// relaunched when they finish and checked against the reference.
class Operator {
 public:
  Operator(const Config& cfg, const JobSpec& spec, Tracer* tr, RunOutput& out)
      : cfg_(cfg), spec_(spec), tr_(tr), out_(out) {}

  /// Builds the bed and launches the first job instance `count` times
  /// over, each timed; the last bed is kept.  `extra` adds to each bed
  /// (timed with it); `teardown` releases what `extra` added before its
  /// bed goes away.
  void setup(int count, const std::function<void(Bed&)>& extra = {},
             const std::function<void()>& teardown = {}) {
    (void)cached_reference(spec_);  // untimed, and before any op counts
    for (int i = 0; i < count; ++i) {
      if (teardown) teardown();
      job_ = {};
      bed_.reset();
      calibrate();
      Clock::time_point a = Clock::now();
      bed_ = std::make_unique<Bed>(spec_.nodes, spec_.dual_cpu);
      instance_ = 0;
      relaunch();
      if (extra) extra(*bed_);
      Clock::time_point z = Clock::now();
      out_.setup_s.push_back(ms_between(a, z) / 1000.0);
      out_.setup_host.push_back(host_.factor());
    }
    fingerprint_events_base_ = events();
  }

  Bed& bed() { return *bed_; }
  apps::JobHandle& job() { return job_; }
  const std::string& instance_name() const { return instance_name_; }

  /// Runs the job for `vt` of virtual time (a job slice).  A finished
  /// instance is verified and replaced first.
  void slice(sim::Time vt) {
    if (job_.finished()) {
      verify();
      relaunch();
    }
    calibrate();
    if (tr_ != nullptr) tr_->slice_begin(*bed_, job_.pod_names);
    Clock::time_point a = Clock::now();
    bed_->cl.run_for(vt);
    Clock::time_point z = Clock::now();
    if (tr_ != nullptr) tr_->slice_end(*bed_, job_.pod_names, vt, a, z);
    // A slice in which the instance finished ran the job only in part.
    if (!job_.finished()) {
      out_.run_wall_ms += ms_between(a, z);
      out_.run_wall_scaled_ms += ms_between(a, z) * host_.factor();
      out_.run_vt += vt;
    }
  }

  core::Manager::CheckpointReport checkpoint(
      const std::vector<core::Manager::Target>& targets,
      core::Manager::CkptOptions opts, bool warmup, bool replay) {
    core::Manager::CheckpointReport rep;
    bool done = false;
    Clock::time_point end{};
    calibrate();
    if (tr_ != nullptr) tr_->op_begin(*bed_);
    Clock::time_point start = Clock::now();
    bed_->manager->checkpoint(
        targets, core::CkptMode::SNAPSHOT,
        [&](core::Manager::CheckpointReport r) {
          end = Clock::now();
          rep = std::move(r);
          done = true;
        },
        std::move(opts));
    wait(done);
    if (!done) end = Clock::now();
    if (tr_ != nullptr) {
      tr_->op_end(*bed_, "mgr.checkpoint", start, end);
      tr_->on_ckpt(*bed_, rep, targets, replay);
    }
    record("ckpt", rep.ok, warmup, ms_between(start, end), rep.downtime_us,
           rep.total_us, rep.attempts, rep.max_image_bytes);
    return rep;
  }

  core::Manager::RestartReport restart(
      const std::vector<core::Manager::Target>& targets,
      std::map<std::string, ckpt::NetMeta> metas,
      core::Manager::RestartOptions opts, bool warmup, bool replay) {
    core::Manager::RestartReport rep;
    bool done = false;
    Clock::time_point end{};
    calibrate();
    if (tr_ != nullptr) tr_->op_begin(*bed_);
    Clock::time_point start = Clock::now();
    bed_->manager->restart(
        targets, std::move(metas),
        [&](core::Manager::RestartReport r) {
          end = Clock::now();
          rep = std::move(r);
          done = true;
        },
        std::move(opts));
    wait(done);
    if (!done) end = Clock::now();
    if (tr_ != nullptr) {
      tr_->op_end(*bed_, "mgr.restart", start, end);
      tr_->on_restart(*bed_, rep, job_.pod_names, replay);
    }
    record("restart", rep.ok, warmup, ms_between(start, end), rep.downtime_us,
           rep.total_us, rep.attempts, rep.lazy_bytes);
    return rep;
  }

  /// Live migration; also records its checkpoint and restart halves,
  /// split at the instant the checkpoint half's ledger row appears.
  core::Manager::MigrateReport migrate(
      std::vector<core::Manager::MigrateTarget> targets,
      core::Manager::MigrateOptions opts, bool warmup, bool replay) {
    core::Manager::MigrateReport rep;
    bool done = false;
    Clock::time_point end{};
    Clock::time_point split{};
    calibrate();
    if (tr_ != nullptr) tr_->op_begin(*bed_);
    const std::size_t rows = bed_->ledger.entries().size();
    Clock::time_point start = Clock::now();
    bed_->manager->migrate(
        std::move(targets),
        [&](core::Manager::MigrateReport r) {
          end = Clock::now();
          rep = std::move(r);
          done = true;
        },
        std::move(opts));
    bool split_seen = false;
    wait(done, [&] {
      if (split_seen) return;
      const auto& e = bed_->ledger.entries();
      for (std::size_t i = rows; i < e.size(); ++i) {
        if (e[i].kind == "ckpt") {
          split = Clock::now();
          split_seen = true;
          return;
        }
      }
    });
    if (!done) end = Clock::now();
    if (!split_seen) split = end;
    if (tr_ != nullptr) {
      tr_->op_end(*bed_, "mgr.migrate", start, end);
      tr_->on_ckpt(*bed_, rep.checkpoint, {}, false);
      tr_->on_restart(*bed_, rep.restart, job_.pod_names, replay);
    }
    const auto& c = rep.checkpoint;
    const auto& r = rep.restart;
    record("migrate", rep.ok, warmup, ms_between(start, end),
           c.downtime_us + r.downtime_us, rep.total_us,
           std::max(c.attempts, r.attempts), c.max_image_bytes);
    add_record("ckpt", c.ok, warmup, ms_between(start, split), c.downtime_us,
               c.total_us, c.attempts);
    add_record("restart", r.ok, warmup, ms_between(split, end), r.downtime_us,
               r.total_us, r.attempts);
    return rep;
  }

  /// A relocation through storage — checkpoint, destroy, restart — seen
  /// as one migration: wall the two ops' walls plus the teardown between
  /// them, downtime the two ops' downtimes.  Not a Manager op itself.
  void relocation(const core::Manager::CheckpointReport& c, double ckpt_ms,
                  double teardown_ms, const core::Manager::RestartReport& r,
                  bool warmup) {
    add_record("migrate", c.ok && r.ok, warmup,
               ckpt_ms + teardown_ms + last_wall_ms_,
               c.downtime_us + r.downtime_us, c.total_us + r.total_us,
               std::max(c.attempts, r.attempts));
  }

  /// Wall ms of the last Manager op.
  double last_wall_ms() const { return last_wall_ms_; }

  /// Destroys the job's pods and lets the network settle; returns wall ms.
  double teardown() {
    Clock::time_point start = Clock::now();
    for (const auto& pn : job_.pod_names) {
      for (core::Agent* a : bed_->agents) (void)a->destroy_pod(pn);
    }
    bed_->cl.run_for(50 * kMs);
    return ms_between(start, Clock::now());
  }

  /// Runs the last instance to completion, verifies it, and closes the
  /// pass's fingerprint.
  void finish() {
    (void)bed_->run_to_completion(job_, bed_->cl.now() + 3600 * sim::kSecond);
    verify();
    out_.fingerprint.push_back(events() - fingerprint_events_base_);
    out_.fingerprint.push_back(bed_->cl.now());
    out_.peak_rss_mb = peak_rss_mb();
  }

  /// Marks the job lost (a failed restart leaves nothing to run).
  void lose_job() {
    ++out_.attempted;
    ++out_.failed;
    out_.job_ok = false;
    job_lost_ = true;
  }
  bool job_lost() const { return job_lost_; }

 private:
  void wait(bool& done, const std::function<void()>& poll = {}) {
    for (sim::Time t = 0; t < kOpBudget && !done; t += kMs) {
      bed_->cl.run_for(kMs);
      if (poll) poll();
    }
    // The report callback refers to the caller's frame: an op over
    // budget is aborted, which reports it failed, before that frame ends.
    if (!done) bed_->manager->abort_current("benchmark: op over budget");
    for (int i = 0; i < 1000 && !done; ++i) bed_->cl.run_for(kMs);
  }

  u64 events() const {
    return obs::metrics().counter("sim.events_dispatched").value;
  }

  /// Times the host-speed kernel right before a timed step.
  void calibrate() { out_.host_kernel_ms.push_back(host_.sample()); }

  void record(const std::string& kind, bool ok, bool warmup, double wall_ms,
              sim::Time downtime, sim::Time latency, u32 attempts,
              u64 bytes) {
    ++out_.attempted;
    if (!ok) ++out_.failed;
    last_wall_ms_ = wall_ms;
    add_record(kind, ok, warmup, wall_ms, downtime, latency, attempts);
    out_.fingerprint.push_back(bytes);
  }

  void add_record(const std::string& kind, bool ok, bool warmup,
                  double wall_ms, sim::Time downtime, sim::Time latency,
                  u32 attempts) {
    out_.ops.push_back(OpRecord{kind, ok, warmup, wall_ms, host_.factor(),
                                downtime, latency, attempts});
    out_.fingerprint.insert(out_.fingerprint.end(),
                            {ok ? 1u : 0u, downtime, latency, attempts});
  }

  /// Checks a finished instance against the uninterrupted reference.  The
  /// verdict is ANDed into the run's, across every pass.
  void verify() {
    if (job_lost_) return;
    ++out_.attempted;
    ++out_.results_checked;
    JobResult got = collect(*bed_, spec_, job_);
    JobResult want = cached_reference(spec_);
    // Negative control: flip the sign of the reference's first norm.
    if (cfg_.corrupt_first_result && out_.results_checked == 1 &&
        want.record.size() >= sizeof(double)) {
      want.record[sizeof(double) - 1] ^= 0x80;
    }
    const bool ok = want.exit_code == 0 && same_result(spec_.app, got, want);
    if (!ok) ++out_.failed;
    out_.job_ok = out_.job_ok && ok;
    out_.fingerprint.push_back(ok ? 1 : 0);
  }

  void relaunch() {
    if (instance_ > 0) {
      for (const auto& pn : job_.pod_names) {
        for (core::Agent* a : bed_->agents) (void)a->destroy_pod(pn);
      }
      // The finished instance's images are unreachable from now on.
      os::VirtualSAN& san = bed_->cl.san();
      for (const auto& path : san.list("bench/" + instance_name_ + "-")) {
        (void)san.remove(path);
      }
    }
    ++instance_;
    instance_name_ = spec_.app + "-i" + std::to_string(instance_);
    job_ = launch(*bed_, spec_, instance_name_);
    // Let every rank allocate its state and the MPI mesh connect.
    bed_->cl.run_for(50 * kMs);
  }

  const Config& cfg_;
  JobSpec spec_;
  Tracer* tr_;
  RunOutput& out_;
  HostSpeed host_;
  std::unique_ptr<Bed> bed_;
  apps::JobHandle job_;
  int instance_ = 0;
  std::string instance_name_;
  bool job_lost_ = false;
  u64 fingerprint_events_base_ = 0;
  double last_wall_ms_ = 0;
};

// The ops of a mesh-migrate or cow-delta-lazy run are split over passes,
// each on a freshly built bed.  How fast the engine and the TCP stack run
// swings by 10-20% from one bed (and process) to the next on a shared
// host; pooling several beds' ops steadies the run's medians.

sim::Time draw(Rng& rng, sim::Time lo, sim::Time hi) {
  return lo + rng.below(hi - lo + 1);
}

std::vector<core::Manager::Target> san_targets(Operator& op) {
  apps::JobHandle& job = op.job();
  std::vector<std::string> uris;
  for (const auto& pn : job.pod_names) uris.push_back("san://bench/" + pn);
  return job.targets(job.hosts(), uris);
}

/// Arms the SAN_WRITE_FAIL negative control on the first image write.
void arm_negative_controls(const Config& cfg) {
  fault::injector().clear();
  if (!cfg.inject_san_write_fail) return;
  fault::FaultSpec f;
  f.kind = fault::FaultKind::SAN_WRITE_FAIL;
  f.san_prefix = "bench/";
  f.nth = 1;
  fault::injector().arm(f);
}

// ---- Workloads ---------------------------------------------------------

/// BT/NAS on 4 nodes at the paper's Fig. 6 sizes: blocking full SNAPSHOT
/// to the SAN, destroy, monolithic in-place restart.
void bulk_snapshot(const Config& cfg, Tracer* tr, RunOutput& out) {
  JobSpec s;
  s.app = "bt";
  s.nodes = s.launch_nodes = 4;
  s.ranks = 4;
  s.n = cfg.small ? 128 : 1024;
  s.steps = 40;
  s.cost_per_row = 18;
  s.workspace = cfg.small ? (1u << 20) : (12ull << 20) + (320ull << 20) / 4;
  const int cycles = 1 + std::max(2, cfg.small ? 2 : cfg.seconds / 5);
  // A bed with its 376 MiB job takes ~0.5 s to set up.
  const int setups = cfg.small ? 1 : 12;

  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 1);
  Operator op(cfg, s, tr, out);
  op.setup(setups);
  arm_negative_controls(cfg);
  int replays = 0;
  for (int c = 0; c < cycles && !op.job_lost(); ++c) {
    const bool warm = c == 0;
    op.slice(draw(rng, 20, 120) * kMs);
    auto targets = san_targets(op);
    const bool replay = !warm && replays < Tracer::kByteReplaysPerKind;
    auto cr = op.checkpoint(targets, {}, warm, replay);
    if (!cr.ok) continue;  // the pods resumed; try again next cycle
    const double ckpt_ms = op.last_wall_ms();
    const double teardown_ms = op.teardown();
    auto rr = op.restart(targets, {}, {}, warm, replay);
    if (!rr.ok) {
      op.lose_job();
      break;
    }
    op.relocation(cr, ckpt_ms, teardown_ms, rr, warm);
    if (replay) ++replays;
  }
  fault::injector().clear();
  if (!op.job_lost()) op.finish();
}

/// bratu/PETSc, 16 ranks on 8 dual-CPU nodes (a 120-connection MPI mesh),
/// live-migrated between two 8-node sets and back.
void mesh_migrate(const Config& cfg, Tracer* tr, RunOutput& out) {
  JobSpec s;
  s.app = "bratu";
  s.nodes = 16;
  s.dual_cpu = true;
  s.launch_nodes = 8;
  s.ranks = 16;
  s.n = 128;
  s.steps = cfg.small ? 100 : 1000;
  s.cost_per_row = 100;
  s.workspace = 512u << 10;
  const int passes = cfg.small ? 2 : 4;
  const int warmups = 2;
  const int migrations = warmups + (cfg.small ? 2 : cfg.seconds * 3 / passes);
  // A bed takes ~30 ms to set up.
  const int setups = cfg.small ? 1 : 16;

  for (int pass = 0; pass < passes; ++pass) {
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 2 + 16 * pass);
    Operator op(cfg, s, tr, out);
    op.setup(setups);
    arm_negative_controls(cfg);
    int replays = 0;
    for (int m = 0; m < migrations; ++m) {
      const bool warm = m < warmups;
      // Slices stay above the 200 ms minimum TCP RTO, as bench_mttr's
      // checkpoint intervals do: after a shorter one the next freeze can
      // land on the retransmit of a window the previous freeze dropped,
      // and the restart then waits out an RTO.
      op.slice(draw(rng, 250, 400) * kMs);
      Bed& b = op.bed();
      apps::JobHandle& job = op.job();
      // Two pods per destination node, in a seeded order, on whichever
      // 8-node set the job is not on.
      std::vector<core::Agent*> from = job.hosts();
      const bool on_first = from[0] == nullptr ||
                            std::find(b.agents.begin(), b.agents.begin() + 8,
                                      from[0]) != b.agents.begin() + 8;
      std::vector<std::size_t> slots(16);
      for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
      for (std::size_t i = slots.size() - 1; i > 0; --i) {
        std::swap(slots[i], slots[rng.below(i + 1)]);
      }
      std::vector<core::Manager::MigrateTarget> targets;
      for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
        core::Agent* to = b.agents[(on_first ? 8 : 0) + slots[i] / 2];
        targets.push_back({from[i] != nullptr ? from[i]->addr() : to->addr(),
                           to->addr(), job.pod_names[i], job.vips[i]});
      }
      const bool replay = !warm && replays < Tracer::kByteReplaysPerKind;
      auto mr = op.migrate(std::move(targets), {}, warm, replay);
      if (replay) ++replays;
      if (!mr.ok && !mr.checkpoint.ok) continue;  // still on the source set
      if (!mr.ok) {
        op.lose_job();
        break;
      }
    }
    fault::injector().clear();
    if (!op.job_lost()) op.finish();
  }
}

/// bratu/PETSc, 4 ranks on 4 nodes at the Fig. 6 sizes, under a
/// supervisor (detector on, periodic policy off): seeded runs of COW +
/// incremental checkpoints, destroy, pipelined+lazy restart from the
/// catalog's latest committed set.
void cow_delta_lazy(const Config& cfg, Tracer* tr, RunOutput& out) {
  JobSpec s;
  s.app = "bratu";
  s.nodes = s.launch_nodes = 4;
  s.ranks = 4;
  s.n = cfg.small ? 128 : 512;
  s.steps = cfg.small ? 100 : 1000;
  s.cost_per_row = 20;
  s.workspace = cfg.small ? (1u << 20) : (16ull << 20) + (128ull << 20) / 4;
  const int passes = 2;
  // The restart count is fixed per pass; the seed picks each chain's
  // length, and so how far the catalog each commit rewrites grows.
  const int cycles = cfg.small ? 2 : cfg.seconds * 3 / 5;
  // A bed with its job and supervisor takes ~0.2 s to set up.
  const int setups = cfg.small ? 1 : 12;

  for (int pass = 0; pass < passes; ++pass) {
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 3 + 16 * pass);
    Operator op(cfg, s, tr, out);
    std::unique_ptr<super::Supervisor> sup;
    op.setup(setups, [&](Bed& b) {
      sup.reset();
      super::Supervisor::Options so;
      so.ckpt_interval_us = 0;  // operator-driven checkpoints only
      std::vector<super::Supervisor::AgentRef> refs;
      for (core::Agent* a : b.agents) {
        refs.push_back({a->addr(), a->node().name()});
      }
      sup = std::make_unique<super::Supervisor>(*b.mgr_node, *b.manager,
                                                std::move(refs), so, &b.trace);
      // The supervisor's own generations would live under super/; the
      // operator's images under bench/ are never touched by its GC.
      std::vector<core::Manager::Target> base;
      for (const auto& pn : op.job().pod_names) {
        base.push_back({op.job().hosts()[base.size()]->addr(), pn,
                        "san://super/" + pn});
      }
      sup->start(base);
    }, [&] { sup.reset(); });
    arm_negative_controls(cfg);

    core::Manager::CkptOptions co;
    co.cow = true;
    co.incremental = true;
    co.codec_flags = ckpt::kCodecZeroElide | ckpt::kCodecDedup;
    co.deadlines.drain_us = 60 * sim::kSecond;
    core::Manager::RestartOptions ro;
    ro.pipelined = true;
    ro.lazy = true;
    ro.deadlines.lazy_us = 60 * sim::kSecond;

    int ckpt_replays = 0, restart_replays = 0;
    u64 seq = 0;
    for (int c = 0; c < cycles && !op.job_lost(); ++c) {
      const bool warm = c == 0;
      const int chain = static_cast<int>(draw(rng, 1, 3));
      core::Manager::CheckpointReport last;
      double last_ms = 0;
      std::string committed_by;  // job instance of the newest commit
      for (int k = 0; k < chain; ++k) {
        op.slice(draw(rng, 20, 80) * kMs);
        std::vector<core::Manager::Target> targets = san_targets(op);
        for (auto& t : targets) t.uri += "." + std::to_string(++seq);
        const bool replay = !warm && k == chain - 1 &&
                            ckpt_replays < Tracer::kByteReplaysPerKind;
        last = op.checkpoint(targets, co, warm, replay);
        last_ms = op.last_wall_ms();
        if (replay) ++ckpt_replays;
        if (last.ok) committed_by = op.instance_name();
      }
      // Restart only from a set this job instance committed.
      auto latest = sup->catalog().latest();
      if (!latest || committed_by != op.instance_name()) continue;
      const double teardown_ms = op.teardown();
      std::vector<core::Manager::Target> targets;
      std::map<std::string, ckpt::NetMeta> metas;
      for (const super::CatalogImage& im : latest->images) {
        net::SockAddr agent{net::IpAddr::parse(im.agent_ip).value_or(
                                net::IpAddr{}),
                            im.agent_port};
        targets.push_back({agent, im.pod, im.uri, im.vip});
        metas[im.pod] = im.meta;
      }
      const bool replay =
          !warm && restart_replays < Tracer::kByteReplaysPerKind;
      auto rr = op.restart(targets, metas, ro, warm, replay);
      if (replay) ++restart_replays;
      if (!rr.ok) {
        op.lose_job();
        break;
      }
      if (last.ok) op.relocation(last, last_ms, teardown_ms, rr, warm);
    }
    fault::injector().clear();
    if (tr != nullptr) {
      // Replay of what Catalog::append redoes on every commit: serialize
      // the whole catalog, at its final size.
      Clock::time_point a = Clock::now();
      std::string doc;
      for (const super::CatalogEntry& e : sup->catalog().entries()) {
        doc += super::catalog_entry_to_json(e).dump() + "\n";
      }
      const double rewrite_ms = ms_between(a, Clock::now());
      auto size = op.bed().cl.san().size_of("super/catalog");
      tr->set_catalog(size ? size.value() / 1024.0 : 0,
                      static_cast<double>(sup->catalog().size()), rewrite_ms);
    }
    if (!op.job_lost()) op.finish();
    sup.reset();
  }
}

}  // namespace

RunOutput run_workload(const Config& cfg, Tracer* tracer) {
  RunOutput out;
  if (cfg.workload == "bulk-snapshot") {
    bulk_snapshot(cfg, tracer, out);
  } else if (cfg.workload == "mesh-migrate") {
    mesh_migrate(cfg, tracer, out);
  } else if (cfg.workload == "cow-delta-lazy") {
    cow_delta_lazy(cfg, tracer, out);
  }
  if (out.results_checked == 0) out.job_ok = false;
  return out;
}

}  // namespace zapc::perfbench
