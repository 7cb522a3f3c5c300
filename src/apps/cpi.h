// CPI: parallel calculation of Pi (paper §6 workload 1).
//
// The classic cpi.c shipped with MPICH: every rank integrates
// 4/(1+x²) over its strided subset of N intervals, then the partial sums
// are combined with an allreduce.  "Uses basic MPI primitives and is
// mostly computationally bound."  Runs `rounds` integrations so the
// job has a checkpointable duration.
#pragma once

#include "apps/mpi_app.h"

namespace zapc::apps {

/// What rank 0 writes to `results/cpi`.
struct CpiResult {
  double pi = 0;
};
template <class F>
void io(F& f, CpiResult& r) {
  f(r.pi);
}

class CpiProgram final : public os::FieldProgram<CpiProgram> {
 public:
  struct Params {
    i32 rank = 0;
    i32 size = 1;
    u64 intervals = 50'000'000;   // per round
    u32 rounds = 4;
    u64 intervals_per_step = 500'000;  // work chunk per scheduler step
    sim::Time cost_per_step = 500;     // modeled CPU time per chunk (us)
    u64 workspace_bytes = 12 << 20;    // modeled process footprint

    template <class F>
    friend void io(F& f, Params& p) {
      f(p.rank, p.size, p.intervals, p.rounds, p.intervals_per_step,
        p.cost_per_step, p.workspace_bytes);
    }
  };

  CpiProgram() = default;
  explicit CpiProgram(Params p) : p_(p), comm_(job_config(p.rank, p.size)) {
    next_i_ = static_cast<u64>(p.rank);
  }

  const char* kind() const override { return "apps.cpi"; }

  os::StepResult step(os::Syscalls& sys) override;

  u32 rounds_done() const { return round_; }
  double last_pi() const { return last_pi_; }

 private:
  enum Pc : u32 { INIT = 0, COMPUTE, REDUCE, DONE_ROUND, FINISH };

  template <class F>
  friend void io(F& f, CpiProgram& c) {
    f(c.p_, c.comm_, c.pc_, c.round_, c.next_i_, c.local_sum_, c.last_pi_);
  }

  Params p_;
  mpi::MpiComm comm_;
  u32 pc_ = INIT;
  u32 round_ = 0;
  u64 next_i_ = 0;      // next interval index (strided by size)
  double local_sum_ = 0;
  double last_pi_ = 0;
  std::vector<double> reduced_;
};

}  // namespace zapc::apps
