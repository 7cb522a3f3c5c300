// SFI / Bratu solid-fuel-ignition solver (paper §6 workload 3, the PETSc
// example).
//
// Solves the Bratu equation  Δu + λ·eᵘ = 0  on the unit square with
// zero boundary conditions, using damped Jacobi–Newton sweeps on a
// distributed array: the grid is partitioned into row blocks ("uses
// distributed arrays to partition the problem grid"), each iteration
// exchanges one halo row with each neighbour and periodically allreduces
// the residual norm — "a moderate level of communication".
#pragma once

#include "apps/mpi_app.h"

namespace zapc::apps {

/// What rank 0 writes to `results/bratu`.
struct BratuResult {
  double residual = 0;
  u32 iterations = 0;
};
template <class F>
void io(F& f, BratuResult& r) {
  f(r.residual, r.iterations);
}

class BratuProgram final : public os::FieldProgram<BratuProgram> {
 public:
  struct Params {
    i32 rank = 0;
    i32 size = 1;
    u32 n = 256;             // global n×n interior grid
    double lambda = 6.0;     // ignition parameter (< ~6.8 converges)
    u32 iterations = 400;    // Jacobi-Newton sweeps
    u32 reduce_every = 10;   // residual allreduce period
    double tol = 1e-8;       // early-stop tolerance on residual norm
    sim::Time cost_per_row = 2;  // modeled CPU time per grid row sweep
    u64 workspace_bytes = 0;     // extra modeled footprint (solver state)

    template <class F>
    friend void io(F& f, Params& p) {
      f(p.rank, p.size, p.n, p.lambda, p.iterations, p.reduce_every, p.tol,
        p.cost_per_row, p.workspace_bytes);
    }
  };

  BratuProgram() = default;
  explicit BratuProgram(Params p)
      : p_(p), comm_(job_config(p.rank, p.size)) {}

  const char* kind() const override { return "apps.bratu"; }

  os::StepResult step(os::Syscalls& sys) override;

  u32 iterations_done() const { return iter_; }
  double residual() const { return residual_; }

 private:
  enum Pc : u32 {
    INIT = 0,
    EXCHANGE_SEND,
    EXCHANGE_RECV,
    SWEEP,
    REDUCE,
    FINISH,
  };

  // Row-block decomposition helpers.
  u32 rows_begin() const {
    return p_.n * static_cast<u32>(p_.rank) / static_cast<u32>(p_.size);
  }
  u32 rows_end() const {
    return p_.n * static_cast<u32>(p_.rank + 1) / static_cast<u32>(p_.size);
  }
  u32 local_rows() const { return rows_end() - rows_begin(); }

  double* grid(os::Syscalls& sys);
  double* halo_up(os::Syscalls& sys);
  double* halo_down(os::Syscalls& sys);

  template <class F>
  friend void io(F& f, BratuProgram& b) {
    f(b.p_, b.comm_, b.pc_, b.iter_, b.local_res2_, b.residual_, b.got_up_,
      b.got_down_);
  }

  Params p_;
  mpi::MpiComm comm_;
  u32 pc_ = INIT;
  u32 iter_ = 0;
  double local_res2_ = 0;
  double residual_ = 1e30;
  bool got_up_ = false;
  bool got_down_ = false;
  std::vector<double> reduced_;
};

}  // namespace zapc::apps
