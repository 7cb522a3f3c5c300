// BT: block-tridiagonal ADI solver — the NAS Parallel Benchmark BT
// analogue (paper §6 workload 2, "involves substantial network
// communication along the computation").
//
// Solves the 2-D diffusion equation with an alternating-direction
// implicit scheme: each time step performs a tridiagonal (Thomas) solve
// along x for every local row, a wide halo exchange with both
// neighbours, a block-local tridiagonal solve along y, and an allreduce
// of the solution norms.  The grid is large (BT produces the biggest
// checkpoint images in the paper) and partitioned by row blocks.
#pragma once

#include <vector>

#include "apps/mpi_app.h"

namespace zapc::apps {

/// The forward-elimination coefficients of the Thomas solve for the
/// tridiagonal system (-a, 1+2a, -a) x = rhs of length `len`:
/// s[0] = -a/b, m[i] = 1/(b + a·s[i-1]), s[i] = -a·m[i] (b = 1+2a).
/// They depend only on (len, a), not on the right-hand side, so one
/// table serves every line of a sweep.
struct ThomasTable {
  ThomasTable() = default;
  ThomasTable(u32 len, double a);

  u32 len = 0;
  double a = 0;
  double b = 1;
  std::vector<double> m;  // m[0] unused: row 0 divides by b
  std::vector<double> s;
};

/// Solves `rows` independent systems, one per contiguous row of
/// `t.len` values (the x-sweep).  A block of rows is solved together
/// with the inner loop running across the block; each row's arithmetic
/// is the per-line Thomas solve's, in the same order.
void thomas_rows(double* x, u32 rows, const ThomasTable& t);

/// Solves `width` independent systems, one per column of a row-major
/// `t.len`×`width` block (the y-sweep): one contiguous row per pass.
void thomas_columns(double* x, u32 width, const ThomasTable& t);

/// What rank 0 writes to `results/bt`.
struct BtResult {
  double norm = 0;
  double initial_norm = 0;
  u32 steps = 0;
};
template <class F>
void io(F& f, BtResult& r) {
  f(r.norm, r.initial_norm, r.steps);
}

class BtProgram final : public os::FieldProgram<BtProgram> {
 public:
  struct Params {
    i32 rank = 0;
    i32 size = 1;
    u32 n = 512;            // global n×n grid
    u32 steps = 60;         // ADI time steps
    double alpha_dt = 0.1;  // diffusion number α·Δt / h²
    sim::Time cost_per_row = 4;  // modeled CPU time per row solve
    u64 workspace_bytes = 0;     // extra modeled footprint (solver state)

    template <class F>
    friend void io(F& f, Params& p) {
      f(p.rank, p.size, p.n, p.steps, p.alpha_dt, p.cost_per_row,
        p.workspace_bytes);
    }
  };

  BtProgram() = default;
  explicit BtProgram(Params p)
      : p_(p), comm_(job_config(p.rank, p.size)) {}

  const char* kind() const override { return "apps.bt"; }

  os::StepResult step(os::Syscalls& sys) override;

  u32 steps_done() const { return step_; }
  double norm() const { return norm_; }

 private:
  enum Pc : u32 {
    INIT = 0,
    X_SWEEP,
    SEND_HALO,
    RECV_HALO,
    Y_SWEEP,
    NORM,
    FINISH,
  };

  u32 rows_begin() const {
    return p_.n * static_cast<u32>(p_.rank) / static_cast<u32>(p_.size);
  }
  u32 rows_end() const {
    return p_.n * static_cast<u32>(p_.rank + 1) / static_cast<u32>(p_.size);
  }
  u32 local_rows() const { return rows_end() - rows_begin(); }

  double* grid(os::Syscalls& sys);

  template <class F>
  friend void io(F& f, BtProgram& b) {
    f(b.p_, b.comm_, b.pc_, b.step_, b.initialized_grid_, b.got_up_,
      b.got_down_, b.norm_, b.initial_norm_);
  }

  Params p_;
  mpi::MpiComm comm_;
  u32 pc_ = INIT;
  u32 step_ = 0;
  bool initialized_grid_ = false;
  bool got_up_ = false;
  bool got_down_ = false;
  double norm_ = 0;
  double initial_norm_ = 0;
  std::vector<double> reduced_;
  // Derived state, never saved: the line-solve tables for (n, local
  // rows, α), and this step's NORM sums while the allreduce is pending
  // (empty otherwise; a restored program recomputes them from the grid).
  ThomasTable x_table_;
  ThomasTable y_table_;
  std::vector<double> local_sums_;
};

}  // namespace zapc::apps
