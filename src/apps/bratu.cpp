#include "apps/bratu.h"

#include <cmath>
#include <cstring>

#include "os/san.h"

namespace zapc::apps {
namespace {

constexpr u32 kTagHaloUp = 101;    // data traveling to the rank above
constexpr u32 kTagHaloDown = 102;  // data traveling to the rank below

Bytes pack_row(const double* row, u32 n) {
  Bytes b(n * sizeof(double));
  std::memcpy(b.data(), row, b.size());
  return b;
}

void unpack_row(const Bytes& b, double* row, u32 n) {
  std::memcpy(row, b.data(), std::min<std::size_t>(b.size(),
                                                   n * sizeof(double)));
}

}  // namespace

double* BratuProgram::grid(os::Syscalls& sys) {
  // Local rows plus two halo rows, each n wide.
  std::size_t bytes =
      static_cast<std::size_t>(local_rows() + 2) * p_.n * sizeof(double);
  return reinterpret_cast<double*>(sys.region("grid", bytes).data());
}

double* BratuProgram::halo_up(os::Syscalls& sys) { return grid(sys); }

double* BratuProgram::halo_down(os::Syscalls& sys) {
  return grid(sys) + static_cast<std::size_t>(local_rows() + 1) * p_.n;
}

os::StepResult BratuProgram::step(os::Syscalls& sys) {
  using os::StepResult;
  const u32 n = p_.n;
  const i32 up = p_.rank - 1;               // neighbour with lower rows
  const i32 down = p_.rank + 1;             // neighbour with higher rows
  const bool has_up = up >= 0;
  const bool has_down = down < p_.size;
  double* g = grid(sys);
  double* interior = g + n;  // first local row

  switch (pc_) {
    case INIT: {
      if (p_.workspace_bytes > 0) {
        sys.reserve_region("workspace", p_.workspace_bytes);
      }
      if (!comm_.try_init(sys)) return wait_comm(comm_);
      // Initial guess: zero (boundary is zero; halos start zero too).
      pc_ = EXCHANGE_SEND;
      return StepResult::yield();
    }
    case EXCHANGE_SEND: {
      if (has_up) {
        comm_.post_send(sys, up, kTagHaloUp, pack_row(interior, n));
      }
      if (has_down) {
        comm_.post_send(
            sys, down, kTagHaloDown,
            pack_row(interior + static_cast<std::size_t>(local_rows() - 1) *
                                    n,
                     n));
      }
      got_up_ = !has_up;
      got_down_ = !has_down;
      pc_ = EXCHANGE_RECV;
      return StepResult::yield();
    }
    case EXCHANGE_RECV: {
      if (!got_up_) {
        auto m = comm_.try_recv(sys, up, kTagHaloDown);
        if (m) {
          unpack_row(*m, halo_up(sys), n);
          got_up_ = true;
        }
      }
      if (!got_down_) {
        auto m = comm_.try_recv(sys, down, kTagHaloUp);
        if (m) {
          unpack_row(*m, halo_down(sys), n);
          got_down_ = true;
        }
      }
      if (!got_up_ || !got_down_) {
        if (comm_.failed()) return StepResult::exit(2);
        return wait_comm(comm_);
      }
      pc_ = SWEEP;
      return StepResult::yield();
    }
    case SWEEP: {
      // Damped Jacobi-Newton sweep over the local block:
      //   F(u) = (u_N + u_S + u_E + u_W - 4u)/h² + λ eᵘ
      //   u ← u + ω F(u) / (4/h² - λ eᵘ)
      // True Jacobi (two buffers): every read sees the previous
      // iteration, so results are identical for any row decomposition.
      const double h = 1.0 / (n + 1);
      const double h2inv = 1.0 / (h * h);
      const double omega = 0.8;
      Bytes& new_region = sys.region(
          "grid_new",
          static_cast<std::size_t>(local_rows()) * n * sizeof(double));
      double* fresh = reinterpret_cast<double*>(new_region.data());
      local_res2_ = 0;
      for (u32 r = 0; r < local_rows(); ++r) {
        const double* row = interior + static_cast<std::size_t>(r) * n;
        const double* north = row - n;  // halo row when r == 0
        const double* south = row + n;  // halo row when r == last
        double* out = fresh + static_cast<std::size_t>(r) * n;
        for (u32 c = 0; c < n; ++c) {
          double u = row[c];
          double west = c > 0 ? row[c - 1] : 0.0;
          double east = c + 1 < n ? row[c + 1] : 0.0;
          double eu = std::exp(u);
          double f =
              (north[c] + south[c] + east + west - 4.0 * u) * h2inv +
              p_.lambda * eu;
          double jac = 4.0 * h2inv - p_.lambda * eu;
          out[c] = jac > 1e-12 ? u + omega * f / jac : u;
          local_res2_ += f * f;
        }
      }
      std::memcpy(interior, fresh,
                  static_cast<std::size_t>(local_rows()) * n *
                      sizeof(double));
      ++iter_;
      sim::Time cost = static_cast<sim::Time>(local_rows()) *
                       p_.cost_per_row;
      if (iter_ % p_.reduce_every == 0) {
        pc_ = REDUCE;
      } else if (iter_ >= p_.iterations) {
        pc_ = REDUCE;  // final residual check
      } else {
        pc_ = EXCHANGE_SEND;
      }
      return StepResult::yield(std::max<sim::Time>(cost, 1));
    }
    case REDUCE: {
      if (!comm_.try_allreduce_sum(sys, {local_res2_}, &reduced_)) {
        if (comm_.failed()) return StepResult::exit(2);
        return wait_comm(comm_);
      }
      residual_ = std::sqrt(reduced_[0]) / (static_cast<double>(n) * n);
      if (residual_ < p_.tol || iter_ >= p_.iterations) {
        pc_ = FINISH;
      } else {
        pc_ = EXCHANGE_SEND;
      }
      return StepResult::yield();
    }
    case FINISH: {
      if (p_.rank == 0) {
        const BratuResult result{residual_, iter_};
        // A result that was not stored is a failed run.
        if (!sys.san().write("results/bratu", encode_fields(result)).is_ok()) {
          return StepResult::exit(4);
        }
      }
      // Success = the solver actually reduced the residual.
      return StepResult::exit(residual_ < 1.0 ? 0 : 3);
    }
    default:
      return StepResult::exit(9);
  }
}

}  // namespace zapc::apps

ZAPC_REGISTER_PROGRAM(app_bratu, zapc::apps::BratuProgram)
