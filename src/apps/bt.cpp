#include "apps/bt.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "os/san.h"

namespace zapc::apps {
namespace {

constexpr u32 kTagHaloUp = 201;
constexpr u32 kTagHaloDown = 202;
constexpr u32 kHaloWidth = 2;  // rows exchanged per direction ("wide")

// Rows solved together by thomas_rows: enough independent recurrences
// to hide each one's latency.
constexpr u32 kRowBlock = 8;

/// `t`, rebuilt first if it was built for another (len, a).
const ThomasTable& cached(ThomasTable& t, u32 len, double a) {
  if (t.len != len || t.a != a) t = ThomasTable(len, a);
  return t;
}

}  // namespace

ThomasTable::ThomasTable(u32 len, double a)
    : len(len), a(a), b(1.0 + 2.0 * a), m(len), s(len) {
  if (len == 0) return;
  s[0] = -a / b;
  for (u32 i = 1; i < len; ++i) {
    m[i] = 1.0 / (b + a * s[i - 1]);
    s[i] = -a * m[i];
  }
}

void thomas_rows(double* x, u32 rows, const ThomasTable& t) {
  const u32 n = t.len;
  if (n == 0) return;
  const double a = t.a;
  for (u32 r0 = 0; r0 < rows; r0 += kRowBlock) {
    const u32 bw = std::min(kRowBlock, rows - r0);
    double* row[kRowBlock] = {};
    for (u32 r = 0; r < bw; ++r) {
      row[r] = x + static_cast<std::size_t>(r0 + r) * n;
      row[r][0] = row[r][0] / t.b;
    }
    // Forward elimination.
    for (u32 i = 1; i < n; ++i) {
      const double m = t.m[i];
      for (u32 r = 0; r < bw; ++r) {
        row[r][i] = (row[r][i] + a * row[r][i - 1]) * m;
      }
    }
    // Back substitution.
    for (u32 i = n - 1; i-- > 0;) {
      const double s = t.s[i];
      for (u32 r = 0; r < bw; ++r) row[r][i] -= s * row[r][i + 1];
    }
  }
}

void thomas_columns(double* x, u32 width, const ThomasTable& t) {
  if (t.len == 0) return;
  const double a = t.a;
  for (u32 c = 0; c < width; ++c) x[c] = x[c] / t.b;
  // Forward elimination.
  for (u32 i = 1; i < t.len; ++i) {
    const double m = t.m[i];
    double* cur = x + static_cast<std::size_t>(i) * width;
    const double* prev = cur - width;
    for (u32 c = 0; c < width; ++c) cur[c] = (cur[c] + a * prev[c]) * m;
  }
  // Back substitution.
  for (u32 i = t.len - 1; i-- > 0;) {
    const double s = t.s[i];
    double* cur = x + static_cast<std::size_t>(i) * width;
    const double* next = cur + width;
    for (u32 c = 0; c < width; ++c) cur[c] -= s * next[c];
  }
}

double* BtProgram::grid(os::Syscalls& sys) {
  // Local rows plus kHaloWidth halo rows on each side.
  std::size_t bytes = static_cast<std::size_t>(local_rows() + 2 * kHaloWidth) *
                      p_.n * sizeof(double);
  return reinterpret_cast<double*>(sys.region("grid", bytes).data());
}

os::StepResult BtProgram::step(os::Syscalls& sys) {
  using os::StepResult;
  const u32 n = p_.n;
  const i32 up = p_.rank - 1;
  const i32 down = p_.rank + 1;
  const bool has_up = up >= 0;
  const bool has_down = down < p_.size;
  double* g = grid(sys);
  double* interior = g + static_cast<std::size_t>(kHaloWidth) * n;

  switch (pc_) {
    case INIT: {
      if (p_.workspace_bytes > 0) {
        sys.reserve_region("workspace", p_.workspace_bytes);
      }
      if (!comm_.try_init(sys)) return wait_comm(comm_);
      if (!initialized_grid_) {
        // u₀ = sin(πx)·sin(πy): smooth mode that decays under diffusion.
        // Each factor depends on one coordinate, so it is evaluated once
        // per column and once per row.
        std::vector<double> sin_x(n);
        for (u32 c = 0; c < n; ++c) {
          double x = static_cast<double>(c + 1) / (n + 1);
          sin_x[c] = std::sin(M_PI * x);
        }
        for (u32 r = 0; r < local_rows(); ++r) {
          double y = static_cast<double>(rows_begin() + r + 1) / (n + 1);
          const double sin_y = std::sin(M_PI * y);
          for (u32 c = 0; c < n; ++c) {
            interior[static_cast<std::size_t>(r) * n + c] = sin_x[c] * sin_y;
          }
        }
        initialized_grid_ = true;
      }
      pc_ = X_SWEEP;
      return StepResult::yield();
    }
    case X_SWEEP: {
      // Implicit solve along x for every local row.
      thomas_rows(interior, local_rows(), cached(x_table_, n, p_.alpha_dt));
      pc_ = SEND_HALO;
      return StepResult::yield(
          std::max<sim::Time>(local_rows() * p_.cost_per_row, 1));
    }
    case SEND_HALO: {
      auto pack_rows = [&](u32 first_local_row) {
        Bytes b(static_cast<std::size_t>(kHaloWidth) * n * sizeof(double));
        std::memcpy(b.data(),
                    interior + static_cast<std::size_t>(first_local_row) * n,
                    b.size());
        return b;
      };
      if (has_up) comm_.post_send(sys, up, kTagHaloUp, pack_rows(0));
      if (has_down) {
        comm_.post_send(sys, down, kTagHaloDown,
                        pack_rows(local_rows() - kHaloWidth));
      }
      got_up_ = !has_up;
      got_down_ = !has_down;
      pc_ = RECV_HALO;
      return StepResult::yield();
    }
    case RECV_HALO: {
      if (!got_up_) {
        auto m = comm_.try_recv(sys, up, kTagHaloDown);
        if (m) {
          std::memcpy(g, m->data(),
                      std::min<std::size_t>(
                          m->size(),
                          static_cast<std::size_t>(kHaloWidth) * n *
                              sizeof(double)));
          got_up_ = true;
        }
      }
      if (!got_down_) {
        auto m = comm_.try_recv(sys, down, kTagHaloUp);
        if (m) {
          std::memcpy(interior + static_cast<std::size_t>(local_rows()) * n,
                      m->data(),
                      std::min<std::size_t>(
                          m->size(),
                          static_cast<std::size_t>(kHaloWidth) * n *
                              sizeof(double)));
          got_down_ = true;
        }
      }
      if (!got_up_ || !got_down_) {
        if (comm_.failed()) return StepResult::exit(2);
        return wait_comm(comm_);
      }
      pc_ = Y_SWEEP;
      return StepResult::yield();
    }
    case Y_SWEEP: {
      // Block-local implicit solve along y using halo rows as boundary
      // coupling (block-Jacobi ADI).
      u32 len = local_rows();
      // Fold halo boundary values into the first/last RHS entries (up
      // before down, as when len == 1 both land on one entry).
      if (has_up) {
        const double* halo = g + static_cast<std::size_t>(kHaloWidth - 1) * n;
        for (u32 c = 0; c < n; ++c) interior[c] += p_.alpha_dt * halo[c];
      }
      if (has_down && len > 0) {
        double* last = interior + static_cast<std::size_t>(len - 1) * n;
        const double* halo = last + n;
        for (u32 c = 0; c < n; ++c) last[c] += p_.alpha_dt * halo[c];
      }
      thomas_columns(interior, n, cached(y_table_, len, p_.alpha_dt));
      pc_ = NORM;
      return StepResult::yield(
          std::max<sim::Time>(local_rows() * p_.cost_per_row, 1));
    }
    case NORM: {
      // The grid does not change while the allreduce is pending, so the
      // local sums are taken once per step, not once per poll.
      if (local_sums_.empty()) {
        double sum2 = 0, sum_abs = 0, maxv = 0;
        for (u32 r = 0; r < local_rows(); ++r) {
          for (u32 c = 0; c < n; ++c) {
            double v = interior[static_cast<std::size_t>(r) * n + c];
            sum2 += v * v;
            sum_abs += std::abs(v);
            maxv = std::max(maxv, std::abs(v));
          }
        }
        local_sums_ = {sum2, sum_abs, maxv};
      }
      if (!comm_.try_allreduce_sum(sys, local_sums_, &reduced_)) {
        if (comm_.failed()) return StepResult::exit(2);
        return wait_comm(comm_);
      }
      local_sums_.clear();
      norm_ = std::sqrt(reduced_[0]) / (static_cast<double>(n));
      if (step_ == 0) initial_norm_ = norm_;
      ++step_;
      pc_ = step_ >= p_.steps ? static_cast<u32>(FINISH)
                              : static_cast<u32>(X_SWEEP);
      return StepResult::yield();
    }
    case FINISH: {
      if (p_.rank == 0) {
        const BtResult result{norm_, initial_norm_, step_};
        // A result that was not stored is a failed run.
        if (!sys.san().write("results/bt", encode_fields(result)).is_ok()) {
          return StepResult::exit(4);
        }
      }
      // Diffusion must have decayed the mode monotonically toward 0.
      bool ok = std::isfinite(norm_) && norm_ < initial_norm_ && norm_ > 0;
      return StepResult::exit(ok ? 0 : 3);
    }
    default:
      return StepResult::exit(9);
  }
}

}  // namespace zapc::apps

ZAPC_REGISTER_PROGRAM(app_bt, zapc::apps::BtProgram)
