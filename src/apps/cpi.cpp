#include "apps/cpi.h"

#include <cmath>

#include "os/san.h"

namespace zapc::apps {

os::StepResult CpiProgram::step(os::Syscalls& sys) {
  using os::StepResult;
  switch (pc_) {
    case INIT: {
      sys.reserve_region("workspace", p_.workspace_bytes);
      if (!comm_.try_init(sys)) return wait_comm(comm_);
      pc_ = COMPUTE;
      return StepResult::yield();
    }
    case COMPUTE: {
      // Integrate a chunk of intervals: x_i = (i + 0.5)/N, strided by
      // rank so the work divides evenly.
      const double h = 1.0 / static_cast<double>(p_.intervals);
      u64 done = 0;
      while (next_i_ < p_.intervals && done < p_.intervals_per_step) {
        double x = (static_cast<double>(next_i_) + 0.5) * h;
        local_sum_ += 4.0 / (1.0 + x * x);
        next_i_ += static_cast<u64>(p_.size);
        ++done;
      }
      if (next_i_ < p_.intervals) {
        return StepResult::yield(p_.cost_per_step);
      }
      pc_ = REDUCE;
      return StepResult::yield(p_.cost_per_step);
    }
    case REDUCE: {
      const double h = 1.0 / static_cast<double>(p_.intervals);
      if (!comm_.try_allreduce_sum(sys, {local_sum_ * h}, &reduced_)) {
        if (comm_.failed()) return StepResult::exit(2);
        return wait_comm(comm_);
      }
      last_pi_ = reduced_[0];
      pc_ = DONE_ROUND;
      return StepResult::yield();
    }
    case DONE_ROUND: {
      ++round_;
      if (round_ < p_.rounds) {
        next_i_ = static_cast<u64>(p_.rank);
        local_sum_ = 0;
        pc_ = COMPUTE;
        return StepResult::yield();
      }
      pc_ = FINISH;
      return StepResult::yield();
    }
    case FINISH: {
      if (p_.rank == 0) {
        // Verifiable output: |pi - PI| should be tiny.
        const CpiResult result{last_pi_};
        // A result that was not stored is a failed run.
        if (!sys.san().write("results/cpi", encode_fields(result)).is_ok()) {
          return StepResult::exit(4);
        }
      }
      return StepResult::exit(std::abs(last_pi_ - M_PI) < 1e-6 ? 0 : 3);
    }
    default:
      return StepResult::exit(9);
  }
}

}  // namespace zapc::apps

ZAPC_REGISTER_PROGRAM(app_cpi, zapc::apps::CpiProgram)
