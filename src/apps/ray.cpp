#include "apps/ray.h"

#include <cstring>

#include "apps/ray_scene.h"
#include "os/san.h"

namespace zapc::apps {

// ---- Master ---------------------------------------------------------------------

os::StepResult RayMaster::step(os::Syscalls& sys) {
  using os::StepResult;
  Bytes& fb = sys.region(
      "framebuffer", static_cast<std::size_t>(p_.width) * p_.height * 3);

  switch (pc_) {
    case INIT: {
      if (!pvm_.try_init(sys)) {
        os::WaitSpec w;
        w.fds = pvm_.wait_fds();
        w.sleep_for = 50 * sim::kMillisecond;
        return StepResult::block(std::move(w));
      }
      pc_ = SUBMIT;
      return StepResult::yield();
    }
    case SUBMIT: {
      u32 id = 0;
      for (u32 y = 0; y < p_.height; y += p_.band_rows) {
        u32 y1 = std::min(y + p_.band_rows, p_.height);
        pvm_.submit(pvm::Task{
            id++, encode_fields(RayTask{y, y1, p_.width, p_.height})});
      }
      pc_ = COLLECT;
      return StepResult::yield();
    }
    case COLLECT: {
      pvm_.progress(sys);
      while (auto r = pvm_.pop_result()) {
        RayBand band;
        if (!decode_fields(r->payload, band)) return StepResult::exit(2);
        std::size_t off = static_cast<std::size_t>(band.y0) * p_.width * 3;
        std::size_t len = std::min<std::size_t>(
            band.rgb.size(),
            static_cast<std::size_t>(band.y1 - band.y0) * p_.width * 3);
        if (off + len <= fb.size()) {
          std::memcpy(fb.data() + off, band.rgb.data(), len);
        }
        ++collected_;
      }
      if (pvm_.failed()) return StepResult::exit(2);
      if (collected_ < bands_total()) {
        os::WaitSpec w;
        w.fds = pvm_.wait_fds();
        w.sleep_for = 50 * sim::kMillisecond;
        return StepResult::block(std::move(w));
      }
      pc_ = SHUTDOWN;
      return StepResult::yield();
    }
    case SHUTDOWN: {
      // Poison every worker so they exit cleanly.
      for (i32 i = 0; i < p_.workers; ++i) {
        pvm_.submit(pvm::Task{kPoisonTask, {}});
      }
      pvm_.progress(sys);
      pc_ = FINISH;
      // Give the poison tasks a moment to drain before we exit (closing
      // our sockets also works — workers treat EOF as shutdown).
      return StepResult::block(os::WaitSpec::sleep(sim::kMillisecond));
    }
    case FINISH: {
      pvm_.progress(sys);
      // A result that was not stored is a failed run.
      if (!sys.san().write("results/ray.ppm", fb).is_ok()) {
        return StepResult::exit(4);
      }
      // Verify: the image must not be empty (sky alone is non-black) and
      // every band must have been written.
      u64 lit = 0;
      for (std::size_t i = 0; i < fb.size(); ++i) {
        if (fb[i] > 16) ++lit;
      }
      bool ok = lit > fb.size() / 4;
      return StepResult::exit(ok ? 0 : 3);
    }
    default:
      return StepResult::exit(9);
  }
}

// ---- Worker ---------------------------------------------------------------------

os::StepResult RayWorker::step(os::Syscalls& sys) {
  using os::StepResult;
  sys.reserve_region("scene", p_.scene_bytes);

  switch (pc_) {
    case INIT: {
      if (!pvm_.try_init(sys)) {
        os::WaitSpec w;
        w.fds = pvm_.wait_fds();
        w.sleep_for = 50 * sim::kMillisecond;
        return StepResult::block(std::move(w));
      }
      pc_ = GET_TASK;
      return StepResult::yield();
    }
    case GET_TASK: {
      if (pvm_.master_gone()) return StepResult::exit(0);
      auto t = pvm_.try_get_task(sys);
      if (!t) {
        os::WaitSpec w;
        w.fds = pvm_.wait_fds();
        w.sleep_for = 50 * sim::kMillisecond;
        return StepResult::block(std::move(w));
      }
      if (t->id == RayMaster::kPoisonTask) return StepResult::exit(0);
      RayTask task;
      if (!decode_fields(t->payload, task)) return StepResult::exit(2);
      task_id_ = t->id;
      y0_ = task.y0;
      y1_ = task.y1;
      p_.width = task.width;
      height_ = task.height;
      next_row_ = y0_;
      band_.assign(static_cast<std::size_t>(y1_ - y0_) * p_.width * 3, 0);
      pc_ = RENDER;
      return StepResult::yield();
    }
    case RENDER: {
      // Render a few rows per step so checkpoints can land mid-task.
      u32 until = std::min(next_row_ + p_.rows_per_step, y1_);
      std::size_t off =
          static_cast<std::size_t>(next_row_ - y0_) * p_.width * 3;
      ray::render_band(p_.width, height_, next_row_, until,
                       band_.data() + off);
      u32 rows = until - next_row_;
      next_row_ = until;
      if (next_row_ < y1_) {
        return StepResult::yield(rows * p_.cost_per_row);
      }
      pc_ = POST;
      return StepResult::yield(rows * p_.cost_per_row);
    }
    case POST: {
      RayBand band{y0_, y1_, std::move(band_)};
      pvm_.post_result(sys, pvm::TaskResult{task_id_, encode_fields(band)});
      ++tasks_done_;
      band_.clear();
      pc_ = GET_TASK;
      return StepResult::yield();
    }
    default:
      return StepResult::exit(9);
  }
}

}  // namespace zapc::apps

ZAPC_REGISTER_PROGRAM(app_ray_master, zapc::apps::RayMaster)
ZAPC_REGISTER_PROGRAM(app_ray_worker, zapc::apps::RayWorker)
