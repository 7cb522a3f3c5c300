#include "apps/ray.h"

#include <cstring>

#include "apps/ray_scene.h"
#include "os/san.h"

namespace zapc::apps {
namespace {

/// Task payload: (y0, y1, width, height).
Bytes pack_task(u32 y0, u32 y1, u32 w, u32 h) {
  Encoder e;
  e.put_u32(y0);
  e.put_u32(y1);
  e.put_u32(w);
  e.put_u32(h);
  return e.take();
}

}  // namespace

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
        pvm_.submit(pvm::Task{id++, pack_task(y, y1, p_.width, p_.height)});
      }
      pc_ = COLLECT;
      return StepResult::yield();
    }
    case COLLECT: {
      pvm_.progress(sys);
      while (auto r = pvm_.pop_result()) {
        Decoder d(r->payload);
        u32 y0 = d.u32_().value_or(0);
        u32 y1 = d.u32_().value_or(0);
        Bytes rgb = d.bytes_().value_or({});
        std::size_t off = static_cast<std::size_t>(y0) * p_.width * 3;
        std::size_t len = std::min<std::size_t>(
            rgb.size(), static_cast<std::size_t>(y1 - y0) * p_.width * 3);
        if (off + len <= fb.size()) {
          std::memcpy(fb.data() + off, rgb.data(), len);
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

void RayMaster::save(Encoder& e) const {
  e.put_u16(p_.port);
  e.put_i32(p_.workers);
  e.put_u32(p_.width);
  e.put_u32(p_.height);
  e.put_u32(p_.band_rows);
  pvm_.save(e);
  e.put_u32(pc_);
  e.put_u32(collected_);
}

void RayMaster::load(Decoder& d) {
  p_.port = d.u16_().value_or(0);
  p_.workers = d.i32_().value_or(0);
  p_.width = d.u32_().value_or(1);
  p_.height = d.u32_().value_or(1);
  p_.band_rows = d.u32_().value_or(1);
  pvm_.load(d);
  pc_ = d.u32_().value_or(0);
  collected_ = d.u32_().value_or(0);
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
      Decoder d(t->payload);
      task_id_ = t->id;
      y0_ = d.u32_().value_or(0);
      y1_ = d.u32_().value_or(0);
      p_.width = d.u32_().value_or(p_.width);
      height_ = d.u32_().value_or(1);
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
      Encoder e;
      e.put_u32(y0_);
      e.put_u32(y1_);
      e.put_bytes(band_);
      pvm_.post_result(sys, pvm::TaskResult{task_id_, e.take()});
      ++tasks_done_;
      band_.clear();
      pc_ = GET_TASK;
      return StepResult::yield();
    }
    default:
      return StepResult::exit(9);
  }
}

void RayWorker::save(Encoder& e) const {
  e.put_u32(p_.master.ip.v);
  e.put_u16(p_.master.port);
  e.put_u32(p_.width);
  e.put_u32(p_.rows_per_step);
  e.put_u64(p_.cost_per_row);
  e.put_u64(p_.scene_bytes);
  pvm_.save(e);
  e.put_u32(pc_);
  e.put_u32(tasks_done_);
  e.put_u32(task_id_);
  e.put_u32(y0_);
  e.put_u32(y1_);
  e.put_u32(height_);
  e.put_u32(next_row_);
  e.put_bytes(band_);
}

void RayWorker::load(Decoder& d) {
  p_.master.ip.v = d.u32_().value_or(0);
  p_.master.port = d.u16_().value_or(0);
  p_.width = d.u32_().value_or(1);
  p_.rows_per_step = d.u32_().value_or(1);
  p_.cost_per_row = d.u64_().value_or(1);
  p_.scene_bytes = d.u64_().value_or(0);
  pvm_.load(d);
  pc_ = d.u32_().value_or(0);
  tasks_done_ = d.u32_().value_or(0);
  task_id_ = d.u32_().value_or(0);
  y0_ = d.u32_().value_or(0);
  y1_ = d.u32_().value_or(0);
  height_ = d.u32_().value_or(0);
  next_row_ = d.u32_().value_or(0);
  band_ = d.bytes_().value_or({});
}

}  // namespace zapc::apps

ZAPC_REGISTER_PROGRAM(app_ray_master, zapc::apps::RayMaster)
ZAPC_REGISTER_PROGRAM(app_ray_worker, zapc::apps::RayWorker)
