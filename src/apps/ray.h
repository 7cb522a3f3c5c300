// POV-Ray analogue: master/worker distributed ray tracer over mini-PVM
// (paper §6 workload 4).
//
// The master builds a list of scanline-band tasks, farms them to the
// workers on demand, assembles the framebuffer, verifies coverage and
// writes the image to shared storage.  Workers render bands with the
// real ray-tracing kernel in apps/ray_scene.h.
#pragma once

#include "os/program.h"
#include "pvm/pvm.h"

namespace zapc::apps {

/// A task's payload: render rows [y0, y1) of a width×height image.
struct RayTask {
  u32 y0 = 0;
  u32 y1 = 0;
  u32 width = 0;
  u32 height = 0;
};
template <class F>
void io(F& f, RayTask& t) {
  f(t.y0, t.y1, t.width, t.height);
}

/// A result's payload: the rendered rows [y0, y1), RGB.
struct RayBand {
  u32 y0 = 0;
  u32 y1 = 0;
  Bytes rgb;
};
template <class F>
void io(F& f, RayBand& b) {
  f(b.y0, b.y1, b.rgb);
}

class RayMaster final : public os::FieldProgram<RayMaster> {
 public:
  struct Params {
    u16 port = 5600;
    i32 workers = 1;
    u32 width = 640;
    u32 height = 480;
    u32 band_rows = 16;  // rows per task

    template <class F>
    friend void io(F& f, Params& p) {
      f(p.port, p.workers, p.width, p.height, p.band_rows);
    }
  };

  RayMaster() = default;
  explicit RayMaster(Params p) : p_(p), pvm_(p.port, p.workers) {}

  const char* kind() const override { return "apps.ray_master"; }

  os::StepResult step(os::Syscalls& sys) override;

  u32 bands_done() const { return collected_; }
  u32 bands_total() const {
    return (p_.height + p_.band_rows - 1) / p_.band_rows;
  }

  /// Poison task id telling workers to exit.
  static constexpr u32 kPoisonTask = 0xFFFFFFFF;

 private:
  enum Pc : u32 { INIT = 0, SUBMIT, COLLECT, SHUTDOWN, FINISH };

  template <class F>
  friend void io(F& f, RayMaster& m) {
    f(m.p_, m.pvm_, m.pc_, m.collected_);
  }

  Params p_;
  pvm::PvmMaster pvm_;
  u32 pc_ = INIT;
  u32 collected_ = 0;
};

class RayWorker final : public os::FieldProgram<RayWorker> {
 public:
  struct Params {
    net::SockAddr master;
    u32 width = 640;
    u32 rows_per_step = 4;        // rendered rows per scheduler step
    sim::Time cost_per_row = 600;  // modeled CPU time per row (us)
    u64 scene_bytes = 9 << 20;    // POV-Ray's roughly constant footprint

    template <class F>
    friend void io(F& f, Params& p) {
      f(p.master, p.width, p.rows_per_step, p.cost_per_row, p.scene_bytes);
    }
  };

  RayWorker() = default;
  explicit RayWorker(Params p) : p_(p), pvm_(p.master) {}

  const char* kind() const override { return "apps.ray_worker"; }

  os::StepResult step(os::Syscalls& sys) override;

  u32 tasks_done() const { return tasks_done_; }

 private:
  enum Pc : u32 { INIT = 0, GET_TASK, RENDER, POST };

  template <class F>
  friend void io(F& f, RayWorker& w) {
    f(w.p_, w.pvm_, w.pc_, w.tasks_done_, w.task_id_, w.y0_, w.y1_,
      w.height_, w.next_row_, w.band_);
  }

  Params p_;
  pvm::PvmWorker pvm_;
  u32 pc_ = INIT;
  u32 tasks_done_ = 0;
  // Current task.
  u32 task_id_ = 0;
  u32 y0_ = 0, y1_ = 0, height_ = 0;
  u32 next_row_ = 0;
  Bytes band_;
};

}  // namespace zapc::apps
