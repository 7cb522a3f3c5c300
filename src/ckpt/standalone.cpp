#include "ckpt/standalone.h"

#include "obs/metrics.h"
#include "util/log.h"

namespace zapc::ckpt {

DeltaBaseline DeltaBaseline::from_images(
    const std::vector<ProcessImage>& images) {
  DeltaBaseline b;
  for (const auto& img : images) {
    auto& per_proc = b.gens[img.vpid];
    for (const auto& [name, meta] : img.manifest) {
      per_proc[name] = meta.gen;
    }
  }
  return b;
}

PodImageHeader Standalone::save_header(const pod::Pod& pod) {
  PodImageHeader h;
  h.pod_name = pod.name();
  h.vip = pod.vip();
  h.next_vpid = pod.next_vpid();
  h.time_virt = pod.time_virtualization();
  h.ckpt_virtual_time = pod.virtual_now();
  h.time_delta = pod.time_delta();
  return h;
}

ProcessImage Standalone::save_process(const pod::Pod& pod,
                                      const os::Process& proc,
                                      const DeltaBaseline* baseline) {
  ProcessImage img;
  img.vpid = proc.vpid();
  img.kind = proc.program().kind();
  img.exited = proc.state() == os::ProcState::EXITED;
  img.exit_code = proc.exit_code();
  img.next_fd = proc.next_fd();
  img.program_state = proc.program().save();

  img.fds = proc.fd_table();

  // The manifest lists every live region with its current generation;
  // region *bytes* are included either in full or — in delta mode — only
  // for regions the baseline has not seen at this generation.
  img.region_gen_counter = proc.region_gen_counter();
  const auto& gens = proc.region_gens();
  const std::map<std::string, u64>* base_gens = nullptr;
  if (baseline != nullptr) {
    auto it = baseline->gens.find(proc.vpid());
    if (it != baseline->gens.end()) base_gens = &it->second;
  }
  u64 total = 0, dirty = 0;
  u64 logical_bytes = 0, included_bytes = 0;
  const auto& touch_counts = proc.region_touches();
  for (const auto& [name, bytes] : proc.regions()) {
    auto git = gens.find(name);
    u64 gen = git == gens.end() ? 0 : git->second;
    auto tit = touch_counts.find(name);
    u64 touches = tit == touch_counts.end() ? 0 : tit->second;
    img.manifest[name] = RegionMeta{gen, bytes.size(), touches};
    ++total;
    logical_bytes += bytes.size();
    bool include = true;
    if (baseline != nullptr) {
      // Dirty iff the baseline never saw this region, or its generation
      // moved since.  A region absent from both gens maps (never touched
      // via region()) is clean once the baseline recorded it.
      if (base_gens != nullptr) {
        auto bit = base_gens->find(name);
        include = bit == base_gens->end() || bit->second != gen;
      }
    }
    if (include) {
      img.regions[name] = bytes;  // shared: the pod clones on its next write
      ++dirty;
      included_bytes += bytes.size();
    }
  }
  if (baseline != nullptr) {
    obs::metrics().counter("ckpt.incr.regions_total").inc(total);
    obs::metrics().counter("ckpt.incr.regions_dirty").inc(dirty);
    obs::metrics().counter("ckpt.incr.logical_bytes").inc(logical_bytes);
    obs::metrics().counter("ckpt.incr.written_bytes").inc(included_bytes);
  }

  // Timers are stored in engine time; persist the *remaining* time so the
  // restart re-arms them relative to its own clock (paper §5).
  i64 now = static_cast<i64>(pod.engine_now());
  for (const auto& [id, expiry] : proc.timers()) {
    img.timer_remaining[id] = static_cast<i64>(expiry) - now;
  }
  return img;
}

std::vector<ProcessImage> Standalone::save_processes(
    pod::Pod& pod, const DeltaBaseline* baseline) {
  std::vector<ProcessImage> out;
  for (os::Process* p : pod.processes()) {
    out.push_back(save_process(pod, *p, baseline));
  }
  return out;
}

void Standalone::restore_header(pod::Pod& pod, const PodImageHeader& header) {
  pod.set_next_vpid(header.next_vpid);
  pod.set_time_virtualization(header.time_virt);
  if (header.time_virt) {
    // Bias the pod clock so time appears continuous across the gap
    // between checkpoint and restart.
    i64 now = static_cast<i64>(pod.engine_now());
    i64 target = static_cast<i64>(header.ckpt_virtual_time);
    pod.add_time_delta(target - now - pod.time_delta());
  }
}

Status Standalone::restore_process(pod::Pod& pod, ProcessImage& image,
                                   const SockMap& socks) {
  auto prog = os::ProgramRegistry::instance().create(image.kind);
  if (!prog) return prog.status();
  if (Status s = prog.value()->load(image.program_state); !s) {
    return Status(s.err(), "program state of vpid " +
                               std::to_string(image.vpid) + " (" +
                               image.kind + "): " + s.message());
  }

  os::Process& proc = pod.spawn_stopped(image.vpid, std::move(prog).value());
  proc.set_next_fd(image.next_fd);
  if (image.exited) {
    proc.set_state(os::ProcState::EXITED);
    proc.set_exit_code(image.exit_code);
  }

  for (const auto& [fd, old_sid] : image.fds) {
    auto it = socks.find(old_sid);
    if (it == socks.end()) {
      return Status(Err::NO_ENT,
                    "no restored socket for old id " +
                        std::to_string(old_sid));
    }
    proc.fd_install_at(fd, it->second);
  }
  proc.set_next_fd(image.next_fd);

  proc.regions_mut() = std::move(image.regions);
  image.regions.clear();
  // Reinstate the dirty-tracking clock so a delta taken after restart
  // diffs against the same generations the image recorded.
  {
    std::map<std::string, u64> gens;
    std::map<std::string, u64> touches;
    for (const auto& [name, meta] : image.manifest) {
      gens[name] = meta.gen;
      if (meta.touches != 0) touches[name] = meta.touches;
    }
    proc.set_region_gens(std::move(gens), image.region_gen_counter);
    proc.set_region_touches(std::move(touches));
  }

  sim::Time now = pod.engine_now();
  for (const auto& [id, remaining] : image.timer_remaining) {
    i64 expiry = static_cast<i64>(now) + remaining;
    proc.timers()[id] = expiry < 0 ? 0 : static_cast<sim::Time>(expiry);
  }
  return Status::ok();
}

Status Standalone::restore_processes(pod::Pod& pod,
                                     std::vector<ProcessImage>& images,
                                     const SockMap& socks) {
  for (auto& img : images) {
    Status st = restore_process(pod, img, socks);
    if (!st) {
      ZLOG_ERROR("restore of vpid " << img.vpid << " failed: "
                                    << st.to_string());
      return st;
    }
  }
  return Status::ok();
}

}  // namespace zapc::ckpt
