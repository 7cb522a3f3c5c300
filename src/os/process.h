// Virtual process: a Program plus the kernel-side state the checkpointer
// saves — fd table, memory regions, application timers, signal state.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/socket.h"
#include "os/program.h"
#include "util/region_buf.h"

namespace zapc::os {

/// Process lifecycle states.  STOPPED corresponds to SIGSTOP (paper §4:
/// "each Agent first suspends its respective pod by sending a SIGSTOP
/// signal to all the processes in the pod").
enum class ProcState : u8 {
  READY,    // runnable, queued on a CPU
  ONCPU,    // currently consuming its step's virtual CPU time
  BLOCKED,  // waiting per WaitSpec
  STOPPED,  // SIGSTOP'd; invisible to the scheduler
  EXITED,   // finished; exit_code valid
};

const char* proc_state_name(ProcState s);

class Process {
 public:
  Process(i32 vpid, std::unique_ptr<Program> program)
      : vpid_(vpid), program_(std::move(program)) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  i32 vpid() const { return vpid_; }
  Program& program() { return *program_; }
  const Program& program() const { return *program_; }
  void replace_program(std::unique_ptr<Program> p) {
    program_ = std::move(p);
  }

  ProcState state() const { return state_; }
  void set_state(ProcState s) { state_ = s; }
  /// State the process had when SIGSTOP arrived; restored by SIGCONT.
  ProcState resume_state() const { return resume_state_; }
  void set_resume_state(ProcState s) { resume_state_ = s; }

  i32 exit_code() const { return exit_code_; }
  void set_exit_code(i32 c) { exit_code_ = c; }

  const WaitSpec& wait() const { return wait_; }
  void set_wait(WaitSpec w) { wait_ = std::move(w); }
  void clear_wait() { wait_ = {}; }

  /// Wakeup that arrived while the process was ONCPU; consumed when the
  /// step finishes so the wakeup is not lost if the step ends in BLOCK.
  void set_pending_wake() { pending_wake_ = true; }
  bool take_pending_wake() {
    bool w = pending_wake_;
    pending_wake_ = false;
    return w;
  }

  // ---- File descriptors ---------------------------------------------------
  int fd_install(net::SockId sock) {
    int fd = next_fd_++;
    fds_[fd] = sock;
    return fd;
  }
  /// Installs at a specific fd number (restart path).
  void fd_install_at(int fd, net::SockId sock) {
    fds_[fd] = sock;
    if (fd >= next_fd_) next_fd_ = fd + 1;
  }
  Result<net::SockId> fd_lookup(int fd) const {
    auto it = fds_.find(fd);
    if (it == fds_.end()) return Status(Err::BAD_FD);
    return it->second;
  }
  void fd_remove(int fd) { fds_.erase(fd); }
  const std::map<int, net::SockId>& fd_table() const { return fds_; }
  int next_fd() const { return next_fd_; }
  void set_next_fd(int fd) { next_fd_ = fd; }

  // ---- Memory regions -------------------------------------------------------
  // Each region carries a generation counter bumped on every mutable
  // access.  A real kernel would track dirty pages via write protection;
  // here region() handing out a writable buffer is the moral equivalent
  // of a write fault, so any touched region is conservatively dirty.
  // Incremental checkpoints diff these generations against the ones
  // recorded in the base image to decide which regions to re-emit.
  // The write fault is also where copy-on-write happens: a region whose
  // bytes a checkpoint capture (or another region) still shares is
  // cloned here, before the caller can write (DESIGN.md §14).
  Bytes& region(const std::string& name, std::size_t size) {
    Bytes& r = regions_[name].mut();
    if (r.size() < size) r.resize(size);
    note_touch(name);
    return r;
  }
  /// region() without the write fault, the anonymous-mmap analogue: an
  /// absent region (or a zero view smaller than `size`) becomes a zero
  /// view that holds no memory, and a region's existing bytes are neither
  /// cloned nor materialised.  It counts as a touch exactly as region()
  /// does, so dirty tracking, working-set ranking and the lazy restore
  /// hook see the same access.
  void reserve_region(const std::string& name, std::size_t size) {
    RegionBuf& r = regions_[name];
    if (r.size() < size) {
      if (r.empty() || r.is_zeros()) {
        r = RegionBuf::zeros(size);
      } else {
        r.mut().resize(size);
      }
    }
    note_touch(name);
  }
  const std::map<std::string, RegionBuf>& regions() const { return regions_; }
  std::map<std::string, RegionBuf>& regions_mut() { return regions_; }
  const std::map<std::string, u64>& region_gens() const {
    return region_gens_;
  }
  u64 region_gen_counter() const { return region_gen_counter_; }
  /// Restart path: reinstates the generation state saved in an image so
  /// that a delta taken after restart diffs against the right baseline.
  void set_region_gens(std::map<std::string, u64> gens, u64 counter) {
    region_gens_ = std::move(gens);
    region_gen_counter_ = counter;
  }
  /// Cumulative region() accesses per region — the working-set signal the
  /// lazy restore ranks hot regions by (persisted into the manifest).
  const std::map<std::string, u64>& region_touches() const {
    return region_touches_;
  }
  /// Restart path: reinstates the touch counters saved in an image so
  /// working-set ranking survives migration.
  void set_region_touches(std::map<std::string, u64> touches) {
    region_touches_ = std::move(touches);
  }
  /// Lazy demand-paging hook (DESIGN.md §13): invoked on every region()
  /// access so the pod can detect a touch of a not-yet-restored region.
  void set_touch_hook(std::function<void(const std::string&)> hook) {
    touch_hook_ = std::move(hook);
  }
  std::size_t memory_bytes() const {
    std::size_t n = 0;
    for (const auto& [name, r] : regions_) n += r.size();
    return n;
  }

  // ---- Application timers (absolute virtual expiry) --------------------------
  std::map<u32, sim::Time>& timers() { return timers_; }
  const std::map<u32, sim::Time>& timers() const { return timers_; }

 private:
  i32 vpid_;
  std::unique_ptr<Program> program_;
  ProcState state_ = ProcState::READY;
  ProcState resume_state_ = ProcState::READY;
  i32 exit_code_ = 0;
  bool pending_wake_ = false;
  WaitSpec wait_;

  std::map<int, net::SockId> fds_;
  int next_fd_ = 3;
  std::map<std::string, RegionBuf> regions_;
  std::map<std::string, u64> region_gens_;
  std::map<std::string, u64> region_touches_;
  u64 region_gen_counter_ = 0;
  std::function<void(const std::string&)> touch_hook_;
  std::map<u32, sim::Time> timers_;

  void note_touch(const std::string& name) {
    region_gens_[name] = ++region_gen_counter_;
    ++region_touches_[name];
    if (touch_hook_) touch_hook_(name);
  }
};

}  // namespace zapc::os
