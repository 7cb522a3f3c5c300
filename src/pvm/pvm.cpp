#include "pvm/pvm.h"

namespace zapc::pvm {
namespace {

enum : u32 {
  kTagHello = 0x20000001,
  kTagTask = 0x20000002,
  kTagResult = 0x20000003,
};

}  // namespace

// ---- Master ---------------------------------------------------------------------

bool PvmMaster::try_init(os::Syscalls& sys) {
  if (!listener_ready_) {
    if (listen_fd_ < 0) {
      auto fd = sys.socket(net::Proto::TCP);
      if (!fd) return false;
      listen_fd_ = fd.value();
      (void)sys.setsockopt(listen_fd_, net::SockOpt::SO_REUSEADDR, 1);
    }
    if (!sys.bind(listen_fd_, net::SockAddr{net::kAnyAddr, port_})) {
      return false;
    }
    if (!sys.listen(listen_fd_, expected_ + 4)) return false;
    listener_ready_ = true;
  }
  while (static_cast<i32>(workers_.size()) < expected_) {
    auto child = sys.accept(listen_fd_, nullptr);
    if (!child) break;
    Slot s;
    s.io = mpi::MsgIo(child.value());
    workers_.push_back(std::move(s));
  }
  progress(sys);
  return static_cast<i32>(workers_.size()) >= expected_;
}

i32 PvmMaster::workers_joined() const {
  return static_cast<i32>(workers_.size());
}

void PvmMaster::progress(os::Syscalls& sys) {
  for (Slot& s : workers_) {
    if (s.io.fd() < 0) continue;
    (void)s.io.progress(sys);

    // Collect results.
    while (auto m = s.io.pop_tag(kTagResult)) {
      TaskResult r;
      if (!decode_fields(m->data, r)) {
        s.io.fail();
        break;
      }
      results_.push_back(std::move(r));
      if (s.busy && s.task_id == results_.back().id) {
        s.busy = false;
        if (outstanding_ > 0) --outstanding_;
      }
    }

    // Assign work to idle workers.
    if (!s.busy && !backlog_.empty() && !s.io.failed()) {
      Task t = std::move(backlog_.front());
      backlog_.pop_front();
      s.io.send(kTagTask, encode_fields(t));
      (void)s.io.progress(sys);
      s.busy = true;
      s.task_id = t.id;
      ++outstanding_;
    }
  }
}

std::optional<TaskResult> PvmMaster::pop_result() {
  if (results_.empty()) return std::nullopt;
  TaskResult r = std::move(results_.front());
  results_.pop_front();
  return r;
}

std::vector<int> PvmMaster::wait_fds() const {
  std::vector<int> fds;
  if (listen_fd_ >= 0) fds.push_back(listen_fd_);
  for (const Slot& s : workers_) {
    if (s.io.fd() >= 0) fds.push_back(s.io.fd());
  }
  return fds;
}

bool PvmMaster::failed() const {
  for (const Slot& s : workers_) {
    if (s.io.failed()) return true;
  }
  return false;
}

// ---- Worker ---------------------------------------------------------------------

bool PvmWorker::try_init(os::Syscalls& sys) {
  if (connected_) return true;
  if (io_.fd() < 0 || io_.failed()) {
    if (io_.fd() >= 0) (void)sys.close(io_.fd());
    auto fd = sys.socket(net::Proto::TCP);
    if (!fd) return false;
    Status st = sys.connect(fd.value(), master_);
    if (!st.is_ok() && st.err() != Err::IN_PROGRESS) return false;
    io_ = mpi::MsgIo(fd.value());
    io_.send(kTagHello, {});
  }
  (void)io_.progress(sys);
  if (io_.flushed() && !io_.failed()) connected_ = true;
  return connected_;
}

std::optional<Task> PvmWorker::try_get_task(os::Syscalls& sys) {
  (void)io_.progress(sys);
  auto m = io_.pop_tag(kTagTask);
  if (!m) return std::nullopt;
  Task t;
  if (!decode_fields(m->data, t)) {
    io_.fail();
    return std::nullopt;
  }
  return t;
}

void PvmWorker::post_result(os::Syscalls& sys, const TaskResult& r) {
  io_.send(kTagResult, encode_fields(r));
  (void)io_.progress(sys);
}

}  // namespace zapc::pvm
