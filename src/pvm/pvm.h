// Mini-PVM: master/worker task-farm middleware (the PVM analogue used by
// the POV-Ray-style workload, paper §6).
//
// A master daemon hands out opaque tasks to workers on demand and
// collects results; workers pull one task at a time.  Like the mini-MPI,
// everything is guest user-space state over plain sockets and fully
// serializable, so ZapC checkpoints the task farm transparently.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "mpi/msgio.h"
#include "net/addr.h"
#include "os/program.h"

namespace zapc::pvm {

/// A unit of work, as the master sends it (and keeps it in its backlog).
struct Task {
  u32 id = 0;
  Bytes payload;
};
template <class F>
void io(F& f, Task& t) {
  f(t.id, t.payload);
}

/// A worker's answer to task `id`.
struct TaskResult {
  u32 id = 0;
  Bytes payload;
};
template <class F>
void io(F& f, TaskResult& r) {
  f(r.id, r.payload);
}

class PvmMaster {
 public:
  PvmMaster() = default;
  PvmMaster(u16 port, i32 expected_workers)
      : port_(port), expected_(expected_workers) {}

  /// Accepts worker connections; true once all expected workers joined.
  bool try_init(os::Syscalls& sys);
  i32 workers_joined() const;

  /// Enqueues a task for any idle worker.
  void submit(Task task) { backlog_.push_back(std::move(task)); }

  /// Pumps connections: assigns backlog tasks to idle workers, collects
  /// results.
  void progress(os::Syscalls& sys);

  /// Next completed result, if any.
  std::optional<TaskResult> pop_result();

  /// True when no submitted task is still queued or running.
  bool drained() const { return backlog_.empty() && outstanding_ == 0; }

  std::vector<int> wait_fds() const;
  bool failed() const;

 private:
  struct Slot {
    mpi::MsgIo io;
    bool busy = false;
    u32 task_id = 0;

    template <class F>
    friend void io(F& f, Slot& s) {
      f(s.io, s.busy, s.task_id);
    }
  };
  template <class F>
  friend void io(F& f, PvmMaster& m) {
    f(m.port_, m.expected_, m.listen_fd_, m.listener_ready_, m.workers_,
      m.backlog_, m.results_, m.outstanding_);
  }

  u16 port_ = 0;
  i32 expected_ = 0;
  int listen_fd_ = -1;
  bool listener_ready_ = false;
  std::vector<Slot> workers_;
  std::deque<Task> backlog_;
  std::deque<TaskResult> results_;
  u32 outstanding_ = 0;
};

class PvmWorker {
 public:
  PvmWorker() = default;
  explicit PvmWorker(net::SockAddr master) : master_(master) {}

  /// Connects to the master (retrying refusals); true once joined.
  bool try_init(os::Syscalls& sys);

  /// Pulls the next task assigned to this worker, if any.
  std::optional<Task> try_get_task(os::Syscalls& sys);

  /// Sends a result back to the master.
  void post_result(os::Syscalls& sys, const TaskResult& r);

  /// True when the master closed the connection (job finished).
  bool master_gone() const { return io_.failed(); }

  std::vector<int> wait_fds() const {
    return io_.fd() >= 0 ? std::vector<int>{io_.fd()} : std::vector<int>{};
  }

 private:
  template <class F>
  friend void io(F& f, PvmWorker& w) {
    f(w.master_, w.io_, w.connected_);
  }

  net::SockAddr master_;
  mpi::MsgIo io_;
  bool connected_ = false;
};

}  // namespace zapc::pvm
