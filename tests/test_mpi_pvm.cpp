// Mini-MPI and mini-PVM middleware tests: mesh setup, point-to-point,
// collectives, task farm, and serialization.
#include <gtest/gtest.h>

#include "apps/mpi_app.h"
#include "mpi/comm.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "pvm/pvm.h"

namespace zapc::mpi {
namespace {

/// Generic guest program driving a scripted MPI scenario; the script is a
/// function advanced by the step loop until it reports completion.
class MpiScriptProgram final : public os::FieldProgram<MpiScriptProgram> {
 public:
  // Returns true when finished; *code is the exit code.
  using Script =
      std::function<bool(os::Syscalls&, MpiComm&, u32* phase, i32* code)>;

  MpiScriptProgram() = default;
  MpiScriptProgram(MpiConfig cfg, Script script)
      : comm_(std::move(cfg)), script_(std::move(script)) {}

  const char* kind() const override { return "test.mpi_script"; }

  os::StepResult step(os::Syscalls& sys) override {
    if (!comm_.initialized()) {
      if (!comm_.try_init(sys)) return apps::wait_comm(comm_);
      return os::StepResult::yield();
    }
    i32 code = 0;
    if (script_(sys, comm_, &phase_, &code)) {
      return os::StepResult::exit(code);
    }
    if (comm_.failed()) return os::StepResult::exit(90);
    return apps::wait_comm(comm_);
  }

  MpiComm& comm() { return comm_; }

 private:
  // Not checkpointable (scripts are test lambdas); tests that checkpoint
  // use the real apps instead.
  template <class F>
  friend void io(F&, MpiScriptProgram&) {}

  MpiComm comm_;
  Script script_;
  u32 phase_ = 0;
};

struct MpiWorld {
  os::Cluster cl;
  std::vector<std::unique_ptr<pod::Pod>> pods;
  std::vector<i32> vpids;

  explicit MpiWorld(i32 n) {
    for (i32 i = 0; i < n; ++i) {
      os::Node& node = cl.add_node("n" + std::to_string(i));
      pods.push_back(std::make_unique<pod::Pod>(
          node, apps::job_vips(n)[static_cast<std::size_t>(i)],
          "pod" + std::to_string(i)));
    }
  }

  void spawn_script(i32 rank, i32 size, MpiScriptProgram::Script s) {
    vpids.push_back(pods[static_cast<std::size_t>(rank)]->spawn(
        std::make_unique<MpiScriptProgram>(apps::job_config(rank, size),
                                           std::move(s))));
  }

  /// Runs until all scripts exit; returns worst exit code (-1 = timeout).
  i32 run(sim::Time budget = 60 * sim::kSecond) {
    for (sim::Time t = 0; t < budget; t += 10 * sim::kMillisecond) {
      cl.run_for(10 * sim::kMillisecond);
      bool all = true;
      i32 worst = 0;
      for (std::size_t i = 0; i < pods.size(); ++i) {
        os::Process* p = pods[i]->find_process(vpids[i]);
        if (p == nullptr || p->state() != os::ProcState::EXITED) {
          all = false;
          break;
        }
        worst = std::max(worst, p->exit_code());
      }
      if (all) return worst;
    }
    return -1;
  }
};

TEST(Mpi, MeshInitCompletes) {
  MpiWorld w(4);
  for (i32 r = 0; r < 4; ++r) {
    w.spawn_script(r, 4, [](os::Syscalls&, MpiComm&, u32*, i32*) {
      return true;  // exit right after init
    });
  }
  EXPECT_EQ(w.run(), 0);
}

TEST(Mpi, PointToPointRoundTrip) {
  MpiWorld w(2);
  w.spawn_script(0, 2, [](os::Syscalls& sys, MpiComm& c, u32* ph, i32* code) {
    if (*ph == 0) {
      c.post_send(sys, 1, 7, to_bytes("ping"));
      *ph = 1;
    }
    auto m = c.try_recv(sys, 1, 8);
    if (!m) return false;
    *code = (to_string(*m) == "pong") ? 0 : 1;
    return true;
  });
  w.spawn_script(1, 2, [](os::Syscalls& sys, MpiComm& c, u32* ph, i32* code) {
    auto m = c.try_recv(sys, 0, 7);
    if (!m) return false;
    *code = (to_string(*m) == "ping") ? 0 : 1;
    c.post_send(sys, 0, 8, to_bytes("pong"));
    (void)ph;
    return true;
  });
  EXPECT_EQ(w.run(), 0);
}

TEST(Mpi, TagsDoNotCrossTalk) {
  MpiWorld w(2);
  w.spawn_script(0, 2, [](os::Syscalls& sys, MpiComm& c, u32* ph, i32*) {
    if (*ph == 0) {
      c.post_send(sys, 1, 5, to_bytes("five"));
      c.post_send(sys, 1, 6, to_bytes("six"));
      *ph = 1;
    }
    return true;
  });
  w.spawn_script(1, 2, [](os::Syscalls& sys, MpiComm& c, u32*, i32* code) {
    // Receive tag 6 first even though tag 5 was sent first.
    auto m6 = c.try_recv(sys, 0, 6);
    if (!m6) return false;
    auto m5 = c.try_recv(sys, 0, 5);
    if (!m5) return false;
    *code = (to_string(*m6) == "six" && to_string(*m5) == "five") ? 0 : 1;
    return true;
  });
  EXPECT_EQ(w.run(), 0);
}

TEST(Mpi, BarrierSynchronizesAllRanks) {
  MpiWorld w(4);
  for (i32 r = 0; r < 4; ++r) {
    w.spawn_script(r, 4, [](os::Syscalls& sys, MpiComm& c, u32* ph, i32*) {
      // Three consecutive barriers.
      while (*ph < 3) {
        if (!c.try_barrier(sys)) return false;
        ++*ph;
      }
      return true;
    });
  }
  EXPECT_EQ(w.run(), 0);
}

TEST(Mpi, AllreduceSumsContributions) {
  MpiWorld w(4);
  for (i32 r = 0; r < 4; ++r) {
    w.spawn_script(r, 4,
                   [r](os::Syscalls& sys, MpiComm& c, u32*, i32* code) {
                     std::vector<double> out;
                     if (!c.try_allreduce_sum(sys, {double(r + 1), 10.0},
                                              &out)) {
                       return false;
                     }
                     // 1+2+3+4 = 10; 10*4 = 40.
                     *code = (out.size() == 2 && out[0] == 10.0 &&
                              out[1] == 40.0)
                                 ? 0
                                 : 1;
                     return true;
                   });
  }
  EXPECT_EQ(w.run(), 0);
}

TEST(Mpi, BcastDeliversToAll) {
  MpiWorld w(3);
  for (i32 r = 0; r < 3; ++r) {
    w.spawn_script(r, 3, [r](os::Syscalls& sys, MpiComm& c, u32*, i32* code) {
      Bytes data = r == 1 ? to_bytes("hello world") : Bytes{};
      if (!c.try_bcast(sys, 1, &data)) return false;
      *code = (to_string(data) == "hello world") ? 0 : 1;
      return true;
    });
  }
  EXPECT_EQ(w.run(), 0);
}

TEST(Mpi, GatherCollectsAtRoot) {
  MpiWorld w(3);
  for (i32 r = 0; r < 3; ++r) {
    w.spawn_script(r, 3,
                   [r](os::Syscalls& sys, MpiComm& c, u32* ph, i32* code) {
      if (*ph == 0) {
        std::vector<Bytes> parts;
        if (!c.try_gather(sys, 0, to_bytes("rank" + std::to_string(r)),
                          &parts)) {
          return false;
        }
        if (r == 0) {
          *code = (parts.size() == 3 && to_string(parts[0]) == "rank0" &&
                   to_string(parts[1]) == "rank1" &&
                   to_string(parts[2]) == "rank2")
                      ? 0
                      : 1;
        }
        *ph = 1;
      }
      // Finalize with a barrier so no rank exits (closing its sockets)
      // while the root is still collecting.
      return c.try_barrier(sys);
    });
  }
  EXPECT_EQ(w.run(), 0);
}

TEST(Mpi, LargeMessagesCross) {
  MpiWorld w(2);
  w.spawn_script(0, 2, [](os::Syscalls& sys, MpiComm& c, u32* ph, i32*) {
    if (*ph == 0) {
      Bytes big(2 << 20);
      for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<u8>(i * 7);
      }
      c.post_send(sys, 1, 3, big);
      *ph = 1;
    }
    c.progress(sys);
    return c.wait_fds().empty() ? true : *ph == 2;  // run until peer exits
  });
  w.spawn_script(1, 2, [](os::Syscalls& sys, MpiComm& c, u32*, i32* code) {
    auto m = c.try_recv(sys, 0, 3);
    if (!m) return false;
    bool ok = m->size() == (2u << 20);
    for (std::size_t i = 0; ok && i < m->size(); ++i) {
      if ((*m)[i] != static_cast<u8>(i * 7)) ok = false;
    }
    *code = ok ? 0 : 1;
    return true;
  });
  // Rank 0's script never "finishes" by itself; just check rank 1.
  w.cl.run_for(30 * sim::kSecond);
  os::Process* p1 = w.pods[1]->find_process(w.vpids[1]);
  ASSERT_EQ(p1->state(), os::ProcState::EXITED);
  EXPECT_EQ(p1->exit_code(), 0);
}

TEST(Mpi, PackUnpackDoubles) {
  std::vector<double> v{1.5, -2.25, 0, 1e300};
  const Bytes packed = encode_fields(v);
  std::vector<double> back;
  ASSERT_TRUE(decode_fields(packed, back).is_ok());
  EXPECT_EQ(back, v);
}

TEST(Mpi, MsgIoSerializationRoundTrip) {
  MsgIo io(7);
  io.send(42, to_bytes("queued"));
  const Bytes state = encode_fields(io);
  MsgIo io2;
  ASSERT_TRUE(decode_fields(state, io2).is_ok());
  EXPECT_EQ(io2.fd(), 7);
  EXPECT_FALSE(io2.flushed());  // queued bytes survived
}

// ---- PVM -----------------------------------------------------------------------

class PvmEchoMaster final : public os::FieldProgram<PvmEchoMaster> {
 public:
  PvmEchoMaster() = default;
  PvmEchoMaster(u16 port, i32 workers, u32 tasks)
      : pvm_(port, workers), tasks_(tasks) {}
  const char* kind() const override { return "test.pvm_master"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0:
        if (!pvm_.try_init(sys)) {
          os::WaitSpec w;
          w.fds = pvm_.wait_fds();
          w.sleep_for = 10 * sim::kMillisecond;
          return StepResult::block(std::move(w));
        }
        for (u32 i = 0; i < tasks_; ++i) {
          pvm_.submit(pvm::Task{i, to_bytes("task" + std::to_string(i))});
        }
        pc_ = 1;
        return StepResult::yield();
      case 1: {
        pvm_.progress(sys);
        while (auto r = pvm_.pop_result()) {
          if (to_string(r->payload) ==
              "done:task" + std::to_string(r->id)) {
            ++good_;
          }
        }
        if (good_ < tasks_) {
          if (pvm_.failed()) return StepResult::exit(2);
          os::WaitSpec w;
          w.fds = pvm_.wait_fds();
          w.sleep_for = 10 * sim::kMillisecond;
          return StepResult::block(std::move(w));
        }
        return StepResult::exit(0);
      }
      default:
        return StepResult::exit(9);
    }
  }
 private:
  // Not checkpointed by its tests: saves nothing.
  template <class F>
  friend void io(F&, PvmEchoMaster&) {}

  pvm::PvmMaster pvm_;
  u32 tasks_ = 0;
  u32 pc_ = 0;
  u32 good_ = 0;
};

class PvmEchoWorker final : public os::FieldProgram<PvmEchoWorker> {
 public:
  PvmEchoWorker() = default;
  explicit PvmEchoWorker(net::SockAddr master) : pvm_(master) {}
  const char* kind() const override { return "test.pvm_worker"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    if (!pvm_.try_init(sys)) {
      os::WaitSpec w;
      w.fds = pvm_.wait_fds();
      w.sleep_for = 10 * sim::kMillisecond;
      return StepResult::block(std::move(w));
    }
    if (pvm_.master_gone()) return StepResult::exit(0);
    auto t = pvm_.try_get_task(sys);
    if (!t) {
      os::WaitSpec w;
      w.fds = pvm_.wait_fds();
      w.sleep_for = 10 * sim::kMillisecond;
      return StepResult::block(std::move(w));
    }
    pvm_.post_result(
        sys, pvm::TaskResult{t->id,
                             to_bytes("done:" + to_string(t->payload))});
    return StepResult::yield(100);
  }
 private:
  // Not checkpointed by its tests: saves nothing.
  template <class F>
  friend void io(F&, PvmEchoWorker&) {}

  pvm::PvmWorker pvm_;
};

TEST(Pvm, TaskFarmProcessesAllTasks) {
  os::Cluster cl;
  os::Node& n0 = cl.add_node("n0");
  pod::Pod master_pod(n0, net::IpAddr(10, 77, 2, 1), "master");
  i32 mpid = master_pod.spawn(std::make_unique<PvmEchoMaster>(5600, 3, 40));

  std::vector<std::unique_ptr<pod::Pod>> worker_pods;
  for (int i = 0; i < 3; ++i) {
    os::Node& n = cl.add_node("w" + std::to_string(i));
    worker_pods.push_back(std::make_unique<pod::Pod>(
        n, net::IpAddr(10, 77, 2, static_cast<u8>(i + 2)),
        "worker" + std::to_string(i)));
    worker_pods.back()->spawn(std::make_unique<PvmEchoWorker>(
        net::SockAddr{net::IpAddr(10, 77, 2, 1), 5600}));
  }
  cl.run_for(30 * sim::kSecond);
  os::Process* mp = master_pod.find_process(mpid);
  ASSERT_EQ(mp->state(), os::ProcState::EXITED);
  EXPECT_EQ(mp->exit_code(), 0);
}

}  // namespace
}  // namespace zapc::mpi
