// Ablation — send-queue redirect optimization for migration (paper §5).
//
// "A clever optimization is to redirect the contents of the send queue to
// the receiving pod and merge it with the peer's stream of checkpoint
// data ... This will eliminate the need to transmit the data twice over
// the network: once when migrating the original pod, and then again when
// the send queue is processed after the pod resumes execution."
//
// Setup: a flooder pod with a deliberately large unacknowledged send
// queue (its peer drains slowly), migrated with the optimization on/off.
// Metric: bytes that crossed the fabric during migration + the data's
// arrival at the application.
#include "bench/bench_common.h"

namespace zapc::bench {

/// Writes a fixed amount into one connection as fast as the socket
/// accepts it, then idles.
class Flooder final : public os::FieldProgram<Flooder> {
 public:
  Flooder() = default;
  Flooder(net::SockAddr peer, u32 total) : peer_(peer), total_(total) {}
  const char* kind() const override { return "bench.flooder"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {
        auto fd = sys.socket(net::Proto::TCP);
        fd_ = fd.value_or(-1);
        (void)sys.setsockopt(fd_, net::SockOpt::SO_SNDBUF, 8 << 20);
        (void)sys.connect(fd_, peer_);
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {
        if (sent_ < total_) {
          u32 n = std::min<u32>(total_ - sent_, 64 * 1024);
          Bytes chunk(n);
          for (u32 i = 0; i < n; ++i) {
            chunk[i] = static_cast<u8>((sent_ + i) * 31);
          }
          auto w = sys.send(fd_, chunk, 0);
          if (w.is_ok()) sent_ += static_cast<u32>(w.value());
        }
        if (sent_ >= total_) {
          pc_ = 2;
          return StepResult::yield();
        }
        return StepResult::block(
            os::WaitSpec::on_fd_timeout(fd_, 20 * sim::kMillisecond));
      }
      default:  // idle; keep the connection alive
        return StepResult::block(os::WaitSpec::sleep(sim::kSecond));
    }
  }

 private:
  template <class F>
  friend void io(F& f, Flooder& p) {
    f(p.peer_, p.total_, p.pc_, p.fd_, p.sent_);
  }

  net::SockAddr peer_;
  u32 total_ = 0;
  u32 pc_ = 0;
  i32 fd_ = -1;
  u32 sent_ = 0;
};

/// Accepts one connection and reads it very slowly (so the sender's
/// queue stays full), verifying the byte pattern.
class Sipper final : public os::FieldProgram<Sipper> {
 public:
  Sipper() = default;
  Sipper(u16 port, u32 total) : port_(port), total_(total) {}
  const char* kind() const override { return "bench.sipper"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {
        auto l = sys.socket(net::Proto::TCP);
        lfd_ = l.value_or(-1);
        (void)sys.setsockopt(lfd_, net::SockOpt::SO_RCVBUF, 64 * 1024);
        (void)sys.bind(lfd_, net::SockAddr{net::kAnyAddr, port_});
        (void)sys.listen(lfd_, 2);
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {
        auto c = sys.accept(lfd_, nullptr);
        if (!c) return StepResult::block(os::WaitSpec::on_fd(lfd_));
        cfd_ = c.value();
        (void)sys.setsockopt(cfd_, net::SockOpt::SO_RCVBUF, 64 * 1024);
        pc_ = 2;
        return StepResult::yield();
      }
      case 2: {
        auto r = sys.recv(cfd_, 2048, 0);  // tiny sips
        if (r.is_ok() && !r.value().eof) {
          for (u8 b : r.value().data) {
            if (b != static_cast<u8>(rcvd_ * 31)) return StepResult::exit(3);
            ++rcvd_;
          }
        }
        if (rcvd_ >= total_) return StepResult::exit(0);
        // Deliberately slow consumption.
        return StepResult::block(
            os::WaitSpec::on_fd_timeout(cfd_, 20 * sim::kMillisecond),
            5 * sim::kMillisecond);
      }
      default:
        return StepResult::exit(9);
    }
  }

 private:
  template <class F>
  friend void io(F& f, Sipper& p) {
    f(p.port_, p.total_, p.pc_, p.lfd_, p.cfd_, p.rcvd_);
  }

  u16 port_ = 0;
  u32 total_ = 0;
  u32 pc_ = 0;
  i32 lfd_ = -1, cfd_ = -1;
  u32 rcvd_ = 0;
};

namespace {

constexpr u32 kFloodBytes = 24 << 20;
constexpr u16 kPort = 6200;

struct Outcome {
  double fabric_mb = 0;  // bytes on the wire during the migration
  bool app_ok = false;
};

Outcome migrate(bool redirect) {
  Testbed tb(4);  // nodes 0,1 source; 2,3 destination
  auto vips = apps::job_vips(2);
  pod::Pod& sip_pod = tb.agents[0]->create_pod(vips[0], "sipper-pod");
  i32 sip_pid =
      sip_pod.spawn(std::make_unique<Sipper>(kPort, kFloodBytes));
  pod::Pod& flood_pod = tb.agents[1]->create_pod(vips[1], "flooder-pod");
  flood_pod.spawn(std::make_unique<Flooder>(
      net::SockAddr{vips[0], kPort}, kFloodBytes));

  // Let the flooder fill its send queue against the slow reader.
  tb.cl.run_for(2 * sim::kSecond);

  // Two checkpoints must happen back to back so the redirect can use the
  // peer's stream; the manager needs the vips, which it caches from a
  // first (snapshot) checkpoint.
  std::vector<core::Manager::Target> snap = {
      {tb.agents[0]->addr(), "sipper-pod", "san://warm/s"},
      {tb.agents[1]->addr(), "flooder-pod", "san://warm/f"},
  };
  (void)tb.checkpoint_sync(snap);

  u64 wire_before = tb.cl.fabric().stats().bytes_delivered;
  std::string uri_s = "agent://" + tb.agents[2]->node().addr().to_string() +
                      ":7077/s-img";
  std::string uri_f = "agent://" + tb.agents[3]->node().addr().to_string() +
                      ":7077/f-img";
  auto cr = tb.checkpoint_sync(
      {
          {tb.agents[0]->addr(), "sipper-pod", uri_s},
          {tb.agents[1]->addr(), "flooder-pod", uri_f},
      },
      core::CkptMode::MIGRATE, redirect);
  if (!cr.ok) {
    std::printf("migration checkpoint failed: %s\n", cr.error.c_str());
    return {};
  }
  auto rr = tb.restart_sync({
      {tb.agents[2]->addr(), "sipper-pod", "stream://s-img"},
      {tb.agents[3]->addr(), "flooder-pod", "stream://f-img"},
  });
  if (!rr.ok) {
    std::printf("migration restart failed: %s\n", rr.error.c_str());
    return {};
  }
  // Let the application finish (verifying every byte), then measure the
  // total bytes that crossed the wire for the whole migration + drain.
  Outcome out;
  for (int i = 0; i < 40000; ++i) {
    tb.cl.run_for(50 * sim::kMillisecond);
    pod::Pod* p = tb.agents[2]->find_pod("sipper-pod");
    if (p == nullptr) break;
    os::Process* proc = p->find_process(sip_pid);
    if (proc != nullptr && proc->state() == os::ProcState::EXITED) {
      out.app_ok = proc->exit_code() == 0;
      break;
    }
  }
  u64 wire_after = tb.cl.fabric().stats().bytes_delivered;
  out.fabric_mb =
      static_cast<double>(wire_after - wire_before) / (1 << 20);
  return out;
}

void run() {
  JsonEvidence ev("ablation_redirect");
  print_header(
      "Ablation: send-queue redirect optimization during migration",
      "mode          wire-bytes(MB)   app-verified");
  Outcome off = migrate(false);
  Outcome on = migrate(true);
  std::printf("no-redirect %16.1f %14s\n", off.fabric_mb,
              off.app_ok ? "yes" : "NO");
  std::printf("redirect    %16.1f %14s\n", on.fabric_mb,
              on.app_ok ? "yes" : "NO");
  auto add = [&](const char* mode, const Outcome& o) {
    obs::Json row = obs::Json::object();
    row["mode"] = mode;
    row["wire_mb"] = o.fabric_mb;
    row["app_verified"] = o.app_ok;
    ev.add_row(std::move(row));
  };
  add("no_redirect", off);
  add("redirect", on);
  std::printf(
      "\nPaper shape check: with the redirect, the flooder's multi-MB send\n"
      "queue crosses the network once (straight to the receiving pod's\n"
      "agent) instead of twice, so wire-bytes drop while the application\n"
      "still receives a byte-exact stream.\n");
  ev.write();
}

}  // namespace
}  // namespace zapc::bench

ZAPC_REGISTER_PROGRAM(bench_flooder, zapc::bench::Flooder)
ZAPC_REGISTER_PROGRAM(bench_sipper, zapc::bench::Sipper)

int main() { zapc::bench::run(); }
