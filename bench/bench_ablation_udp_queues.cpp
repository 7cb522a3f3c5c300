// Ablation — always saving UDP receive queues vs dropping them
// (paper §5).
//
// "With unreliable protocols, it is normally not required to save the
// state of the queue ... Consequently we chose to have our scheme always
// save the data in the queues, regardless of the protocol in question.
// The advantage is that it prevents causing artificial packets loss that
// would otherwise slowdown the application shortly after its restart,
// the amount of time it lingers until it detects the loss and fixes it
// by retransmission."
//
// Setup: a UDP requester with an application-level timeout/retransmit
// timer, checkpointed exactly when the reply datagram is sitting unread
// in its receive queue.  Restores with and without the queue; measures
// how long after restore the application makes progress.
#include "bench/bench_common.h"
#include "core/netckpt.h"

namespace zapc::bench {
namespace {

constexpr u16 kReqPort = 6300;
constexpr u16 kRepPort = 6301;
constexpr sim::Time kAppTimeout = 250 * sim::kMillisecond;

}  // namespace

/// Sends a request, waits for the reply with an application-level
/// retransmission timer (the paper's "timeout mechanism on top of the
/// native protocol").
class UdpRequester final : public os::FieldProgram<UdpRequester> {
 public:
  UdpRequester() = default;
  explicit UdpRequester(net::SockAddr replier) : replier_(replier) {}
  const char* kind() const override { return "bench.udp_requester"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {
        auto fd = sys.socket(net::Proto::UDP);
        fd_ = fd.value_or(-1);
        (void)sys.bind(fd_, net::SockAddr{net::kAnyAddr, kReqPort});
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {  // (re)send the request, arm the timer
        (void)sys.sendto(fd_, to_bytes("request"), 0, replier_);
        ++sends_;
        sys.timer_set(1, kAppTimeout);
        pc_ = 2;
        return StepResult::yield();
      }
      case 2: {
        auto r = sys.recv(fd_, 1024, 0);
        if (r.is_ok() && to_string(r.value().data) == "reply") {
          done_at_ = sys.time();
          return StepResult::exit(0);
        }
        if (sys.timer_expired(1)) {
          pc_ = 1;  // lost? retransmit
          return StepResult::yield();
        }
        return StepResult::block(
            os::WaitSpec::on_fd_timeout(fd_, kAppTimeout));
      }
      default:
        return StepResult::exit(9);
    }
  }
  u32 sends() const { return sends_; }

 private:
  template <class F>
  friend void io(F& f, UdpRequester& p) {
    f(p.replier_, p.pc_, p.fd_, p.sends_, p.done_at_);
  }

  net::SockAddr replier_;
  u32 pc_ = 0;
  i32 fd_ = -1;
  u32 sends_ = 0;
  sim::Time done_at_ = 0;
};

/// Replies to every request datagram.
class UdpReplier final : public os::FieldProgram<UdpReplier> {
 public:
  UdpReplier() = default;
  const char* kind() const override { return "bench.udp_replier"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    if (fd_ < 0) {
      auto fd = sys.socket(net::Proto::UDP);
      fd_ = fd.value_or(-1);
      (void)sys.bind(fd_, net::SockAddr{net::kAnyAddr, kRepPort});
    }
    while (true) {
      auto r = sys.recv(fd_, 1024, 0);
      if (!r.is_ok()) break;
      (void)sys.sendto(fd_, to_bytes("reply"), 0, r.value().from);
    }
    return StepResult::block(os::WaitSpec::on_fd(fd_));
  }

 private:
  template <class F>
  friend void io(F& f, UdpReplier& p) {
    f(p.fd_);
  }

  i32 fd_ = -1;
};

namespace {

/// Returns virtual ms from restore until the requester finishes, and the
/// number of request transmissions it needed.
struct Outcome {
  double recovery_ms = -1;
  u32 sends = 0;
};

Outcome run_policy(bool save_queues) {
  os::Cluster cl;
  os::Node& n1 = cl.add_node("n1");
  os::Node& n2 = cl.add_node("n2");
  auto vips = apps::job_vips(2);
  auto req_pod = std::make_unique<pod::Pod>(n1, vips[0], "req");
  pod::Pod rep_pod(n2, vips[1], "rep");
  i32 req_pid = req_pod->spawn(std::make_unique<UdpRequester>(
      net::SockAddr{vips[1], kRepPort}));
  rep_pod.spawn(std::make_unique<UdpReplier>());

  // Freeze the requester just after its request left (the reply is still
  // in flight), then let the network deliver the reply into the
  // suspended pod, then block.  Timing: the request goes out within a few
  // virtual microseconds; the reply needs ~2 fabric latencies (100 us).
  cl.run_for(60);  // 60 us: request sent, reply not yet arrived
  req_pod->suspend();
  cl.run_for(20 * sim::kMillisecond);  // reply arrives while suspended
  req_pod->filter().block_addr(vips[0]);

  ckpt::NetMeta meta;
  std::vector<ckpt::SocketImage> socks;
  if (!core::NetCheckpoint::save(*req_pod, meta, socks).is_ok()) return {};
  ckpt::PodImageHeader header = ckpt::Standalone::save_header(*req_pod);
  std::vector<ckpt::ProcessImage> procs =
      ckpt::Standalone::save_processes(*req_pod);

  bool queue_had_reply = false;
  for (auto& s : socks) {
    if (!s.recv_queue.empty()) queue_had_reply = true;
    if (!save_queues) s.recv_queue.clear();  // the ablated policy
  }
  if (!queue_had_reply) {
    std::printf("(setup miss: no queued reply at checkpoint)\n");
  }

  // Destroy and restore on a new node.
  req_pod.reset();
  os::Node& n3 = cl.add_node("n3");
  pod::Pod fresh(n3, vips[0], "req2");
  ckpt::Standalone::restore_header(fresh, header);

  ckpt::SockMap map;
  for (const auto& img : socks) {
    auto sid = fresh.stack().sys_socket(img.proto);
    if (img.bound) (void)fresh.stack().sys_bind(sid.value(), img.local);
    (void)core::NetCheckpoint::restore_socket(fresh, sid.value(), img, 0,
                                              {});
    map[img.old_id] = sid.value();
  }
  (void)ckpt::Standalone::restore_processes(fresh, procs, map);
  sim::Time t0 = cl.now();
  fresh.resume();

  Outcome out;
  for (int i = 0; i < 5000; ++i) {
    cl.run_for(sim::kMillisecond);
    os::Process* p = fresh.find_process(req_pid);
    if (p != nullptr && p->state() == os::ProcState::EXITED) {
      out.recovery_ms = static_cast<double>(cl.now() - t0) / 1000.0;
      out.sends = static_cast<UdpRequester&>(p->program()).sends();
      return out;
    }
  }
  return out;
}

void run() {
  JsonEvidence ev("ablation_udp_queues");
  print_header(
      "Ablation: UDP receive-queue policy at checkpoint",
      "policy            recovery(ms)   request-transmissions");
  Outcome keep = run_policy(true);
  Outcome drop = run_policy(false);
  std::printf("always-save %16.1f %16u\n", keep.recovery_ms, keep.sends);
  std::printf("drop-queues %16.1f %16u\n", drop.recovery_ms, drop.sends);
  auto add = [&](const char* policy, const Outcome& o) {
    obs::Json row = obs::Json::object();
    row["policy"] = policy;
    row["recovery_ms"] = o.recovery_ms;
    row["request_transmissions"] = o.sends;
    ev.add_row(std::move(row));
  };
  add("always_save", keep);
  add("drop_queues", drop);
  std::printf(
      "\nPaper shape check: saving the queue lets the application consume\n"
      "the pending reply immediately; dropping it forces the app-level\n"
      "timeout (+%ld ms) and a retransmission — the artificial loss the\n"
      "paper's always-save policy avoids.\n",
      static_cast<long>(kAppTimeout / 1000));
  ev.write();
}

}  // namespace
}  // namespace zapc::bench

ZAPC_REGISTER_PROGRAM(bench_udp_req, zapc::bench::UdpRequester)
ZAPC_REGISTER_PROGRAM(bench_udp_rep, zapc::bench::UdpReplier)

int main() { zapc::bench::run(); }
