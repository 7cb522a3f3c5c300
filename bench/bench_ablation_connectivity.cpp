// Ablation — two-worker connectivity recovery vs naive ordered recovery
// (paper §4).
//
// "Consider for instance an application connected in a ring topology ...
// a deadlock occurs if every node first attempts to accept a connection
// from the next node.  To prevent such deadlocks, rather than using
// sophisticated methods to create a deadlock-free schedule, we simply
// divide the work between two threads of execution."
//
// This bench rebuilds a ring of N pods three ways:
//   two-worker    — ZapC's scheme, insensitive to entry order;
//   serial-lucky  — naive ordered recovery with connects first (works,
//                   but serializes on round trips);
//   serial-deadly — naive ordered recovery with accepts first on every
//                   pod: the classic ring deadlock, broken only by the
//                   recovery timeout.
#include <algorithm>

#include "bench/bench_common.h"
#include "core/connectivity.h"
#include "core/netckpt.h"
#include "core/schedule.h"

namespace zapc::bench {

constexpr u16 kRingPort = 6100;

/// Guest that joins a ring: listens, connects to the next pod, accepts
/// from the previous one, then idles.
class RingNode final : public os::FieldProgram<RingNode> {
 public:
  RingNode() = default;
  RingNode(net::IpAddr next, bool lone) : next_(next), lone_(lone) {}
  const char* kind() const override { return "bench.ring_node"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {
        auto l = sys.socket(net::Proto::TCP);
        lfd_ = l.value_or(-1);
        (void)sys.bind(lfd_, net::SockAddr{net::kAnyAddr, kRingPort});
        (void)sys.listen(lfd_, 4);
        auto c = sys.socket(net::Proto::TCP);
        cfd_ = c.value_or(-1);
        (void)sys.connect(cfd_, net::SockAddr{next_, kRingPort});
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {
        if (afd_ < 0) {
          auto a = sys.accept(lfd_, nullptr);
          if (a) afd_ = a.value();
        }
        bool connected = (sys.poll(cfd_) & net::POLLOUT) != 0;
        if ((afd_ >= 0 || lone_) && connected) {
          pc_ = 2;
        }
        return StepResult::block(
            os::WaitSpec{{lfd_, cfd_}, 10 * sim::kMillisecond});
      }
      case 2:  // ring complete; idle forever
        return StepResult::block(os::WaitSpec::sleep(sim::kSecond));
      default:
        return StepResult::exit(0);
    }
  }

 private:
  template <class F>
  friend void io(F& f, RingNode& p) {
    f(p.pc_);
  }

  net::IpAddr next_;
  bool lone_ = false;
  u32 pc_ = 0;
  i32 lfd_ = -1, cfd_ = -1, afd_ = -1;
};

namespace {

using core::ConnectivityRestore;

enum class Mode { TWO_WORKER, SERIAL_LUCKY, SERIAL_DEADLY };

/// Builds a live ring, captures its network state, rebuilds it in fresh
/// pods under the given recovery mode; returns recovery time in ms
/// (negative on timeout).
double run_ring(int n, Mode mode) {
  os::Cluster cl;
  std::vector<os::Node*> nodes;
  std::vector<std::unique_ptr<pod::Pod>> pods;
  auto vips = apps::job_vips(n);
  for (int i = 0; i < n; ++i) {
    nodes.push_back(&cl.add_node("n" + std::to_string(i)));
    pods.push_back(std::make_unique<pod::Pod>(
        *nodes.back(), vips[static_cast<std::size_t>(i)],
        "ring" + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    pods[static_cast<std::size_t>(i)]->spawn(std::make_unique<RingNode>(
        vips[static_cast<std::size_t>((i + 1) % n)], n == 1));
  }
  cl.run_for(2 * sim::kSecond);  // let the ring form

  // Capture each pod's network state.
  std::vector<ckpt::NetMeta> metas(static_cast<std::size_t>(n));
  std::vector<std::vector<ckpt::SocketImage>> socks(
      static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& pod = *pods[static_cast<std::size_t>(i)];
    pod.suspend();
    pod.filter().block_addr(pod.vip());
    if (!core::NetCheckpoint::save(pod, metas[static_cast<std::size_t>(i)],
                                   socks[static_cast<std::size_t>(i)])) {
      return -2;
    }
  }
  auto plan = core::build_restart_plan(metas);
  if (!plan) return -3;

  // Destroy the ring; rebuild fresh pods on the same nodes.
  pods.clear();
  cl.run_for(100 * sim::kMillisecond);
  std::vector<std::unique_ptr<pod::Pod>> fresh;
  for (int i = 0; i < n; ++i) {
    fresh.push_back(std::make_unique<pod::Pod>(
        *nodes[static_cast<std::size_t>(i)],
        vips[static_cast<std::size_t>(i)], "fresh" + std::to_string(i)));
  }

  sim::Time t0 = cl.now();
  const sim::Time timeout = 3 * sim::kSecond;
  int done = 0, failed = 0;
  std::vector<std::unique_ptr<ConnectivityRestore>> restores;
  for (int i = 0; i < n; ++i) {
    ckpt::NetMeta meta =
        plan.value().pod_meta[vips[static_cast<std::size_t>(i)]];
    // Adversarial / lucky orderings for the serial modes.
    std::stable_sort(meta.entries.begin(), meta.entries.end(),
                     [&](const ckpt::NetMetaEntry& a,
                         const ckpt::NetMetaEntry& b) {
                       auto key = [&](const ckpt::NetMetaEntry& e) {
                         bool accept = e.role == ckpt::PeerRole::ACCEPT;
                         return mode == Mode::SERIAL_DEADLY ? !accept
                                                            : accept;
                       };
                       return key(a) < key(b);
                     });
    auto r = std::make_unique<ConnectivityRestore>(
        *fresh[static_cast<std::size_t>(i)], std::move(meta),
        socks[static_cast<std::size_t>(i)], std::set<net::SockId>{},
        timeout, [&](Status st, ckpt::SockMap) {
          if (st.is_ok()) {
            ++done;
          } else {
            ++failed;
          }
        });
    if (mode != Mode::TWO_WORKER) r->set_serial_order(true);
    restores.push_back(std::move(r));
  }
  for (auto& r : restores) r->start();
  while (done + failed < n && cl.now() - t0 < timeout + sim::kSecond) {
    cl.run_for(sim::kMillisecond);
  }
  if (failed > 0 || done < n) return -1;  // deadlock hit the timeout
  return static_cast<double>(cl.now() - t0) / 1000.0;
}

void run() {
  JsonEvidence ev("ablation_connectivity");
  print_header(
      "Ablation: connectivity recovery schemes on a ring topology",
      "pods    two-worker(ms)    serial-lucky(ms)    serial-deadly");
  for (int n : {4, 8, 16}) {
    double two = run_ring(n, Mode::TWO_WORKER);
    double lucky = run_ring(n, Mode::SERIAL_LUCKY);
    double deadly = run_ring(n, Mode::SERIAL_DEADLY);
    std::printf("%4d %17.1f %19.1f %16s\n", n, two, lucky,
                deadly < 0 ? "DEADLOCK" : "ok(!)");
    obs::Json row = obs::Json::object();
    row["pods"] = n;
    row["two_worker_ms"] = two;
    row["serial_lucky_ms"] = lucky;
    row["serial_deadly_deadlocks"] = deadly < 0;
    ev.add_row(std::move(row));
  }
  std::printf(
      "\nPaper shape check: the two-worker scheme recovers quickly with\n"
      "no ordering logic; a naive ordered recovery deadlocks when every\n"
      "pod happens to wait on its accept first.\n");
  ev.write();
}

}  // namespace
}  // namespace zapc::bench

ZAPC_REGISTER_PROGRAM(ring_node, zapc::bench::RingNode)

int main() { zapc::bench::run(); }
