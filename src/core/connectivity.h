// Connectivity recovery (paper §4, restart step 2).
//
// "Since ZapC is restarting the entire distributed application, it
// controls both ends of each network connection.  This makes it
// straightforward to reconstruct the communicating sockets on both sides
// of each connection using a pair of connect and accept system calls."
//
// This engine runs asynchronously on the restarting node: one logical
// worker initiates outgoing connections, another services incoming ones —
// the paper's two threads of execution, which make the recovery deadlock
// free without computing a global connection order.  Connects that race
// ahead of the peer's listener creation are refused and retried.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "obs/event.h"
#include "pod/pod.h"

namespace zapc::core {

class ConnectivityRestore {
 public:
  /// Called once with the outcome; on success the SockMap maps every old
  /// socket id in the image to its re-created socket.
  using DoneFn = std::function<void(Status, ckpt::SockMap)>;

  ConnectivityRestore(pod::Pod& pod, ckpt::NetMeta meta,
                      std::vector<ckpt::SocketImage> sockets,
                      std::set<net::SockId> unreferenced,
                      sim::Time timeout, DoneFn done);
  ~ConnectivityRestore();

  ConnectivityRestore(const ConnectivityRestore&) = delete;
  ConnectivityRestore& operator=(const ConnectivityRestore&) = delete;

  /// Creates local endpoints (listeners, UDP/RAW, unconnected sockets)
  /// and kicks off the connect/accept workers.
  void start();

  bool finished() const { return finished_; }

  /// Causal-trace context: re-formed connections are recorded as
  /// op-tagged events under the restart's connectivity span.
  void set_obs_tag(obs::ObsTag tag) { tag_ = std::move(tag); }

  /// Ablation hook: process connection entries strictly one at a time in
  /// meta-table order (the naive single-threaded recovery the paper
  /// rejects) instead of with concurrent connector/acceptor workers.  A
  /// ring of pods that all hit an ACCEPT entry first deadlocks until the
  /// timeout — exactly the failure mode §4 describes.
  void set_serial_order(bool on) { serial_ = on; }

 private:
  struct ConnTask {
    ckpt::NetMetaEntry entry;
    enum class St { PENDING, CONNECTING, DONE } st = St::PENDING;
    net::SockId sock = net::kInvalidSock;
    int retries = 0;
  };
  struct AcceptTask {
    ckpt::NetMetaEntry entry;
    bool matched = false;
    net::SockId sock = net::kInvalidSock;
  };

  void tick();
  void run_connector();
  void drive_connect(ConnTask& t);
  void run_acceptor();
  void run_serial();
  void finish(Status st);

  pod::Pod& pod_;
  ckpt::NetMeta meta_;
  std::vector<ckpt::SocketImage> sockets_;
  std::set<net::SockId> unreferenced_;
  sim::Time deadline_;
  DoneFn done_;

  ckpt::SockMap map_;
  std::vector<ConnTask> connects_;
  std::vector<AcceptTask> accepts_;
  std::map<u16, net::SockId> listeners_;       // port -> new listener
  std::map<u16, net::SockId> temp_listeners_;  // created just for restart
  bool serial_ = false;
  bool finished_ = false;
  obs::ObsTag tag_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace zapc::core
