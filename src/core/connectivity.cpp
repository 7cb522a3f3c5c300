#include "core/connectivity.h"

#include "net/tcp.h"
#include "util/log.h"

namespace zapc::core {
namespace {

constexpr sim::Time kTickInterval = 500 * sim::kMicrosecond;
constexpr int kMaxConnectRetries = 200;

}  // namespace

ConnectivityRestore::ConnectivityRestore(pod::Pod& pod, ckpt::NetMeta meta,
                                         std::vector<ckpt::SocketImage> sockets,
                                         std::set<net::SockId> unreferenced,
                                         sim::Time timeout, DoneFn done)
    : pod_(pod),
      meta_(std::move(meta)),
      sockets_(std::move(sockets)),
      unreferenced_(std::move(unreferenced)),
      deadline_(pod.engine_now() + timeout),
      done_(std::move(done)) {}

ConnectivityRestore::~ConnectivityRestore() { *alive_ = false; }

void ConnectivityRestore::start() {
  net::Stack& stack = pod_.stack();

  // Phase 1 — local endpoints that need no peer cooperation: listeners
  // first (so incoming connects find them), then UDP/RAW/unconnected and
  // connecting sockets.
  for (const auto& img : sockets_) {
    switch (img.proto) {
      case net::Proto::TCP: {
        if (img.listener) {
          auto sid = stack.sys_socket(net::Proto::TCP);
          if (!sid) return finish(sid.status());
          (void)stack.sys_setsockopt(sid.value(),
                                     net::SockOpt::SO_REUSEADDR, 1);
          Status st = stack.sys_bind(sid.value(), img.local);
          if (!st) return finish(st);
          st = stack.sys_listen(sid.value(), std::max(1, img.backlog));
          if (!st) return finish(st);
          map_[img.old_id] = sid.value();
          listeners_[img.local.port] = sid.value();
        } else if (img.connecting) {
          // Re-initiate the unfinished connect; the application observes
          // the same transient state it checkpointed in.
          auto sid = stack.sys_socket(net::Proto::TCP);
          if (!sid) return finish(sid.status());
          (void)stack.sys_setsockopt(sid.value(),
                                     net::SockOpt::SO_REUSEADDR, 1);
          if (img.bound && img.owns_port) {
            Status st = stack.sys_bind(sid.value(), img.local);
            if (!st) return finish(st);
          }
          Status st = stack.sys_connect(sid.value(), img.remote);
          if (!st.is_ok() && st.err() != Err::IN_PROGRESS) {
            return finish(st);
          }
          map_[img.old_id] = sid.value();
        } else if (!img.connected) {
          // Plain socket, possibly bound, no connection.
          auto sid = stack.sys_socket(net::Proto::TCP);
          if (!sid) return finish(sid.status());
          (void)stack.sys_setsockopt(sid.value(),
                                     net::SockOpt::SO_REUSEADDR, 1);
          if (img.bound && img.owns_port) {
            Status st = stack.sys_bind(sid.value(), img.local);
            if (!st) return finish(st);
          }
          map_[img.old_id] = sid.value();
        }
        break;
      }
      case net::Proto::UDP: {
        auto sid = stack.sys_socket(net::Proto::UDP);
        if (!sid) return finish(sid.status());
        (void)stack.sys_setsockopt(sid.value(), net::SockOpt::SO_REUSEADDR,
                                   1);
        if (img.bound) {
          Status st = stack.sys_bind(sid.value(), img.local);
          if (!st) return finish(st);
        }
        if (img.connected) {
          Status st = stack.sys_connect(sid.value(), img.remote);
          if (!st) return finish(st);
        }
        map_[img.old_id] = sid.value();
        break;
      }
      case net::Proto::RAW: {
        auto sid = stack.sys_socket(net::Proto::RAW);
        if (!sid) return finish(sid.status());
        if (img.raw_proto != 0) {
          Status st = stack.sys_bind_raw(sid.value(), img.raw_proto);
          if (!st) return finish(st);
        }
        if (img.remote.ip.v != 0) {
          (void)stack.sys_connect(sid.value(), img.remote);
        }
        map_[img.old_id] = sid.value();
        break;
      }
    }
  }

  // Phase 2 — split established connections into connect/accept tasks per
  // the Manager's schedule, creating temporary listeners where the accept
  // side has no surviving listener on that port.
  for (const auto& e : meta_.entries) {
    if (e.state == ckpt::ConnState::LISTENER ||
        e.state == ckpt::ConnState::CONNECTING ||
        e.state == ckpt::ConnState::CLOSED) {
      continue;  // handled locally in phase 1; no peer cooperation
    }
    if (e.role == ckpt::PeerRole::CONNECT) {
      connects_.push_back(ConnTask{e, ConnTask::St::PENDING,
                                   net::kInvalidSock, 0});
    } else {
      if (listeners_.count(e.source.port) == 0 &&
          temp_listeners_.count(e.source.port) == 0) {
        auto sid = stack.sys_socket(net::Proto::TCP);
        if (!sid) return finish(sid.status());
        (void)stack.sys_setsockopt(sid.value(), net::SockOpt::SO_REUSEADDR,
                                   1);
        Status st =
            stack.sys_bind(sid.value(), net::SockAddr{pod_.vip(),
                                                      e.source.port});
        if (!st) return finish(st);
        st = stack.sys_listen(sid.value(), 64);
        if (!st) return finish(st);
        temp_listeners_[e.source.port] = sid.value();
      }
      accepts_.push_back(AcceptTask{e, false, net::kInvalidSock});
    }
  }

  tick();
}

void ConnectivityRestore::run_connector() {
  for (ConnTask& t : connects_) {
    drive_connect(t);
    if (finished_) return;
  }
}

void ConnectivityRestore::drive_connect(ConnTask& t) {
  net::Stack& stack = pod_.stack();
  {
    switch (t.st) {
      case ConnTask::St::PENDING: {
        auto sid = stack.sys_socket(net::Proto::TCP);
        if (!sid) return finish(sid.status());
        t.sock = sid.value();
        // The original source port must be preserved so the peer can
        // identify the connection by its 4-tuple.
        (void)stack.sys_setsockopt(t.sock, net::SockOpt::SO_REUSEADDR, 1);
        Status st = stack.sys_bind(t.sock, t.entry.source);
        if (!st) return finish(st);
        st = stack.sys_connect(t.sock, t.entry.target);
        if (!st.is_ok() && st.err() != Err::IN_PROGRESS) return finish(st);
        t.st = ConnTask::St::CONNECTING;
        break;
      }
      case ConnTask::St::CONNECTING: {
        net::TcpSocket* sock = stack.find_tcp(t.sock);
        if (sock == nullptr) return finish(Status(Err::BAD_FD));
        if (sock->state() == net::TcpState::ESTABLISHED) {
          t.st = ConnTask::St::DONE;
          map_[t.entry.sock] = t.sock;
          tag_.event(obs::ev::Text(obs::ev::kConnReformed)
                         .kv("side", "connect")
                         .kv(obs::ev::kLocal, t.entry.source.to_string())
                         .kv(obs::ev::kRemote, t.entry.target.to_string())
                         .kv("retries", t.retries));
          break;
        }
        if (sock->state() == net::TcpState::CLOSED) {
          // Refused or reset: the peer's listener may not exist yet
          // (paper: connects may arrive in any order); retry.
          (void)sock->take_error();
          (void)stack.sys_close(t.sock);
          t.sock = net::kInvalidSock;
          if (++t.retries > kMaxConnectRetries) {
            return finish(Status(Err::TIMED_OUT,
                                 "connect retries exhausted for " +
                                     t.entry.target.to_string()));
          }
          t.st = ConnTask::St::PENDING;
        }
        break;
      }
      case ConnTask::St::DONE:
        break;
    }
  }
}

void ConnectivityRestore::run_acceptor() {
  net::Stack& stack = pod_.stack();
  auto scan_listener = [&](net::SockId lid) {
    net::TcpSocket* listener = stack.find_tcp(lid);
    if (listener == nullptr) return;
    // Claim the children that belong to scheduled accepts; anything else
    // stays queued for the application itself.
    std::vector<net::SockId> pending(listener->pending_accepts().begin(),
                                     listener->pending_accepts().end());
    for (net::SockId child_id : pending) {
      net::TcpSocket* child = stack.find_tcp(child_id);
      if (child == nullptr) continue;
      for (AcceptTask& t : accepts_) {
        if (t.matched) continue;
        if (t.entry.source.port == listener->local().port &&
            t.entry.target == child->remote()) {
          listener->take_pending(child_id);
          t.matched = true;
          t.sock = child_id;
          map_[t.entry.sock] = child_id;
          tag_.event(obs::ev::Text(obs::ev::kConnReformed)
                         .kv("side", "accept")
                         .kv(obs::ev::kLocal, t.entry.source.to_string())
                         .kv(obs::ev::kRemote, t.entry.target.to_string()));
          break;
        }
      }
    }
  };
  for (auto& [port, lid] : listeners_) scan_listener(lid);
  for (auto& [port, lid] : temp_listeners_) scan_listener(lid);
}

void ConnectivityRestore::tick() {
  if (finished_) return;
  if (pod_.engine_now() > deadline_) {
    return finish(Status(Err::TIMED_OUT, "connectivity recovery timeout"));
  }

  if (serial_) {
    run_serial();
  } else {
    run_connector();
    if (finished_) return;
    run_acceptor();
  }
  if (finished_) return;

  bool all_done = true;
  for (const ConnTask& t : connects_) {
    if (t.st != ConnTask::St::DONE) all_done = false;
  }
  for (const AcceptTask& t : accepts_) {
    if (!t.matched) all_done = false;
  }

  if (all_done) {
    // Tear down the temporary listeners; any connection that was pending
    // accept at checkpoint goes back into its (real) listener's queue.
    net::Stack& stack = pod_.stack();
    for (auto& [port, lid] : temp_listeners_) (void)stack.sys_close(lid);
    for (AcceptTask& t : accepts_) {
      if (unreferenced_.count(t.entry.sock) == 0) continue;
      auto lit = listeners_.find(t.entry.source.port);
      if (lit == listeners_.end()) continue;
      net::TcpSocket* listener = stack.find_tcp(lit->second);
      if (listener != nullptr) listener->requeue_accepted(t.sock);
    }
    for (ConnTask& t : connects_) {
      // Symmetric case for connect-side sockets nobody references.
      (void)t;
    }
    return finish(Status::ok());
  }

  pod_.host().engine().schedule(
      kTickInterval, [alive = std::weak_ptr<bool>(alive_), this] {
        if (auto a = alive.lock(); a && *a) tick();
      });
}

void ConnectivityRestore::run_serial() {
  // Naive single-worker recovery: entries strictly in meta-table order.
  // A later entry cannot proceed until every earlier one completed — the
  // ordering-sensitive scheme the two-worker design makes unnecessary.
  for (const auto& e : meta_.entries) {
    if (e.state != ckpt::ConnState::FULL_DUPLEX &&
        e.state != ckpt::ConnState::HALF_DUPLEX) {
      continue;
    }
    if (e.role == ckpt::PeerRole::CONNECT) {
      for (ConnTask& t : connects_) {
        if (t.entry.sock != e.sock) continue;
        if (t.st != ConnTask::St::DONE) {
          drive_connect(t);
          if (finished_) return;
        }
        if (t.st != ConnTask::St::DONE) return;  // blocked: stop here
      }
    } else {
      run_acceptor();  // matching is passive
      for (AcceptTask& t : accepts_) {
        if (t.entry.sock == e.sock && !t.matched) return;  // blocked
      }
    }
  }
}

void ConnectivityRestore::finish(Status st) {
  if (finished_) return;
  finished_ = true;
  if (!st) {
    ZLOG_WARN("connectivity restore for pod " << pod_.name()
                                              << " failed: "
                                              << st.to_string());
  }
  // The callback typically captures the RestartOp that owns this object;
  // release it after the call or the two keep each other alive forever.
  DoneFn done = std::move(done_);
  done_ = nullptr;
  done(std::move(st), std::move(map_));
}

}  // namespace zapc::core
