// Scripted syscalls: drives a guest program, or the middleware inside
// one, to a chosen state without a cluster or a network stack.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>

#include "os/program.h"
#include "os/san.h"

namespace zapc::test {

/// Sockets are fds from 3 up; bind, listen and setsockopt succeed and a
/// connect is in progress.  accept() hands out `accepts` in order.  A
/// send takes every byte unless `sends_block`; taken bytes are kept per
/// fd in `sent`.  recv() returns the fd's next `inbound` chunk, then EOF
/// once the fd is in `closed`, else WOULD_BLOCK.  Regions are plain
/// buffers in `regions`; the SAN is a private VirtualSAN.
class ScriptedSys final : public os::Syscalls {
 public:
  int next_fd = 3;
  std::deque<int> accepts;
  bool sends_block = false;
  std::map<int, Bytes> sent;
  std::map<int, std::deque<Bytes>> inbound;
  std::set<int> closed;
  std::map<std::string, Bytes> regions;
  os::VirtualSAN storage;

  /// A middleware frame as MsgIo sends it: tag, length, payload.
  static Bytes frame(u32 tag, const Bytes& payload) {
    Encoder e;
    e.put_u32(tag);
    e.put_u32(static_cast<u32>(payload.size()));
    e.put_raw(payload.data(), payload.size());
    return e.take();
  }

  Result<int> socket(net::Proto) override { return next_fd++; }
  Status bind(int, net::SockAddr) override { return Status::ok(); }
  Status bind_raw(int, u8) override { return Status::ok(); }
  Status listen(int, int) override { return Status::ok(); }
  Result<int> accept(int, net::SockAddr*) override {
    if (accepts.empty()) return Status(Err::WOULD_BLOCK);
    int fd = accepts.front();
    accepts.pop_front();
    return fd;
  }
  Status connect(int, net::SockAddr) override {
    return Status(Err::IN_PROGRESS);
  }
  Result<std::size_t> send(int fd, const Bytes& data, u32) override {
    if (sends_block) return Status(Err::WOULD_BLOCK);
    append_bytes(sent[fd], data);
    return data.size();
  }
  Result<std::size_t> sendto(int fd, const Bytes& data, u32 flags,
                             net::SockAddr) override {
    return send(fd, data, flags);
  }
  Result<net::RecvResult> recv(int fd, std::size_t, u32) override {
    auto& q = inbound[fd];
    net::RecvResult r;
    if (!q.empty()) {
      r.data = std::move(q.front());
      q.pop_front();
      return r;
    }
    if (closed.count(fd) == 0) return Status(Err::WOULD_BLOCK);
    r.eof = true;
    return r;
  }
  Status shutdown(int, net::ShutdownHow) override { return Status::ok(); }
  Status close(int) override { return Status::ok(); }
  u32 poll(int) override { return net::POLLOUT; }
  Result<i64> getsockopt(int, net::SockOpt) override { return i64{0}; }
  Status setsockopt(int, net::SockOpt, i64) override { return Status::ok(); }
  Result<net::SockAddr> getsockname(int) override { return net::SockAddr{}; }
  Result<net::SockAddr> getpeername(int) override { return net::SockAddr{}; }

  i32 getpid() const override { return 1; }
  sim::Time time() const override { return 0; }
  Result<i32> spawn(const std::string&, const Bytes&) override {
    return Status(Err::NOT_SUPPORTED);
  }
  Result<i32> wait_pid(i32) override { return Status(Err::NOT_SUPPORTED); }
  Status kill(i32) override { return Status(Err::NOT_SUPPORTED); }

  Bytes& region(const std::string& name, std::size_t size) override {
    Bytes& r = regions[name];
    if (r.size() < size) r.resize(size);
    return r;
  }
  void reserve_region(const std::string& name, std::size_t size) override {
    (void)region(name, size);
  }

  os::VirtualSAN& san() override { return storage; }

  void timer_set(u32, sim::Time) override {}
  bool timer_expired(u32) const override { return false; }
  void timer_clear(u32) override {}
};

}  // namespace zapc::test
