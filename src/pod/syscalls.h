// PodSyscalls: the thin virtualization layer of paper §3, as the
// implementation of the os::Syscalls interface.
//
// Every system call a guest program issues passes through here, where pod
// namespace translation happens: fds resolve through the process's fd
// table to sockets in the *pod's* stack (never the host's), addresses are
// virtual, time is biased by the pod's checkpoint/restart delta, and
// process identifiers are pod-local vpids.
#pragma once

#include "os/program.h"
#include "pod/pod.h"

namespace zapc::pod {

class PodSyscalls final : public os::Syscalls {
 public:
  PodSyscalls(Pod& pod, os::Process& proc) : pod_(pod), proc_(proc) {}

  Result<int> socket(net::Proto proto) override;
  Status bind(int fd, net::SockAddr addr) override;
  Status bind_raw(int fd, u8 raw_proto) override;
  Status listen(int fd, int backlog) override;
  Result<int> accept(int fd, net::SockAddr* peer) override;
  Status connect(int fd, net::SockAddr peer) override;
  Result<std::size_t> send(int fd, const Bytes& data, u32 flags) override;
  Result<std::size_t> sendto(int fd, const Bytes& data, u32 flags,
                             net::SockAddr to) override;
  Result<net::RecvResult> recv(int fd, std::size_t maxlen, u32 flags) override;
  Status shutdown(int fd, net::ShutdownHow how) override;
  Status close(int fd) override;
  u32 poll(int fd) override;
  Result<i64> getsockopt(int fd, net::SockOpt opt) override;
  Status setsockopt(int fd, net::SockOpt opt, i64 value) override;
  Result<net::SockAddr> getsockname(int fd) override;
  Result<net::SockAddr> getpeername(int fd) override;

  i32 getpid() const override {
    pod_.note_syscall();
    return proc_.vpid();
  }

  Result<i32> spawn(const std::string& kind, const Bytes& state) override;
  Result<i32> wait_pid(i32 vpid) override;
  Status kill(i32 vpid) override;

  // Kernel-bypass device access (the virtualized GM interface).
  Status gm_open(int port) override;
  Status gm_close(int port) override;
  Status gm_send(int port, net::SockAddr dst, const Bytes& data) override;
  Result<Bytes> gm_recv(int port, net::SockAddr* from) override;
  bool gm_sends_drained(int port) override;
  sim::Time time() const override {
    pod_.note_syscall();
    return pod_.virtual_now();
  }

  Bytes& region(const std::string& name, std::size_t size) override {
    pod_.note_syscall();
    return proc_.region(name, size);
  }
  void reserve_region(const std::string& name, std::size_t size) override {
    pod_.note_syscall();
    proc_.reserve_region(name, size);
  }

  os::VirtualSAN& san() override { return pod_.host().san(); }

  void timer_set(u32 id, sim::Time delay) override;
  bool timer_expired(u32 id) const override;
  void timer_clear(u32 id) override;

 private:
  Result<net::SockId> sock_of(int fd) const {
    pod_.note_syscall();
    return proc_.fd_lookup(fd);
  }

  Pod& pod_;
  os::Process& proc_;
};

}  // namespace zapc::pod
