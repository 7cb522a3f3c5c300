#include "pod/syscalls.h"

namespace zapc::pod {

Result<int> PodSyscalls::socket(net::Proto proto) {
  pod_.note_syscall();
  auto sid = pod_.stack().sys_socket(proto);
  if (!sid) return sid.status();
  return proc_.fd_install(sid.value());
}

Status PodSyscalls::bind(int fd, net::SockAddr addr) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_bind(s.value(), addr);
}

Status PodSyscalls::bind_raw(int fd, u8 raw_proto) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_bind_raw(s.value(), raw_proto);
}

Status PodSyscalls::listen(int fd, int backlog) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_listen(s.value(), backlog);
}

Result<int> PodSyscalls::accept(int fd, net::SockAddr* peer) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  auto child = pod_.stack().sys_accept(s.value(), peer);
  if (!child) return child.status();
  return proc_.fd_install(child.value());
}

Status PodSyscalls::connect(int fd, net::SockAddr peer) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_connect(s.value(), peer);
}

Result<std::size_t> PodSyscalls::send(int fd, const Bytes& data, u32 flags) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_send(s.value(), data, flags);
}

Result<std::size_t> PodSyscalls::sendto(int fd, const Bytes& data, u32 flags,
                                        net::SockAddr to) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_sendto(s.value(), data, flags, to);
}

Result<net::RecvResult> PodSyscalls::recv(int fd, std::size_t maxlen,
                                          u32 flags) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_recv(s.value(), maxlen, flags);
}

Status PodSyscalls::shutdown(int fd, net::ShutdownHow how) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_shutdown(s.value(), how);
}

Status PodSyscalls::close(int fd) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  proc_.fd_remove(fd);
  return pod_.stack().sys_close(s.value());
}

u32 PodSyscalls::poll(int fd) {
  auto s = sock_of(fd);
  if (!s) return net::POLLERR;
  return pod_.stack().sys_poll(s.value());
}

Result<i64> PodSyscalls::getsockopt(int fd, net::SockOpt opt) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_getsockopt(s.value(), opt);
}

Status PodSyscalls::setsockopt(int fd, net::SockOpt opt, i64 value) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_setsockopt(s.value(), opt, value);
}

Result<net::SockAddr> PodSyscalls::getsockname(int fd) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_getsockname(s.value());
}

Result<net::SockAddr> PodSyscalls::getpeername(int fd) {
  auto s = sock_of(fd);
  if (!s) return s.status();
  return pod_.stack().sys_getpeername(s.value());
}

Result<i32> PodSyscalls::spawn(const std::string& kind, const Bytes& state) {
  pod_.note_syscall();
  auto prog = os::ProgramRegistry::instance().create(kind);
  if (!prog) return prog.status();
  if (!state.empty()) {
    if (Status s = prog.value()->load(state); !s) return s;
  }
  return pod_.spawn(std::move(prog).value());
}

Result<i32> PodSyscalls::wait_pid(i32 vpid) {
  pod_.note_syscall();
  os::Process* p = pod_.find_process(vpid);
  if (p == nullptr) return Status(Err::NO_ENT, "no such vpid");
  if (p->state() != os::ProcState::EXITED) return Status(Err::WOULD_BLOCK);
  return p->exit_code();
}

Status PodSyscalls::kill(i32 vpid) {
  pod_.note_syscall();
  return pod_.kill(vpid);
}

Status PodSyscalls::gm_open(int port) {
  pod_.note_syscall();
  return pod_.gm_device().open_port(port);
}

Status PodSyscalls::gm_close(int port) {
  pod_.note_syscall();
  return pod_.gm_device().close_port(port);
}

Status PodSyscalls::gm_send(int port, net::SockAddr dst, const Bytes& data) {
  pod_.note_syscall();
  return pod_.gm_device().send(port, dst, data);
}

Result<Bytes> PodSyscalls::gm_recv(int port, net::SockAddr* from) {
  pod_.note_syscall();
  auto m = pod_.gm_device().recv(port);
  if (!m) return Status(Err::WOULD_BLOCK);
  if (from != nullptr) *from = m->from;
  return std::move(m->data);
}

bool PodSyscalls::gm_sends_drained(int port) {
  pod_.note_syscall();
  return pod_.gm_device().sends_drained(port);
}

void PodSyscalls::timer_set(u32 id, sim::Time delay) {
  // Stored as absolute engine time; the checkpointer converts to a
  // remaining delta and back so timers survive restart unexpired.
  proc_.timers()[id] = pod_.host().engine().now() + delay;
}

bool PodSyscalls::timer_expired(u32 id) const {
  auto it = proc_.timers().find(id);
  if (it == proc_.timers().end()) return false;
  return pod_.host().engine().now() >= it->second;
}

void PodSyscalls::timer_clear(u32 id) { proc_.timers().erase(id); }

}  // namespace zapc::pod
