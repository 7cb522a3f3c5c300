// Guest program model.
//
// A guest process is a Program — an explicit state machine stepped by the
// node scheduler.  Blocking syscalls return Err::WOULD_BLOCK and the
// program returns StepResult::block(...) naming what it waits on; the
// scheduler re-steps it when a named socket signals an event or the
// deadline passes (wakeups may be spurious, so programs always re-issue
// the syscall).
//
// Substitution note (see DESIGN.md §2): real Zap captures process memory
// pages transparently in the kernel.  Here the equivalent is that a
// program keeps bulk data in OS-owned memory regions (Process::region)
// and its small control state behind save()/load(); the checkpointer
// captures both without the *distributed coordination* logic — the
// paper's contribution — knowing anything about the application.
//
// A program's control state is described once, as an io() field list
// (util/serialize.h) that FieldProgram walks both to save and to load.
// Loading is strict: state that is short, padded or otherwise not what
// the list describes fails Err::PROTO, and the restart or spawn that
// asked for it fails rather than running the program from defaults.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.h"
#include "net/socket.h"
#include "net/sockopt.h"
#include "sim/engine.h"
#include "util/serialize.h"
#include "util/status.h"

namespace zapc::os {

class VirtualSAN;

/// What a blocked process is waiting for.  Deadlines are *relative* so
/// they stay meaningful under time virtualization (the bias between
/// engine time and pod-visible time changes across restarts).
struct WaitSpec {
  std::vector<int> fds;                  // wake on any socket event
  std::optional<sim::Time> sleep_for;    // wake after this much time

  static WaitSpec on_fd(int fd) { return WaitSpec{{fd}, std::nullopt}; }
  static WaitSpec on_fds(std::vector<int> fds) {
    return WaitSpec{std::move(fds), std::nullopt};
  }
  static WaitSpec sleep(sim::Time dt) { return WaitSpec{{}, dt}; }
  /// Wait on a socket, but no longer than `dt`.
  static WaitSpec on_fd_timeout(int fd, sim::Time dt) {
    return WaitSpec{{fd}, dt};
  }
};

/// Outcome of one Program::step call.
struct StepResult {
  enum class Kind { YIELD, BLOCK, EXIT };

  Kind kind = Kind::YIELD;
  sim::Time cost = 1;  // virtual CPU time consumed by this step
  WaitSpec wait;
  i32 exit_code = 0;

  static StepResult yield(sim::Time cost = 1) {
    return StepResult{Kind::YIELD, cost, {}, 0};
  }
  static StepResult block(WaitSpec w, sim::Time cost = 1) {
    return StepResult{Kind::BLOCK, cost, std::move(w), 0};
  }
  static StepResult exit(i32 code = 0, sim::Time cost = 1) {
    return StepResult{Kind::EXIT, cost, {}, code};
  }
};

/// The syscall interface a program sees.  Implemented by the pod layer,
/// which performs all namespace virtualization (fd→socket translation,
/// virtual addressing, time biasing) — this is the interposition boundary.
class Syscalls {
 public:
  virtual ~Syscalls() = default;

  // ---- Sockets (fd-based; addresses are virtual) ------------------------
  virtual Result<int> socket(net::Proto proto) = 0;
  virtual Status bind(int fd, net::SockAddr addr) = 0;
  virtual Status bind_raw(int fd, u8 raw_proto) = 0;
  virtual Status listen(int fd, int backlog) = 0;
  virtual Result<int> accept(int fd, net::SockAddr* peer) = 0;
  virtual Status connect(int fd, net::SockAddr peer) = 0;
  virtual Result<std::size_t> send(int fd, const Bytes& data, u32 flags) = 0;
  virtual Result<std::size_t> sendto(int fd, const Bytes& data, u32 flags,
                                     net::SockAddr to) = 0;
  virtual Result<net::RecvResult> recv(int fd, std::size_t maxlen,
                                       u32 flags) = 0;
  virtual Status shutdown(int fd, net::ShutdownHow how) = 0;
  virtual Status close(int fd) = 0;
  virtual u32 poll(int fd) = 0;
  virtual Result<i64> getsockopt(int fd, net::SockOpt opt) = 0;
  virtual Status setsockopt(int fd, net::SockOpt opt, i64 value) = 0;
  virtual Result<net::SockAddr> getsockname(int fd) = 0;
  virtual Result<net::SockAddr> getpeername(int fd) = 0;

  // ---- Process ------------------------------------------------------------
  virtual i32 getpid() const = 0;
  /// Virtual wall-clock time (biased after restart when time
  /// virtualization is enabled — paper §5).
  virtual sim::Time time() const = 0;

  /// Creates a sibling process in the same pod running a registered
  /// program (`kind` from the ProgramRegistry; a non-empty `state` fed
  /// to its load(), whose error fails the spawn).  Returns the new vpid
  /// — stable across migration, like all pod-local identifiers.
  virtual Result<i32> spawn(const std::string& kind, const Bytes& state) = 0;
  /// Non-blocking wait: the exit code if the process has exited.
  virtual Result<i32> wait_pid(i32 vpid) = 0;
  /// Forcibly terminates a sibling process (SIGKILL semantics).
  virtual Status kill(i32 vpid) = 0;

  // ---- Memory -------------------------------------------------------------
  /// Named bulk-memory region owned by the process; created zero-filled on
  /// first use, serialized wholesale by the checkpointer.
  virtual Bytes& region(const std::string& name, std::size_t size) = 0;
  /// region() for a caller that does not write the bytes now (a
  /// workspace it only sizes, a scene it only reads): like an anonymous
  /// mmap, a new region costs no memory until it is written.  Counts as
  /// the same system call and region access as region().
  virtual void reserve_region(const std::string& name, std::size_t size) = 0;

  // ---- Storage ------------------------------------------------------------
  virtual VirtualSAN& san() = 0;

  // ---- Kernel-bypass messaging (GM-style; paper §5 extension) -------------
  // These reach the pod's GM device through the virtualized interface.
  // Completion is polled, like real OS-bypass libraries.  The base
  // implementations report the device as absent.
  virtual Status gm_open(int port) {
    (void)port;
    return Status(Err::NOT_SUPPORTED, "no GM device");
  }
  virtual Status gm_close(int port) {
    (void)port;
    return Status(Err::NOT_SUPPORTED, "no GM device");
  }
  virtual Status gm_send(int port, net::SockAddr dst, const Bytes& data) {
    (void)port;
    (void)dst;
    (void)data;
    return Status(Err::NOT_SUPPORTED, "no GM device");
  }
  virtual Result<Bytes> gm_recv(int port, net::SockAddr* from) {
    (void)port;
    (void)from;
    return Status(Err::NOT_SUPPORTED, "no GM device");
  }
  virtual bool gm_sends_drained(int port) {
    (void)port;
    return true;
  }

  // ---- Application timers (virtualized across restart, paper §5) ---------
  virtual void timer_set(u32 id, sim::Time delay) = 0;
  virtual bool timer_expired(u32 id) const = 0;
  virtual void timer_clear(u32 id) = 0;
};

/// Base class for guest programs.  Concrete programs register a factory so
/// restart can re-instantiate them from the checkpoint image.
class Program {
 public:
  virtual ~Program() = default;

  /// Registry key; stable across checkpoint/restart.
  virtual const char* kind() const = 0;

  /// Executes one quantum.
  virtual StepResult step(Syscalls& sys) = 0;

  /// Control state (bulk data lives in regions).
  virtual Bytes save() const = 0;
  /// Restores what save() produced; Err::PROTO unless `state` decodes
  /// exactly, and then the program must not run.
  virtual Status load(const Bytes& state) = 0;
};

/// A Program whose control state is P's io() field list, declared as a
/// hidden friend of P so it reaches P's private members:
///
///   template <class F>
///   friend void io(F& f, MyProgram& p) { f(p.pc_, p.count_, p.comm_); }
template <class P>
class FieldProgram : public Program {
 public:
  Bytes save() const final {
    return encode_fields(static_cast<const P&>(*this));
  }
  Status load(const Bytes& state) final {
    return decode_fields(state, static_cast<P&>(*this));
  }
};

/// Global factory registry mapping Program::kind() to constructors.
class ProgramRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Program>()>;

  static ProgramRegistry& instance();

  void add(const std::string& kind, Factory f);
  Result<std::unique_ptr<Program>> create(const std::string& kind) const;
  bool known(const std::string& kind) const;

 private:
  std::unordered_map<std::string, Factory> factories_;
};

}  // namespace zapc::os

/// Registers a default-constructible program type at static-init time.
/// Use at namespace scope; `id` is any unique identifier token.
#define ZAPC_REGISTER_PROGRAM(id, cls)                                     \
  namespace {                                                              \
  const bool zapc_reg_##id = [] {                                          \
    ::zapc::os::ProgramRegistry::instance().add(                           \
        cls{}.kind(), [] { return std::make_unique<cls>(); });             \
    return true;                                                           \
  }();                                                                     \
  }  // namespace
