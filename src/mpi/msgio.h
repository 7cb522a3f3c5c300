// Framed message I/O over guest sockets, shared by the mini-MPI and
// mini-PVM middleware.
//
// Unlike core/channel.h (which is host-side and event-driven), this runs
// *inside* guest programs: all calls are non-blocking attempts and the
// whole object state — including partially received frames and queued
// transmissions — is serializable, because the middleware is checkpointed
// transparently as part of the application (the whole point of ZapC).
#pragma once

#include <deque>
#include <optional>

#include "os/program.h"
#include "util/serialize.h"

namespace zapc::mpi {

/// One received message.
struct Msg {
  u32 tag = 0;
  Bytes data;
};
template <class F>
void io(F& f, Msg& m) {
  f(m.tag, m.data);
}

/// Per-connection framed sender/receiver.  Frames are (tag u32, len u32,
/// payload).
class MsgIo {
 public:
  MsgIo() = default;
  explicit MsgIo(int fd) : fd_(fd) {}

  int fd() const { return fd_; }
  void set_fd(int fd) { fd_ = fd; }

  /// Queues a message for transmission (always succeeds; data is buffered
  /// in user space until the socket accepts it).
  void send(u32 tag, const Bytes& data);

  /// Pushes queued bytes into the socket and drains arrived bytes into
  /// complete messages.  Returns false on connection error/EOF.
  bool progress(os::Syscalls& sys);

  /// Pops the next complete message, if any.
  std::optional<Msg> pop();
  /// Pops the next message with the given tag (skipping none — messages
  /// with other tags stay queued in order).
  std::optional<Msg> pop_tag(u32 tag);
  bool has_message() const { return !inbox_.empty(); }

  /// True when all queued output has entered the socket.
  bool flushed() const { return tx_.empty(); }
  bool failed() const { return failed_; }
  /// Marks the connection failed: the peer sent a malformed message.
  void fail() { failed_ = true; }

 private:
  template <class F>
  friend void io(F& f, MsgIo& m) {
    f(m.fd_, m.tx_, m.rx_, m.inbox_, m.failed_);
  }

  int fd_ = -1;
  Bytes tx_;
  Bytes rx_;
  std::deque<Msg> inbox_;
  bool failed_ = false;
};

}  // namespace zapc::mpi
