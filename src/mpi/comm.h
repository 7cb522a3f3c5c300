// Mini-MPI: message-passing middleware for guest programs.
//
// Implements the subset of MPI the paper's benchmark applications need —
// full-mesh setup over TCP, tagged point-to-point messages, and the
// collectives (barrier, bcast, reduce, allreduce) — entirely in guest
// user space over the standard socket interface.  Like MPICH on a real
// cluster, it requires NO checkpoint awareness: ZapC checkpoints it
// transparently along with the application, which is why every bit of
// its state (connections, partial frames, in-flight collectives) is part
// of the program's serialized state.
//
// All operations are non-blocking attempts suited to the step-machine
// guest model: they return false (or nullopt) when they would block, and
// the caller blocks on wait_fds().
#pragma once

#include <optional>
#include <vector>

#include "mpi/msgio.h"
#include "net/addr.h"
#include "os/program.h"

namespace zapc::mpi {

/// Static job layout: which virtual address hosts each rank.
struct MpiConfig {
  i32 rank = 0;
  i32 size = 1;
  u16 base_port = 5200;                // rank r listens on base_port + r
  std::vector<net::IpAddr> rank_vips;  // indexed by rank

  net::SockAddr addr_of(i32 r) const {
    return net::SockAddr{rank_vips[static_cast<std::size_t>(r)],
                         static_cast<u16>(base_port + r)};
  }
};
template <class F>
void io(F& f, MpiConfig& c) {
  f(c.rank, c.size, c.base_port, c.rank_vips);
}

/// The first message on a connection to a lower rank: who is calling.
struct MpiHello {
  i32 rank = -1;
};
template <class F>
void io(F& f, MpiHello& m) {
  f(m.rank);
}

class MpiComm {
 public:
  /// Tags >= kReservedTagBase are reserved for the middleware.
  static constexpr u32 kReservedTagBase = 0x10000000;

  MpiComm() = default;
  explicit MpiComm(MpiConfig cfg) : cfg_(std::move(cfg)) {
    peers_.resize(static_cast<std::size_t>(cfg_.size));
    hello_done_.assign(static_cast<std::size_t>(cfg_.size), false);
  }

  i32 rank() const { return cfg_.rank; }
  i32 size() const { return cfg_.size; }
  const MpiConfig& config() const { return cfg_; }

  /// Advances mesh construction; true once connected to every rank.
  bool try_init(os::Syscalls& sys);
  bool initialized() const { return init_done_; }

  /// Buffered, tagged point-to-point send (never blocks; bytes drain via
  /// progress()).
  void post_send(os::Syscalls& sys, i32 dst, u32 tag, const Bytes& data);

  /// Non-blocking receive of a message with the given source and tag.
  std::optional<Bytes> try_recv(os::Syscalls& sys, i32 src, u32 tag);

  // ---- Collectives (one at a time; all ranks must call the same op) ----
  bool try_barrier(os::Syscalls& sys);
  /// Root's `data` is broadcast; on completion every rank's *data holds it.
  bool try_bcast(os::Syscalls& sys, i32 root, Bytes* data);
  /// Element-wise sum; `out` is valid on completion at every rank.
  bool try_allreduce_sum(os::Syscalls& sys, const std::vector<double>& in,
                         std::vector<double>* out);
  /// Element-wise sum delivered to root only.
  bool try_reduce_sum(os::Syscalls& sys, i32 root,
                      const std::vector<double>& in,
                      std::vector<double>* out);
  /// Root gathers every rank's blob into out[rank] (valid at root).
  bool try_gather(os::Syscalls& sys, i32 root, const Bytes& in,
                  std::vector<Bytes>* out);

  /// Pumps all connections (called implicitly by the ops).
  void progress(os::Syscalls& sys);

  /// Fds to block on when an operation returned "would block".
  std::vector<int> wait_fds() const;

  /// True if any connection failed (peer died / reset, or sent a
  /// malformed message).
  bool failed() const;

 private:
  template <class F>
  friend void io(F& f, MpiComm& c) {
    f(c.cfg_, c.peers_, c.hello_done_, c.pending_accepts_, c.listen_fd_,
      c.listener_ready_, c.connects_issued_, c.init_done_, c.coll_active_,
      c.coll_.phase, c.coll_.sent, c.coll_.got, nested(c.coll_.acc),
      c.coll_.parts);
  }

  enum : u32 {
    kTagHello = kReservedTagBase + 1,
    kTagBarrier = kReservedTagBase + 2,
    kTagBarrierRelease = kReservedTagBase + 3,
    kTagBcast = kReservedTagBase + 4,
    // A reduction's payload is the std::vector<double> by its field
    // list: a u32 count, then each element.
    kTagReduce = kReservedTagBase + 5,
    kTagReduceResult = kReservedTagBase + 6,
    kTagGather = kReservedTagBase + 7,
  };

  /// State of the single in-flight collective.
  struct CollState {
    u32 phase = 0;
    bool sent = false;
    std::vector<bool> got;
    std::vector<double> acc;
    std::vector<Bytes> parts;
    void reset(i32 size) {
      phase = 0;
      sent = false;
      got.assign(static_cast<std::size_t>(size), false);
      acc.clear();
      parts.assign(static_cast<std::size_t>(size), Bytes{});
    }
  };

  MsgIo& peer(i32 r) { return peers_[static_cast<std::size_t>(r)]; }
  /// Adds rank `j`'s kTagReduce part into coll_.acc once it has
  /// arrived, marking coll_.got; a malformed part fails the connection.
  void take_reduce_part(i32 j);

  MpiConfig cfg_;
  std::vector<MsgIo> peers_;      // peers_[rank()] unused
  std::vector<MsgIo> pending_accepts_;  // accepted, HELLO not yet seen
  std::vector<bool> hello_done_;  // peer identified / hello sent
  int listen_fd_ = -1;
  bool listener_ready_ = false;
  bool connects_issued_ = false;
  bool init_done_ = false;
  CollState coll_;
  bool coll_active_ = false;
};

}  // namespace zapc::mpi
