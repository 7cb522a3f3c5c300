#include "mpi/comm.h"

#include "util/log.h"

namespace zapc::mpi {

// ---- Mesh construction --------------------------------------------------------

bool MpiComm::try_init(os::Syscalls& sys) {
  if (init_done_) return true;
  if (cfg_.size == 1) {
    init_done_ = true;
    return true;
  }

  // Listener for ranks above us.
  if (!listener_ready_) {
    if (listen_fd_ < 0) {
      auto fd = sys.socket(net::Proto::TCP);
      if (!fd) return false;
      listen_fd_ = fd.value();
      (void)sys.setsockopt(listen_fd_, net::SockOpt::SO_REUSEADDR, 1);
    }
    if (!sys.bind(listen_fd_,
                  net::SockAddr{net::kAnyAddr,
                                static_cast<u16>(cfg_.base_port +
                                                 cfg_.rank)})) {
      return false;
    }
    if (!sys.listen(listen_fd_, cfg_.size)) return false;
    listener_ready_ = true;
  }

  // Connect to every lower rank; the HELLO identifying us is queued
  // immediately and drains once the connection establishes.
  if (!connects_issued_) {
    for (i32 j = 0; j < cfg_.rank; ++j) {
      auto fd = sys.socket(net::Proto::TCP);
      if (!fd) return false;
      Status st = sys.connect(fd.value(), cfg_.addr_of(j));
      if (!st.is_ok() && st.err() != Err::IN_PROGRESS) return false;
      peer(j).set_fd(fd.value());
      peer(j).send(kTagHello, encode_fields(MpiHello{cfg_.rank}));
    }
    connects_issued_ = true;
  }

  // Retry refused connects (we may have started before the peer's
  // listener existed).
  for (i32 j = 0; j < cfg_.rank; ++j) {
    if (peer(j).failed()) {
      (void)sys.close(peer(j).fd());
      auto fd = sys.socket(net::Proto::TCP);
      if (!fd) return false;
      Status st = sys.connect(fd.value(), cfg_.addr_of(j));
      if (!st.is_ok() && st.err() != Err::IN_PROGRESS) return false;
      peers_[static_cast<std::size_t>(j)] = MsgIo(fd.value());
      peer(j).send(kTagHello, encode_fields(MpiHello{cfg_.rank}));
    }
  }

  // Accept connections from higher ranks and identify them by HELLO.
  while (true) {
    auto child = sys.accept(listen_fd_, nullptr);
    if (!child) break;
    pending_accepts_.push_back(MsgIo(child.value()));
  }
  for (auto it = pending_accepts_.begin(); it != pending_accepts_.end();) {
    it->progress(sys);
    auto hello = it->pop_tag(kTagHello);
    if (hello) {
      MpiHello h;
      const i32 r = decode_fields(hello->data, h) ? h.rank : -1;
      if (r > cfg_.rank && r < cfg_.size) {
        peers_[static_cast<std::size_t>(r)] = std::move(*it);
        hello_done_[static_cast<std::size_t>(r)] = true;
      } else {
        (void)sys.close(it->fd());
      }
      it = pending_accepts_.erase(it);
    } else if (it->failed()) {
      it = pending_accepts_.erase(it);
    } else {
      ++it;
    }
  }

  progress(sys);

  // Lower ranks are ready once our HELLO drained into an established
  // connection; higher ranks once their HELLO arrived.
  bool all = true;
  for (i32 j = 0; j < cfg_.size; ++j) {
    if (j == cfg_.rank) continue;
    if (j < cfg_.rank) {
      if (peer(j).failed() || !peer(j).flushed()) all = false;
    } else {
      if (!hello_done_[static_cast<std::size_t>(j)]) all = false;
    }
  }
  if (all) init_done_ = true;
  return init_done_;
}

void MpiComm::progress(os::Syscalls& sys) {
  for (i32 j = 0; j < cfg_.size; ++j) {
    if (j == cfg_.rank) continue;
    if (peer(j).fd() >= 0) (void)peer(j).progress(sys);
  }
}

std::vector<int> MpiComm::wait_fds() const {
  std::vector<int> fds;
  if (!init_done_ && listen_fd_ >= 0) fds.push_back(listen_fd_);
  for (i32 j = 0; j < cfg_.size; ++j) {
    if (j == cfg_.rank) continue;
    int fd = peers_[static_cast<std::size_t>(j)].fd();
    if (fd >= 0) fds.push_back(fd);
  }
  for (const MsgIo& io : pending_accepts_) {
    if (io.fd() >= 0) fds.push_back(io.fd());
  }
  return fds;
}

bool MpiComm::failed() const {
  for (i32 j = 0; j < cfg_.size; ++j) {
    if (j == cfg_.rank) continue;
    // Failures before init are handled by the connect retry path.
    if (init_done_ && peers_[static_cast<std::size_t>(j)].failed()) {
      return true;
    }
  }
  return false;
}

// ---- Point-to-point --------------------------------------------------------------

void MpiComm::post_send(os::Syscalls& sys, i32 dst, u32 tag,
                        const Bytes& data) {
  peer(dst).send(tag, data);
  (void)peer(dst).progress(sys);
}

std::optional<Bytes> MpiComm::try_recv(os::Syscalls& sys, i32 src, u32 tag) {
  (void)peer(src).progress(sys);
  auto m = peer(src).pop_tag(tag);
  if (!m) return std::nullopt;
  return std::move(m->data);
}

// ---- Collectives ------------------------------------------------------------------

bool MpiComm::try_barrier(os::Syscalls& sys) {
  progress(sys);
  if (cfg_.size == 1) return true;
  if (!coll_active_) {
    coll_.reset(cfg_.size);
    coll_active_ = true;
  }
  if (cfg_.rank == 0) {
    for (i32 j = 1; j < cfg_.size; ++j) {
      auto got = coll_.got[static_cast<std::size_t>(j)];
      if (!got && peer(j).pop_tag(kTagBarrier)) got = true;
    }
    for (i32 j = 1; j < cfg_.size; ++j) {
      if (!coll_.got[static_cast<std::size_t>(j)]) return false;
    }
    for (i32 j = 1; j < cfg_.size; ++j) {
      post_send(sys, j, kTagBarrierRelease, {});
    }
    coll_active_ = false;
    return true;
  }
  if (!coll_.sent) {
    post_send(sys, 0, kTagBarrier, {});
    coll_.sent = true;
  }
  if (peer(0).pop_tag(kTagBarrierRelease)) {
    coll_active_ = false;
    return true;
  }
  return false;
}

bool MpiComm::try_bcast(os::Syscalls& sys, i32 root, Bytes* data) {
  progress(sys);
  if (cfg_.size == 1) return true;
  if (cfg_.rank == root) {
    for (i32 j = 0; j < cfg_.size; ++j) {
      if (j != root) post_send(sys, j, kTagBcast, *data);
    }
    return true;
  }
  auto m = peer(root).pop_tag(kTagBcast);
  if (!m) return false;
  *data = std::move(m->data);
  return true;
}

bool MpiComm::try_reduce_sum(os::Syscalls& sys, i32 root,
                             const std::vector<double>& in,
                             std::vector<double>* out) {
  progress(sys);
  if (cfg_.size == 1) {
    *out = in;
    return true;
  }
  if (!coll_active_) {
    coll_.reset(cfg_.size);
    coll_.acc = in;
    coll_active_ = true;
  }
  if (cfg_.rank == root) {
    for (i32 j = 0; j < cfg_.size; ++j) {
      if (j != root) take_reduce_part(j);
    }
    for (i32 j = 0; j < cfg_.size; ++j) {
      if (j != root && !coll_.got[static_cast<std::size_t>(j)]) return false;
    }
    *out = coll_.acc;
    coll_active_ = false;
    return true;
  }
  if (!coll_.sent) {
    post_send(sys, root, kTagReduce, encode_fields(in));
    coll_.sent = true;
  }
  coll_active_ = false;  // non-root's part is done once sent
  return true;
}

bool MpiComm::try_allreduce_sum(os::Syscalls& sys,
                                const std::vector<double>& in,
                                std::vector<double>* out) {
  progress(sys);
  if (cfg_.size == 1) {
    *out = in;
    return true;
  }
  if (!coll_active_) {
    coll_.reset(cfg_.size);
    coll_.acc = in;
    coll_active_ = true;
  }
  if (cfg_.rank == 0) {
    if (coll_.phase == 0) {
      for (i32 j = 1; j < cfg_.size; ++j) take_reduce_part(j);
      for (i32 j = 1; j < cfg_.size; ++j) {
        if (!coll_.got[static_cast<std::size_t>(j)]) return false;
      }
      const Bytes packed = encode_fields(coll_.acc);
      for (i32 j = 1; j < cfg_.size; ++j) {
        post_send(sys, j, kTagReduceResult, packed);
      }
      coll_.phase = 1;
    }
    *out = coll_.acc;
    coll_active_ = false;
    return true;
  }
  if (!coll_.sent) {
    post_send(sys, 0, kTagReduce, encode_fields(in));
    coll_.sent = true;
  }
  auto m = peer(0).pop_tag(kTagReduceResult);
  if (!m) return false;
  if (!decode_fields(m->data, *out)) {
    peer(0).fail();
    return false;
  }
  coll_active_ = false;
  return true;
}

bool MpiComm::try_gather(os::Syscalls& sys, i32 root, const Bytes& in,
                         std::vector<Bytes>* out) {
  progress(sys);
  if (cfg_.size == 1) {
    out->assign(1, in);
    return true;
  }
  if (!coll_active_) {
    coll_.reset(cfg_.size);
    coll_active_ = true;
  }
  if (cfg_.rank == root) {
    coll_.parts[static_cast<std::size_t>(root)] = in;
    for (i32 j = 0; j < cfg_.size; ++j) {
      if (j == root) continue;
      auto got = coll_.got[static_cast<std::size_t>(j)];
      if (got) continue;
      auto m = peer(j).pop_tag(kTagGather);
      if (!m) continue;
      coll_.parts[static_cast<std::size_t>(j)] = std::move(m->data);
      got = true;
    }
    for (i32 j = 0; j < cfg_.size; ++j) {
      if (j != root && !coll_.got[static_cast<std::size_t>(j)]) return false;
    }
    *out = coll_.parts;
    coll_active_ = false;
    return true;
  }
  if (!coll_.sent) {
    post_send(sys, root, kTagGather, in);
    coll_.sent = true;
  }
  coll_active_ = false;
  return true;
}

void MpiComm::take_reduce_part(i32 j) {
  auto got = coll_.got[static_cast<std::size_t>(j)];
  if (got) return;
  auto m = peer(j).pop_tag(kTagReduce);
  if (!m) return;
  std::vector<double> v;
  if (!decode_fields(m->data, v)) {
    peer(j).fail();
    return;
  }
  for (std::size_t k = 0; k < coll_.acc.size() && k < v.size(); ++k) {
    coll_.acc[k] += v[k];
  }
  got = true;
}

}  // namespace zapc::mpi
