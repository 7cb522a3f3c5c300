#include "mpi/msgio.h"

#include <algorithm>

namespace zapc::mpi {

void MsgIo::send(u32 tag, const Bytes& data) {
  Encoder e;
  e.put_u32(tag);
  e.put_u32(static_cast<u32>(data.size()));
  tx_.insert(tx_.end(), e.bytes().begin(), e.bytes().end());
  tx_.insert(tx_.end(), data.begin(), data.end());
}

bool MsgIo::progress(os::Syscalls& sys) {
  if (failed_ || fd_ < 0) return !failed_;

  // Transmit.
  while (!tx_.empty()) {
    std::size_t n = std::min<std::size_t>(tx_.size(), 64 * 1024);
    Bytes chunk(tx_.begin(), tx_.begin() + static_cast<long>(n));
    auto w = sys.send(fd_, chunk, 0);
    if (!w.is_ok()) {
      if (w.err() == Err::WOULD_BLOCK) break;
      failed_ = true;
      return false;
    }
    tx_.erase(tx_.begin(), tx_.begin() + static_cast<long>(w.value()));
    if (w.value() < n) break;
  }

  // Receive.  On EOF/error the connection is marked failed but any bytes
  // that arrived with (or before) the close still get reassembled below —
  // a peer may legitimately send its last message and exit.
  while (true) {
    auto r = sys.recv(fd_, 64 * 1024, 0);
    if (!r.is_ok()) {
      if (r.err() == Err::WOULD_BLOCK) break;
      failed_ = true;
      break;
    }
    if (r.value().eof) {
      failed_ = true;
      break;
    }
    append_bytes(rx_, r.value().data);
  }

  // Reassemble frames.
  std::size_t off = 0;
  while (rx_.size() - off >= 8) {
    Decoder d(rx_.data() + off, 8);
    const u32 tag = d.get_le<u32>().value();
    const u32 len = d.get_le<u32>().value();
    if (rx_.size() - off - 8 < len) break;
    Msg m;
    m.tag = tag;
    m.data.assign(rx_.begin() + static_cast<long>(off + 8),
                  rx_.begin() + static_cast<long>(off + 8 + len));
    inbox_.push_back(std::move(m));
    off += 8 + len;
  }
  if (off > 0) rx_.erase(rx_.begin(), rx_.begin() + static_cast<long>(off));
  return !failed_;
}

std::optional<Msg> MsgIo::pop() {
  if (inbox_.empty()) return std::nullopt;
  Msg m = std::move(inbox_.front());
  inbox_.pop_front();
  return m;
}

std::optional<Msg> MsgIo::pop_tag(u32 tag) {
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    if (it->tag == tag) {
      Msg m = std::move(*it);
      inbox_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

}  // namespace zapc::mpi
