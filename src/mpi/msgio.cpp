#include "mpi/msgio.h"

#include <algorithm>

namespace zapc::mpi {

void MsgIo::send(u32 tag, const Bytes& data) {
  Encoder e(std::move(tx_));
  e.put_u32(tag);
  e.put_bytes(data);  // u32 length, then the payload
  tx_ = e.take();
}

bool MsgIo::progress(os::Syscalls& sys) {
  if (failed_ || fd_ < 0) return !failed_;

  // Transmit at most 64 KiB per send: the whole queue when it fits,
  // else one copied chunk at a time.  The sent prefix is erased once.
  std::size_t sent = 0;
  while (sent < tx_.size()) {
    const std::size_t n =
        std::min<std::size_t>(tx_.size() - sent, 64 * 1024);
    auto w = n == tx_.size()
                 ? sys.send(fd_, tx_, 0)
                 : sys.send(fd_, Bytes(tx_.begin() + sent,
                                       tx_.begin() + sent + n),
                            0);
    if (!w.is_ok()) {
      if (w.err() != Err::WOULD_BLOCK) failed_ = true;
      break;
    }
    sent += w.value();
    if (w.value() < n) break;
  }
  tx_.erase(tx_.begin(), tx_.begin() + static_cast<long>(sent));
  if (failed_) return false;

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
