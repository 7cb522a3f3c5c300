#include "util/region_buf.h"

#include <cstring>
#include <map>

namespace zapc {

RegionBuf::RegionBuf(Bytes b) : buf_(std::make_shared<Bytes>(std::move(b))) {}

RegionBuf RegionBuf::zeros(std::size_t n) {
  RegionBuf r;
  if (n == 0) return r;
  // Held weakly: the cache never keeps a zero buffer alive by itself.
  static std::map<std::size_t, std::weak_ptr<Bytes>> cache;
  r.buf_ = cache[n].lock();
  if (!r.buf_) {
    std::erase_if(cache, [](const auto& kv) { return kv.second.expired(); });
    r.buf_ = std::make_shared<Bytes>(n);
    cache[n] = r.buf_;
  }
  r.pinned_ = true;
  return r;
}

const Bytes& RegionBuf::bytes() const {
  static const Bytes kEmpty;
  return buf_ ? *buf_ : kEmpty;
}

Bytes& RegionBuf::mut() {
  if (!buf_) {
    buf_ = std::make_shared<Bytes>();
  } else if (shared()) {
    // A clone of the zero buffer needs no copy: fresh bytes are zero.
    buf_ = pinned_ ? std::make_shared<Bytes>(buf_->size())
                   : std::make_shared<Bytes>(*buf_);
    pinned_ = false;
  }
  return *buf_;
}

bool is_all_zero(const u8* p, std::size_t n) {
  std::size_t i = 0;
  // Eight words per test: one branch per 64 bytes.
  for (; i + 64 <= n; i += 64) {
    u64 acc = 0;
    for (std::size_t k = 0; k < 64; k += 8) {
      u64 w;
      std::memcpy(&w, p + i + k, sizeof w);
      acc |= w;
    }
    if (acc != 0) return false;
  }
  for (; i + 8 <= n; i += 8) {
    u64 w;
    std::memcpy(&w, p + i, sizeof w);
    if (w != 0) return false;
  }
  for (; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

}  // namespace zapc
