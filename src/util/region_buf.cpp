#include "util/region_buf.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>

namespace zapc {

namespace {

/// Start of a read-only all-zero mapping of at least `n` bytes.
///
/// One process-wide private anonymous mapping, PROT_READ: every page of
/// it is the kernel's shared zero page, so it occupies address space but
/// no resident memory, and a stray write through a view faults instead
/// of corrupting other views.  When a larger view is asked for, a mapping
/// twice as large (at least) replaces it for new views.  No mapping is
/// ever unmapped: views into the old one live on, and its cost is
/// address space alone — in all, under four times the largest view.
const u8* zero_mapping(std::size_t n) {
  static std::mutex mu;
  static const u8* base = nullptr;
  static std::size_t cap = 0;
  std::lock_guard<std::mutex> lock(mu);
  if (n > cap) {
    constexpr std::size_t kMin = std::size_t{1} << 20;
    std::size_t want = std::max({n, 2 * cap, kMin});
    want = (want + kMin - 1) & ~(kMin - 1);
    void* p = ::mmap(nullptr, want, PROT_READ,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    // No transparent huge pages: where the huge zero page is switched
    // off, a read fault in a huge-page range allocates a real 2 MiB page.
    (void)::madvise(p, want, MADV_NOHUGEPAGE);
    base = static_cast<const u8*>(p);
    cap = want;
  }
  return base;
}

bool same_bytes(const u8* a, const u8* b, std::size_t n) {
  return n == 0 || a == b || std::memcmp(a, b, n) == 0;
}

}  // namespace

RegionBuf::RegionBuf(Bytes b) : buf_(std::make_shared<Bytes>(std::move(b))) {}

RegionBuf RegionBuf::zeros(std::size_t n) {
  RegionBuf r;
  if (n == 0) return r;
  r.zeros_ = zero_mapping(n);
  r.zero_size_ = n;
  return r;
}

Bytes& RegionBuf::mut() {
  if (!buf_) {
    // Empty, or a zero view: fresh bytes are zero, no copy needed.
    buf_ = std::make_shared<Bytes>(zero_size_);
    zeros_ = nullptr;
    zero_size_ = 0;
  } else if (buf_.use_count() > 1) {
    buf_ = std::make_shared<Bytes>(*buf_);
  }
  return *buf_;
}

bool operator==(const RegionBuf& a, const RegionBuf& b) {
  if (a.size() != b.size()) return false;
  if (a.is_zeros() && b.is_zeros()) return true;
  return same_bytes(a.data(), b.data(), a.size());
}

bool operator==(const RegionBuf& a, const Bytes& b) {
  return a.size() == b.size() && same_bytes(a.data(), b.data(), b.size());
}

bool is_all_zero(const u8* p, std::size_t n) {
  std::size_t i = 0;
  // 256 bytes per test, ORed into four independent accumulators that the
  // compiler keeps in vector registers: one branch per 256 bytes.  The
  // record reader runs this on every block it has just checksummed, so
  // on cache-hot data it must not be the slower of the two passes.
  for (; i + 256 <= n; i += 256) {
    u64 acc[4] = {0, 0, 0, 0};
    for (std::size_t k = 0; k < 256; k += 32) {
      for (std::size_t j = 0; j < 4; ++j) {
        u64 w;
        std::memcpy(&w, p + i + k + 8 * j, sizeof w);
        acc[j] |= w;
      }
    }
    if ((acc[0] | acc[1] | acc[2] | acc[3]) != 0) return false;
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
