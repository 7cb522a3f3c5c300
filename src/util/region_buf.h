// Region bytes shared copy-on-write (DESIGN.md §14).
//
// A process's memory region, the checkpoint capture of it, the decoded
// image and the restored process all hold the same bytes through a
// RegionBuf.  Copying a RegionBuf shares its buffer; the bytes are only
// copied when a holder asks for write access (mut()) while another holder
// still has them.  That makes a capture a real copy-on-write snapshot at
// region granularity: it costs a reference, and the pod pays a clone only
// for a region it writes while the snapshot is still held.
//
// The simulation is single-threaded; the clone decision reads the
// reference count and is not meant to race with another thread.
#pragma once

#include <cstddef>
#include <memory>

#include "util/types.h"

namespace zapc {

class RegionBuf {
 public:
  using const_iterator = Bytes::const_iterator;

  RegionBuf() = default;
  /// Takes ownership of `b` (implicit: a region can be assigned bytes).
  RegionBuf(Bytes b);  // NOLINT(google-explicit-constructor)

  /// The one immutable all-zero buffer of `n` bytes (empty for n == 0).
  /// Every caller shares it while any holder lives; it is freed when the
  /// last one lets go.  A write clones it, like any shared buffer.
  static RegionBuf zeros(std::size_t n);

  std::size_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }
  const u8* data() const { return bytes().data(); }
  const Bytes& bytes() const;
  operator const Bytes&() const { return bytes(); }  // NOLINT(google-explicit-constructor)
  u8 operator[](std::size_t i) const { return bytes()[i]; }
  u8 front() const { return bytes().front(); }
  u8 back() const { return bytes().back(); }
  const_iterator begin() const { return bytes().begin(); }
  const_iterator end() const { return bytes().end(); }

  /// Write access.  A buffer another holder still shares (or the shared
  /// zero buffer) is cloned first, so no other holder sees the write.
  Bytes& mut();

  /// Whether mut() would clone: another holder shares these bytes, or
  /// they are the shared zero buffer.
  bool shared() const { return buf_ && (pinned_ || buf_.use_count() > 1); }

  friend bool operator==(const RegionBuf& a, const RegionBuf& b) {
    return a.buf_ == b.buf_ || a.bytes() == b.bytes();
  }
  friend bool operator==(const RegionBuf& a, const Bytes& b) {
    return a.bytes() == b;
  }

 private:
  std::shared_ptr<Bytes> buf_;
  bool pinned_ = false;  // the shared zero buffer: never written in place
};

/// Whether all `n` bytes at `p` are zero.  Reads a word at a time and
/// stops at the first non-zero word.
bool is_all_zero(const u8* p, std::size_t n);

}  // namespace zapc
