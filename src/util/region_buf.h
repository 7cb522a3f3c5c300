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
// An all-zero region need not be memory at all: RegionBuf::zeros() is a
// view into one read-only anonymous mapping whose pages are all the
// kernel's zero page, so it costs no resident memory to create or read.
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
  RegionBuf() = default;
  /// Takes ownership of `b` (implicit: a region can be assigned bytes).
  RegionBuf(Bytes b);  // NOLINT(google-explicit-constructor)

  /// A zero view of `n` bytes (empty for n == 0): it points into the
  /// process-wide read-only zero mapping, so it allocates nothing and
  /// reading it faults in no memory.  A write (mut()) makes owned zeros.
  static RegionBuf zeros(std::size_t n);

  std::size_t size() const { return buf_ ? buf_->size() : zero_size_; }
  bool empty() const { return size() == 0; }
  const u8* data() const { return buf_ ? buf_->data() : zeros_; }
  u8 operator[](std::size_t i) const { return data()[i]; }
  u8 front() const { return data()[0]; }
  u8 back() const { return data()[size() - 1]; }
  const u8* begin() const { return data(); }
  const u8* end() const { return data() + size(); }
  /// An owned copy of the bytes.
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Whether this is a zero view: all zero by construction, no scan.
  bool is_zeros() const { return zeros_ != nullptr; }

  /// Write access.  A buffer another holder still shares is cloned
  /// first, so no other holder sees the write; a zero view becomes owned
  /// zeros.
  Bytes& mut();

  /// Whether mut() would clone: another holder shares these bytes, or
  /// they are a zero view.
  bool shared() const { return buf_ ? buf_.use_count() > 1 : is_zeros(); }

  friend bool operator==(const RegionBuf& a, const RegionBuf& b);
  friend bool operator==(const RegionBuf& a, const Bytes& b);

 private:
  std::shared_ptr<Bytes> buf_;    // owned bytes; null when empty or a view
  const u8* zeros_ = nullptr;     // zero view: the start of the zero mapping
  std::size_t zero_size_ = 0;     // zero view: its length
};

/// Whether all `n` bytes at `p` are zero.  Reads 256 bytes per step and
/// stops at the first step holding a non-zero byte.
bool is_all_zero(const u8* p, std::size_t n);

}  // namespace zapc
