// Portable intermediate-format serialization for checkpoint images.
//
// The paper (§3) stresses that pod checkpoints use "higher-level semantic
// information specified in an intermediate format rather than kernel
// specific data in native format to keep the format portable across
// different kernels".  This module provides that format:
//
//  * Encoder/Decoder — little-endian primitive encoding with bounds checks.
//  * RecordWriter/RecordReader — typed, versioned, CRC-protected records
//    (tag, version, length, payload, crc32) so images can be validated and
//    skipped record-by-record.  The reader hands out views into the image
//    buffer, so validating a record copies none of its bytes.
#pragma once

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/crc32.h"
#include "util/status.h"
#include "util/types.h"

namespace zapc {

/// A borrowed run of bytes inside a buffer someone else owns.  Valid only
/// while that buffer lives unchanged.
struct ByteView {
  const u8* data = nullptr;
  std::size_t size = 0;

  /// Copies the viewed bytes into an owned buffer.
  Bytes to_bytes() const { return Bytes(data, data + size); }
};

/// Appends primitives, strings and containers to a byte buffer in a
/// fixed little-endian wire format.
class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(Bytes initial) : buf_(std::move(initial)) {}

  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_i32(i32 v) { put_le(static_cast<u32>(v)); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_f64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  /// Length-prefixed string.
  void put_string(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed raw bytes.
  void put_bytes(const Bytes& b) {
    put_u32(static_cast<u32>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Raw bytes without a length prefix (caller manages framing).
  void put_raw(const u8* p, std::size_t n) { append_bytes(buf_, p, n); }

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<u8>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Reads back what Encoder wrote.  All reads are bounds-checked; a short
/// buffer fails with Err::PROTO rather than undefined behaviour.
class Decoder {
 public:
  explicit Decoder(const Bytes& buf) : p_(buf.data()), n_(buf.size()) {}
  // A Decoder only borrows the buffer; constructing one from a temporary
  // would leave it dangling immediately.
  explicit Decoder(const Bytes&&) = delete;
  Decoder(const u8* p, std::size_t n) : p_(p), n_(n) {}
  explicit Decoder(ByteView v) : p_(v.data), n_(v.size) {}

  Result<u8> u8_() { return get_le<u8>(); }
  Result<u16> u16_() { return get_le<u16>(); }
  Result<u32> u32_() { return get_le<u32>(); }
  Result<u64> u64_() { return get_le<u64>(); }
  Result<i32> i32_() {
    auto r = get_le<u32>();
    if (!r) return r.status();
    return static_cast<i32>(r.value());
  }
  Result<i64> i64_() {
    auto r = get_le<u64>();
    if (!r) return r.status();
    return static_cast<i64>(r.value());
  }
  Result<bool> bool_() {
    auto r = get_le<u8>();
    if (!r) return r.status();
    return r.value() != 0;
  }
  Result<double> f64_() {
    auto r = get_le<u64>();
    if (!r) return r.status();
    double v;
    u64 bits = r.value();
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Reads an element count and validates it against the bytes left
  /// (each element needs at least `min_elem_size` bytes), rejecting
  /// absurd counts from corrupt input before any loop or allocation.
  Result<u32> count_(std::size_t min_elem_size) {
    auto n = u32_();
    if (!n) return n;
    if (min_elem_size > 0 &&
        n.value() > remaining() / min_elem_size) {
      return Status(Err::PROTO, "implausible element count");
    }
    return n;
  }

  Result<std::string> string_() {
    auto len = u32_();
    if (!len) return len.status();
    if (len.value() > remaining()) return Status(Err::PROTO, "short string");
    std::string s(reinterpret_cast<const char*>(p_ + off_), len.value());
    off_ += len.value();
    return s;
  }

  Result<Bytes> bytes_() {
    auto v = bytes_view_();
    if (!v) return v.status();
    return v.value().to_bytes();
  }

  /// Length-prefixed bytes as a view into the decoded buffer (no copy).
  Result<ByteView> bytes_view_() {
    auto len = u32_();
    if (!len) return len.status();
    if (len.value() > remaining()) return Status(Err::PROTO, "short bytes");
    return raw_view(len.value());
  }

  /// Views the next `n` raw bytes of the decoded buffer (no copy).
  Result<ByteView> raw_view(std::size_t n) {
    if (n > remaining()) return Status(Err::PROTO, "short raw");
    ByteView v{p_ + off_, n};
    off_ += n;
    return v;
  }

  std::size_t remaining() const { return n_ - off_; }
  bool at_end() const { return off_ == n_; }
  std::size_t offset() const { return off_; }

 private:
  template <typename T>
  Result<T> get_le() {
    if (sizeof(T) > remaining()) return Status(Err::PROTO, "short buffer");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<u64>(p_[off_ + i]) << (8 * i)));
    }
    off_ += sizeof(T);
    return v;
  }

  const u8* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

/// Record tags used in checkpoint images.  The numeric values are part of
/// the on-disk format and must not be reordered.
enum class RecordTag : u32 {
  IMAGE_HEADER = 1,     // magic, format version, pod name
  PROCESS = 2,          // one process: vpid, program, control state
  MEM_REGION = 3,       // one memory region belonging to a process
  FD_TABLE = 4,         // file-descriptor table of a process
  SOCKET_PARAMS = 5,    // socket parameters (get/setsockopt round-trip)
  SOCKET_RECV_QUEUE = 6,// saved receive queue (incl. alternate queue)
  SOCKET_SEND_QUEUE = 7,// saved send queue
  SOCKET_PCB = 8,       // minimal protocol state: sent/recv/acked
  NET_META = 9,         // per-pod connection meta-data table
  POD_HEADER = 10,      // pod namespace state (vpid map, virtual addresses)
  TIMERS = 11,          // virtualized timers owned by the application
  TIME_VIRT = 12,       // time-virtualization state (checkpoint timestamp)
  REDIRECTED_SEND_Q = 13,// migrated peer send-queue data (redirect optimization)
  IMAGE_END = 14,       // terminator
  GM_DEVICE = 15,       // kernel-bypass device state (paper §5 extension)
  REGION_MANIFEST = 16, // per-process region name/generation/size table
  MEM_REGION_ZERO = 17, // all-zero region stored as its size only
  MEM_REGION_REF = 18,  // region identical to an earlier one in this image
};

/// Lower-case name of a record tag (e.g. "mem_region"), used for the
/// per-record-type `ckpt.record.<name>.bytes` metrics; "unknown" for
/// values outside the enum.
const char* record_tag_name(RecordTag tag);

/// Writes (tag, version, length, payload, crc) framed records.
class RecordWriter {
 public:
  RecordWriter() = default;
  /// Appends records after `out`'s contents.  A caller that sized `out`'s
  /// capacity for every record up front writes them with no growth
  /// reallocation (encode_image does; see DESIGN.md §7.2).
  explicit RecordWriter(Bytes out) : buf_(std::move(out)) {}

  /// Bytes a record with a `payload_len`-byte payload takes once framed:
  /// tag(4) + version(2) + length(8) + payload + crc(4).
  static constexpr std::size_t framed_size(std::size_t payload_len) {
    return 4 + 2 + 8 + payload_len + 4;
  }

  /// Appends one record built from `payload`.
  void write(RecordTag tag, u16 version, const Bytes& payload);

  /// Convenience: frame an Encoder's buffer.
  void write(RecordTag tag, u16 version, Encoder&& enc) {
    write(tag, version, enc.take());
  }

  /// Appends one record whose payload is `head` followed by `body`,
  /// without first concatenating them.  Lets callers frame a small
  /// encoded prefix plus a large raw buffer (a memory region) with no
  /// intermediate payload copy.  The body is copied and checksummed in
  /// one pass, kCrcBlock bytes at a time; the record bytes are those of
  /// write() on the concatenated payload.
  void write_split(RecordTag tag, u16 version, const Bytes& head,
                   const u8* body, std::size_t body_len);

  /// Body bytes write_split copies before checksumming them.
  static constexpr std::size_t kCrcBlock = 64 << 10;

  const Bytes& bytes() const { return buf_.bytes(); }
  Bytes take() { return buf_.take(); }
  std::size_t size() const { return buf_.size(); }

 private:
  Encoder buf_;
};

/// CRC covering a record's header fields and payload.
u32 record_crc(RecordTag tag, u16 version, const u8* payload,
               std::size_t len);

/// Same CRC over a payload given as two spans (head + body).
u32 record_crc_split(RecordTag tag, u16 version, const Bytes& head,
                     const u8* body, std::size_t body_len);

/// One parsed record.  The payload is a view into the image buffer the
/// RecordReader iterates, so it is valid only while that buffer is.
struct RecordView {
  RecordTag tag{};
  u16 version{};
  ByteView payload;
  /// Length of the payload's trailing run of zero bytes (the whole
  /// payload when it is all zero), found during the CRC pass: a region
  /// record whose body lies inside it needs no zero scan of its own.
  std::size_t zero_tail = 0;
};

/// Iterates the records of a checkpoint image, validating CRCs.  Borrows
/// the image: it must outlive the reader and every record it returns.
class RecordReader {
 public:
  explicit RecordReader(const Bytes& image) : dec_(image) {}
  explicit RecordReader(const Bytes&&) = delete;

  /// Reads the next record; Err::NO_ENT at end of stream, Err::PROTO on
  /// corruption (bad CRC or truncated frame).  The CRC is checked over
  /// the whole record before the view is returned.  The payload is read
  /// once, kCrcBlock bytes at a time: each block is checksummed and then
  /// tested for zeros while it is still in cache (RecordView::zero_tail).
  Result<RecordView> next();

  bool at_end() const { return dec_.at_end(); }

 private:
  Decoder dec_;
};

}  // namespace zapc
