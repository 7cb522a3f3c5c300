// Portable intermediate-format serialization for checkpoint images.
//
// The paper (§3) stresses that pod checkpoints use "higher-level semantic
// information specified in an intermediate format rather than kernel
// specific data in native format to keep the format portable across
// different kernels".  This module provides that format:
//
//  * Encoder/Decoder — little-endian primitive encoding with bounds checks.
//  * FieldWriter/FieldReader — walk a struct's one io() field list to
//    encode it or to decode it strictly (see "Field lists" below).
//  * RecordWriter/RecordReader — typed, versioned, CRC-protected records
//    (tag, version, length, payload, crc32) so images can be validated and
//    skipped record-by-record.  The reader hands out views into the image
//    buffer, so validating a record copies none of its bytes.
#pragma once

#include <array>
#include <cstring>
#include <deque>
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
  /// `n` zero bytes without a length prefix.
  void put_zeros(std::size_t n) { buf_.resize(buf_.size() + n); }

  /// An unsigned integer, little-endian.
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<u8>(v >> (8 * i)));
    }
  }

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
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

  Result<u16> u16_() { return get_le<u16>(); }
  Result<u32> u32_() { return get_le<u32>(); }
  Result<u64> u64_() { return get_le<u64>(); }
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

  /// An unsigned integer, little-endian.
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

 private:
  const u8* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

// ---- Field lists --------------------------------------------------------------
//
// Each wire struct describes its encoding once, as a field list found by
// argument-dependent lookup in the struct's namespace:
//
//   template <class F> void io(F& f, Foo& m) { f(m.a, m.b, m.items); }
//
// FieldWriter walks the list to encode and FieldReader walks the same list
// to decode, so the two directions cannot disagree.  A field is encoded by
// its type:
//
//   bool, integers        little-endian; bool as one byte 0/1
//   double                its IEEE-754 bits as a u64
//   enums                 their underlying integer
//   std::string, Bytes    u32 length, then the bytes
//   ByteView              as Bytes; decoded as a view into the input
//   std::vector, std::deque, std::map
//                         u32 count, then each element (a map: key, value)
//   std::array<T, N>      u32 count (N), then each element
//   std::pair             first, then second
//   Fixed<T>              a constant: a magic number or a message type
//   Nested<T>             T's field list as a length-prefixed payload
//   any other type        its own io() field list
//
// Decoding is strict: a short field, a bool other than 0 or 1, a count the
// remaining bytes cannot hold, a wrong array count, a wrong constant, map
// keys out of strictly increasing order (the one order the writer emits)
// or a trailing byte fails Err::PROTO.  A list may end in an optional
// tail, `if (f.tail(present)) f(...)`: the writer writes it when
// `present`, the reader reads it when bytes remain.

/// A field with one valid value.
template <typename T>
struct Fixed {
  T value;
};

/// A field encoded as a length-prefixed payload of its own field list.
template <typename T>
struct Nested {
  T& value;
};
template <typename T>
Nested<T> nested(T& v) {
  return Nested<T>{v};
}

class FieldWriter {
 public:
  /// With `head_only`, a ByteView field writes its length prefix but not
  /// its bytes (see encode_head).
  explicit FieldWriter(Encoder& e, bool head_only = false)
      : e_(e), head_only_(head_only) {}

  template <typename... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  bool tail(bool present) const { return present; }

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      e_.put_u8(v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, double>) {
      e_.put_f64(v);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      e_.put_le(static_cast<std::make_unsigned_t<T>>(v));
    } else {
      // The list takes its struct non-const so it can serve the reader
      // too; the writer only reads through it.
      io(*this, const_cast<T&>(v));
    }
  }
  void put(const std::string& s) { e_.put_string(s); }
  void put(const Bytes& b) { e_.put_bytes(b); }
  void put(const ByteView& v) {
    e_.put_u32(static_cast<u32>(v.size));
    if (!head_only_) e_.put_raw(v.data, v.size);
  }
  template <typename T>
  void put(const std::vector<T>& v) {
    put_all(v);
  }
  template <typename T>
  void put(const std::deque<T>& v) {
    put_all(v);
  }
  template <typename K, typename V>
  void put(const std::map<K, V>& m) {
    e_.put_u32(static_cast<u32>(m.size()));
    for (const auto& [k, v] : m) {
      put(k);
      put(v);
    }
  }
  template <typename T, std::size_t N>
  void put(const std::array<T, N>& a) {
    e_.put_u32(static_cast<u32>(N));
    for (const T& x : a) put(x);
  }
  template <typename A, typename B>
  void put(const std::pair<A, B>& p) {
    put(p.first);
    put(p.second);
  }
  template <typename T>
  void put(const Fixed<T>& c) {
    put(c.value);
  }
  template <typename T>
  void put(const Nested<T>& n);

  template <typename C>
  void put_all(const C& c) {
    e_.put_u32(static_cast<u32>(c.size()));
    for (const auto& x : c) put(x);
  }

  Encoder& e_;
  bool head_only_;
};

/// Encodes `v` by its field list.
template <typename T>
Bytes encode_fields(const T& v) {
  Encoder e;
  FieldWriter w(e);
  w(v);
  return e.take();
}

/// Encodes `v` up to the bytes of its last field, a ByteView: the head of
/// a record whose body RecordWriter::write_split frames without a copy.
template <typename T>
Bytes encode_head(const T& v) {
  Encoder e;
  FieldWriter w(e, /*head_only=*/true);
  w(v);
  return e.take();
}

template <typename T>
void FieldWriter::put(const Nested<T>& n) {
  e_.put_bytes(encode_fields(n.value));
}

/// Fewest bytes a T's encoding takes: that of an empty T.  Bounds element
/// counts before any allocation.
template <typename T>
std::size_t min_encoded_size() {
  static const std::size_t n = encode_fields(T{}).size();
  return n;
}

template <typename T>
Status decode_fields(ByteView b, T&& v);

class FieldReader {
 public:
  explicit FieldReader(ByteView b) : d_(b) {}

  template <typename... T>
  void operator()(T&&... v) {
    (get(v), ...);
  }
  bool tail(bool) const { return err_ == nullptr && !d_.at_end(); }

  /// OK when every field decoded and no byte is left over.
  Status finish() const {
    if (err_ != nullptr) return Status(Err::PROTO, err_);
    if (!d_.at_end()) return Status(Err::PROTO, "trailing bytes");
    return Status::ok();
  }

 private:
  void fail(const char* why) {
    if (err_ == nullptr) err_ = why;
  }
  template <typename R, typename T>
  void take(R r, T& v) {
    if (r) {
      v = std::move(r).value();
    } else {
      fail("short field");
    }
  }
  // Reads a count of elements of at least `min_size` bytes each.
  std::size_t count(std::size_t min_size) {
    auto n = d_.count_(min_size);
    if (!n) fail("implausible element count");
    return n ? n.value() : 0;
  }

  template <typename T>
  void get(T& v) {
    if (err_ != nullptr) return;
    if constexpr (std::is_same_v<T, bool>) {
      u8 b = 0;
      take(d_.get_le<u8>(), b);
      if (b > 1) fail("bad bool");
      v = b != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      take(d_.f64_(), v);
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      get(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T>) {
      std::make_unsigned_t<T> u{};
      take(d_.get_le<std::make_unsigned_t<T>>(), u);
      v = static_cast<T>(u);
    } else {
      io(*this, v);
    }
  }
  void get(std::string& s) {
    if (err_ == nullptr) take(d_.string_(), s);
  }
  void get(Bytes& b) {
    if (err_ == nullptr) take(d_.bytes_(), b);
  }
  void get(ByteView& v) {
    if (err_ == nullptr) take(d_.bytes_view_(), v);
  }
  template <typename T>
  void get(std::vector<T>& v) {
    get_all(v);
  }
  template <typename T>
  void get(std::deque<T>& v) {
    get_all(v);
  }
  void get(std::vector<bool>& v) {
    if (err_ != nullptr) return;
    v.assign(count(1), false);
    for (std::size_t i = 0; i < v.size(); ++i) {
      bool b = false;
      get(b);
      v[i] = b;
    }
  }
  template <typename K, typename V>
  void get(std::map<K, V>& m) {
    if (err_ != nullptr) return;
    const std::size_t n =
        count(min_encoded_size<K>() + min_encoded_size<V>());
    for (std::size_t i = 0; i < n && err_ == nullptr; ++i) {
      K k{};
      V v{};
      get(k);
      get(v);
      if (err_ != nullptr) break;
      // The writer emits keys in map order, so a repeated or descending
      // key is no encoding of any map.
      if (!m.empty() && !m.key_comp()(m.rbegin()->first, k)) {
        fail("map keys not strictly increasing");
        break;
      }
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
  }
  template <typename T, std::size_t N>
  void get(std::array<T, N>& a) {
    if (err_ != nullptr) return;
    if (count(min_encoded_size<T>()) != N) fail("wrong array count");
    for (T& x : a) get(x);
  }
  template <typename A, typename B>
  void get(std::pair<A, B>& p) {
    get(p.first);
    get(p.second);
  }
  template <typename T>
  void get(Fixed<T>& c) {
    T v{};
    get(v);
    if (err_ == nullptr && v != c.value) fail("unexpected constant");
  }
  template <typename T>
  void get(Nested<T>& n) {
    ByteView v;
    get(v);
    if (err_ == nullptr && !decode_fields(v, n.value)) {
      fail("malformed nested payload");
    }
  }

  template <typename C>
  void get_all(C& c) {
    if (err_ != nullptr) return;
    c.resize(count(min_encoded_size<typename C::value_type>()));
    for (auto& x : c) get(x);
  }

  Decoder d_;
  const char* err_ = nullptr;
};

/// Decodes `b` into `v` by its field list; Err::PROTO unless the list
/// consumes `b` exactly.
template <typename T>
Status decode_fields(ByteView b, T&& v) {
  FieldReader r(b);
  r(v);
  return r.finish();
}
template <typename T>
Status decode_fields(const Bytes& b, T&& v) {
  return decode_fields(ByteView{b.data(), b.size()}, v);
}
// Views decoded from a temporary would dangle.
template <typename T>
Status decode_fields(const Bytes&& b, T&& v) = delete;

/// Record tags used in checkpoint images.  The numeric values are part of
/// the on-disk format and must not be reordered.  Numbers 4, 6-8 and
/// 10-12 are reserved: fd table, socket queue and PCB parts, pod header,
/// timers and time virtualization were never written as records of
/// their own (a process or socket record carries them).
enum class RecordTag : u32 {
  IMAGE_HEADER = 1,     // magic, format version, pod name
  PROCESS = 2,          // one process: vpid, program, control state
  MEM_REGION = 3,       // one memory region belonging to a process
  SOCKET_PARAMS = 5,    // one socket: parameters, queues, PCB triple
  NET_META = 9,         // per-pod connection meta-data table
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
  /// write() on the concatenated payload.  A null `body` stands for
  /// `body_len` zero bytes, written without reading any source.  Zeros
  /// are not folded through the CRC: a null body, and a body block that
  /// is all zero, are written as zeros and advance the register by
  /// crc32_zeros.
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
  /// once, kCrcBlock bytes at a time: each block is tested for zeros
  /// first (which also yields RecordView::zero_tail).  An all-zero block
  /// advances the register by crc32_zeros; only a block holding a
  /// non-zero byte is folded, while it is still in cache.
  Result<RecordView> next();

  bool at_end() const { return dec_.at_end(); }

 private:
  Decoder dec_;
};

}  // namespace zapc
