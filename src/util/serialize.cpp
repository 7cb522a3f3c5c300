#include "util/serialize.h"

#include <algorithm>

#include "util/region_buf.h"

namespace zapc {

const char* record_tag_name(RecordTag tag) {
  switch (tag) {
    case RecordTag::IMAGE_HEADER: return "image_header";
    case RecordTag::PROCESS: return "process";
    case RecordTag::MEM_REGION: return "mem_region";
    case RecordTag::SOCKET_PARAMS: return "socket_params";
    case RecordTag::NET_META: return "net_meta";
    case RecordTag::REDIRECTED_SEND_Q: return "redirected_send_q";
    case RecordTag::IMAGE_END: return "image_end";
    case RecordTag::GM_DEVICE: return "gm_device";
    case RecordTag::REGION_MANIFEST: return "region_manifest";
    case RecordTag::MEM_REGION_ZERO: return "mem_region_zero";
    case RecordTag::MEM_REGION_REF: return "mem_region_ref";
  }
  return "unknown";
}

void RecordWriter::write(RecordTag tag, u16 version, const Bytes& payload) {
  write_split(tag, version, Bytes{}, payload.data(), payload.size());
}

namespace {

// CRC state after a record's tag, version and `head`.  The CRC covers
// the header fields too, so a bit flip anywhere in a record is caught
// (the length is covered implicitly: a wrong length misframes the
// payload).
u32 record_crc_head(RecordTag tag, u16 version, const Bytes& head) {
  Encoder hdr;
  hdr.put_u32(static_cast<u32>(tag));
  hdr.put_u16(version);
  u32 c = crc32_init();
  c = crc32_update(c, hdr.bytes().data(), hdr.bytes().size());
  return crc32_update(c, head.data(), head.size());
}

}  // namespace

void RecordWriter::write_split(RecordTag tag, u16 version, const Bytes& head,
                               const u8* body, std::size_t body_len) {
  buf_.put_u32(static_cast<u32>(tag));
  buf_.put_u16(version);
  buf_.put_u64(head.size() + body_len);
  buf_.put_raw(head.data(), head.size());
  u32 c = record_crc_head(tag, version, head);
  // Zeros are never checksummed byte by byte: crc32_zeros advances the
  // register over a run of them in O(log n).  A null body is one run.
  if (body == nullptr) {
    buf_.put_zeros(body_len);
    buf_.put_u32(crc32_final(crc32_zeros(c, body_len)));
    return;
  }
  // Copy and checksum fused: each block is checksummed right after it is
  // copied, while it is still in cache, instead of in a second pass over
  // a body that has long left it.  A block that is all zero is written
  // as zeros and stepped over the same way.
  for (std::size_t off = 0; off < body_len; off += kCrcBlock) {
    const std::size_t n = std::min(kCrcBlock, body_len - off);
    if (is_all_zero(body + off, n)) {
      buf_.put_zeros(n);
      c = crc32_zeros(c, n);
      continue;
    }
    const std::size_t at = buf_.size();
    buf_.put_raw(body + off, n);
    c = crc32_update(c, buf_.bytes().data() + at, n);
  }
  buf_.put_u32(crc32_final(c));
}

u32 record_crc(RecordTag tag, u16 version, const u8* payload,
               std::size_t len) {
  return crc32_final(
      crc32_update(record_crc_head(tag, version, Bytes{}), payload, len));
}

Result<RecordView> RecordReader::next() {
  if (dec_.at_end()) return Status(Err::NO_ENT, "end of image");
  auto tag = dec_.u32_();
  if (!tag) return Status(Err::PROTO, "truncated record tag");
  auto version = dec_.u16_();
  if (!version) return Status(Err::PROTO, "truncated record version");
  auto len = dec_.u64_();
  if (!len) return Status(Err::PROTO, "truncated record length");
  if (len.value() > dec_.remaining()) {
    return Status(Err::PROTO, "truncated record payload");
  }
  auto payload = dec_.raw_view(static_cast<std::size_t>(len.value()));
  if (!payload) return Status(Err::PROTO, "truncated record payload");
  auto crc = dec_.u32_();
  if (!crc) return Status(Err::PROTO, "truncated record crc");
  RecordView r;
  r.tag = static_cast<RecordTag>(tag.value());
  r.version = version.value();
  r.payload = payload.value();
  const u8* p = r.payload.data;
  const std::size_t n = r.payload.size;
  u32 c = record_crc_head(r.tag, r.version, Bytes{});
  // End of the last block holding a non-zero byte (0: none).
  std::size_t nz_end = 0;
  constexpr std::size_t kBlock = RecordWriter::kCrcBlock;
  // Every byte is read: a block is tested for zeros first, and only a
  // block holding a non-zero byte is folded.  An all-zero block advances
  // the register by crc32_zeros, which gives the same register as
  // folding it, so the full record CRC is still compared.
  for (std::size_t off = 0; off < n; off += kBlock) {
    const std::size_t len = std::min(kBlock, n - off);
    if (is_all_zero(p + off, len)) {
      c = crc32_zeros(c, len);
    } else {
      c = crc32_update(c, p + off, len);
      nz_end = off + len;
    }
  }
  if (crc.value() != crc32_final(c)) {
    return Status(Err::PROTO, "record crc mismatch");
  }
  // Back from the end of that block to its last non-zero byte, 256
  // bytes a step, then byte by byte.  The block holds a non-zero byte,
  // so the scan stops inside it; for a zero region that byte is in the
  // record head, at the start of the first block.
  constexpr std::size_t kStep = 256;
  std::size_t last = nz_end;
  while (last >= kStep && is_all_zero(p + last - kStep, kStep)) last -= kStep;
  while (last > 0 && p[last - 1] == 0) --last;
  r.zero_tail = n - last;
  return r;
}

}  // namespace zapc
