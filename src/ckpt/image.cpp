#include "ckpt/image.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace zapc::ckpt {
namespace {

constexpr u32 kImageMagic = 0x5A415043;  // "ZAPC"
// v2 appends codec/delta fields to the header record; decoders treat
// missing trailing fields as defaults, so v1 images still decode and v1
// readers ignore the extra header bytes.
constexpr u16 kFormatVersion = 2;

void put_addr(Encoder& e, const net::SockAddr& a) {
  e.put_u32(a.ip.v);
  e.put_u16(a.port);
}

net::SockAddr get_addr(Decoder& d) {
  net::SockAddr a;
  a.ip.v = d.u32_().value_or(0);
  a.port = d.u16_().value_or(0);
  return a;
}

Bytes encode_header(const PodImageHeader& h) {
  Encoder e;
  e.put_u32(kImageMagic);
  e.put_string(h.pod_name);
  e.put_u32(h.vip.v);
  e.put_i32(h.next_vpid);
  e.put_bool(h.time_virt);
  e.put_u64(h.ckpt_virtual_time);
  e.put_i64(h.time_delta);
  // v2 trailer.
  e.put_u32(h.codec_flags);
  e.put_u32(h.delta_seq);
  e.put_string(h.base_uri);
  return e.take();
}

Result<PodImageHeader> decode_header(ByteView b) {
  Decoder d(b);
  auto magic = d.u32_();
  if (!magic || magic.value() != kImageMagic) {
    return Status(Err::PROTO, "bad image magic");
  }
  PodImageHeader h;
  h.pod_name = d.string_().value_or("");
  h.vip.v = d.u32_().value_or(0);
  h.next_vpid = d.i32_().value_or(1);
  h.time_virt = d.bool_().value_or(true);
  h.ckpt_virtual_time = d.u64_().value_or(0);
  h.time_delta = d.i64_().value_or(0);
  // v2 trailer (absent in v1 images).
  h.codec_flags = d.u32_().value_or(0);
  h.delta_seq = d.u32_().value_or(0);
  h.base_uri = d.string_().value_or("");
  return h;
}

Bytes encode_socket(const SocketImage& s) {
  Encoder e;
  e.put_u32(s.old_id);
  e.put_u8(static_cast<u8>(s.proto));
  e.put_u32(static_cast<u32>(s.params.size()));
  for (i64 v : s.params) e.put_i64(v);
  put_addr(e, s.local);
  put_addr(e, s.remote);
  e.put_bool(s.bound);
  e.put_bool(s.owns_port);
  e.put_bool(s.listener);
  e.put_i32(s.backlog);
  e.put_bool(s.connecting);
  e.put_bool(s.connected);
  e.put_bool(s.shut_rd);
  e.put_bool(s.shut_wr);
  e.put_bool(s.peer_closed);
  e.put_u32(static_cast<u32>(s.recv_queue.size()));
  for (const auto& item : s.recv_queue) {
    e.put_bytes(item.data);
    put_addr(e, item.from);
    e.put_bool(item.oob);
  }
  e.put_bytes(s.send_queue);
  e.put_bool(s.send_queue_redirected);
  e.put_u32(s.pcb_sent);
  e.put_u32(s.pcb_acked);
  e.put_u32(s.pcb_recv);
  e.put_u8(s.raw_proto);
  return e.take();
}

Result<SocketImage> decode_socket(ByteView b) {
  Decoder d(b);
  SocketImage s;
  s.old_id = d.u32_().value_or(0);
  s.proto = static_cast<net::Proto>(d.u8_().value_or(6));
  u32 nparams = d.count_(8).value_or(0xFFFFFFFF);
  if (nparams == 0xFFFFFFFF) return Status(Err::PROTO, "bad param count");
  for (u32 i = 0; i < nparams; ++i) {
    i64 v = d.i64_().value_or(0);
    if (i < s.params.size()) s.params[i] = v;
  }
  s.local = get_addr(d);
  s.remote = get_addr(d);
  s.bound = d.bool_().value_or(false);
  s.owns_port = d.bool_().value_or(false);
  s.listener = d.bool_().value_or(false);
  s.backlog = d.i32_().value_or(0);
  s.connecting = d.bool_().value_or(false);
  s.connected = d.bool_().value_or(false);
  s.shut_rd = d.bool_().value_or(false);
  s.shut_wr = d.bool_().value_or(false);
  s.peer_closed = d.bool_().value_or(false);
  auto nitems_r = d.count_(11);
  if (!nitems_r) return nitems_r.status();
  u32 nitems = nitems_r.value();
  for (u32 i = 0; i < nitems; ++i) {
    SavedRecvItem item;
    item.data = d.bytes_().value_or({});
    item.from = get_addr(d);
    item.oob = d.bool_().value_or(false);
    s.recv_queue.push_back(std::move(item));
  }
  s.send_queue = d.bytes_().value_or({});
  s.send_queue_redirected = d.bool_().value_or(false);
  s.pcb_sent = d.u32_().value_or(0);
  s.pcb_acked = d.u32_().value_or(0);
  s.pcb_recv = d.u32_().value_or(0);
  s.raw_proto = d.u8_().value_or(0);
  if (!d.at_end()) return Status(Err::PROTO, "trailing socket bytes");
  return s;
}

Bytes encode_process(const ProcessImage& p) {
  Encoder e;
  e.put_i32(p.vpid);
  e.put_string(p.kind);
  e.put_bool(p.exited);
  e.put_i32(p.exit_code);
  e.put_i32(p.next_fd);
  e.put_bytes(p.program_state);
  e.put_u32(static_cast<u32>(p.fds.size()));
  for (const auto& [fd, sid] : p.fds) {
    e.put_i32(fd);
    e.put_u32(sid);
  }
  e.put_u32(static_cast<u32>(p.timer_remaining.size()));
  for (const auto& [id, rem] : p.timer_remaining) {
    e.put_u32(id);
    e.put_i64(rem);
  }
  return e.take();
}

Result<ProcessImage> decode_process(ByteView b) {
  Decoder d(b);
  ProcessImage p;
  p.vpid = d.i32_().value_or(0);
  p.kind = d.string_().value_or("");
  p.exited = d.bool_().value_or(false);
  p.exit_code = d.i32_().value_or(0);
  p.next_fd = d.i32_().value_or(3);
  p.program_state = d.bytes_().value_or({});
  auto nfds_r = d.count_(8);
  if (!nfds_r) return nfds_r.status();
  u32 nfds = nfds_r.value();
  for (u32 i = 0; i < nfds; ++i) {
    int fd = d.i32_().value_or(-1);
    net::SockId sid = d.u32_().value_or(0);
    p.fds[fd] = sid;
  }
  auto ntimers_r = d.count_(12);
  if (!ntimers_r) return ntimers_r.status();
  u32 ntimers = ntimers_r.value();
  for (u32 i = 0; i < ntimers; ++i) {
    u32 id = d.u32_().value_or(0);
    i64 rem = d.i64_().value_or(0);
    p.timer_remaining[id] = rem;
  }
  if (!d.at_end()) return Status(Err::PROTO, "trailing process bytes");
  return p;
}

Bytes encode_manifest(const ProcessImage& p) {
  Encoder e;
  e.put_i32(p.vpid);
  e.put_u64(p.region_gen_counter);
  e.put_u32(static_cast<u32>(p.manifest.size()));
  for (const auto& [name, meta] : p.manifest) {
    e.put_string(name);
    e.put_u64(meta.gen);
    e.put_u64(meta.size);
  }
  // Touch stats as a trailing parallel array (same iteration order as the
  // triples above): appending keeps old readers working — they stop
  // before the trailer — and old images decode with touches = 0.
  for (const auto& [name, meta] : p.manifest) {
    e.put_u64(meta.touches);
  }
  return e.take();
}

Bytes encode_meta_payload(const NetMeta& m) {
  Encoder e;
  e.put_u32(m.pod_vip.v);
  e.put_u32(static_cast<u32>(m.entries.size()));
  for (const auto& entry : m.entries) {
    e.put_u32(entry.sock);
    e.put_u8(static_cast<u8>(entry.proto));
    put_addr(e, entry.source);
    put_addr(e, entry.target);
    e.put_u8(static_cast<u8>(entry.state));
    e.put_u8(static_cast<u8>(entry.role));
    e.put_u32(entry.pcb_sent);
    e.put_u32(entry.pcb_acked);
    e.put_u32(entry.pcb_recv);
    e.put_u32(entry.discard_send);
    e.put_bool(entry.redirect_expected);
  }
  return e.take();
}

Result<NetMeta> decode_meta_payload(ByteView b) {
  Decoder d(b);
  NetMeta m;
  m.pod_vip.v = d.u32_().value_or(0);
  auto n_r = d.count_(30);
  if (!n_r) return n_r.status();
  u32 n = n_r.value();
  for (u32 i = 0; i < n; ++i) {
    NetMetaEntry entry;
    entry.sock = d.u32_().value_or(0);
    entry.proto = static_cast<net::Proto>(d.u8_().value_or(6));
    entry.source = get_addr(d);
    entry.target = get_addr(d);
    entry.state = static_cast<ConnState>(d.u8_().value_or(0));
    entry.role = static_cast<PeerRole>(d.u8_().value_or(0));
    entry.pcb_sent = d.u32_().value_or(0);
    entry.pcb_acked = d.u32_().value_or(0);
    entry.pcb_recv = d.u32_().value_or(0);
    entry.discard_send = d.u32_().value_or(0);
    entry.redirect_expected = d.bool_().value_or(false);
    m.entries.push_back(entry);
  }
  if (!d.at_end()) return Status(Err::PROTO, "trailing meta bytes");
  return m;
}

}  // namespace

const char* conn_state_name(ConnState s) {
  switch (s) {
    case ConnState::FULL_DUPLEX: return "full-duplex";
    case ConnState::HALF_DUPLEX: return "half-duplex";
    case ConnState::CLOSED: return "closed";
    case ConnState::CONNECTING: return "connecting";
    case ConnState::LISTENER: return "listener";
  }
  return "?";
}

std::size_t SocketImage::byte_size() const {
  std::size_t n = send_queue.size() + 128;  // queue + fixed fields
  for (const auto& item : recv_queue) n += item.data.size() + 12;
  return n;
}

std::size_t PodImage::network_bytes() const {
  std::size_t n = encode_meta_payload(meta).size();
  for (const auto& s : sockets) n += s.byte_size();
  for (const auto& [sid, data] : redirected_recv) n += data.size();
  return n;
}

namespace {

// One record of an encode plan: an encoded payload prefix (the whole
// payload of a small record) plus an optional borrowed body — a region's
// or a queue's bytes, framed without first copying it into the plan.
struct PlannedRecord {
  RecordTag tag;
  Bytes head;
  const u8* body = nullptr;
  std::size_t body_len = 0;

  std::size_t framed_size() const {
    return RecordWriter::framed_size(head.size() + body_len);
  }
};

// Every record of an image, decided before any byte is written: each
// region is scanned for zeros and checked for a duplicate once, here, and
// `size` is the exact encoded size.
struct EncodePlan {
  std::vector<PlannedRecord> records;
  std::size_t size = 0;
  u64 zero_saved = 0;
  u64 dedup_saved = 0;

  void add(RecordTag tag, Bytes head, const u8* body = nullptr,
           std::size_t body_len = 0) {
    records.push_back(PlannedRecord{tag, std::move(head), body, body_len});
    size += records.back().framed_size();
  }
};

EncodePlan plan_image(const PodImage& image) {
  EncodePlan plan;
  plan.add(RecordTag::IMAGE_HEADER, encode_header(image.header));
  // Network state precedes process state (paper §4: the network
  // checkpoint runs first so it can overlap the Manager barrier).
  plan.add(RecordTag::NET_META, encode_meta_payload(image.meta));
  for (const auto& s : image.sockets) {
    plan.add(RecordTag::SOCKET_PARAMS, encode_socket(s));
  }
  if (image.has_gm_device) {
    plan.add(RecordTag::GM_DEVICE, Bytes{}, image.gm_state.data(),
             image.gm_state.size());
  }
  for (const auto& [sid, data] : image.redirected_recv) {
    // `head` ends in the length prefix, so the record is byte-identical
    // to one whose payload was built with Encoder::put_bytes.
    Encoder e;
    e.put_u32(sid);
    e.put_u32(static_cast<u32>(data.size()));
    plan.add(RecordTag::REDIRECTED_SEND_Q, e.take(), data.data(), data.size());
  }

  const bool zero_elide = (image.header.codec_flags & kCodecZeroElide) != 0;
  const bool dedup = (image.header.codec_flags & kCodecDedup) != 0;
  // Content index for dedup: (crc32, size) key, memcmp-verified before a
  // back-reference is emitted.  References always point at a region that
  // appears earlier in the record stream, so decode resolves them in one
  // pass.
  struct RegionRef {
    i32 vpid;
    const std::string* name;
    const RegionBuf* bytes;
  };
  std::map<std::pair<u32, u64>, std::vector<RegionRef>> content_index;

  for (const auto& p : image.processes) {
    plan.add(RecordTag::PROCESS, encode_process(p));
    if (!p.manifest.empty() || p.region_gen_counter != 0) {
      plan.add(RecordTag::REGION_MANIFEST, encode_manifest(p));
    }
    for (const auto& [name, bytes] : p.regions) {
      if (zero_elide && !bytes.empty() &&
          (bytes.is_zeros() || is_all_zero(bytes.data(), bytes.size()))) {
        Encoder e;
        e.put_i32(p.vpid);
        e.put_string(name);
        e.put_u64(bytes.size());
        plan.add(RecordTag::MEM_REGION_ZERO, e.take());
        plan.zero_saved += bytes.size();
        continue;
      }
      if (dedup) {
        auto key = std::make_pair(crc32(bytes.data(), bytes.size()),
                                  u64{bytes.size()});
        auto& bucket = content_index[key];
        const RegionRef* hit = nullptr;
        for (const auto& cand : bucket) {
          if (std::memcmp(cand.bytes->data(), bytes.data(), bytes.size()) ==
              0) {
            hit = &cand;
            break;
          }
        }
        if (hit != nullptr) {
          Encoder e;
          e.put_i32(p.vpid);
          e.put_string(name);
          e.put_i32(hit->vpid);
          e.put_string(*hit->name);
          plan.add(RecordTag::MEM_REGION_REF, e.take());
          plan.dedup_saved += bytes.size();
          continue;
        }
        bucket.push_back(RegionRef{p.vpid, &name, &bytes});
      }
      // `head` carries the length prefix, so the wire layout matches
      // what Encoder::put_bytes would have produced.
      Encoder head;
      head.put_i32(p.vpid);
      head.put_string(name);
      head.put_u32(static_cast<u32>(bytes.size()));
      plan.add(RecordTag::MEM_REGION, head.take(), bytes.data(), bytes.size());
    }
  }
  plan.add(RecordTag::IMAGE_END, Bytes{});
  return plan;
}

}  // namespace

std::size_t PodImage::total_bytes() const { return plan_image(*this).size; }

Bytes encode_image(const PodImage& image, Bytes storage) {
  const EncodePlan plan = plan_image(image);
  // Reused storage must hold the image without growing (growth copies
  // everything written so far) and without pinning more than twice what
  // the image needs; anything else is freed for one exact allocation.
  storage.clear();
  if (storage.capacity() < plan.size || storage.capacity() > 2 * plan.size) {
    storage = Bytes{};
    storage.reserve(plan.size);
  }
  RecordWriter w(std::move(storage));
  for (const PlannedRecord& r : plan.records) {
    w.write_split(r.tag, kFormatVersion, r.head, r.body, r.body_len);
    // Each framed record counts against its per-type byte counter, so
    // the evidence export shows where checkpoint image bytes go (the
    // paper Fig. 6c breakdown: memory vs network vs meta-data).
    obs::metrics()
        .counter(std::string("ckpt.record.") + record_tag_name(r.tag) +
                 ".bytes")
        .inc(r.framed_size());
  }

  if (plan.zero_saved > 0) {
    obs::metrics().counter("ckpt.codec.zero_saved_bytes").inc(plan.zero_saved);
  }
  if (plan.dedup_saved > 0) {
    obs::metrics()
        .counter("ckpt.codec.dedup_saved_bytes")
        .inc(plan.dedup_saved);
  }

  Bytes out = w.take();
  obs::metrics()
      .histogram("ckpt.image_bytes", obs::byte_buckets())
      .observe(out.size());
  return out;
}

Result<PodImage> decode_image(const Bytes& data) {
  PodImage image;
  RecordReader r(data);
  bool have_header = false;
  bool ended = false;
  std::map<i32, std::size_t> proc_index;

  while (!r.at_end() && !ended) {
    auto rec = r.next();
    if (!rec) return rec.status();
    const RecordView& record = rec.value();
    switch (record.tag) {
      case RecordTag::IMAGE_HEADER: {
        auto h = decode_header(record.payload);
        if (!h) return h.status();
        image.header = h.value();
        have_header = true;
        break;
      }
      case RecordTag::NET_META: {
        auto m = decode_meta_payload(record.payload);
        if (!m) return m.status();
        image.meta = m.value();
        break;
      }
      case RecordTag::SOCKET_PARAMS: {
        auto s = decode_socket(record.payload);
        if (!s) return s.status();
        image.sockets.push_back(std::move(s).value());
        break;
      }
      case RecordTag::GM_DEVICE: {
        image.has_gm_device = true;
        image.gm_state = record.payload.to_bytes();
        break;
      }
      case RecordTag::REDIRECTED_SEND_Q: {
        // Strict like the region records: a short or padded payload must
        // not decode to socket 0 with no data.
        Decoder d(record.payload);
        auto sid = d.u32_();
        auto data = d.bytes_view_();
        if (!sid || !data || !d.at_end()) {
          return Status(Err::PROTO, "malformed redirected queue record");
        }
        const ByteView& v = data.value();
        append_bytes(image.redirected_recv[sid.value()], v.data, v.size);
        break;
      }
      case RecordTag::PROCESS: {
        auto p = decode_process(record.payload);
        if (!p) return p.status();
        proc_index[p.value().vpid] = image.processes.size();
        image.processes.push_back(std::move(p).value());
        break;
      }
      case RecordTag::REGION_MANIFEST: {
        Decoder d(record.payload);
        i32 vpid = d.i32_().value_or(0);
        auto it = proc_index.find(vpid);
        if (it == proc_index.end()) {
          return Status(Err::PROTO, "manifest for unknown vpid");
        }
        ProcessImage& proc = image.processes[it->second];
        proc.region_gen_counter = d.u64_().value_or(0);
        auto n_r = d.count_(20);
        if (!n_r) return n_r.status();
        std::vector<std::string> order;
        order.reserve(n_r.value());
        for (u32 i = 0; i < n_r.value(); ++i) {
          std::string name = d.string_().value_or("");
          RegionMeta meta;
          meta.gen = d.u64_().value_or(0);
          meta.size = d.u64_().value_or(0);
          proc.manifest[name] = meta;
          order.push_back(std::move(name));
        }
        // Trailing parallel array of touch counts (absent in old images;
        // value_or keeps them at 0 there).
        for (const std::string& name : order) {
          proc.manifest[name].touches = d.u64_().value_or(0);
        }
        break;
      }
      // Region records are strict: a short field or trailing bytes mean
      // the length prefix disagrees with the payload, which must not
      // decode to a silently empty or truncated region.
      case RecordTag::MEM_REGION: {
        Decoder d(record.payload);
        auto vpid = d.i32_();
        auto name = d.string_();
        auto bytes = d.bytes_view_();
        if (!vpid || !name || !bytes || !d.at_end()) {
          return Status(Err::PROTO, "malformed region record");
        }
        auto it = proc_index.find(vpid.value());
        if (it == proc_index.end()) {
          return Status(Err::PROTO, "region for unknown vpid");
        }
        // The one copy of the region's bytes: image buffer -> region.
        // A body inside the payload's trailing zero run (found by the
        // reader's CRC pass) is all zero: a zero view, no copy, no scan.
        const ByteView& v = bytes.value();
        image.processes[it->second].regions[std::move(name).value()] =
            record.zero_tail >= v.size ? RegionBuf::zeros(v.size)
                                       : RegionBuf(v.to_bytes());
        break;
      }
      case RecordTag::MEM_REGION_ZERO: {
        Decoder d(record.payload);
        auto vpid = d.i32_();
        auto name = d.string_();
        auto size = d.u64_();
        if (!vpid || !name || !size || !d.at_end()) {
          return Status(Err::PROTO, "malformed zero region record");
        }
        auto it = proc_index.find(vpid.value());
        if (it == proc_index.end()) {
          return Status(Err::PROTO, "zero region for unknown vpid");
        }
        image.processes[it->second].regions[std::move(name).value()] =
            RegionBuf::zeros(static_cast<std::size_t>(size.value()));
        break;
      }
      case RecordTag::MEM_REGION_REF: {
        Decoder d(record.payload);
        auto vpid_r = d.i32_();
        auto name_r = d.string_();
        auto src_vpid_r = d.i32_();
        auto src_name_r = d.string_();
        if (!vpid_r || !name_r || !src_vpid_r || !src_name_r ||
            !d.at_end()) {
          return Status(Err::PROTO, "malformed region ref record");
        }
        const std::string& name = name_r.value();
        const std::string& src_name = src_name_r.value();
        auto it = proc_index.find(vpid_r.value());
        auto src_it = proc_index.find(src_vpid_r.value());
        if (it == proc_index.end() || src_it == proc_index.end()) {
          return Status(Err::PROTO, "region ref for unknown vpid");
        }
        const auto& src_regions = image.processes[src_it->second].regions;
        auto src = src_regions.find(src_name);
        if (src == src_regions.end()) {
          // Refs only ever point backwards in the stream; a forward or
          // dangling ref means corruption.
          return Status(Err::PROTO, "dangling region ref");
        }
        // Shared, not copied: a later write to either region clones it.
        image.processes[it->second].regions[name] = src->second;
        break;
      }
      case RecordTag::IMAGE_END:
        ended = true;
        break;
      default:
        // Unknown record types are skipped (forward compatibility).
        break;
    }
  }
  if (!have_header) return Status(Err::PROTO, "missing image header");
  if (!ended) return Status(Err::PROTO, "missing image terminator");
  return image;
}

Result<PodImageHeader> peek_header(const Bytes& data) {
  RecordReader r(data);
  auto rec = r.next();
  if (!rec) return rec.status();
  if (rec.value().tag != RecordTag::IMAGE_HEADER) {
    return Status(Err::PROTO, "first record is not the image header");
  }
  return decode_header(rec.value().payload);
}

Result<PodImage> compose_delta(PodImage base, const PodImage& delta) {
  if (!delta.header.is_delta()) {
    return Status(Err::INVALID, "compose_delta: image is not a delta");
  }
  if (base.header.is_delta()) {
    return Status(Err::INVALID, "compose_delta: base not fully composed");
  }
  std::map<i32, ProcessImage*> base_procs;
  for (auto& p : base.processes) base_procs[p.vpid] = &p;

  PodImage out;
  // Everything except clean region bytes comes from the delta: it was
  // captured later, so its header/network/process control state wins.
  out.header = delta.header;
  out.header.codec_flags &= ~kCodecDelta;
  out.header.delta_seq = 0;
  out.header.base_uri.clear();
  out.meta = delta.meta;
  out.sockets = delta.sockets;
  out.has_gm_device = delta.has_gm_device;
  out.gm_state = delta.gm_state;
  out.redirected_recv = delta.redirected_recv;

  for (const auto& dp : delta.processes) {
    ProcessImage p = dp;
    for (const auto& [name, meta] : dp.manifest) {
      if (p.regions.count(name) != 0) continue;  // dirty: bytes in delta
      auto bit = base_procs.find(dp.vpid);
      if (bit == base_procs.end()) {
        return Status(Err::PROTO,
                      "delta references process missing from base: vpid " +
                          std::to_string(dp.vpid));
      }
      auto& base_regions = bit->second->regions;
      auto rit = base_regions.find(name);
      if (rit == base_regions.end()) {
        return Status(Err::PROTO,
                      "delta references region missing from base: " + name);
      }
      // `base` is owned by value, so clean regions move instead of copy.
      p.regions[name] = std::move(rit->second);
      base_regions.erase(rit);
    }
    out.processes.push_back(std::move(p));
  }
  return out;
}

Bytes encode_meta(const NetMeta& meta) { return encode_meta_payload(meta); }

Result<NetMeta> decode_meta(const Bytes& data) {
  return decode_meta_payload(ByteView{data.data(), data.size()});
}

}  // namespace zapc::ckpt
