#include "ckpt/image.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace zapc::ckpt {

constexpr u32 kImageMagic = 0x5A415043;  // "ZAPC"
// Every record carries it; a decoder accepts no other.
constexpr u16 kFormatVersion = 2;

// ---- Record field lists ------------------------------------------------------
// One list per record payload, walked by encode_image and decode_image
// alike (util/serialize.h).

template <class F>
void io(F& f, PodImageHeader& h) {
  f(Fixed<u32>{kImageMagic}, h.pod_name, h.vip, h.next_vpid, h.time_virt,
    h.ckpt_virtual_time, h.time_delta, h.codec_flags, h.delta_seq,
    h.base_uri);
}

template <class F>
void io(F& f, SavedRecvItem& r) {
  f(r.data, r.from, r.oob);
}

template <class F>
void io(F& f, SocketImage& s) {
  f(s.old_id, s.proto, s.params, s.local, s.remote, s.bound, s.owns_port,
    s.listener, s.backlog, s.connecting, s.connected, s.shut_rd, s.shut_wr,
    s.peer_closed, s.recv_queue, s.send_queue, s.send_queue_redirected,
    s.pcb_sent, s.pcb_acked, s.pcb_recv, s.raw_proto);
}

/// The PROCESS record: control state; regions and manifest have records
/// of their own.
template <class F>
void io(F& f, ProcessImage& p) {
  f(p.vpid, p.kind, p.exited, p.exit_code, p.next_fd, p.program_state, p.fds,
    p.timer_remaining);
}

/// A manifest triple's generation and size; the touch counts follow all
/// triples (ManifestRecord).
template <class F>
void io(F& f, RegionMeta& m) {
  f(m.gen, m.size);
}

namespace {

/// REGION_MANIFEST: a process's (name, gen, size) triples, then their
/// touch counts in the same order.
struct ManifestRecord {
  i32 vpid = 0;
  u64 gen_counter = 0;
  std::map<std::string, RegionMeta> regions;
};
template <class F>
void io(F& f, ManifestRecord& m) {
  f(m.vpid, m.gen_counter, m.regions);
  for (auto& [name, meta] : m.regions) f(meta.touches);
}

/// MEM_REGION: the region's bytes, framed by write_split (encode_head).
struct RegionRecord {
  i32 vpid = 0;
  std::string name;
  ByteView bytes;
};
template <class F>
void io(F& f, RegionRecord& r) {
  f(r.vpid, r.name, r.bytes);
}

/// MEM_REGION_ZERO: an all-zero region as its size.
struct ZeroRegionRecord {
  i32 vpid = 0;
  std::string name;
  u64 size = 0;
};
template <class F>
void io(F& f, ZeroRegionRecord& r) {
  f(r.vpid, r.name, r.size);
}

/// MEM_REGION_REF: a region identical to one earlier in the image.
struct RegionRefRecord {
  i32 vpid = 0;
  std::string name;
  i32 src_vpid = 0;
  std::string src_name;
};
template <class F>
void io(F& f, RegionRefRecord& r) {
  f(r.vpid, r.name, r.src_vpid, r.src_name);
}

/// REDIRECTED_SEND_Q: a peer's send queue for one socket, framed by
/// write_split (encode_head).
struct QueueRecord {
  net::SockId sock = 0;
  ByteView bytes;
};
template <class F>
void io(F& f, QueueRecord& r) {
  f(r.sock, r.bytes);
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
  std::size_t n = encode_fields(meta).size();
  for (const auto& s : sockets) n += s.byte_size();
  for (const auto& [sid, data] : redirected_recv) n += data.size();
  return n;
}

namespace {

// One record of an encode plan: an encoded payload prefix (the whole
// payload of a small record) plus an optional borrowed body — a region's
// or a queue's bytes, framed without first copying it into the plan.  A
// null body with a length stands for that many zero bytes.
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
  plan.add(RecordTag::IMAGE_HEADER, encode_fields(image.header));
  // Network state precedes process state (paper §4: the network
  // checkpoint runs first so it can overlap the Manager barrier).
  plan.add(RecordTag::NET_META, encode_fields(image.meta));
  for (const auto& s : image.sockets) {
    plan.add(RecordTag::SOCKET_PARAMS, encode_fields(s));
  }
  if (image.has_gm_device) {
    plan.add(RecordTag::GM_DEVICE, Bytes{}, image.gm_state.data(),
             image.gm_state.size());
  }
  for (const auto& [sid, data] : image.redirected_recv) {
    plan.add(RecordTag::REDIRECTED_SEND_Q,
             encode_head(QueueRecord{sid, ByteView{data.data(), data.size()}}),
             data.data(), data.size());
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
    plan.add(RecordTag::PROCESS, encode_fields(p));
    if (!p.manifest.empty() || p.region_gen_counter != 0) {
      plan.add(RecordTag::REGION_MANIFEST,
               encode_fields(
                   ManifestRecord{p.vpid, p.region_gen_counter, p.manifest}));
    }
    for (const auto& [name, bytes] : p.regions) {
      if (zero_elide && !bytes.empty() &&
          (bytes.is_zeros() || is_all_zero(bytes.data(), bytes.size()))) {
        plan.add(RecordTag::MEM_REGION_ZERO,
                 encode_fields(ZeroRegionRecord{p.vpid, name, bytes.size()}));
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
          plan.add(RecordTag::MEM_REGION_REF,
                   encode_fields(
                       RegionRefRecord{p.vpid, name, hit->vpid, *hit->name}));
          plan.dedup_saved += bytes.size();
          continue;
        }
        bucket.push_back(RegionRef{p.vpid, &name, &bytes});
      }
      // A zero view's body is written as zeros rather than copied: reading
      // the zero mapping would fault in every page of it.
      const ByteView body{bytes.data(), bytes.size()};
      plan.add(RecordTag::MEM_REGION,
               encode_head(RegionRecord{p.vpid, name, body}),
               bytes.is_zeros() ? nullptr : body.data, body.size);
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
  // The process a region or manifest record names; it must come earlier.
  auto process = [&](i32 vpid) -> ProcessImage* {
    auto it = proc_index.find(vpid);
    return it == proc_index.end() ? nullptr : &image.processes[it->second];
  };

  while (!r.at_end() && !ended) {
    auto rec = r.next();
    if (!rec) return rec.status();
    const RecordView& record = rec.value();
    if (record.version != kFormatVersion) {
      return Status(Err::PROTO, "unsupported record version");
    }
    Status s;
    switch (record.tag) {
      case RecordTag::IMAGE_HEADER:
        s = decode_fields(record.payload, image.header);
        have_header = true;
        break;
      case RecordTag::NET_META:
        s = decode_fields(record.payload, image.meta);
        break;
      case RecordTag::SOCKET_PARAMS:
        s = decode_fields(record.payload, image.sockets.emplace_back());
        break;
      case RecordTag::GM_DEVICE:
        image.has_gm_device = true;
        image.gm_state = record.payload.to_bytes();
        break;
      case RecordTag::REDIRECTED_SEND_Q: {
        QueueRecord q;
        s = decode_fields(record.payload, q);
        if (s) append_bytes(image.redirected_recv[q.sock], q.bytes.data,
                            q.bytes.size);
        break;
      }
      case RecordTag::PROCESS: {
        ProcessImage p;
        s = decode_fields(record.payload, p);
        proc_index[p.vpid] = image.processes.size();
        image.processes.push_back(std::move(p));
        break;
      }
      case RecordTag::REGION_MANIFEST: {
        ManifestRecord m;
        s = decode_fields(record.payload, m);
        if (!s) break;
        ProcessImage* proc = process(m.vpid);
        if (proc == nullptr) return Status(Err::PROTO, "manifest for unknown vpid");
        proc->region_gen_counter = m.gen_counter;
        proc->manifest = std::move(m.regions);
        break;
      }
      case RecordTag::MEM_REGION: {
        RegionRecord m;
        s = decode_fields(record.payload, m);
        if (!s) break;
        ProcessImage* proc = process(m.vpid);
        if (proc == nullptr) return Status(Err::PROTO, "region for unknown vpid");
        // The one copy of the region's bytes: image buffer -> region.
        // A body inside the payload's trailing zero run (found by the
        // reader's CRC pass) is all zero: a zero view, no copy, no scan.
        proc->regions[std::move(m.name)] =
            record.zero_tail >= m.bytes.size ? RegionBuf::zeros(m.bytes.size)
                                             : RegionBuf(m.bytes.to_bytes());
        break;
      }
      case RecordTag::MEM_REGION_ZERO: {
        ZeroRegionRecord m;
        s = decode_fields(record.payload, m);
        if (!s) break;
        ProcessImage* proc = process(m.vpid);
        if (proc == nullptr) {
          return Status(Err::PROTO, "zero region for unknown vpid");
        }
        // The size is the one field that maps memory on decode, so it is
        // bounded first: by the region cap, and by the manifest's size
        // for the region when the process has a manifest.
        if (m.size > kMaxRegionBytes) {
          return Status(Err::PROTO, "zero region larger than the region cap");
        }
        if (!proc->manifest.empty()) {
          auto it = proc->manifest.find(m.name);
          if (it == proc->manifest.end() || it->second.size != m.size) {
            return Status(Err::PROTO,
                          "zero region size disagrees with the manifest");
          }
        }
        proc->regions[std::move(m.name)] =
            RegionBuf::zeros(static_cast<std::size_t>(m.size));
        break;
      }
      case RecordTag::MEM_REGION_REF: {
        RegionRefRecord m;
        s = decode_fields(record.payload, m);
        if (!s) break;
        ProcessImage* proc = process(m.vpid);
        ProcessImage* src_proc = process(m.src_vpid);
        if (proc == nullptr || src_proc == nullptr) {
          return Status(Err::PROTO, "region ref for unknown vpid");
        }
        auto src = src_proc->regions.find(m.src_name);
        if (src == src_proc->regions.end()) {
          // Refs only ever point backwards in the stream; a forward or
          // dangling ref means corruption.
          return Status(Err::PROTO, "dangling region ref");
        }
        // Shared, not copied: a later write to either region clones it.
        proc->regions[std::move(m.name)] = src->second;
        break;
      }
      case RecordTag::IMAGE_END:
        if (record.payload.size != 0) {
          return Status(Err::PROTO, "image terminator with a payload");
        }
        ended = true;
        break;
      default:
        return Status(Err::PROTO, "unknown record tag");
    }
    if (!s) {
      return Status(Err::PROTO, std::string("malformed ") +
                                    record_tag_name(record.tag) +
                                    " record: " + s.message());
    }
  }
  if (!have_header) return Status(Err::PROTO, "missing image header");
  if (!ended) return Status(Err::PROTO, "missing image terminator");
  if (!r.at_end()) return Status(Err::PROTO, "bytes after image terminator");
  return image;
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

}  // namespace zapc::ckpt
