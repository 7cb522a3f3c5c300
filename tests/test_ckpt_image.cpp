// Checkpoint image format and standalone process capture tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"
#include "tests/helpers.h"
#include "util/crc32.h"

namespace zapc::ckpt {
namespace {

PodImage sample_image() {
  PodImage img;
  img.header.pod_name = "pod-x";
  img.header.vip = net::IpAddr(10, 77, 0, 3);
  img.header.next_vpid = 5;
  img.header.ckpt_virtual_time = 123456;
  img.header.time_delta = -42;

  NetMetaEntry e;
  e.sock = 7;
  e.source = net::SockAddr{img.header.vip, 5000};
  e.target = net::SockAddr{net::IpAddr(10, 77, 0, 4), 41000};
  e.state = ConnState::HALF_DUPLEX;
  e.role = PeerRole::ACCEPT;
  e.pcb_sent = 1000;
  e.pcb_acked = 900;
  e.pcb_recv = 2000;
  e.discard_send = 55;
  img.meta.pod_vip = img.header.vip;
  img.meta.entries.push_back(e);

  SocketImage s;
  s.old_id = 7;
  s.proto = net::Proto::TCP;
  s.params[static_cast<std::size_t>(net::SockOpt::SO_RCVBUF)] = 111;
  s.local = e.source;
  s.remote = e.target;
  s.bound = true;
  s.connected = true;
  s.shut_wr = true;
  s.recv_queue.push_back(SavedRecvItem{to_bytes("queued"), e.target, false});
  s.recv_queue.push_back(SavedRecvItem{Bytes{'!'}, e.target, true});
  s.send_queue = to_bytes("unacked data");
  s.pcb_sent = 1000;
  s.pcb_acked = 900;
  s.pcb_recv = 2000;
  img.sockets.push_back(s);

  ProcessImage p;
  p.vpid = 1;
  p.kind = "test.counter";
  p.next_fd = 6;
  p.program_state = to_bytes("blob");
  p.fds[3] = 7;
  p.regions["heap"] = Bytes(1024, 0xAA);
  p.timer_remaining[9] = 5000;
  img.processes.push_back(p);
  return img;
}

TEST(Image, EncodeDecodeRoundTrip) {
  PodImage img = sample_image();
  Bytes data = encode_image(img);
  auto back = decode_image(data);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const PodImage& b = back.value();

  EXPECT_EQ(b.header.pod_name, "pod-x");
  EXPECT_EQ(b.header.vip, img.header.vip);
  EXPECT_EQ(b.header.next_vpid, 5);
  EXPECT_EQ(b.header.ckpt_virtual_time, 123456u);
  EXPECT_EQ(b.header.time_delta, -42);

  ASSERT_EQ(b.meta.entries.size(), 1u);
  const NetMetaEntry& e = b.meta.entries[0];
  EXPECT_EQ(e.sock, 7u);
  EXPECT_EQ(e.state, ConnState::HALF_DUPLEX);
  EXPECT_EQ(e.role, PeerRole::ACCEPT);
  EXPECT_EQ(e.pcb_recv, 2000u);
  EXPECT_EQ(e.discard_send, 55u);

  ASSERT_EQ(b.sockets.size(), 1u);
  const SocketImage& s = b.sockets[0];
  EXPECT_EQ(s.params[static_cast<std::size_t>(net::SockOpt::SO_RCVBUF)],
            111);
  EXPECT_TRUE(s.shut_wr);
  ASSERT_EQ(s.recv_queue.size(), 2u);
  EXPECT_EQ(to_string(s.recv_queue[0].data), "queued");
  EXPECT_TRUE(s.recv_queue[1].oob);
  EXPECT_EQ(s.send_queue, to_bytes("unacked data"));

  ASSERT_EQ(b.processes.size(), 1u);
  const ProcessImage& p = b.processes[0];
  EXPECT_EQ(p.kind, "test.counter");
  EXPECT_EQ(p.fds.at(3), 7u);
  EXPECT_EQ(p.regions.at("heap"), Bytes(1024, 0xAA));
  EXPECT_EQ(p.timer_remaining.at(9), 5000);
}

TEST(Image, CorruptionRejected) {
  Bytes data = encode_image(sample_image());
  data[data.size() / 3] ^= 0x5A;
  EXPECT_EQ(decode_image(data).err(), Err::PROTO);
}

TEST(Image, TruncationRejected) {
  Bytes data = encode_image(sample_image());
  data.resize(data.size() / 2);
  EXPECT_EQ(decode_image(data).err(), Err::PROTO);
}

TEST(Image, MissingHeaderRejected) {
  RecordWriter w;
  w.write(RecordTag::IMAGE_END, 1, Bytes{});
  EXPECT_EQ(decode_image(w.take()).err(), Err::PROTO);
}

// ---- Region record framing -------------------------------------------------
// A CRC-valid region record whose fields disagree with its length prefix
// must fail with Err::PROTO, never decode to an empty or short region.

/// A valid one-process image (with an 8-byte region "src" for refs to
/// point at) plus one hand-framed record spliced in before the terminator.
Bytes image_with_record(RecordTag tag, const Bytes& payload) {
  PodImage img;
  img.header.pod_name = "framing";
  ProcessImage p;
  p.vpid = 1;
  p.kind = "test.counter";
  p.regions["src"] = Bytes(8, 0x11);
  img.processes.push_back(p);
  Bytes data = encode_image(img);
  data.resize(data.size() - 18);  // drop the (empty) IMAGE_END record
  RecordWriter w;
  w.write(tag, 2, payload);
  w.write(RecordTag::IMAGE_END, 2, Bytes{});
  append_bytes(data, w.bytes());
  return data;
}

/// MEM_REGION payload whose length prefix claims `claimed` bytes while
/// `actual` follow.
Bytes region_payload(u32 claimed, std::size_t actual) {
  Encoder e;
  e.put_u32(1);  // vpid
  e.put_string("r");
  e.put_u32(claimed);
  Bytes body(actual, 0x22);
  e.put_raw(body.data(), body.size());
  return e.take();
}

Bytes zero_region_payload() {
  Encoder e;
  e.put_u32(1);  // vpid
  e.put_string("z");
  e.put_u64(64);
  return e.take();
}

Bytes region_ref_payload() {
  Encoder e;
  e.put_u32(1);  // vpid
  e.put_string("copy");
  e.put_u32(1);  // vpid
  e.put_string("src");
  return e.take();
}

TEST(RegionFraming, WellFramedRecordsDecode) {
  auto r = decode_image(
      image_with_record(RecordTag::MEM_REGION, region_payload(50, 50)));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().processes[0].regions.at("r"), Bytes(50, 0x22));

  auto z = decode_image(
      image_with_record(RecordTag::MEM_REGION_ZERO, zero_region_payload()));
  ASSERT_TRUE(z.is_ok()) << z.status().to_string();
  EXPECT_EQ(z.value().processes[0].regions.at("z"), Bytes(64, 0));

  auto f = decode_image(
      image_with_record(RecordTag::MEM_REGION_REF, region_ref_payload()));
  ASSERT_TRUE(f.is_ok()) << f.status().to_string();
  EXPECT_EQ(f.value().processes[0].regions.at("copy"), Bytes(8, 0x11));
}

TEST(RegionFraming, MemRegionLengthOverrunRejected) {
  EXPECT_EQ(decode_image(image_with_record(RecordTag::MEM_REGION,
                                           region_payload(100, 50)))
                .err(),
            Err::PROTO);
}

TEST(RegionFraming, MemRegionTrailingBytesRejected) {
  EXPECT_EQ(decode_image(image_with_record(RecordTag::MEM_REGION,
                                           region_payload(50, 60)))
                .err(),
            Err::PROTO);
}

TEST(RegionFraming, ZeroRegionShortFieldRejected) {
  Bytes short_size = zero_region_payload();
  short_size.resize(short_size.size() - 4);  // half of the u64 size
  EXPECT_EQ(
      decode_image(image_with_record(RecordTag::MEM_REGION_ZERO, short_size))
          .err(),
      Err::PROTO);
}

TEST(RegionFraming, ZeroRegionTrailingBytesRejected) {
  Bytes trailing = zero_region_payload();
  trailing.push_back(0);
  EXPECT_EQ(
      decode_image(image_with_record(RecordTag::MEM_REGION_ZERO, trailing))
          .err(),
      Err::PROTO);
}

TEST(RegionFraming, RegionRefShortFieldRejected) {
  Bytes short_name = region_ref_payload();
  short_name.resize(short_name.size() - 2);  // source name cut short
  EXPECT_EQ(
      decode_image(image_with_record(RecordTag::MEM_REGION_REF, short_name))
          .err(),
      Err::PROTO);
}

TEST(RegionFraming, RegionRefTrailingBytesRejected) {
  Bytes trailing = region_ref_payload();
  trailing.push_back(0);
  EXPECT_EQ(
      decode_image(image_with_record(RecordTag::MEM_REGION_REF, trailing))
          .err(),
      Err::PROTO);
}

// ---- Re-framed records: fields the CRC no longer guards -----------------------

/// A process whose manifest lists a 64-byte zero region "z"; with zero
/// elision "z" is written as a MEM_REGION_ZERO record (its size only).
PodImage zero_region_image() {
  PodImage img;
  img.header.pod_name = "zombie-pod";
  img.header.codec_flags = kCodecZeroElide;
  ProcessImage p;
  p.vpid = 1;
  p.kind = "test.counter";
  p.regions["z"] = RegionBuf::zeros(64);
  p.manifest["z"] = RegionMeta{1, 64, 0};
  img.processes.push_back(p);
  return img;
}

/// `image` with its MEM_REGION_ZERO size field (the payload's last 8
/// bytes) set to `size` and the record framed again.
Bytes with_zero_region_size(const Bytes& image, u64 size) {
  return test::reframe_records(image, [size](RecordTag tag, Bytes& payload) {
    if (tag != RecordTag::MEM_REGION_ZERO) return;
    for (std::size_t i = 0; i < 8; ++i) {
      payload[payload.size() - 8 + i] = static_cast<u8>(size >> (8 * i));
    }
  });
}

// The size is the only thing a zero region record carries; a huge one
// once went straight to the zero mapping, whose mmap failed and threw
// std::bad_alloc out of decode_image.
constexpr u64 kHugeZeroRegion = 0x4000200000000010;

TEST(ZeroRegionSize, HugeSizeFailsDecodeWithProto) {
  const Bytes data = encode_image(zero_region_image());
  auto ok = decode_image(with_zero_region_size(data, 64));
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().processes[0].regions.at("z"), Bytes(64, 0));
  for (u64 size : {kHugeZeroRegion, kMaxRegionBytes + 1, u64{63}, u64{65}}) {
    EXPECT_EQ(decode_image(with_zero_region_size(data, size)).err(),
              Err::PROTO)
        << size;
  }
}

TEST(ZeroRegionSize, CapBoundsAProcessWithoutManifest) {
  PodImage img = zero_region_image();
  img.processes[0].manifest.clear();
  const Bytes data = encode_image(img);
  auto ok = decode_image(with_zero_region_size(data, 1 << 20));
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().processes[0].regions.at("z").size(), 1u << 20);
  for (u64 size : {kHugeZeroRegion, kMaxRegionBytes + 1}) {
    EXPECT_EQ(decode_image(with_zero_region_size(data, size)).err(),
              Err::PROTO)
        << size;
  }
}

/// `n` bytes of `v`, little-endian.
Bytes le_bytes(u64 v, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(v >> (8 * i));
  return b;
}

Bytes cat(Bytes a, const Bytes& b) {
  append_bytes(a, b);
  return a;
}

// A map field has one encoding: its entries in key order.  A PROCESS
// payload with two entries of its fd table or of its timers swapped
// once decoded (and re-encoded to other bytes); it must fail instead.
TEST(CanonicalMaps, ProcessMapWithSwappedKeysFailsDecode) {
  PodImage img = sample_image();
  img.processes[0].fds = {{3, 7}, {4, 9}};
  img.processes[0].timer_remaining = {{1, 100}, {2, 200}};
  const Bytes data = encode_image(img);
  ASSERT_TRUE(decode_image(data).is_ok());

  // Each map's two entries as encoded: (int fd, u32 socket) and
  // (u32 timer id, i64 remaining).
  const std::vector<std::pair<Bytes, Bytes>> maps = {
      {cat(le_bytes(3, 4), le_bytes(7, 4)),
       cat(le_bytes(4, 4), le_bytes(9, 4))},
      {cat(le_bytes(1, 4), le_bytes(100, 8)),
       cat(le_bytes(2, 4), le_bytes(200, 8))},
  };
  for (const auto& [first, second] : maps) {
    const Bytes in_order = cat(first, second);
    // The PROCESS payload with the two entries replaced by `entries`.
    auto with_entries = [&](const Bytes& entries) {
      bool found = false;
      Bytes out = test::reframe_records(
          data, [&](RecordTag tag, Bytes& payload) {
            if (tag != RecordTag::PROCESS) return;
            auto at = std::search(payload.begin(), payload.end(),
                                  in_order.begin(), in_order.end());
            if (at == payload.end()) return;
            std::copy(entries.begin(), entries.end(), at);
            found = true;
          });
      EXPECT_TRUE(found);
      return out;
    };
    ASSERT_TRUE(decode_image(with_entries(in_order)).is_ok());
    EXPECT_EQ(decode_image(with_entries(cat(second, first))).err(),
              Err::PROTO);
    // The same entry twice (a duplicate key) fails as well.
    EXPECT_EQ(decode_image(with_entries(cat(first, first))).err(),
              Err::PROTO);
  }
}

/// REDIRECTED_SEND_Q payload: socket id, then length-prefixed data.
Bytes redirected_payload() {
  Encoder e;
  e.put_u32(7);
  e.put_bytes(to_bytes("queued"));
  return e.take();
}

TEST(RedirectedQueueFraming, WellFramedRecordDecodes) {
  auto r = decode_image(
      image_with_record(RecordTag::REDIRECTED_SEND_Q, redirected_payload()));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r.value().redirected_recv.size(), 1u);
  EXPECT_EQ(r.value().redirected_recv.at(7), to_bytes("queued"));
}

// A garbled payload with a valid CRC must not decode to socket 0 with no
// data: that would silently drop a peer's in-flight bytes.
TEST(RedirectedQueueFraming, MalformedRecordsRejected) {
  Bytes short_sid = {0x07, 0x00};  // half a socket id, no data
  Bytes short_data = redirected_payload();
  short_data.resize(short_data.size() - 2);  // data cut short
  Bytes no_length = redirected_payload();
  no_length.resize(4);  // socket id only
  Bytes trailing = redirected_payload();
  trailing.push_back(0);
  for (const Bytes& payload : {short_sid, short_data, no_length, trailing,
                               Bytes{}}) {
    EXPECT_EQ(
        decode_image(image_with_record(RecordTag::REDIRECTED_SEND_Q, payload))
            .err(),
        Err::PROTO)
        << payload.size();
  }
}

TEST(Image, MetaRoundTrip) {
  NetMeta m = sample_image().meta;
  const Bytes wire = encode_fields(m);
  NetMeta back;
  ASSERT_TRUE(decode_fields(ByteView{wire.data(), wire.size()}, back).is_ok());
  EXPECT_EQ(back.pod_vip, m.pod_vip);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].target, m.entries[0].target);
}

TEST(Image, NetworkBytesAreSmallComparedToTotal) {
  // Paper §6: "application data in a checkpoint image can be many orders
  // of magnitude more than the network data."
  PodImage img = sample_image();
  img.processes[0].regions["heap"] = Bytes(16 << 20, 1);
  EXPECT_LT(img.network_bytes() * 100, img.total_bytes());
}

// ---- Exact-size encode -----------------------------------------------------
// encode_image plans every record before it writes one, so an encode
// allocates once, at exactly the encoded size, and total_bytes() is that
// planned size.

/// An image with `sockets` sockets (each with a meta entry, one to three
/// queued receive items and a send queue), fds, timers, names of
/// `name_len` characters, and zero, duplicate and odd-sized regions in
/// two processes: every field whose size the encode plan must count.
PodImage shaped_image(std::size_t sockets, std::size_t name_len,
                      u32 codec_flags) {
  PodImage img;
  img.header.pod_name = std::string(name_len, 'p');
  img.header.vip = net::IpAddr(10, 77, 0, 3);
  img.header.codec_flags = codec_flags;
  img.header.base_uri = "san://shaped/" + std::string(name_len, 'b');
  img.meta.pod_vip = img.header.vip;
  for (std::size_t i = 0; i < sockets; ++i) {
    const auto id = static_cast<net::SockId>(i + 1);
    NetMetaEntry e;
    e.sock = id;
    e.source = net::SockAddr{img.header.vip, static_cast<u16>(5000 + i)};
    e.target = net::SockAddr{net::IpAddr(10, 77, 0, 4), 41000};
    e.pcb_sent = static_cast<u32>(i);
    img.meta.entries.push_back(e);
    SocketImage s;
    s.old_id = id;
    s.local = e.source;
    s.remote = e.target;
    s.connected = true;
    for (std::size_t k = 0; k <= i % 3; ++k) {
      s.recv_queue.push_back(SavedRecvItem{
          test::pattern_bytes(17 * k + i, static_cast<u8>(k)), e.target,
          k == 2});
    }
    s.send_queue = test::pattern_bytes(100 + 7 * i, 1);
    img.sockets.push_back(s);
  }
  ProcessImage p;
  p.vpid = 1;
  p.kind = "test." + std::string(name_len, 'k');
  p.program_state = test::pattern_bytes(40 + name_len, 2);
  for (std::size_t i = 0; i < sockets; ++i) {
    p.fds[static_cast<int>(i + 3)] = static_cast<net::SockId>(i + 1);
  }
  p.timer_remaining = {{1, 500}, {7, 9000}};
  p.regions["heap"] = test::pattern_bytes(64 << 10, 5);
  p.regions["heap-copy"] = test::pattern_bytes(64 << 10, 5);
  p.regions["zeros"] = Bytes(8 << 10, 0);
  p.regions[std::string(name_len, 'r')] = Bytes(3, 9);
  p.region_gen_counter = 12;
  for (const auto& [name, r] : p.regions) {
    p.manifest[name] = RegionMeta{3, r.size(), 4};
  }
  img.processes.push_back(p);
  p.vpid = 2;  // a second process: refs across processes
  img.processes.push_back(p);
  return img;
}

TEST(ImageCodec, EncodeAllocatesExactlyOnce) {
  for (std::size_t sockets : {0, 1, 4, 120}) {
    for (std::size_t name_len : {3, 300}) {
      for (u32 flags : {0u, kCodecZeroElide | kCodecDedup}) {
        const Bytes data = encode_image(shaped_image(sockets, name_len, flags));
        EXPECT_EQ(data.capacity(), data.size())
            << sockets << " sockets, names of " << name_len << ", flags "
            << flags;
      }
    }
  }
}

/// One image of each shape the codec frames differently, with the size
/// and CRC-32 of its encoding.  The digests were taken from the encoder
/// before it planned its records, so they pin the wire format.
struct CodecCase {
  std::string what;
  PodImage img;
  std::size_t size;
  u32 crc;
};

std::vector<CodecCase> codec_cases() {
  std::vector<CodecCase> cases;
  cases.push_back({"empty", PodImage{}, 107, 0x28FE6CAB});
  cases.push_back({"sample", sample_image(), 1531, 0x4FC47BD6});
  cases.push_back({"plain", shaped_image(4, 3, 0), 281130, 0xFE965BA0});
  cases.push_back({"zero-elide", shaped_image(4, 3, kCodecZeroElide), 264754,
                   0x71DB0B03});
  cases.push_back(
      {"dedup", shaped_image(4, 3, kCodecDedup), 76367, 0x892EAC48});
  cases.push_back({"long names, 4 sockets, both codecs",
                   shaped_image(4, 300, kCodecZeroElide | kCodecDedup), 71441,
                   0xCB7F4632});
  cases.push_back(
      {"120 sockets", shaped_image(120, 3, 0), 391580, 0x2F48FB43});
  PodImage delta = shaped_image(1, 3, kCodecDelta | kCodecZeroElide);
  delta.header.delta_seq = 2;
  delta.processes[0].regions.erase("heap");  // clean: manifest only
  cases.push_back({"delta", delta, 197938, 0xF823C3BD});
  PodImage gm = shaped_image(1, 3, 0);
  gm.has_gm_device = true;
  gm.gm_state = test::pattern_bytes(3000, 6);
  cases.push_back({"gm-device", gm, 282902, 0x7C62E7FE});
  PodImage redirected = shaped_image(4, 3, 0);
  redirected.redirected_recv[1] = test::pattern_bytes(5000, 7);
  redirected.redirected_recv[3] = Bytes{};
  cases.push_back({"redirected-queue", redirected, 286182, 0xCC38BCCD});
  return cases;
}

TEST(ImageCodec, TotalBytesEqualsEncodedSize) {
  for (const CodecCase& c : codec_cases()) {
    EXPECT_EQ(c.img.total_bytes(), encode_image(c.img).size()) << c.what;
  }
}

TEST(ImageCodec, EncodingMatchesPinnedDigests) {
  for (const CodecCase& c : codec_cases()) {
    const Bytes data = encode_image(c.img);
    EXPECT_EQ(data.size(), c.size) << c.what;
    EXPECT_EQ(crc32(data), c.crc) << c.what;
  }
}

TEST(ImageCodec, EncodeIntoFittingStorageWritesInPlace) {
  const PodImage img = shaped_image(4, 3, kCodecZeroElide | kCodecDedup);
  const Bytes fresh = encode_image(img);
  // The smallest and the largest storage that fits, each holding stale
  // bytes of an earlier image.
  for (std::size_t cap : {fresh.size(), 2 * fresh.size()}) {
    Bytes storage(cap, 0xEE);
    const u8* at = storage.data();
    const Bytes out = encode_image(img, std::move(storage));
    EXPECT_EQ(out.data(), at) << cap;
    EXPECT_EQ(out.capacity(), cap);
    ASSERT_EQ(out.size(), fresh.size()) << cap;
    EXPECT_EQ(std::memcmp(out.data(), fresh.data(), fresh.size()), 0) << cap;
  }
}

TEST(ImageCodec, EncodeIntoMisfitStorageAllocatesExactly) {
  const PodImage img = shaped_image(4, 3, 0);
  const Bytes fresh = encode_image(img);
  // One byte short (writing into it would grow it), and more than twice
  // the image (keeping it would pin memory the image does not need).
  for (std::size_t cap : {fresh.size() - 1, 2 * fresh.size() + 1}) {
    Bytes storage(cap, 0xEE);
    const Bytes out = encode_image(img, std::move(storage));
    EXPECT_EQ(out.capacity(), out.size()) << cap;
    EXPECT_EQ(out, fresh) << cap;
  }
}

TEST(Standalone, SaveRestoreProcessRoundTrip) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  i32 pid = pod.spawn(std::make_unique<test::CounterProgram>(100, 10));
  cl.run_for(500);  // make some progress
  pod.suspend();

  os::Process* p = pod.find_process(pid);
  u32 progress = static_cast<test::CounterProgram&>(p->program()).count();
  ASSERT_GT(progress, 0u);
  p->region("scratch", 4096)[17] = 0x7E;

  PodImageHeader header = Standalone::save_header(pod);
  ProcessImage img = Standalone::save_process(pod, *p);
  EXPECT_EQ(img.kind, "test.counter");
  EXPECT_FALSE(img.exited);

  // Restore into a fresh pod on another node.
  os::Node& n2 = cl.add_node("n2");
  pod::Pod pod2(n2, net::IpAddr(10, 77, 0, 2), "pod2");
  Standalone::restore_header(pod2, header);
  ASSERT_TRUE(Standalone::restore_process(pod2, img, {}).is_ok());

  os::Process* q = pod2.find_process(pid);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->state(), os::ProcState::STOPPED);
  EXPECT_EQ(static_cast<test::CounterProgram&>(q->program()).count(),
            progress);
  EXPECT_EQ(q->regions().at("scratch")[17], 0x7E);

  // Resumed, it finishes the count.
  pod2.resume();
  cl.run_for(10 * sim::kMillisecond);
  EXPECT_EQ(q->state(), os::ProcState::EXITED);
  EXPECT_EQ(static_cast<test::CounterProgram&>(q->program()).count(), 100u);
}

TEST(Standalone, RestoreMovesRegionBytesLeavingManifest) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  i32 pid = pod.spawn(std::make_unique<test::CounterProgram>(100, 10));
  pod.find_process(pid)->region("heap", 8192).assign(8192, 0x3C);
  pod.suspend();
  ProcessImage img = Standalone::save_process(pod, *pod.find_process(pid));

  pod::Pod pod2(n, net::IpAddr(10, 77, 0, 2), "pod2");
  ASSERT_TRUE(Standalone::restore_process(pod2, img, {}).is_ok());
  EXPECT_EQ(pod2.find_process(pid)->regions().at("heap"), Bytes(8192, 0x3C));
  // The bytes moved; the manifest (read by lazy ranking) stayed.
  EXPECT_TRUE(img.regions.empty());
  EXPECT_EQ(img.manifest.at("heap").size, 8192u);
}

TEST(Standalone, TimeVirtualizationContinuity) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  cl.run_for(5000);
  sim::Time before = pod.virtual_now();
  PodImageHeader header = Standalone::save_header(pod);

  // Much later, on another node, the pod clock resumes where it stopped.
  cl.run_for(60 * sim::kSecond);
  os::Node& n2 = cl.add_node("n2");
  pod::Pod pod2(n2, net::IpAddr(10, 77, 0, 2), "pod2");
  Standalone::restore_header(pod2, header);
  EXPECT_EQ(pod2.virtual_now(), before);
}

TEST(Standalone, TimerRemainingSurvivesRestore) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  i32 pid = pod.spawn(std::make_unique<test::CounterProgram>(1000, 10));
  cl.run_for(100);
  os::Process* p = pod.find_process(pid);
  p->timers()[1] = cl.now() + 10000;  // 10ms left
  pod.suspend();
  ProcessImage img = Standalone::save_process(pod, *p);
  EXPECT_EQ(img.timer_remaining.at(1), 10000);

  cl.run_for(5 * sim::kSecond);  // long downtime
  os::Node& n2 = cl.add_node("n2");
  pod::Pod pod2(n2, net::IpAddr(10, 77, 0, 2), "pod2");
  ASSERT_TRUE(Standalone::restore_process(pod2, img, {}).is_ok());
  os::Process* q = pod2.find_process(pid);
  // The timer still has ~10ms to go rather than having expired.
  EXPECT_EQ(q->timers().at(1), cl.now() + 10000);
}

TEST(Standalone, UnknownProgramKindFails) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  ProcessImage img;
  img.vpid = 1;
  img.kind = "does.not.exist";
  EXPECT_EQ(Standalone::restore_process(pod, img, {}).err(), Err::NO_ENT);
}

TEST(Standalone, MissingSocketMappingFails) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  ProcessImage img;
  img.vpid = 1;
  img.kind = "test.counter";
  img.program_state = test::CounterProgram(1, 1).save();
  img.fds[3] = 99;  // no mapping provided
  EXPECT_EQ(Standalone::restore_process(pod, img, {}).err(), Err::NO_ENT);
}

}  // namespace
}  // namespace zapc::ckpt
