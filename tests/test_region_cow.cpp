// Copy-on-write region buffers (DESIGN.md §14): a capture shares the
// pod's region bytes, a write clones only bytes someone else still holds,
// decode shares zero and deduplicated regions, and the encoded image is a
// function of region content alone, never of sharing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <vector>

#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"
#include "util/region_buf.h"

namespace zapc {
namespace {

TEST(RegionBuf, CopySharesAndWriteClonesOnlyWhileShared) {
  RegionBuf a(Bytes(64, 1));
  const u8* own = a.data();
  EXPECT_FALSE(a.shared());
  a.mut()[0] = 2;  // sole holder: written in place
  EXPECT_EQ(a.data(), own);

  RegionBuf b = a;
  EXPECT_EQ(b.data(), own);
  EXPECT_TRUE(a.shared());
  a.mut()[0] = 3;  // b still holds the bytes: a clones first
  EXPECT_NE(a.data(), own);
  EXPECT_EQ(a[0], 3);
  EXPECT_EQ(b[0], 2);

  EXPECT_FALSE(b.shared());  // the last holder writes in place again
  b.mut()[1] = 9;
  EXPECT_EQ(b.data(), own);
}

TEST(RegionBuf, ZeroBufferIsSharedAndNeverWrittenInPlace) {
  RegionBuf z1 = RegionBuf::zeros(4096);
  RegionBuf z2 = RegionBuf::zeros(4096);
  EXPECT_EQ(z1.data(), z2.data());
  EXPECT_EQ(z1, Bytes(4096, 0));
  z2 = RegionBuf();
  // Even its only holder clones it: a zero view has no bytes of its own.
  EXPECT_TRUE(z1.shared());
  z1.mut()[5] = 7;
  EXPECT_EQ(z1[5], 7);
  EXPECT_EQ(RegionBuf::zeros(4096), Bytes(4096, 0));
  EXPECT_TRUE(RegionBuf::zeros(0).empty());
}

/// Resident memory of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

// A zero view is backed by the kernel's zero page: creating and reading
// one, however large, makes nothing resident.
TEST(RegionBuf, ZeroViewReadInFullCostsNoResidentMemory) {
  const std::size_t n = std::size_t{256} << 20;
  const std::size_t before = resident_bytes();
  RegionBuf z = RegionBuf::zeros(n);
  ASSERT_TRUE(z.is_zeros());
  ASSERT_EQ(z.size(), n);
  EXPECT_TRUE(is_all_zero(z.data(), z.size()));  // touches every page
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + (std::size_t{1} << 20))
      << "resident " << before << " -> " << after;

  // A write makes owned zeros; the view's mapping is left untouched.
  RegionBuf w = RegionBuf::zeros(4096);
  w.mut()[1] = 5;
  EXPECT_FALSE(w.is_zeros());
  EXPECT_FALSE(w.shared());
  EXPECT_EQ(w[1], 5);
  EXPECT_EQ(RegionBuf::zeros(4096), Bytes(4096, 0));
}

TEST(RegionBuf, IsAllZeroSeesOneNonZeroByteAnywhere) {
  for (std::size_t n : {1u, 7u, 9u, 63u, 65u, 127u, 4097u, (1u << 20) + 3}) {
    Bytes b(n + 3, 0);
    for (std::size_t off : {0u, 3u}) {  // aligned and misaligned starts
      EXPECT_TRUE(is_all_zero(b.data() + off, n)) << n;
      for (std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
        b[off + pos] = 0x80;
        EXPECT_FALSE(is_all_zero(b.data() + off, n))
            << "n=" << n << " off=" << off << " pos=" << pos;
        b[off + pos] = 0;
      }
    }
  }
  EXPECT_TRUE(is_all_zero(nullptr, 0));
}

}  // namespace

namespace ckpt {
namespace {

PodImage one_process_image(u32 codec_flags) {
  PodImage img;
  img.header.pod_name = "cow";
  img.header.vip = net::IpAddr(10, 78, 0, 1);
  img.header.codec_flags = codec_flags;
  ProcessImage p;
  p.vpid = 1;
  p.kind = "test.counter";
  img.processes.push_back(p);
  return img;
}

std::vector<RecordTag> record_tags(const Bytes& data) {
  std::vector<RecordTag> tags;
  RecordReader r(data);
  while (!r.at_end()) {
    auto rec = r.next();
    if (!rec) break;
    tags.push_back(rec.value().tag);
  }
  return tags;
}

/// Zero elision and the decode-side zero check both rest on is_all_zero:
/// a region with one non-zero byte must come back as written.
TEST(RegionCodec, OddRegionsWithOneNonZeroByteAreNeverElided) {
  for (std::size_t n : {1u, 63u, 65u, 4097u, (1u << 20) + 3}) {
    for (std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      Bytes region(n, 0);
      region[pos] = 0x80;
      PodImage img = one_process_image(kCodecZeroElide);
      img.processes[0].regions["r"] = region;
      Bytes data = encode_image(img);
      std::vector<RecordTag> tags = record_tags(data);
      EXPECT_EQ(std::count(tags.begin(), tags.end(), RecordTag::MEM_REGION),
                1)
          << "n=" << n << " pos=" << pos;
      EXPECT_EQ(
          std::count(tags.begin(), tags.end(), RecordTag::MEM_REGION_ZERO), 0)
          << "n=" << n << " pos=" << pos;
      auto back = decode_image(data);
      ASSERT_TRUE(back.is_ok());
      EXPECT_EQ(back.value().processes[0].regions.at("r"), region)
          << "n=" << n << " pos=" << pos;
    }
  }
}

/// Elided or raw, an all-zero region decodes to the one zero buffer.
TEST(RegionCodec, ZeroRegionsDecodeToTheSharedZeroBuffer) {
  const RegionBuf held = RegionBuf::zeros(8192);
  for (u32 flags : {0u, kCodecZeroElide}) {
    PodImage img = one_process_image(flags);
    img.processes[0].regions["z"] = Bytes(8192, 0);
    auto back = decode_image(encode_image(img));
    ASSERT_TRUE(back.is_ok());
    const RegionBuf& z = back.value().processes[0].regions.at("z");
    EXPECT_EQ(z.data(), held.data()) << flags;
    EXPECT_EQ(z, Bytes(8192, 0));
  }
}

/// A plain-codec image holding one all-zero region "z" of `n` bytes, with
/// where that region's record and body sit in the encoded bytes.
struct RawZeroRegion {
  Bytes data;
  std::size_t payload_at = 0;  // offset of the record's payload
  std::size_t payload_len = 0;
  std::size_t body_at = 0;     // offset of the region bytes
  u16 version = 0;

  explicit RawZeroRegion(std::size_t n) {
    PodImage img = one_process_image(0);
    img.processes[0].regions["z"] = RegionBuf::zeros(n);
    data = encode_image(img);
    RecordReader r(data);
    while (!r.at_end()) {
      auto rec = r.next();
      if (!rec || rec.value().tag != RecordTag::MEM_REGION) continue;
      payload_at = static_cast<std::size_t>(rec.value().payload.data -
                                            data.data());
      payload_len = rec.value().payload.size;
      version = rec.value().version;
      body_at = payload_at + payload_len - n;
    }
  }

  /// Rewrites the record's CRC to match its (edited) payload.
  void reframe() {
    const u32 crc = record_crc(RecordTag::MEM_REGION, version,
                               data.data() + payload_at, payload_len);
    for (std::size_t i = 0; i < 4; ++i) {
      data[payload_at + payload_len + i] = static_cast<u8>(crc >> (8 * i));
    }
  }
};

// The zero check rides on the CRC pass, and the CRC is checked first: a
// flipped byte in an all-zero region fails decode; re-framed so the CRC
// holds, the region decodes to owned bytes carrying the flip, never to a
// zero view.
TEST(RegionCodec, FlippedByteInRawZeroRegionIsNeverAZeroView) {
  const std::size_t block = RecordWriter::kCrcBlock;
  const std::size_t n = 3 * block + 5;
  for (std::size_t pos : {std::size_t{0}, block - 1, block, n / 2, n - 1}) {
    RawZeroRegion img(n);
    ASSERT_GT(img.body_at, 0u);
    auto clean = decode_image(img.data);
    ASSERT_TRUE(clean.is_ok());
    EXPECT_TRUE(clean.value().processes[0].regions.at("z").is_zeros());

    img.data[img.body_at + pos] ^= 0x04;
    EXPECT_EQ(decode_image(img.data).err(), Err::PROTO) << pos;

    img.reframe();
    auto back = decode_image(img.data);
    ASSERT_TRUE(back.is_ok()) << pos;
    const RegionBuf& z = back.value().processes[0].regions.at("z");
    EXPECT_FALSE(z.is_zeros()) << pos;
    Bytes want(n, 0);
    want[pos] = 0x04;
    EXPECT_EQ(z, want) << pos;
  }
}

TEST(RegionCodec, SharedAndOwnedRegionsEncodeIdentically) {
  const std::size_t n = 64 << 10;
  const RegionBuf data(Bytes(n, 0x5C));
  for (u32 flags : {0u, kCodecZeroElide, kCodecDedup,
                    kCodecZeroElide | kCodecDedup}) {
    PodImage owned = one_process_image(flags);
    owned.processes[0].regions["a"] = Bytes(n, 0x5C);
    owned.processes[0].regions["b"] = Bytes(n, 0x5C);
    owned.processes[0].regions["z"] = Bytes(n, 0);
    PodImage shared = one_process_image(flags);
    shared.processes[0].regions["a"] = data;
    shared.processes[0].regions["b"] = data;
    shared.processes[0].regions["z"] = RegionBuf::zeros(n);
    EXPECT_EQ(encode_image(owned), encode_image(shared)) << flags;
  }
}

class RegionCowPod : public ::testing::Test {
 protected:
  RegionCowPod()
      : node_(cl_.add_node("n1")),
        pod_(node_, net::IpAddr(10, 78, 0, 1), "pod1") {}

  /// A fresh pod to restore `img` into.
  pod::Pod& restored(ProcessImage img) {
    pods_.push_back(std::make_unique<pod::Pod>(
        node_, net::IpAddr(10, 78, 0, static_cast<u8>(10 + pods_.size())),
        "copy" + std::to_string(pods_.size())));
    EXPECT_TRUE(Standalone::restore_process(*pods_.back(), img, {}).is_ok());
    return *pods_.back();
  }

  os::Cluster cl_;
  os::Node& node_;
  pod::Pod pod_;
  std::vector<std::unique_ptr<pod::Pod>> pods_;
};

TEST_F(RegionCowPod, CaptureHoldsCaptureInstantBytesWhilePodWrites) {
  i32 pid = pod_.spawn(std::make_unique<test::CounterProgram>(100, 10));
  os::Process* p = pod_.find_process(pid);
  p->region("heap", 4096).assign(4096, 0x11);
  pod_.suspend();

  PodImage img;
  img.header = Standalone::save_header(pod_);
  img.processes = Standalone::save_processes(pod_);
  // The capture shares the pod's buffer: no bytes were copied.
  EXPECT_EQ(img.processes[0].regions.at("heap").data(),
            p->regions().at("heap").data());

  p->region("heap", 4096).assign(4096, 0x22);  // the write fault clones
  auto back = decode_image(encode_image(img));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().processes[0].regions.at("heap"), Bytes(4096, 0x11));
  EXPECT_EQ(p->regions().at("heap"), Bytes(4096, 0x22));
}

TEST_F(RegionCowPod, PodsRestoredFromOneZeroElidedImageStayIsolated) {
  i32 pid = pod_.spawn(std::make_unique<test::CounterProgram>(100, 10));
  pod_.find_process(pid)->region("zeros", 1 << 20);
  pod_.suspend();
  PodImage img;
  img.header = Standalone::save_header(pod_);
  img.header.codec_flags = kCodecZeroElide;
  img.processes = Standalone::save_processes(pod_);
  const Bytes data = encode_image(img);
  img = PodImage{};

  auto a = decode_image(data);
  auto b = decode_image(data);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  os::Process* qa = restored(a.value().processes[0]).find_process(pid);
  os::Process* qb = restored(b.value().processes[0]).find_process(pid);
  EXPECT_EQ(qa->regions().at("zeros").data(), qb->regions().at("zeros").data());

  qa->region("zeros", 1 << 20)[123] = 0xEE;
  EXPECT_EQ(qa->regions().at("zeros")[123], 0xEE);
  EXPECT_EQ(qb->regions().at("zeros"), Bytes(1 << 20, 0));
  auto c = decode_image(data);
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value().processes[0].regions.at("zeros"), Bytes(1 << 20, 0));
}

// reserve_region is region() without the write fault: the same touch,
// generation bump and lazy-restore hook call, but a new region is a zero
// view and existing bytes are neither cloned nor materialised.
TEST_F(RegionCowPod, ReserveRegionTouchesLikeRegionWithoutWriting) {
  auto spawn = [&] {
    return pod_.find_process(
        pod_.spawn(std::make_unique<test::CounterProgram>(1, 1)));
  };
  os::Process* a = spawn();
  os::Process* b = spawn();
  int hooks_a = 0;
  int hooks_b = 0;
  a->set_touch_hook([&](const std::string&) { ++hooks_a; });
  b->set_touch_hook([&](const std::string&) { ++hooks_b; });

  a->region("data", 64).assign(64, 0x33);
  b->region("data", 64).assign(64, 0x33);
  const RegionBuf capture = a->regions().at("data");  // a snapshot holds it
  a->reserve_region("ws", 1 << 20);
  b->region("ws", 1 << 20);
  a->reserve_region("ws", 2 << 20);  // grows, still a zero view
  b->region("ws", 2 << 20);
  a->reserve_region("data", 64);
  b->region("data", 64);

  EXPECT_TRUE(a->regions().at("ws").is_zeros());
  EXPECT_EQ(a->regions().at("ws").size(), std::size_t{2} << 20);
  EXPECT_EQ(a->regions().at("ws"), b->regions().at("ws"));
  // The captured bytes were not cloned.
  EXPECT_EQ(a->regions().at("data").data(), capture.data());
  EXPECT_EQ(a->region_touches(), b->region_touches());
  EXPECT_EQ(a->region_gens(), b->region_gens());
  EXPECT_EQ(a->region_gen_counter(), b->region_gen_counter());
  EXPECT_EQ(hooks_a, hooks_b);
  EXPECT_EQ(hooks_a, 4);

  // An owned region reserved larger grows with zeros and keeps its bytes.
  a->reserve_region("data", 128);
  EXPECT_EQ(a->regions().at("data").size(), 128u);
  EXPECT_EQ(a->regions().at("data")[0], 0x33);
  EXPECT_EQ(a->regions().at("data")[127], 0);
}

TEST_F(RegionCowPod, DedupRefRegionsOfOneImageStayIsolated) {
  std::vector<i32> pids;
  for (int i = 0; i < 2; ++i) {
    pids.push_back(
        pod_.spawn(std::make_unique<test::CounterProgram>(100, 10)));
    pod_.find_process(pids.back())->region("buf", 4096).assign(4096, 0x5C);
  }
  pod_.suspend();
  PodImage img;
  img.header = Standalone::save_header(pod_);
  img.header.codec_flags = kCodecDedup;
  img.processes = Standalone::save_processes(pod_);
  auto back = decode_image(encode_image(img));
  ASSERT_TRUE(back.is_ok());
  auto& procs = back.value().processes;
  ASSERT_EQ(procs.size(), 2u);
  EXPECT_EQ(procs[0].regions.at("buf").data(),
            procs[1].regions.at("buf").data());

  pod::Pod& q = restored(procs[0]);
  ASSERT_TRUE(Standalone::restore_process(q, procs[1], {}).is_ok());
  q.find_process(pids[0])->region("buf", 4096)[0] = 0x01;
  EXPECT_EQ(q.find_process(pids[0])->regions().at("buf")[0], 0x01);
  EXPECT_EQ(q.find_process(pids[1])->regions().at("buf"), Bytes(4096, 0x5C));
}

}  // namespace
}  // namespace ckpt
}  // namespace zapc
