// Unit tests for util: serialization, records, crc32, status, rng.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "ckpt/image.h"
#include "util/crc32.h"
#include "util/region_buf.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace zapc {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.err(), Err::OK);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesMessage) {
  Status s(Err::WOULD_BLOCK, "queue empty");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "WOULD_BLOCK: queue empty");
}

TEST(Result, ValueRoundTrip) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorPropagates) {
  Result<int> r(Err::NO_ENT, "missing");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.err(), Err::NO_ENT);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(EncoderDecoder, PrimitivesRoundTrip) {
  Encoder e;
  e.put_u8(0xAB);
  e.put_u16(0xBEEF);
  e.put_u32(0xDEADBEEF);
  e.put_u64(0x0123456789ABCDEFull);
  e.put_f64(3.14159265358979);
  e.put_string("hello");
  e.put_bytes(Bytes{1, 2, 3});

  Decoder d(e.bytes());
  EXPECT_EQ(d.get_le<u8>().value(), 0xAB);
  EXPECT_EQ(d.u16_().value(), 0xBEEF);
  EXPECT_EQ(d.u32_().value(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64_().value(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(d.f64_().value(), 3.14159265358979);
  EXPECT_EQ(d.string_().value(), "hello");
  EXPECT_EQ(d.bytes_().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(d.at_end());
}

TEST(EncoderDecoder, ShortBufferFailsCleanly) {
  Encoder e;
  e.put_u16(7);
  Decoder d(e.bytes());
  EXPECT_TRUE(d.u32_().err() == Err::PROTO);
}

TEST(EncoderDecoder, TruncatedStringFails) {
  Encoder e;
  e.put_u32(100);  // claims 100 bytes, provides none
  Decoder d(e.bytes());
  EXPECT_EQ(d.string_().err(), Err::PROTO);
}

TEST(Records, WriteReadRoundTrip) {
  RecordWriter w;
  Encoder p1;
  p1.put_string("pod-a");
  w.write(RecordTag::IMAGE_HEADER, 1, std::move(p1));
  Encoder p2;
  p2.put_u32(99);
  w.write(RecordTag::PROCESS, 2, std::move(p2));

  RecordReader r(w.bytes());
  auto rec1 = r.next();
  ASSERT_TRUE(rec1.is_ok());
  EXPECT_EQ(rec1.value().tag, RecordTag::IMAGE_HEADER);
  EXPECT_EQ(rec1.value().version, 1);
  auto rec2 = r.next();
  ASSERT_TRUE(rec2.is_ok());
  EXPECT_EQ(rec2.value().tag, RecordTag::PROCESS);
  Decoder d(rec2.value().payload);
  EXPECT_EQ(d.u32_().value(), 99u);
  EXPECT_EQ(r.next().err(), Err::NO_ENT);
}

TEST(Records, CorruptionDetected) {
  RecordWriter w;
  Encoder p;
  p.put_string("payload data here");
  w.write(RecordTag::MEM_REGION, 1, std::move(p));
  Bytes image = w.take();
  image[image.size() / 2] ^= 0xFF;  // flip a payload bit

  RecordReader r(image);
  EXPECT_EQ(r.next().err(), Err::PROTO);
}

// write_split checksums each body block right after copying it.  The
// record must be byte for byte the two-pass form: frame the whole
// payload, then CRC tag, version and payload in one go.
TEST(Records, WriteSplitMatchesTwoPassForm) {
  const Bytes head = {0x10, 0x20, 0x30, 0x40, 0x50};
  const std::size_t block = RecordWriter::kCrcBlock;
  // Body shapes: data; all zero (borrowed, and as a null body, which
  // write_split writes without reading); data in every other block only,
  // so zero blocks sit between, before and after data blocks.
  enum class Shape { kData, kZeros, kNullZeros, kStriped };
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, block - 1, block,
                        block + 1, (std::size_t{3} << 20) + 7}) {
   for (Shape shape : {Shape::kData, Shape::kZeros, Shape::kNullZeros,
                       Shape::kStriped}) {
    Bytes body(n);
    if (shape == Shape::kData || shape == Shape::kStriped) {
      for (std::size_t i = 0; i < n; ++i) {
        if (shape == Shape::kData || (i / block) % 2 == 1) {
          body[i] = static_cast<u8>(i * 131 + 7);
        }
      }
    }
    RecordWriter w;
    w.write_split(RecordTag::MEM_REGION, 2, head,
                  shape == Shape::kNullZeros ? nullptr : body.data(), n);

    Encoder covered;  // what the CRC covers: tag, version, payload
    covered.put_u32(static_cast<u32>(RecordTag::MEM_REGION));
    covered.put_u16(2);
    covered.put_raw(head.data(), head.size());
    covered.put_raw(body.data(), n);
    Encoder two_pass;
    two_pass.put_u32(static_cast<u32>(RecordTag::MEM_REGION));
    two_pass.put_u16(2);
    two_pass.put_u64(head.size() + n);
    two_pass.put_raw(head.data(), head.size());
    two_pass.put_raw(body.data(), n);
    two_pass.put_u32(crc32(covered.bytes()));

    const int s = static_cast<int>(shape);
    ASSERT_EQ(w.size(), two_pass.size()) << n << " shape " << s;
    EXPECT_EQ(std::memcmp(w.bytes().data(), two_pass.bytes().data(),
                          w.size()),
              0)
        << n << " shape " << s;
    RecordReader r(w.bytes());
    EXPECT_TRUE(r.next().is_ok()) << n << " shape " << s;
   }
  }
}

// The reader's CRC pass also measures the payload's trailing zero run.
// It must equal a byte-by-byte scan from the end wherever the last
// non-zero byte sits: in the first block, on either side of a block
// boundary, at the very end, or nowhere.
TEST(Records, ZeroTailMatchesBytewiseScan) {
  const std::size_t block = RecordWriter::kCrcBlock;
  const std::size_t n = 3 * block + 5;
  auto scan = [](const Bytes& b) {
    std::size_t t = 0;
    while (t < b.size() && b[b.size() - 1 - t] == 0) ++t;
    return t;
  };
  auto zero_tail = [](const Bytes& payload) -> std::size_t {
    RecordWriter w;
    w.write(RecordTag::MEM_REGION, 1, payload);
    RecordReader r(w.bytes());
    auto rec = r.next();
    EXPECT_TRUE(rec.is_ok());
    return rec.is_ok() ? rec.value().zero_tail : ~std::size_t{0};
  };
  const std::vector<std::optional<std::size_t>> lasts = {
      0, 1, block - 1, block, block + 1, n - 1, std::nullopt};
  for (bool data_before : {false, true}) {
    for (const auto& last : lasts) {
      Bytes payload(n, 0);
      if (last) {
        // Optionally more non-zero bytes ahead of the last one, in
        // earlier blocks and in its own.
        if (data_before) {
          for (std::size_t i = 0; i < *last; i += 997) payload[i] = 0x5A;
        }
        payload[*last] = 0x80;
      }
      EXPECT_EQ(zero_tail(payload), scan(payload))
          << "last=" << (last ? static_cast<long long>(*last) : -1)
          << " data_before=" << data_before;
    }
  }
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, block, n}) {
    EXPECT_EQ(zero_tail(Bytes(size, 0)), size) << size;
  }
}

// The reader steps over an all-zero block with crc32_zeros instead of
// folding it, but it still reads every byte and compares the whole
// record CRC: one flipped bit anywhere in a multi-block zero body, or in
// the CRC trailer, fails the decode.
TEST(Records, BitFlipInZeroBodyFailsDecode) {
  const std::size_t block = RecordWriter::kCrcBlock;
  ckpt::PodImage img;
  img.header.pod_name = "zeros";
  ckpt::ProcessImage p;
  p.vpid = 1;
  p.kind = "test.counter";
  // A zero view: written as zeros (codec flags clear), three full
  // blocks and a partial one.
  p.regions["workspace"] = RegionBuf::zeros(3 * block + 100);
  img.processes.push_back(p);
  const Bytes data = ckpt::encode_image(img);
  ASSERT_TRUE(ckpt::decode_image(data).is_ok());

  // The region record is the one before the 18-byte terminator: its
  // body ends at its 4-byte CRC, and its payload (the reader's blocks)
  // starts at the head: vpid, name, body length.
  const std::size_t crc_at = data.size() - 18 - 4;
  const std::size_t body_start = crc_at - (3 * block + 100);
  const std::size_t payload_start = body_start - (4 + 4 + 9 + 4);
  for (std::size_t i = body_start; i < crc_at; ++i) {
    ASSERT_EQ(data[i], 0) << i;
  }
  const std::vector<std::pair<const char*, std::size_t>> flips = {
      {"first block", payload_start + block / 2},
      {"middle block", payload_start + block + block / 2},
      {"middle block's first byte", payload_start + 2 * block},
      {"last partial block", crc_at - 1},
      {"crc trailer", crc_at + 2},
  };
  for (const auto& [where, at] : flips) {
    for (u8 bit : {u8{0x01}, u8{0x80}}) {
      Bytes bad = data;
      bad[at] ^= bit;
      EXPECT_EQ(ckpt::decode_image(bad).err(), Err::PROTO)
          << where << " bit " << int{bit};
    }
  }
}

TEST(Records, TruncatedImageDetected) {
  RecordWriter w;
  Encoder p;
  p.put_bytes(Bytes(1000, 7));
  w.write(RecordTag::MEM_REGION, 1, std::move(p));
  const Bytes image = w.take();
  const Bytes cut(image.begin(), image.end() - 10);

  RecordReader r(cut);
  EXPECT_EQ(r.next().err(), Err::PROTO);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (standard check value).
  Bytes b{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(b), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(Bytes{}), 0u); }

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& v : b) v = static_cast<u8>(rng.next_u32());
  return b;
}

// The dispatched kernel (PCLMUL folding where the CPU has it) and the
// slice-by-8 fallback both match the bytewise oracle at every length
// around the 16/64-byte fold boundaries and every input alignment, from
// arbitrary mid-stream register states.
TEST(Crc32, KernelsMatchBytewiseAtAllLengthsAndAlignments) {
  Rng rng(0xC3C3);
  Bytes buf = random_bytes(rng, 300 + 16);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const u8* p = buf.data() + align;
      u32 state = rng.next_u32();
      u32 want = crc32_update_bytewise(state, p, len);
      ASSERT_EQ(crc32_update(state, p, len), want)
          << "len " << len << " align " << align;
      ASSERT_EQ(crc32_update_slice8(state, p, len), want)
          << "len " << len << " align " << align;
    }
  }
}

TEST(Crc32, KernelsMatchBytewiseOnAnImageSizedBuffer) {
  Rng rng(94);
  Bytes big = random_bytes(rng, (94u << 20) + 13);
  u32 want = crc32_update_bytewise(crc32_init(), big.data(), big.size());
  EXPECT_EQ(crc32_update(crc32_init(), big.data(), big.size()), want);
  EXPECT_EQ(crc32_update_slice8(crc32_init(), big.data(), big.size()), want);
}

// crc32_zeros is the register crc32_update leaves after folding real
// zeros: around every power-of-two and block boundary the writer and the
// reader step over, and at random lengths, from random register states.
TEST(Crc32, ZerosOperatorMatchesFoldingZeros) {
  const std::size_t block = RecordWriter::kCrcBlock;
  const Bytes zeros((std::size_t{1} << 20) + 7, 0);
  auto check = [&](u32 state, std::size_t n) {
    ASSERT_EQ(crc32_zeros(state, n), crc32_update(state, zeros.data(), n))
        << "n " << n << " state " << state;
  };
  Rng rng(0x2E805);
  for (std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{4095},
        block - 1, block, block + 1, zeros.size()}) {
    check(crc32_init(), n);
    check(0, n);
    check(rng.next_u32(), n);
  }
  for (int trial = 0; trial < 200; ++trial) {
    check(rng.next_u32(), rng.below(zeros.size() + 1));
  }
  // Spliced into a stream: data, zeros, data gives the one-shot CRC.
  Bytes b = random_bytes(rng, 3000);
  std::fill(b.begin() + 1000, b.begin() + 2500, 0);
  u32 c = crc32_update(crc32_init(), b.data(), 1000);
  c = crc32_zeros(c, 1500);
  c = crc32_update(c, b.data() + 2500, 500);
  EXPECT_EQ(crc32_final(c), crc32(b));
}

TEST(Crc32, ChainedUpdatesEqualOneShot) {
  Rng rng(7);
  Bytes b = random_bytes(rng, 64 << 10);
  const u32 whole = crc32(b);
  for (int trial = 0; trial < 50; ++trial) {
    // Split at random points: short pieces take the table walk, long
    // ones the folding path, and each must pick up the other's state.
    std::vector<std::size_t> cuts{0, b.size()};
    for (int k = 0; k < 6; ++k) cuts.push_back(rng.below(b.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    u32 c = crc32_init();
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      c = crc32_update(c, b.data() + cuts[k], cuts[k + 1] - cuts[k]);
    }
    ASSERT_EQ(crc32_final(c), whole) << "trial " << trial;
  }
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    i64 v = r.range(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

}  // namespace
}  // namespace zapc
