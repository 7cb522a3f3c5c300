#include "util/crc32.h"

#include <array>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ZAPC_CRC32_PCLMUL 1
#include <immintrin.h>
#endif

namespace zapc {
namespace {

// The IEEE polynomial, bit-reflected: bit 31 is the x^0 coefficient.
constexpr u32 kPoly = 0xEDB88320u;

// Slice-by-8 lookup tables: table[0] is the classic bytewise table;
// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
// table lookups advance the state by eight input bytes at once.
using CrcTables = std::array<std::array<u32, 256>, 8>;

CrcTables make_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? kPoly ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    u32 c = t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

const CrcTables& tables() {
  static const CrcTables t = make_tables();
  return t;
}

// a * b modulo the polynomial, both reflected like the register.  Each
// step multiplies `b` by x, reducing the x^32 term it shifts out.
u32 mul_mod_poly(u32 a, u32 b) {
  u32 prod = 0;
  for (u32 m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) prod ^= b;
    b = (b & 1u) ? kPoly ^ (b >> 1) : (b >> 1);
  }
  return prod;
}

// zero_ops()[k] is x^(8 * 2^k) mod P: the register operator for 2^k zero
// bytes.  Entry 0 is x^8 (one byte); each next entry squares the last.
using ZeroOps = std::array<u32, 8 * sizeof(std::size_t)>;

ZeroOps make_zero_ops() {
  ZeroOps ops{};
  ops[0] = 1u << (31 - 8);
  for (std::size_t k = 1; k < ops.size(); ++k) {
    ops[k] = mul_mod_poly(ops[k - 1], ops[k - 1]);
  }
  return ops;
}

const ZeroOps& zero_ops() {
  static const ZeroOps ops = make_zero_ops();
  return ops;
}

#ifdef ZAPC_CRC32_PCLMUL

#define ZAPC_PCLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

ZAPC_PCLMUL_TARGET inline __m128i load128(const u8* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// a * x^(fold distance) + b, for the fold constant pair in `k`.
ZAPC_PCLMUL_TARGET inline __m128i fold128(__m128i a, __m128i k, __m128i b) {
  __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), b);
}

// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of the IEEE polynomial.  Four 128-bit lanes are
// folded forward 512 bits per step, reduced to one lane, folded 128 bits
// per step over the remaining whole blocks, then Barrett-reduced to 32
// bits.  Input and output are the raw CRC register, so the result is
// interchangeable with the table walk.  Requires n >= 64 and n % 16 == 0.
ZAPC_PCLMUL_TARGET u32 crc32_fold_pclmul(u32 state, const u8* p,
                                         std::size_t n) {
  // x^(512+64) and x^512 mod P, reflected (lane fold by four).
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+64) and x^128 mod P, reflected (fold by one).
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P, reflected (64 -> 32 bit fold).
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P' and mu = floor(x^64 / P), reflected (Barrett reduction).
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x0 = fold128(x0, k1k2, load128(p));
    x1 = fold128(x1, k1k2, load128(p + 16));
    x2 = fold128(x2, k1k2, load128(p + 32));
    x3 = fold128(x3, k1k2, load128(p + 48));
    p += 64;
    n -= 64;
  }

  __m128i x = fold128(x0, k3k4, x1);
  x = fold128(x, k3k4, x2);
  x = fold128(x, k3k4, x3);
  while (n >= 16) {
    x = fold128(x, k3k4, load128(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x, k3k4, 0x10);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), t);
  // 64 -> 32 bits.
  t = _mm_srli_si128(x, 4);
  x = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00);
  x = _mm_xor_si128(x, t);
  // Barrett reduction.
  t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<u32>(_mm_extract_epi32(x, 1));
}

bool have_pclmul() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

#endif  // ZAPC_CRC32_PCLMUL

}  // namespace

u32 crc32_init() { return 0xFFFFFFFFu; }

u32 crc32_update_bytewise(u32 state, const u8* p, std::size_t n) {
  const auto& t = tables()[0];
  for (std::size_t i = 0; i < n; ++i) {
    state = t[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

u32 crc32_update_slice8(u32 state, const u8* p, std::size_t n) {
  const CrcTables& t = tables();
  // Align to 8 bytes of input, then fold 8 bytes per iteration.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    state = t[0][(state ^ *p++) & 0xFFu] ^ (state >> 8);
    --n;
  }
  while (n >= 8) {
    u64 chunk;
    std::memcpy(&chunk, p, sizeof(chunk));
    // The wire format (and the historical images this must keep
    // validating) is little-endian, as is every target we build for.
    u32 lo = static_cast<u32>(chunk) ^ state;
    u32 hi = static_cast<u32>(chunk >> 32);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][(lo >> 24) & 0xFFu] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][(hi >> 24) & 0xFFu];
    p += 8;
    n -= 8;
  }
  return crc32_update_bytewise(state, p, n);
}

u32 crc32_update(u32 state, const u8* p, std::size_t n) {
#ifdef ZAPC_CRC32_PCLMUL
  if (n >= 64 && have_pclmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    state = crc32_fold_pclmul(state, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return crc32_update_slice8(state, p, n);
}

u32 crc32_final(u32 state) { return state ^ 0xFFFFFFFFu; }

u32 crc32_zeros(u32 state, std::size_t n) {
  const ZeroOps& ops = zero_ops();
  for (std::size_t k = 0; n != 0; ++k, n >>= 1) {
    if ((n & 1u) != 0) state = mul_mod_poly(ops[k], state);
  }
  return state;
}

u32 crc32(const u8* p, std::size_t n) {
  return crc32_final(crc32_update(crc32_init(), p, n));
}

}  // namespace zapc
