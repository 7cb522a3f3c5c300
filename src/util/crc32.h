// CRC-32 (IEEE 802.3 polynomial) used to validate checkpoint image records.
#pragma once

#include <cstddef>

#include "util/types.h"

namespace zapc {

/// Computes CRC-32 over `n` bytes starting at `p`.
u32 crc32(const u8* p, std::size_t n);

/// Computes CRC-32 over a byte buffer.
inline u32 crc32(const Bytes& b) { return crc32(b.data(), b.size()); }

/// Incremental interface: start with crc32_init(), fold in chunks with
/// crc32_update(), close with crc32_final().  On x86 CPUs with PCLMULQDQ
/// (checked at run time) crc32_update folds spans of 64 bytes or more
/// with carry-less multiplies; shorter spans, tails and other CPUs take
/// the slice-by-8 table walk.  Every path yields the same register.
u32 crc32_init();
u32 crc32_update(u32 state, const u8* p, std::size_t n);
u32 crc32_final(u32 state);

/// The register crc32_update leaves after `n` zero bytes, computed
/// without any bytes to read.  Over zeros the register update is linear:
/// each zero byte multiplies the register by x^8 modulo the polynomial,
/// so `n` of them multiply it by x^(8n).  That multiplier is built from
/// precomputed x^(8*2^k) factors, one per set bit of `n` (the operator
/// zlib's crc32_combine applies), so the cost grows with log2(n) only.
u32 crc32_zeros(u32 state, std::size_t n);

/// The slice-by-8 table walk on its own (8 input bytes per iteration):
/// crc32_update's fallback, exposed so tests and bench_micro cover it on
/// CPUs that take the PCLMUL path.
u32 crc32_update_slice8(u32 state, const u8* p, std::size_t n);

/// Reference one-byte-per-iteration update.  Produces identical results
/// to crc32_update; kept as the test oracle, for the bench_micro
/// before/after comparison and as the tail handler of the sliced variant.
u32 crc32_update_bytewise(u32 state, const u8* p, std::size_t n);

}  // namespace zapc
