// Cost model for checkpoint-restart operations.
//
// The simulation executes checkpoint logic instantaneously, so the time a
// real kernel would spend copying state is modeled explicitly and charged
// as virtual time between protocol phases.  Defaults are calibrated to
// the paper's testbed (dual-Xeon blades, §6): sub-second checkpoints
// whose duration is dominated by writing the image to memory, a
// network-state phase of a few hundred microseconds to single-digit
// milliseconds, and restarts noticeably slower than checkpoints.
#pragma once

#include "sim/engine.h"
#include "util/types.h"

namespace zapc::core {

struct CostModel {
  // Fixed per-operation control overhead (signal delivery, namespace
  // walks, filter programming).  Calibrated so small pods checkpoint in
  // ~100 ms and restart in ~200 ms like the paper's floor.
  sim::Time suspend_fixed = 50 * sim::kMillisecond;
  sim::Time per_process = 15 * sim::kMillisecond;
  sim::Time restart_fixed = 150 * sim::kMillisecond;

  // Network-state checkpoint: per socket plus per queued byte.
  sim::Time net_per_socket = 40 * sim::kMicrosecond;
  u64 net_bytes_per_sec = 2ull << 30;  // queue copy bandwidth

  // Standalone checkpoint: write image to memory.
  u64 ckpt_bytes_per_sec = 1200ull << 20;  // ~1.2 GB/s

  // Standalone restart: rebuild address spaces, fault pages back in —
  // slower than the checkpoint copy (paper §6: restarts 2-3x slower).
  u64 restart_bytes_per_sec = 500ull << 20;  // ~0.5 GB/s

  // Network-state restore: per socket plus per restored byte.
  sim::Time net_restore_per_socket = 60 * sim::kMicrosecond;

  // Copy-on-write concurrent checkpoint (DESIGN.md §11).  Marking the
  // address space copy-on-write is a page-table walk, orders of magnitude
  // cheaper than copying the pages; serialization + SAN writeout then
  // happen in a background drain while the pod runs.
  sim::Time cow_mark_fixed = 2 * sim::kMillisecond;
  sim::Time cow_mark_per_process = 1 * sim::kMillisecond;
  // Aggregate SAN ingest bandwidth, shared fairly by concurrent drains.
  // Above one node's serialize rate, so a solo drain is serialize-bound
  // (total latency matches the blocking writeout) while two or more
  // concurrent drains contend on the SAN.
  u64 san_drain_bytes_per_sec = 1600ull << 20;  // ~1.6 GB/s
  // Rate at which a running pod dirties protected pages during its drain
  // (the COW tax: each dirtied page is copied, and re-dirtied regions
  // inflate the next incremental delta).
  u64 cow_dirty_bytes_per_sec = 32ull << 20;  // ~32 MB/s

  sim::Time suspend_cost(std::size_t nprocs) const {
    return suspend_fixed + per_process * nprocs;
  }
  sim::Time net_ckpt_cost(std::size_t nsockets, u64 queued_bytes) const {
    return net_per_socket * nsockets +
           bytes_cost(queued_bytes, net_bytes_per_sec);
  }
  sim::Time standalone_ckpt_cost(u64 image_bytes,
                                 std::size_t nprocs) const {
    return per_process * nprocs + serialize_cost(image_bytes);
  }
  sim::Time standalone_restart_cost(u64 image_bytes,
                                    std::size_t nprocs) const {
    return restart_fixed + per_process * nprocs +
           bytes_cost(image_bytes, restart_bytes_per_sec);
  }
  sim::Time net_restore_cost(std::size_t nsockets, u64 queued_bytes) const {
    return net_restore_per_socket * nsockets +
           bytes_cost(queued_bytes, net_bytes_per_sec);
  }

  /// Serialization time of `bytes` of image data at the checkpoint copy
  /// rate — the one shared byte term behind standalone_ckpt_cost, each
  /// streamed chunk and qos_drain_chunk_cost.
  sim::Time serialize_cost(u64 bytes) const {
    return bytes_cost(bytes, ckpt_bytes_per_sec);
  }

  // ---- COW drain helpers (DESIGN.md §11) ----------------------------------

  /// Stop-the-world cost of marking a pod's address spaces copy-on-write.
  sim::Time cow_mark_cost(std::size_t nprocs) const {
    return cow_mark_fixed + cow_mark_per_process * nprocs;
  }

  /// Background drain of one chunk: serialization overlaps the SAN
  /// write (the drain is pipelined like the migration stream), so the
  /// chunk takes the slower of the two legs — the serialize slice or the
  /// SAN write at `san_share` of the pipe (the fraction
  /// VirtualSAN::stream_share granted this drain at the chunk boundary;
  /// 0 = the whole pipe).
  sim::Time qos_drain_chunk_cost(u64 chunk_bytes, double san_share) const {
    if (san_share <= 0.0) san_share = 1.0;
    sim::Time serialize = serialize_cost(chunk_bytes);
    sim::Time san = bytes_cost(
        chunk_bytes, static_cast<u64>(
                         static_cast<double>(san_drain_bytes_per_sec) *
                         san_share));
    return serialize >= san ? serialize : san;
  }

  /// Bytes the running pod dirties at `rate_bps` while its drain takes
  /// `drain_us` (normally rate = cow_dirty_rate(observed), the workload's
  /// measured write rate clamped by the flat model), capped at the image
  /// size — re-dirtying a page is free.
  u64 cow_dirty_bytes(sim::Time drain_us, u64 cap_bytes, u64 rate_bps) const {
    u64 d = drain_us * rate_bps / sim::kSecond;
    return d < cap_bytes ? d : cap_bytes;
  }

  /// Copy tax for pages dirtied under COW protection: each one is copied
  /// at memory bandwidth before the app's write proceeds; charged to the
  /// drain, never to downtime.
  sim::Time cow_copy_cost(u64 dirtied_bytes) const {
    return bytes_cost(dirtied_bytes, net_bytes_per_sec);
  }

  /// Effective COW dirty rate for a pod whose observed region-touch rate
  /// is `observed_bps` (dirtied logical bytes per second between its last
  /// two checkpoints).  A hot pod re-dirties protected pages as fast as
  /// the flat model allows; an idle pod barely touches anything, so its
  /// COW tax shrinks with it.  0 = no observation yet (first checkpoint):
  /// fall back to the flat rate.
  u64 cow_dirty_rate(u64 observed_bps) const {
    if (observed_bps == 0) return cow_dirty_bytes_per_sec;
    return observed_bps < cow_dirty_bytes_per_sec ? observed_bps
                                                  : cow_dirty_bytes_per_sec;
  }

  // ---- Pipelined / lazy restart (DESIGN.md §13) ------------------------------
  // The monolithic restart rate above bundles three serial legs: fetch
  // the image from the SAN, decode the codec-v2 records, rebuild the
  // address spaces.  The pipelined restore streams chunks through all
  // three stages, so the op costs max() of the legs instead of their
  // sum.  The split rates are calibrated so the harmonic sum matches the
  // monolithic 0.5 GB/s: 1/1.6 + 1/1.2 + 1/1.8 ≈ 1/0.5.
  u64 restart_fetch_bytes_per_sec = 1600ull << 20;   // SAN read leg
  u64 restart_decode_bytes_per_sec = 1200ull << 20;  // codec-v2 decode leg
  u64 restart_rebuild_bytes_per_sec = 1800ull << 20;  // address-space leg
  // Lazy demand-paged restore: each cold region touched before its
  // background fill lands pays a fault trap plus the region's fetch at
  // whatever share the SAN grants — the lazy tax, symmetric to the COW
  // dirty tax (charged to the op's latency tail, never to downtime).
  sim::Time lazy_fault_fixed = 200 * sim::kMicrosecond;

  /// One pipelined-restore chunk: fetch at the QoS-granted SAN share
  /// overlaps decode and rebuild, so the chunk costs the slowest leg.
  sim::Time restart_chunk_cost(u64 chunk_bytes, double san_share) const {
    if (san_share <= 0.0) san_share = 1.0;
    sim::Time fetch = bytes_cost(
        chunk_bytes, static_cast<u64>(
                         static_cast<double>(restart_fetch_bytes_per_sec) *
                         san_share));
    sim::Time decode = bytes_cost(chunk_bytes, restart_decode_bytes_per_sec);
    sim::Time rebuild = bytes_cost(chunk_bytes, restart_rebuild_bytes_per_sec);
    sim::Time m = fetch;
    if (decode > m) m = decode;
    if (rebuild > m) m = rebuild;
    return m;
  }

  /// One background lazy fill or demand fault of a cold region: fetch at
  /// the granted SAN share overlapping decode (no rebuild leg — the
  /// region is installed by the fill itself).
  sim::Time lazy_fill_cost(u64 region_bytes, double san_share) const {
    if (san_share <= 0.0) san_share = 1.0;
    sim::Time fetch = bytes_cost(
        region_bytes, static_cast<u64>(
                          static_cast<double>(restart_fetch_bytes_per_sec) *
                          san_share));
    sim::Time decode = bytes_cost(region_bytes, restart_decode_bytes_per_sec);
    return fetch >= decode ? fetch : decode;
  }

  static sim::Time bytes_cost(u64 bytes, u64 per_sec) {
    return sim::rate_cost(bytes, per_sec);
  }
};

}  // namespace zapc::core
