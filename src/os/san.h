// Shared storage (SAN/NAS analogue).
//
// The paper assumes "a shared storage infrastructure across cluster nodes"
// (GFS over FibreChannel SAN in the testbed): checkpoint images written by
// one node are readable from any other.  VirtualSAN models that as a
// cluster-wide key-value object store with snapshot support (the paper
// defers file-system state to "already available file system snapshot
// functionality").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/types.h"

namespace zapc::os {

/// QoS class of a SAN stream (DESIGN.md §13).  FOREGROUND streams have
/// someone waiting on them — a restart or migration fetch holds the
/// application's downtime open — while BACKGROUND streams (COW drains)
/// only delay an op's latency tail, so the scheduler lets foregrounds
/// take nearly the whole pipe whenever both are active.
enum class SanStreamClass : u8 { FOREGROUND = 0, BACKGROUND = 1 };

/// Fair-share policy knobs for the SAN bandwidth scheduler.
struct SanQosPolicy {
  /// Share of the pipe left to ALL background drains together while at
  /// least one foreground stream is active.  Nonzero so drains trickle
  /// instead of deadlocking, but small enough that a concurrent drain
  /// slows a restart by well under 10%.
  double background_floor = 0.05;
  /// Cap on any single background drain's share even on an otherwise
  /// idle SAN: a lone giant drain can never own the whole pipe, so a
  /// recovery arriving mid-chunk finds immediate headroom.  0.85 keeps a
  /// solo drain serialize-bound (serialize rate < 0.85 * SAN rate), so
  /// COW latency is unchanged when nothing competes.
  double drain_cap = 0.85;
};

class VirtualSAN {
 public:
  /// Overwrites the object at `path`.  Err::IO under injected storage
  /// faults (fault::injector()); a short-write fault instead stores a
  /// truncated object and still reports success, like real disks do.
  Status write(const std::string& path, Bytes data);

  /// Appends to the object at `path`, creating it if missing.
  void append(const std::string& path, const Bytes& data);

  /// Reads a whole object (a copy); Err::NO_ENT if missing.
  Result<Bytes> read(const std::string& path) const;

  /// Borrows a whole object without copying it; Err::NO_ENT if missing.
  /// The pointer is valid until that path is next written, appended to,
  /// renamed, removed or overwritten by a snapshot, so a caller reads it
  /// synchronously and never holds it across an event.
  Result<const Bytes*> view(const std::string& path) const;

  /// Reads `len` bytes starting at `offset` (clamped to the object's
  /// end; empty past the end): a ranged copy that never touches the
  /// rest of the object.  Err::NO_ENT if missing.
  Result<Bytes> read_at(const std::string& path, std::size_t offset,
                        std::size_t len) const;

  /// Object size without copying it; Err::NO_ENT if missing.
  Result<std::size_t> size_of(const std::string& path) const;

  /// Atomically moves `from` to `to` (overwriting `to`); the commit half
  /// of the two-phase image write.  Err::NO_ENT if `from` is missing.
  /// The object it overwrites is not freed: its buffer becomes `to`'s
  /// spare, replacing any earlier one.
  Status rename(const std::string& from, const std::string& to);

  /// Hands over `path`'s spare — the storage of the generation the last
  /// commit to `path` displaced — for the next image encoded for `path`
  /// to write into while its pages are still resident (the double-buffered
  /// checkpoint file); empty if there is none.  A path holds one spare at
  /// most; spares are not objects and count in neither object_count()
  /// nor total_bytes().
  Bytes take_spare(const std::string& path);

  bool exists(const std::string& path) const;
  /// Removes the object at `path` and drops its spare.
  Status remove(const std::string& path);

  /// Lists object paths with the given prefix.
  std::vector<std::string> list(const std::string& prefix) const;

  /// Copies every object under `prefix` to `snapshot_prefix` (the
  /// file-system snapshot taken "immediately prior to reactivating the
  /// pod" in §4).
  std::size_t snapshot(const std::string& prefix,
                       const std::string& snapshot_prefix);

  std::size_t object_count() const { return objects_.size(); }
  std::size_t total_bytes() const;

  // ---- QoS stream scheduler (DESIGN.md §13) ----------------------------------
  // Every sustained reader/writer of the shared pipe registers a stream;
  // stream_share() answers what fraction of the SAN's bandwidth that
  // stream is granted *right now*.  Streams re-consult at chunk
  // boundaries, which is what turns the weighted fair share into
  // pause-resume: a drain that sees a restart arrive drops to the
  // background floor on its next chunk and snaps back when the restart's
  // stream ends.  (This generalizes the PR 8 drain registry, where every
  // drain was an equal sharer.)
  u64 stream_begin(SanStreamClass cls);
  void stream_end(u64 id);

  /// Granted share of the pipe for stream `id`, in (0, 1].  Foregrounds
  /// split (1 - background_floor) evenly among themselves when drains
  /// are active (the whole pipe otherwise); drains split the leftover —
  /// the floor under foreground traffic, the whole pipe minus nothing
  /// when alone — each clipped at drain_cap.
  double stream_share(u64 id) const;

  std::size_t active_foreground() const { return foreground_; }
  std::size_t active_drains() const { return background_; }
  bool foreground_active() const { return foreground_ > 0; }

  const SanQosPolicy& qos() const { return qos_; }
  void set_qos(SanQosPolicy p) { qos_ = p; }

 private:
  std::map<std::string, Bytes> objects_;
  std::map<std::string, Bytes> spares_;
  std::map<u64, SanStreamClass> streams_;
  u64 next_stream_ = 1;
  std::size_t foreground_ = 0;
  std::size_t background_ = 0;
  SanQosPolicy qos_;
};

}  // namespace zapc::os
