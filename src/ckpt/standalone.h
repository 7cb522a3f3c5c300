// Standalone pod checkpoint-restart (the Zap substrate of paper §3).
//
// Captures and restores all per-node, non-network application state:
// process control state (program state machine, exit status), file
// descriptor tables, bulk memory regions, application timers, and the
// pod's namespace/time-virtualization state.  Network state is handled
// separately by core/netckpt (the ZapC contribution); the two halves meet
// in the PodImage container.
#pragma once

#include <unordered_map>

#include "ckpt/image.h"
#include "pod/pod.h"

namespace zapc::ckpt {

/// Maps old socket ids (from the image) to the sockets created during
/// network-state restore.
using SockMap = std::unordered_map<net::SockId, net::SockId>;

/// Region generations as of a prior (base) checkpoint, used to decide
/// which regions a delta checkpoint must re-emit.  Built from the
/// ProcessImages of the base capture, so it reflects exactly what that
/// image contains — not whatever the pod mutated since.
struct DeltaBaseline {
  /// vpid -> region name -> generation at the base checkpoint.
  std::map<i32, std::map<std::string, u64>> gens;

  static DeltaBaseline from_images(const std::vector<ProcessImage>& images);
  bool empty() const { return gens.empty(); }
};

class Standalone {
 public:
  /// Captures the pod header (namespace + time-virtualization state).
  /// The pod must be suspended.
  static PodImageHeader save_header(const pod::Pod& pod);

  /// Captures one process: program state, fd table, memory, timers.
  /// Region bytes are shared with the process, not copied: the capture
  /// holds this instant's contents, and a process write made while it is
  /// held clones the region first, so drop the image's regions once they
  /// are encoded.  With a non-null `baseline`, region bytes are included
  /// only for regions that are new or whose generation changed since the
  /// baseline (delta mode); the manifest always lists every live region.
  static ProcessImage save_process(const pod::Pod& pod,
                                   const os::Process& proc,
                                   const DeltaBaseline* baseline = nullptr);

  /// Captures every process of the pod (sorted by vpid).  See
  /// save_process for `baseline` semantics.
  static std::vector<ProcessImage> save_processes(
      pod::Pod& pod, const DeltaBaseline* baseline = nullptr);

  /// Applies the header to a freshly created pod: vpid counter and the
  /// time bias delta = (checkpoint virtual time) − (current time), so the
  /// pod's clock resumes where it stopped (paper §5).
  static void restore_header(pod::Pod& pod, const PodImageHeader& header);

  /// Recreates one process in STOPPED state.  fd table entries are
  /// remapped through `socks`; Err::NO_ENT if the program kind is not
  /// registered or a socket id is missing.  On success the region bytes
  /// are moved into the process, leaving `image.regions` empty; the rest
  /// of the image (manifest included) is left as it was.
  static Status restore_process(pod::Pod& pod, ProcessImage& image,
                                const SockMap& socks);

  /// Restores all processes (see restore_process for what is moved).
  static Status restore_processes(pod::Pod& pod,
                                  std::vector<ProcessImage>& images,
                                  const SockMap& socks);
};

}  // namespace zapc::ckpt
