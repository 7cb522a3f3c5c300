// Per-node packet filter — the Netfilter analogue.
//
// Paper §4: "To prevent the network state from changing, the Agent
// disables all network activity to and from the pod ... by leveraging a
// standard network filtering service to block the links listed in the
// table; Netfilter comes standard with Linux and provides this
// functionality."
//
// Rules match on guest (virtual) addresses.  A blocked address drops every
// packet whose source or destination matches, on both ingress and egress.
#pragma once

#include <string>
#include <unordered_set>

#include "net/packet.h"
#include "obs/event.h"
#include "obs/stats.h"
#include "util/types.h"

namespace zapc::net {

/// Direction a packet is traveling through the filter hook.
enum class Hook { INGRESS, EGRESS };

class PacketFilter {
 public:
  /// Blocks all traffic to/from a guest address.  A new block starts a
  /// new "episode" for the causal trace: the first packet dropped under
  /// it is recorded as an op-tagged event (when a tag is installed).
  void block_addr(IpAddr a) {
    blocked_.insert(a);
    drop_event_emitted_ = false;
  }

  /// Removes the block on a guest address.
  void unblock_addr(IpAddr a) { blocked_.erase(a); }

  bool is_blocked(IpAddr a) const { return blocked_.count(a) != 0; }

  /// Installs the causal-trace context of the coordinated op that
  /// blocked this filter (the Agent sets it around block/unblock).
  void set_obs_tag(obs::ObsTag tag) { tag_ = std::move(tag); }
  void clear_obs_tag() { tag_ = {}; }

  /// Returns true if the packet may pass; false drops it.
  /// Counts drops for tests/benches.
  bool pass(const Packet& p, Hook hook) {
    if (blocked_.count(p.src.ip) || blocked_.count(p.dst.ip)) {
      if (hook == Hook::INGRESS) {
        ++dropped_ingress_;
      } else {
        ++dropped_egress_;
      }
      obs::stats::net_filter_dropped().inc();
      if (!drop_event_emitted_ && tag_.active()) {
        drop_event_emitted_ = true;
        tag_.event(obs::ev::Text(obs::ev::kFirstDrop)
                       .kv("hook", hook == Hook::INGRESS ? "ingress" : "egress")
                       .kv("src", p.src.ip.to_string())
                       .kv("dst", p.dst.ip.to_string()));
      }
      return false;
    }
    return true;
  }

  u64 dropped_ingress() const { return dropped_ingress_; }
  u64 dropped_egress() const { return dropped_egress_; }
  std::size_t num_blocked() const { return blocked_.size(); }

 private:
  std::unordered_set<IpAddr> blocked_;
  u64 dropped_ingress_ = 0;
  u64 dropped_egress_ = 0;
  bool drop_event_emitted_ = false;
  obs::ObsTag tag_;
};

}  // namespace zapc::net
