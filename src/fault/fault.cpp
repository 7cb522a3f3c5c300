#include "fault/fault.h"

#include "obs/metrics.h"
#include "util/log.h"
#include "util/rng.h"

namespace zapc::fault {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::CRASH_AT_PHASE: return "crash_at_phase";
    case FaultKind::DROP_MSG: return "drop_msg";
    case FaultKind::DUP_MSG: return "dup_msg";
    case FaultKind::STALL_CHANNEL: return "stall_channel";
    case FaultKind::SAN_WRITE_FAIL: return "san_write_fail";
    case FaultKind::SAN_SHORT_WRITE: return "san_short_write";
    case FaultKind::SLOW_NODE: return "slow_node";
    case FaultKind::NODE_CRASH_AT_TIME: return "node_crash_at_time";
    case FaultKind::HEARTBEAT_BLACKOUT: return "heartbeat_blackout";
  }
  return "?";
}

std::string FaultSpec::describe() const {
  std::string s = fault_kind_name(kind);
  if (!node.empty()) s += " node=" + node;
  if (!phase.empty()) s += " phase=" + phase;
  if (msg_type != 0) s += " msg=" + std::to_string(msg_type);
  if (nth != 1) s += " nth=" + std::to_string(nth);
  if (stall_us != 0) s += " stall=" + std::to_string(stall_us) + "us";
  if (!san_prefix.empty()) s += " san=" + san_prefix;
  if (kind == FaultKind::SAN_SHORT_WRITE) {
    s += " keep=" + std::to_string(short_bytes);
  }
  if (kind == FaultKind::SLOW_NODE) {
    s += " x" + std::to_string(multiplier);
  }
  if (at_us != 0) s += " at=" + std::to_string(at_us) + "us";
  if (duration_us != 0) s += " dur=" + std::to_string(duration_us) + "us";
  return s;
}

void Injector::arm(FaultSpec spec) {
  specs_.push_back(Armed{std::move(spec), 0, false});
}

void Injector::clear() {
  specs_.clear();
  fired_ = 0;
}

void Injector::record_fire(Armed& a, const std::string& what) {
  a.fired = true;
  ++fired_;
  obs::metrics().counter("fault.injected").inc();
  ZLOG_WARN("fault: injected " << a.spec.describe()
                               << (what.empty() ? "" : " (" + what + ")"));
}

bool Injector::crash_at_phase(const std::string& node,
                              const std::string& phase) {
  for (Armed& a : specs_) {
    if (a.fired || a.spec.kind != FaultKind::CRASH_AT_PHASE) continue;
    if (!a.spec.node.empty() && a.spec.node != node) continue;
    if (a.spec.phase != phase) continue;
    if (++a.seen < a.spec.nth) continue;
    record_fire(a, node + " at " + phase);
    return true;
  }
  return false;
}

MsgVerdict Injector::on_channel_msg(u8 msg_type) {
  MsgVerdict v;
  for (Armed& a : specs_) {
    if (a.fired) continue;
    if (a.spec.kind != FaultKind::DROP_MSG &&
        a.spec.kind != FaultKind::DUP_MSG &&
        a.spec.kind != FaultKind::STALL_CHANNEL) {
      continue;
    }
    if (a.spec.msg_type != 0 && a.spec.msg_type != msg_type) continue;
    if (++a.seen < a.spec.nth) continue;
    record_fire(a, "msg type " + std::to_string(msg_type));
    switch (a.spec.kind) {
      case FaultKind::DROP_MSG: v.drop = true; break;
      case FaultKind::DUP_MSG: v.duplicate = true; break;
      case FaultKind::STALL_CHANNEL: v.stall_us = a.spec.stall_us; break;
      default: break;
    }
  }
  return v;
}

SanVerdict Injector::on_san_write(const std::string& path, u64 size) {
  SanVerdict v;
  for (Armed& a : specs_) {
    if (a.fired) continue;
    if (a.spec.kind != FaultKind::SAN_WRITE_FAIL &&
        a.spec.kind != FaultKind::SAN_SHORT_WRITE) {
      continue;
    }
    if (!a.spec.san_prefix.empty() &&
        path.rfind(a.spec.san_prefix, 0) != 0) {
      continue;
    }
    if (++a.seen < a.spec.nth) continue;
    record_fire(a, path);
    if (a.spec.kind == FaultKind::SAN_WRITE_FAIL) {
      v.fail = true;
    } else {
      v.keep_bytes =
          a.spec.short_bytes != 0 ? a.spec.short_bytes : size / 2;
    }
  }
  return v;
}

u64 Injector::wire_extra_us(u32 src_ip, u32 dst_ip) {
  u64 extra = 0;
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultKind::SLOW_NODE || a.spec.node_ip == 0) continue;
    if (a.spec.node_ip != src_ip && a.spec.node_ip != dst_ip) continue;
    if (!a.fired) record_fire(a, "wire");
    extra += a.spec.stall_us;
  }
  return extra;
}

double Injector::local_cost_multiplier(const std::string& node) {
  double m = 1.0;
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultKind::SLOW_NODE) continue;
    if (!a.spec.node.empty() && a.spec.node != node) continue;
    if (!a.fired) record_fire(a, node);
    m *= a.spec.multiplier;
  }
  return m;
}

bool Injector::crash_due(const std::string& node, u64 now) {
  for (Armed& a : specs_) {
    if (a.fired || a.spec.kind != FaultKind::NODE_CRASH_AT_TIME) continue;
    if (!a.spec.node.empty() && a.spec.node != node) continue;
    if (now < a.spec.at_us) continue;
    record_fire(a, node + " at t=" + std::to_string(now) + "us");
    return true;
  }
  return false;
}

bool Injector::heartbeat_blackout(const std::string& node, u64 now) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultKind::HEARTBEAT_BLACKOUT) continue;
    if (!a.spec.node.empty() && a.spec.node != node) continue;
    if (now < a.spec.at_us || now >= a.spec.at_us + a.spec.duration_us) {
      continue;
    }
    if (!a.fired) record_fire(a, node);
    return true;
  }
  return false;
}

Injector& injector() {
  static Injector* inj = new Injector();  // never destroyed, like metrics()
  return *inj;
}

FaultPlan FaultPlan::random(u64 seed, const std::vector<NodeRef>& nodes) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);

  // Protocol messages worth losing: META_REPORT(2), CONTINUE(3),
  // CKPT_DONE(4), RESTART_DONE(6), STREAM_CHUNK(8), STREAM_CLOSE(9),
  // EPILOGUE_DONE(16).
  static constexpr u8 kMsgTypes[] = {2, 3, 4, 6, 8, 9, 16};
  // Agent phases a node can die in.  The COW phases cover a crash while
  // marking the snapshot (inside the stop-the-world window) and mid
  // background drain (after the pod resumed).
  static const char* kPhases[] = {
      "ckpt.begin",      "ckpt.netckpt",       "ckpt.standalone",
      "ckpt.deliver",    "ckpt.barrier",       "ckpt.cowmark",
      "ckpt.drain",      "restart.begin",
      "restart.connectivity", "restart.netstate", "restart.standalone",
  };

  std::size_t n = 1 + rng.below(3);
  for (std::size_t i = 0; i < n; ++i) {
    FaultSpec s;
    const NodeRef& node =
        nodes.empty() ? NodeRef{} : nodes[rng.below(nodes.size())];
    switch (rng.below(7)) {
      case 0:
        s.kind = FaultKind::CRASH_AT_PHASE;
        s.node = node.name;
        s.phase = kPhases[rng.below(std::size(kPhases))];
        break;
      case 1:
        s.kind = FaultKind::DROP_MSG;
        s.msg_type = kMsgTypes[rng.below(std::size(kMsgTypes))];
        s.nth = 1 + static_cast<u32>(rng.below(3));
        break;
      case 2:
        s.kind = FaultKind::DUP_MSG;
        s.msg_type = kMsgTypes[rng.below(std::size(kMsgTypes))];
        s.nth = 1 + static_cast<u32>(rng.below(3));
        break;
      case 3:
        s.kind = FaultKind::STALL_CHANNEL;
        s.msg_type = kMsgTypes[rng.below(std::size(kMsgTypes))];
        s.nth = 1 + static_cast<u32>(rng.below(2));
        s.stall_us = (1 + rng.below(4)) * 500'000;  // 0.5s .. 2s
        break;
      case 4:
        s.kind = FaultKind::SAN_WRITE_FAIL;
        s.san_prefix = "ckpt/";
        s.nth = 1 + static_cast<u32>(rng.below(2));
        break;
      case 5:
        s.kind = FaultKind::SAN_SHORT_WRITE;
        s.san_prefix = "ckpt/";
        s.nth = 1 + static_cast<u32>(rng.below(2));
        s.short_bytes = 1 + rng.below(4096);
        break;
      default:
        s.kind = FaultKind::SLOW_NODE;
        s.node = node.name;
        s.node_ip = node.ip;
        s.multiplier = 2.0 + static_cast<double>(rng.below(8));
        s.stall_us = rng.below(2000);  // up to 2ms extra per packet
        break;
    }
    plan.specs.push_back(std::move(s));
  }
  return plan;
}

void FaultPlan::arm() const {
  for (const FaultSpec& s : specs) injector().arm(s);
}

std::string FaultPlan::describe() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const FaultSpec& s : specs) out += "; " + s.describe();
  return out;
}

}  // namespace zapc::fault
