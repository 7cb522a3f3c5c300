#include "obs/health.h"

#include <algorithm>

#include "obs/metrics.h"

namespace zapc::obs {

ClusterHealth::OpHealth* ClusterHealth::find_op(OpId op) {
  auto it = ops_.find(op);
  return it == ops_.end() ? nullptr : &it->second;
}

const ClusterHealth::OpHealth* ClusterHealth::find_op(OpId op) const {
  auto it = ops_.find(op);
  return it == ops_.end() ? nullptr : &it->second;
}

void ClusterHealth::op_begin(OpId op, const std::string& kind, Time t,
                             const std::vector<std::string>& pods) {
  OpHealth& oh = ops_[op];
  oh = OpHealth{};
  oh.kind = kind;
  oh.started_us = t;
  for (const std::string& p : pods) {
    oh.pods[p].pod = p;
  }
  latest_ = op;

  // Retire the oldest finished ops past the retention bound.
  while (ops_.size() > kMaxOps) {
    auto victim = ops_.end();
    for (auto it = ops_.begin(); it != ops_.end(); ++it) {
      if (it->second.outcome && it->first != latest_) {
        victim = it;
        break;
      }
    }
    if (victim == ops_.end()) break;
    ops_.erase(victim);
  }
}

void ClusterHealth::heartbeat(OpId op, const std::string& pod,
                              const std::string& phase, Time t) {
  OpHealth* oh = find_op(op);
  if (oh == nullptr) return;
  PodHealth& ph = oh->pods[pod];
  ph.pod = pod;
  ph.phase = phase;
  ph.last_seen_us = t;
  ++ph.beacons;
  check_thresholds(op, *oh, t);
}

void ClusterHealth::progress(OpId op, const std::string& pod,
                             const std::string& phase, Time t, u64 bytes_done,
                             u64 bytes_expected, u64 throughput_bps,
                             Time eta_us) {
  OpHealth* oh = find_op(op);
  if (oh == nullptr) return;
  PodHealth& ph = oh->pods[pod];
  ph.pod = pod;
  ph.phase = phase;
  ph.last_seen_us = t;
  // A watermark is also a liveness report: count it, so a pod whose
  // HEARTBEAT frame was dropped but whose PROGRESS arrived still
  // projects a finish instant and ages from this report.
  ++ph.beacons;
  ph.bytes_done = bytes_done;
  ph.bytes_expected = bytes_expected;
  ph.throughput_bps = throughput_bps;
  ph.eta_us = eta_us;
  metrics().histogram("health.lag_us").observe(lag_us(op, pod));
  check_thresholds(op, *oh, t);
}

void ClusterHealth::pod_done(OpId op, const std::string& pod, Time t) {
  OpHealth* oh = find_op(op);
  if (oh == nullptr) return;
  PodHealth& ph = oh->pods[pod];
  ph.pod = pod;
  ph.done = true;
  ph.done_at_us = t;
  ph.eta_us = 0;
  ph.last_seen_us = t;
  if (ph.bytes_expected > 0) ph.bytes_done = ph.bytes_expected;
}

void ClusterHealth::op_end(OpId op, Time t, bool ok) {
  OpHealth* oh = find_op(op);
  if (oh == nullptr) return;
  oh->outcome = OpOutcome{t, ok};
}

bool ClusterHealth::op_active(OpId op) const {
  const OpHealth* oh = find_op(op);
  return oh != nullptr && !oh->outcome;
}

Time ClusterHealth::median_finish_us(OpId op) const {
  const OpHealth* oh = find_op(op);
  if (oh == nullptr) return 0;
  std::vector<Time> finishes;
  for (const auto& [name, ph] : oh->pods) {
    Time f = ph.projected_finish_us();
    if (f > 0) finishes.push_back(f);
  }
  if (finishes.empty()) return 0;
  std::sort(finishes.begin(), finishes.end());
  // Lower median: with few pods this is "a typical fast pod", which is
  // the right baseline for attributing a laggard in a small cluster.
  return finishes[(finishes.size() - 1) / 2];
}

Time ClusterHealth::lag_us(OpId op, const std::string& pod) const {
  const PodHealth* ph = this->pod(op, pod);
  if (ph == nullptr) return 0;
  Time median = median_finish_us(op);
  Time f = ph->projected_finish_us();
  return (median == 0 || f <= median) ? 0 : f - median;
}

Straggler ClusterHealth::straggler(OpId op) const {
  Straggler s;
  const OpHealth* oh = find_op(op);
  if (oh == nullptr) return s;
  for (const auto& [name, ph] : oh->pods) {
    Time lag = lag_us(op, name);
    if (lag > s.lag_us) {
      s.pod = name;
      s.phase = ph.phase;
      s.lag_us = lag;
    }
  }
  return s;
}

const PodHealth* ClusterHealth::pod(OpId op, const std::string& name) const {
  const OpHealth* oh = find_op(op);
  if (oh == nullptr) return nullptr;
  auto it = oh->pods.find(name);
  return it == oh->pods.end() ? nullptr : &it->second;
}

void ClusterHealth::warn_once(const HealthWarning& w) {
  std::string key = std::to_string(w.op) + "/" + w.pod + "/" + w.phase + "/" +
                    w.what;
  if (!warned_.insert(key).second) return;
  pending_.push_back(w);
}

void ClusterHealth::check_thresholds(OpId op, OpHealth& oh, Time t) {
  for (const auto& [name, ph] : oh.pods) {
    if (ph.done) continue;
    if (policy_.warn_lag_us > 0) {
      Time lag = lag_us(op, name);
      if (lag >= policy_.warn_lag_us) {
        warn_once(HealthWarning{op, name, ph.phase, "lag", lag, 0});
      }
    }
    // Staleness is noticed when *other* pods' reports arrive: a silent
    // pod cannot flag itself.
    if (policy_.stale_after_us > 0 && ph.beacons > 0 &&
        t >= ph.last_seen_us + policy_.stale_after_us) {
      warn_once(
          HealthWarning{op, name, ph.phase, "stale", 0, t - ph.last_seen_us});
    }
  }
}

std::vector<HealthWarning> ClusterHealth::take_warnings() {
  std::vector<HealthWarning> out;
  out.swap(pending_);
  return out;
}

HealthDoc ClusterHealth::snapshot(Time now, OpId op) const {
  if (op == 0) op = latest_;
  HealthDoc doc;
  doc.t_us = now;
  doc.op_id = op;
  const OpHealth* oh = find_op(op);
  if (oh == nullptr) return doc;

  OpStatus& os = doc.op.emplace();
  os.kind = oh->kind;
  os.active = !oh->outcome;
  os.started_us = oh->started_us;
  os.outcome = oh->outcome;
  os.median_finish_us = median_finish_us(op);
  os.straggler = straggler(op);
  for (const auto& [name, ph] : oh->pods) {
    const bool reported = ph.beacons > 0 || ph.done;
    os.pods[name] = PodStatus{
        .phase = ph.phase,
        .beacons = ph.beacons,
        .pct_done = ph.pct_done(),
        .bytes_done = ph.bytes_done,
        .bytes_expected = ph.bytes_expected,
        .throughput_bps = ph.throughput_bps,
        .eta_us = ph.eta_us,
        .done = ph.done,
        .last_seen_us = ph.last_seen_us,
        .heartbeat_age_us =
            reported && now >= ph.last_seen_us ? now - ph.last_seen_us : 0,
        .lag_us = lag_us(op, name),
    };
  }
  return doc;
}

void ClusterHealth::clear() {
  ops_.clear();
  latest_ = 0;
  pending_.clear();
  warned_.clear();
}

}  // namespace zapc::obs
