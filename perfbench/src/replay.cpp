#include "replay.h"

#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "core/cost_model.h"
#include "obs/critpath.h"
#include "obs/stats.h"
#include "os/san.h"
#include "stats.h"
#include "util/crc32.h"

namespace zapc::perfbench {
namespace {

constexpr double kMiB = 1 << 20;
constexpr std::size_t kReadAtChunk = 256 << 10;  // the pipelined restore's

/// Registry counters and histograms read as per-op deltas.
const std::vector<std::string>& window_counters() {
  static const std::vector<std::string> names = {
      "sim.events_dispatched",       "net.tcp.retransmits",
      "net.altq.installs",           "ckpt.incr.written_bytes",
      "ckpt.incr.logical_bytes",     "ckpt.codec.zero_saved_bytes",
      "ckpt.codec.dedup_saved_bytes"};
  return names;
}
const std::vector<std::string>& window_histograms() {
  static const std::vector<std::string> names = {
      "agent.ckpt.suspend_us",         "agent.ckpt.netckpt_us",
      "agent.ckpt.standalone_us",      "agent.ckpt.stream_us",
      "agent.ckpt.barrier_wait_us",    "agent.restart.connectivity_us",
      "agent.restart.netstate_us",     "agent.restart.standalone_us"};
  return names;
}

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

pod::Pod* find_pod(Bed& b, const std::string& name) {
  for (core::Agent* a : b.agents) {
    if (pod::Pod* p = a->find_pod(name)) return p;
  }
  return nullptr;
}

u64 pod_syscalls(Bed& b, const std::vector<std::string>& pods) {
  u64 n = 0;
  for (const auto& name : pods) {
    if (pod::Pod* p = find_pod(b, name)) n += p->total_syscalls();
  }
  return n;
}

std::string san_path(const std::string& uri) {
  const std::string scheme = "san://";
  return uri.rfind(scheme, 0) == 0 ? uri.substr(scheme.size()) : "";
}

double ratio(double model_bps, double measured_mibps) {
  return measured_mibps > 0 ? model_bps / (measured_mibps * kMiB) : 0;
}

double mean_of(const std::pair<u64, u64>& h) {
  return h.second > 0 ? static_cast<double>(h.first) / h.second : 0;
}

}  // namespace

void Tracer::op_begin(Bed& b) {
  op_base_ = obs::metrics().snapshot();
  op_spans_base_ = b.trace.recorder().spans().size();
}

void Tracer::op_end(Bed& b, const std::string& name, Clock::time_point start,
                    Clock::time_point end) {
  obs::MetricsSnapshot d = obs::metrics().snapshot().diff_since(op_base_);
  for (const auto& c : window_counters()) {
    auto it = d.counters.find(c);
    if (it != d.counters.end()) counters_[c] += it->second;
  }
  for (const auto& h : window_histograms()) {
    auto it = d.histograms.find(h);
    if (it == d.histograms.end()) continue;
    hists_[h].first += it->second.sum;
    hists_[h].second += it->second.count;
  }
  ++ops_;
  op_spans_ += b.trace.recorder().spans().size() - op_spans_base_;
  spans_.push_back({name, ms_between(t0_, start), ms_between(t0_, end)});
  note_san(b);
}

void Tracer::on_ckpt(Bed& b, const core::Manager::CheckpointReport& r,
                     const std::vector<core::Manager::Target>& targets,
                     bool replay_bytes) {
  ++reports_;
  attempts_ += r.attempts;
  if (!r.ok) return;
  sync_ms_.push_back(r.sync_us / 1000.0);
  net_ms_.push_back(r.max_net_ckpt_us / 1000.0);
  drain_ms_.push_back(r.max_drain_us / 1000.0);
  dirtied_mb_.push_back(r.max_dirtied_bytes / kMiB);
  // Image bytes as committed on the SAN (a COW checkpoint reports them
  // only in its drain epilogue); streamed images as the agents sent them.
  u64 net = 0, img = 0;
  for (const auto& a : r.agents) {
    net += a.network_bytes;
    img += a.image_bytes;
  }
  if (!targets.empty()) {
    img = 0;
    for (const auto& t : targets) {
      auto size = b.cl.san().size_of(san_path(t.uri));
      if (size) img += size.value();
    }
  }
  inflight_kb_.push_back(net / 1024.0);
  image_mb_.push_back(img / kMiB);
  image_bytes_total_ += img;
  double throttled = 0, contended = 0;
  for (const auto& e : b.ledger.entries()) {
    if (e.op != r.op_id || e.kind != "ckpt") continue;
    throttled += e.drain_throttled_us / 1000.0;
    contended += e.drain_contended_us / 1000.0;
  }
  throttled_ms_.push_back(throttled);
  contended_ms_.push_back(contended);

  replay_critpath(b, r.op_id);
  if (!replay_bytes) return;
  for (const auto& t : targets) {
    replay_capture(b, t.pod_name);
    const std::string path = san_path(t.uri);
    if (!path.empty()) replay_image(b, path);
  }
}

void Tracer::on_restart(Bed& b, const core::Manager::RestartReport& r,
                        const std::vector<std::string>& pods,
                        bool replay_bytes) {
  ++reports_;
  attempts_ += r.attempts;
  if (!r.ok) return;
  conn_ms_.push_back(r.max_connectivity_us / 1000.0);
  net_restore_ms_.push_back(r.max_net_restore_us / 1000.0);
  lazy_ms_.push_back(r.max_lazy_us / 1000.0);
  lazy_mb_.push_back(r.lazy_bytes / kMiB);
  lazy_faults_ += r.lazy_faults;
  for (const auto& name : pods) {
    pod::Pod* p = find_pod(b, name);
    if (p == nullptr) continue;
    for (os::Process* proc : p->processes()) {
      lazy_regions_ += proc->regions().size();
    }
  }
  replay_critpath(b, r.op_id);
  if (!replay_bytes) return;
  for (const auto& name : pods) replay_capture(b, name);
}

void Tracer::slice_begin(Bed& b, const std::vector<std::string>& pods) {
  slice_events_base_ = obs::stats::sim_events_dispatched().value;
  slice_syscalls_base_ = pod_syscalls(b, pods);
}

void Tracer::slice_end(Bed& b, const std::vector<std::string>& pods,
                       sim::Time vt, Clock::time_point start,
                       Clock::time_point end) {
  slice_events_ += obs::stats::sim_events_dispatched().value -
                   slice_events_base_;
  slice_syscalls_ += pod_syscalls(b, pods) - slice_syscalls_base_;
  slice_vt_ += vt;
  spans_.push_back({"job.run_for", ms_between(t0_, start),
                    ms_between(t0_, end)});
}

void Tracer::note_san(Bed& b) {
  os::VirtualSAN& san = b.cl.san();
  san_footprint_mb_ = std::max(san_footprint_mb_, san.total_bytes() / kMiB);
  san_objects_ = std::max(san_objects_,
                          static_cast<double>(san.object_count()));
}

void Tracer::replay_critpath(Bed& b, obs::OpId op) {
  Clock::time_point a = Clock::now();
  auto attr = obs::attribute_op(b.trace.recorder().spans(), op);
  Clock::time_point z = Clock::now();
  if (attr) critpath_ms_.push_back(ms_between(a, z));
}

void Tracer::replay_capture(Bed& b, const std::string& pod_name) {
  pod::Pod* p = find_pod(b, pod_name);
  if (p == nullptr) return;
  Clock::time_point a = Clock::now();
  std::vector<ckpt::ProcessImage> procs = ckpt::Standalone::save_processes(*p);
  Clock::time_point z = Clock::now();
  double bytes = 0;
  for (const auto& proc : procs) {
    for (const auto& [name, r] : proc.regions) bytes += r.size();
  }
  capture_.add(bytes, secs_between(a, z));
}

void Tracer::replay_image(Bed& b, const std::string& path) {
  os::VirtualSAN& san = b.cl.san();
  auto size = san.size_of(path);
  if (!size) return;

  Clock::time_point a = Clock::now();
  auto data = san.read(path);
  Clock::time_point z = Clock::now();
  if (!data) return;
  const Bytes& img = data.value();
  san_read_.add(img.size(), secs_between(a, z));

  a = Clock::now();
  std::size_t got = 0;
  for (std::size_t off = 0; off < size.value(); off += kReadAtChunk) {
    auto chunk = san.read_at(path, off, kReadAtChunk);
    if (chunk) got += chunk.value().size();
  }
  z = Clock::now();
  san_read_at_.add(got, secs_between(a, z));

  a = Clock::now();
  volatile u32 crc = crc32(img);
  z = Clock::now();
  (void)crc;
  crc_.add(img.size(), secs_between(a, z));

  a = Clock::now();
  auto decoded = ckpt::decode_image(img);
  z = Clock::now();
  if (!decoded) return;
  ckpt::PodImage image = std::move(decoded).value();
  decode_.add(image.total_bytes(), secs_between(a, z));

  if (image.header.is_delta()) {
    // The restart path's composition: walk the base chain back to its
    // full root, then overlay the deltas oldest-first.
    a = Clock::now();
    std::vector<ckpt::PodImage> chain;
    ckpt::PodImage cur = image;
    bool ok = true;
    while (ok && cur.header.is_delta() && chain.size() < 64) {
      auto base = san.read(san_path(cur.header.base_uri));
      auto parsed = base ? ckpt::decode_image(base.value())
                         : Result<ckpt::PodImage>(base.status());
      if (!parsed) {
        ok = false;
        break;
      }
      chain.push_back(std::move(cur));
      cur = std::move(parsed).value();
    }
    for (auto it = chain.rbegin(); ok && it != chain.rend(); ++it) {
      auto composed = ckpt::compose_delta(std::move(cur), *it);
      if (!composed) {
        ok = false;
        break;
      }
      cur = std::move(composed).value();
    }
    z = Clock::now();
    if (ok) compose_ms_.push_back(ms_between(a, z));
  }

  a = Clock::now();
  Bytes encoded = ckpt::encode_image(image);
  z = Clock::now();
  encode_.add(image.total_bytes(), secs_between(a, z));
  encoded.clear();
  encoded.shrink_to_fit();

  // A scratch SAN of the replay's own: the cluster's store is never
  // written.  The write takes a copy, as a caller keeping its buffer does.
  os::VirtualSAN scratch;
  a = Clock::now();
  Status st = scratch.write("replay/image", img);
  z = Clock::now();
  if (st.is_ok()) san_write_.add(img.size(), secs_between(a, z));
}

std::map<std::string, double> Tracer::layer_metrics() const {
  std::map<std::string, double> m;
  auto counter = [&](const std::string& n) -> double {
    auto it = counters_.find(n);
    return it == counters_.end() ? 0 : static_cast<double>(it->second);
  };
  auto hist = [&](const std::string& n) {
    auto it = hists_.find(n);
    return it == hists_.end() ? 0.0 : mean_of(it->second);
  };
  const double ops = ops_ > 0 ? static_cast<double>(ops_) : 1;

  // sim
  m["sim.events_per_op"] = counter("sim.events_dispatched") / ops;
  // Engine wall: every benchmark span is a Manager call or a job slice.
  double engine_ms = 0;
  for (const Span& s : spans_) engine_ms += s.end_ms - s.start_ms;
  const double events = counter("sim.events_dispatched") + slice_events_;
  m["sim.wall_ns_per_event"] = events > 0 ? engine_ms * 1e6 / events : 0;
  // net
  m["net.tcp.retransmits_per_op"] = counter("net.tcp.retransmits") / ops;
  m["net.altq.installs_per_op"] = counter("net.altq.installs") / ops;
  m["net.inflight_kb_at_ckpt"] = median(inflight_kb_);
  // pod
  m["pod.syscalls_per_vs"] =
      slice_vt_ > 0 ? slice_syscalls_ * 1e6 / static_cast<double>(slice_vt_)
                    : 0;
  // ckpt
  m["ckpt.image_mb"] = median(image_mb_);
  m["ckpt.capture_mbps"] = capture_.mibps();
  m["ckpt.encode_mbps"] = encode_.mibps();
  m["ckpt.decode_mbps"] = decode_.mibps();
  m["ckpt.compose_ms"] = median(compose_ms_);
  const double logical = counter("ckpt.incr.logical_bytes");
  m["ckpt.delta_written_frac"] =
      logical > 0 ? counter("ckpt.incr.written_bytes") / logical : 0;
  const double saved = counter("ckpt.codec.zero_saved_bytes") +
                       counter("ckpt.codec.dedup_saved_bytes");
  m["ckpt.codec_saved_frac"] =
      saved > 0 ? saved / (saved + static_cast<double>(image_bytes_total_))
                : 0;
  // util
  m["util.crc32_mbps"] = crc_.mibps();
  // os
  m["os.san.write_mbps"] = san_write_.mibps();
  m["os.san.read_mbps"] = san_read_.mibps();
  m["os.san.read_at_mbps"] = san_read_at_.mibps();
  m["os.san.footprint_mb"] = san_footprint_mb_;
  m["os.san.objects"] = san_objects_;
  m["os.san.throttled_vms"] = median(throttled_ms_);
  m["os.san.contended_vms"] = median(contended_ms_);
  // core: report figures
  m["core.ckpt.sync_vms"] = median(sync_ms_);
  m["core.ckpt.net_vms"] = median(net_ms_);
  m["core.ckpt.drain_vms"] = median(drain_ms_);
  m["core.ckpt.dirtied_mb"] = median(dirtied_mb_);
  m["core.restart.connectivity_vms"] = median(conn_ms_);
  m["core.restart.net_restore_vms"] = median(net_restore_ms_);
  m["core.restart.lazy_vms"] = median(lazy_ms_);
  m["core.restart.lazy_mb"] = median(lazy_mb_);
  m["core.restart.fault_frac"] =
      lazy_regions_ > 0 ? static_cast<double>(lazy_faults_) / lazy_regions_
                        : 0;
  m["core.op.attempts_per_op"] =
      reports_ > 0 ? static_cast<double>(attempts_) / reports_ : 0;
  // core: agent phase histograms (virtual us per observation)
  for (const auto& h : window_histograms()) m[h] = hist(h);
  // core: model rate / measured rate
  const core::CostModel cm;
  m["core.cost_model.encode_ratio"] =
      ratio(static_cast<double>(cm.ckpt_bytes_per_sec), encode_.mibps());
  m["core.cost_model.decode_ratio"] = ratio(
      static_cast<double>(cm.restart_decode_bytes_per_sec), decode_.mibps());
  m["core.cost_model.san_write_ratio"] = ratio(
      static_cast<double>(cm.san_drain_bytes_per_sec), san_write_.mibps());
  m["core.cost_model.san_read_ratio"] = ratio(
      static_cast<double>(cm.restart_fetch_bytes_per_sec), san_read_.mibps());
  // obs
  m["obs.spans_per_op"] = static_cast<double>(op_spans_) / ops;
  m["obs.critpath_ms"] = median(critpath_ms_);
  // super
  m["super.catalog_kb"] = catalog_kb_;
  m["super.catalog_entries"] = catalog_entries_;
  m["super.catalog_rewrite_ms"] = catalog_rewrite_ms_;
  return m;
}

}  // namespace zapc::perfbench
