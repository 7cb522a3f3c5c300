#include "obs/flight.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/event.h"
#include "util/log.h"

namespace zapc::obs {

void FlightRecorder::note_log(const std::string& line) {
  if (capacity_ == 0) return;
  logs_.push_back(line);
  while (logs_.size() > capacity_) logs_.pop_front();
}

void FlightRecorder::set_capacity(std::size_t n) {
  capacity_ = n;
  while (logs_.size() > capacity_) logs_.pop_front();
}

std::string FlightRecorder::dump_postmortem(const SpanRecorder* spans,
                                            const std::string& kind, OpId op,
                                            const std::string& who,
                                            const std::string& phase,
                                            const std::string& reason,
                                            Time t) {
  Postmortem pm{kind, op, who, phase, reason, t, {}, {}, metrics().snapshot()};
  if (spans != nullptr) {
    const std::vector<SpanRecord>& all = spans->spans();
    pm.spans.assign(all.end() - std::min(all.size(), capacity_), all.end());
  }
  pm.log.assign(logs_.begin(), logs_.end());
  last_json_ = to_json(pm).dump(2);
  last_json_ += '\n';

  char name[128];
  std::snprintf(name, sizeof(name), "%s_op%llu_%zu.json", kind.c_str(),
                static_cast<unsigned long long>(op), dumps_);
  ++dumps_;
  metrics().counter("obs.postmortems_written").inc();

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::string path = dir_ + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    last_path_.clear();
    return "";
  }
  out << last_json_;
  out.close();
  last_path_ = path;
  ZLOG_WARN("postmortem written: " << path << " (op " << op << ", phase '"
                                   << phase << "', " << reason << ")");
  return path;
}

void dump_op_failure(SpanRecorder* rec, const std::string& kind, OpId op,
                     const std::string& who, const std::string& reason,
                     Time t) {
  const SpanRecord* phase = rec != nullptr ? rec->innermost_open(op) : nullptr;
  std::string phase_name = phase != nullptr ? phase->name : "";
  if (rec != nullptr) {
    // The marker lands in the span stream before the dump, so the dump
    // itself carries its own evidence.
    rec->event_at(t, who, ev::Text(ev::kOpFail).kv(ev::kKind, kind).why(reason),
                  0, op);
  }
  flight().dump_postmortem(rec, kind, op, who, phase_name, reason, t);
}

FlightRecorder& flight() {
  static FlightRecorder* rec = [] {
    auto* r = new FlightRecorder();  // never destroyed, like metrics()
    set_log_sink(r,
                 [](const void* ctx, LogLevel, const std::string& line) {
                   const_cast<FlightRecorder*>(
                       static_cast<const FlightRecorder*>(ctx))
                       ->note_log(line);
                 },
                 r);
    return r;
  }();
  return *rec;
}

namespace {

// Installed at start-up, so the log ring already holds the lines leading
// up to a process's first failure.
[[maybe_unused]] const FlightRecorder& g_installed_at_startup = flight();

}  // namespace

}  // namespace zapc::obs
