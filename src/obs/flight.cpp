#include "obs/flight.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/event.h"
#include "obs/json.h"
#include "util/log.h"

namespace zapc::obs {

void FlightRecorder::note_span(const SpanRecord& s) {
  if (capacity_ == 0) return;
  if (s.kind == SpanKind::SPAN && !s.open) {
    // Close of a span we may already hold: update the open copy in
    // place.  Ids are per-recorder, so match on identity fields too,
    // newest first (the open twin is almost always near the tail).
    for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
      SpanRecord& r = it->span;
      if (r.open && r.id == s.id && r.name == s.name && r.who == s.who &&
          r.start == s.start) {
        r = s;
        return;
      }
    }
  }
  ring_.push_back(FlightEntry{s});
  while (ring_.size() > capacity_) ring_.pop_front();
}

void FlightRecorder::note_log(const std::string& line) {
  if (capacity_ == 0) return;
  logs_.push_back(line);
  while (logs_.size() > capacity_) logs_.pop_front();
}

void FlightRecorder::set_capacity(std::size_t n) {
  capacity_ = n;
  while (ring_.size() > capacity_) ring_.pop_front();
  while (logs_.size() > capacity_) logs_.pop_front();
}

Json FlightRecorder::build_postmortem(const std::string& kind, OpId op,
                                      const std::string& who,
                                      const std::string& phase,
                                      const std::string& reason,
                                      Time t) const {
  Json doc = Json::object();
  doc["schema"] = kPostmortemSchemaVersion;
  doc["kind"] = kind;
  doc["op_id"] = op;
  doc["who"] = who;
  doc["phase"] = phase;
  doc["reason"] = reason;
  doc["time_us"] = t;

  Json spans = Json::array();
  for (const FlightEntry& e : ring_) spans.push(to_json(e.span));
  doc["spans"] = std::move(spans);

  Json log = Json::array();
  for (const std::string& line : logs_) log.push(line);
  doc["log"] = std::move(log);

  doc["metrics"] = to_json(metrics().snapshot());
  return doc;
}

std::string FlightRecorder::dump_postmortem(const std::string& kind, OpId op,
                                            const std::string& who,
                                            const std::string& phase,
                                            const std::string& reason,
                                            Time t) {
  last_json_ = build_postmortem(kind, op, who, phase, reason, t).dump(2);
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
    // The marker lands in the span stream (and this postmortem's ring)
    // before the dump, so the dump itself carries its own evidence.
    rec->event_at(t, who, ev::Text(ev::kOpFail).kv(ev::kKind, kind).why(reason),
                  0, op);
  }
  flight().dump_postmortem(kind, op, who, phase_name, reason, t);
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

}  // namespace zapc::obs
