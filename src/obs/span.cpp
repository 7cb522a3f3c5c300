#include "obs/span.h"

namespace zapc::obs {

OpId next_op_id() {
  // The simulation is single-threaded (like the global metrics registry),
  // so a plain counter suffices.
  static OpId counter = 0;
  return ++counter;
}

SpanId SpanRecorder::begin_at(Time t, const std::string& name,
                              const std::string& who, SpanId parent,
                              OpId op) {
  SpanRecord s;
  s.id = static_cast<SpanId>(spans_.size() + 1);
  s.parent = parent;
  s.kind = SpanKind::SPAN;
  s.op = op;
  s.name = name;
  s.who = who;
  s.start = t;
  s.end = t;
  s.open = true;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end_at(Time t, SpanId id) {
  SpanRecord* s = id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
  if (s == nullptr || !s->open) return;
  s->end = t >= s->start ? t : s->start;
  s->open = false;
}

SpanId SpanRecorder::event_at(Time t, const std::string& who,
                              const std::string& what, SpanId parent,
                              OpId op) {
  SpanRecord s;
  s.id = static_cast<SpanId>(spans_.size() + 1);
  s.parent = parent;
  s.kind = SpanKind::EVENT;
  s.op = op;
  s.name = what;
  s.who = who;
  s.start = t;
  s.end = t;
  s.open = false;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

const SpanRecord* SpanRecorder::find_by_name(const std::string& name,
                                             const std::string& who) const {
  for (const SpanRecord& s : spans_) {
    if (s.name == name && (who.empty() || s.who == who)) return &s;
  }
  return nullptr;
}

std::size_t SpanRecorder::open_spans() const {
  std::size_t n = 0;
  for (const SpanRecord& s : spans_) {
    if (s.open) ++n;
  }
  return n;
}

const SpanRecord* SpanRecorder::innermost_open(OpId op) const {
  const SpanRecord* best = nullptr;
  for (const SpanRecord& s : spans_) {
    if (s.kind != SpanKind::SPAN || !s.open || s.op != op) continue;
    if (best == nullptr || s.start >= best->start) best = &s;
  }
  return best;
}

Span::Span(SpanRecorder* rec, std::string name, std::string who)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  id_ = rec_->begin(name, who, rec_->current());
  rec_->stack_.push_back(id_);
}

Span::~Span() {
  if (rec_ == nullptr || id_ == 0) return;
  rec_->end(id_);
  // A mis-nested stack (clear() mid-span) degrades gracefully: only pop
  // our own entry if it is still on top.
  if (!rec_->stack_.empty() && rec_->stack_.back() == id_) {
    rec_->stack_.pop_back();
  }
}

}  // namespace zapc::obs
