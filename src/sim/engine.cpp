#include "sim/engine.h"

#include "obs/stats.h"

namespace zapc::sim {

EventId Engine::schedule_at(Time t, std::function<void()> fn) {
  if (t < now_) t = now_;
  u32 slot = static_cast<u32>(slots_.size());
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  ++live_;
  EventId id = (static_cast<EventId>(s.gen) << 32) | slot;
  queue_.push(Item{t, next_seq_++, id});
  obs::stats::sim_queue_depth().set(static_cast<i64>(queue_.size()));
  return id;
}

Engine::Slot* Engine::live_slot(EventId id) {
  auto slot = static_cast<u32>(id);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != static_cast<u32>(id >> 32)) return nullptr;
  return &s;
}

void Engine::release(u32 slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // keep ids nonzero across wraparound
  --live_;
  free_.push_back(slot);
}

bool Engine::cancel(EventId id) {
  if (live_slot(id) == nullptr) return false;
  release(static_cast<u32>(id));
  obs::stats::sim_events_cancelled().inc();
  return true;
}

bool Engine::step() {
  while (!queue_.empty()) {
    Item item = queue_.top();
    queue_.pop();
    Slot* s = live_slot(item.id);
    if (s == nullptr) continue;  // cancelled
    std::function<void()> fn = std::move(s->fn);
    release(static_cast<u32>(item.id));
    now_ = item.time;
    obs::stats::sim_events_dispatched().inc();
    fn();
    return true;
  }
  return false;
}

void Engine::run_until(Time t) {
  while (!queue_.empty()) {
    // Peek past cancelled entries.
    Item item = queue_.top();
    if (live_slot(item.id) == nullptr) {
      queue_.pop();
      continue;
    }
    if (item.time > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

u64 Engine::run(u64 max_events) {
  u64 n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace zapc::sim
