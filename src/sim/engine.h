// Discrete-event simulation engine.
//
// Everything in the reproduction — node schedulers, packet delivery,
// TCP retransmission timers, the Manager/Agent protocol — runs as events
// on a single virtual clock, making the whole cluster deterministic.
#pragma once

#include <functional>
#include <queue>
#include <vector>

#include "util/types.h"

namespace zapc::sim {

/// Virtual time in microseconds since simulation start.
using Time = u64;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * 1000;

/// Time to move `units` at `units_per_sec` (0 rate ⇒ free).  The single
/// units→time conversion every rate-costed layer (fabric wire time, the
/// CostModel byte costs) routes through.
constexpr Time rate_cost(u64 units, u64 units_per_sec) {
  return units_per_sec == 0 ? 0 : units * kSecond / units_per_sec;
}

/// Handle for cancelling a scheduled event: (generation << 32 | slot).
/// Generations start at 1, so a valid id is never 0.
using EventId = u64;

/// A single-clock event queue.  Events scheduled for the same time run in
/// FIFO order of scheduling, which keeps runs reproducible.
///
/// Handlers live in a slab of slots recycled through a free list; a
/// slot's generation advances each time it is freed, so an id that
/// outlived its event (ran, cancelled, slot reused) no longer matches.
/// Cancelling frees the slot at once and leaves the heap entry behind;
/// dispatch skips heap entries whose id no longer names a live slot.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` to run `delay` after the current time.
  EventId schedule(Time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to now).
  EventId schedule_at(Time t, std::function<void()> fn);

  /// Cancels a pending event; returns false if it already ran or was
  /// cancelled.
  bool cancel(EventId id);

  /// Runs the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= t, then advances the clock to t.
  void run_until(Time t);

  /// Runs until no events remain or `max_events` have executed.
  /// Returns the number of events executed.
  u64 run(u64 max_events = ~0ull);

  /// Number of pending (uncancelled) events.
  std::size_t pending() const { return live_; }

  bool idle() const { return pending() == 0; }

 private:
  struct Item {
    Time time;
    u64 seq;
    EventId id;
    // Ordered for a min-heap (std::priority_queue is a max-heap).
    bool operator<(const Item& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  struct Slot {
    std::function<void()> fn;
    u32 gen = 1;
    bool live = false;
  };

  /// The live slot `id` names, or nullptr if its event already ran or
  /// was cancelled.
  Slot* live_slot(EventId id);
  /// Drops the slot's handler and recycles it under a new generation.
  void release(u32 slot);

  Time now_ = 0;
  u64 next_seq_ = 0;
  std::priority_queue<Item> queue_;
  std::vector<Slot> slots_;
  std::vector<u32> free_;
  std::size_t live_ = 0;
};

}  // namespace zapc::sim
