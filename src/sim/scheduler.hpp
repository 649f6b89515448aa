// Discrete-event scheduler.
//
// Every event runs in (time, scheduling sequence) order: same-timestamp
// events execute in the order they were scheduled, so a zero-delay write
// scheduled while processing time T runs later within T, never "before"
// already-pending work. This gives the kernel deterministic delta-cycle
// semantics.
//
// The queue is a timing wheel of kWheelSize (2^13) one-picosecond buckets
// covering [now(), now() + kWheelSize), plus an overflow heap for later
// events (a hashed timing wheel, after Varghese & Lauck):
//   - an event due within the horizon appends to its time's bucket, a FIFO
//     list threaded through the pool slots' `next` links (a zero-delay
//     event appends to the current bucket). A two-level occupancy bitmap
//     finds the next non-empty bucket; a bucket's list is valid only while
//     its bit is set;
//   - a later event pushes a 16-byte key {time, seq << 24 | slot} onto a
//     4-ary min-heap ordered on (time, seq);
//   - migration invariant: every time now() moves (run_until's jump
//     included), the keys with time < now() + kWheelSize move into the
//     wheel in pop order before anything runs at the new time. A direct
//     insert at time t needs t - now() < kWheelSize, so it always comes
//     after t's migrated keys, and every bucket is in scheduling order.
//
// Callbacks live in a pool of fixed-size chunks that never move; the free
// list runs through the slots. A callback is built once, in place, in its
// slot, and invoked there: a callback may schedule events and grow the
// pool while it runs. A scope guard destroys the callable and recycles its
// slot after it returns or throws. reset() from inside a running callback
// raises SimulationError rather than destroy the running callable.
//
// Limits:
//   - at most kMaxPending (2^24) events pending at once (the pool's slot
//     numbers fit the key's low 24 bits); the next at()/after() raises
//     SimulationError;
//   - sequence numbers run out after kSeqLimit (2^40) overflow events since
//     construction/reset(); the pending keys are then renumbered in
//     (time, seq) order, which changes no execution order.
//
// Callbacks are small-buffer-optimized (sim/callback.hpp) and every level
// recycles its storage, so the steady-state hot loop performs zero heap
// allocations per event.
//
// A per-timestamp event budget guards against combinational oscillation
// (e.g. an inverter loop with zero delay): exceeding it raises
// SimulationError instead of hanging the process.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/error.hpp"
#include "sim/kernel_stats.hpp"
#include "sim/profiler.hpp"
#include "sim/time.hpp"

namespace mts::sim {

class Watchdog;

class Scheduler {
 public:
  using Callback = InplaceFunction<void()>;

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `f` at absolute time `t`; `t` must not be in the past.
  /// Takes any void() callable and type-erases it directly into queue
  /// storage -- no intermediate Callback move on the scheduling fast path.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void at(Time t, F&& f) {
    // Profiler site inheritance: events adopt the site of the event that
    // schedules them (see sim/profiler.hpp). One branch when dormant.
    at_site(t, profiler_ == nullptr ? 0u : profiler_->current(),
            std::forward<F>(f));
  }

  /// at() with an explicit profiler site -- used by root event sources
  /// (clocks, asynchronous drivers) that are not themselves scheduled from
  /// inside a profiled event. The site is ignored while no profiler is
  /// armed.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void at_site(Time t, KernelProfiler::SiteId site, F&& f) {
    MTS_ASSERT(t >= now_, "event scheduled in the past at t=" +
                              std::to_string(t) +
                              " now=" + std::to_string(now_));
    if (free_ == nullptr) grow_pool();
    Slot* s = free_;
    // A free slot holds an empty Callback, so the callable is built
    // straight over it: no temporary, no move-assignment. On a throw the
    // slot is restored to empty and stays on the free list.
    try {
      ::new (static_cast<void*>(&s->cb)) Callback(std::forward<F>(f));
    } catch (...) {
      ::new (static_cast<void*>(&s->cb)) Callback();
      throw;
    }
    free_ = s->next;
    s->site = site;
    if (t - now_ < kWheelSize) {
      append(s, t);
    } else {
      push_far(s, t);
    }
    if (++pending_ > stats_.peak_queue_depth) {
      stats_.peak_queue_depth = pending_;
    }
  }

  /// Schedules `f` at now() + delay.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void after(Time delay, F&& f) {
    at(now_ + delay, std::forward<F>(f));
  }

  bool empty() const noexcept { return pending_ == 0; }
  std::size_t pending() const noexcept { return pending_; }

  /// Runs the single earliest event. Returns false if the queue is empty.
  bool step();

  /// Runs every event with timestamp <= t; now() == t afterwards even if
  /// the queue drained early.
  void run_until(Time t);

  /// Runs until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = kDefaultRunBudget);

  /// Upper bound on events executed at a single timestamp before the kernel
  /// declares a combinational oscillation.
  void set_timestamp_budget(std::size_t budget) { timestamp_budget_ = budget; }

  /// Returns the scheduler to its just-constructed state -- time 0, empty
  /// queues, zeroed health counters -- while KEEPING the grown callback
  /// pool and key heap, so the next run is allocation-free from its first
  /// event. Pending callbacks are destroyed. The armed profiler (if any) is
  /// kept; the timestamp budget is kept. This is the campaign engine's
  /// per-run arena-reuse hook (sim/campaign.hpp). Raises SimulationError
  /// when called from inside a running callback.
  void reset();

  /// Arms (nullptr: disarms) wall-time profiling of event dispatch. The
  /// profiler must outlive the scheduler or be disarmed first.
  void set_profiler(KernelProfiler* p) noexcept { profiler_ = p; }
  KernelProfiler* profiler() const noexcept { return profiler_; }

  /// Arms (nullptr: disarms) a run watchdog (sim/watchdog.hpp): the run
  /// loops call Watchdog::tick once per executed event. One pointer branch
  /// per event when disarmed, same cost shape as the profiler.
  void set_watchdog(Watchdog* w) noexcept { watchdog_ = w; }
  Watchdog* watchdog() const noexcept { return watchdog_; }

  /// Events executed since construction/reset() -- the cheap single-counter
  /// read the telemetry sampler uses (stats() flushes the profiler).
  std::uint64_t events_executed() const noexcept {
    return stats_.events_executed;
  }

  /// Snapshot of the kernel health counters (plus the hottest-site table
  /// when a profiler is armed; pending profiler samples are flushed first).
  KernelStats stats() const {
    KernelStats s = stats_;
    s.pool_high_water = chunks_.size() * kChunkSlots + heap_.capacity();
    if (profiler_ != nullptr) {
      profiler_->flush();
      s.hot_sites = profiler_->top();
    }
    return s;
  }

  static constexpr std::size_t kDefaultRunBudget = 500'000'000;

 private:
  friend struct SchedulerTestAccess;

  /// Wheel buckets, one per picosecond: events due before now() +
  /// kWheelSize go to the wheel, later ones to the overflow heap.
  static constexpr Time kWheelSize = Time{1} << 13;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kWheelWords = kWheelSize / 64;
  /// Bits of an overflow key that hold the pool slot; the other 40 hold
  /// the scheduling sequence number.
  static constexpr unsigned kSlotBits = 24;
  /// Events that may be pending at once: the pool's slot numbers.
  static constexpr std::size_t kMaxPending = std::size_t{1} << kSlotBits;
  /// Overflow events scheduled (since construction or reset()) before the
  /// pending keys are renumbered.
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kSlotBits);
  /// Slots per pool chunk (64 bytes each).
  static constexpr std::size_t kChunkSlots = 32;

  /// An event's callback. A pending slot links to the next event of its
  /// bucket (a bucket is a circular list, see append()); a free slot holds
  /// an empty Callback and links to the next free slot.
  struct Slot {
    Callback cb;
    Slot* next = nullptr;
    KernelProfiler::SiteId site = 0;
    std::uint32_t index = 0;  ///< slot number, for overflow keys
  };
  static_assert(sizeof(Slot) == 64, "a pool slot is one cache line");
  /// An overflow event's heap entry: `seq_slot` packs the scheduling
  /// sequence number above the pool slot number. Sequence numbers are
  /// unique, so the slot bits never decide a comparison.
  struct Key {
    Time t = 0;
    std::uint64_t seq_slot = 0;
    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(seq_slot & (kMaxPending - 1));
    }
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq_slot > b.seq_slot;
    }
  };

  /// Appends one chunk of free slots. Raises SimulationError once the
  /// pool holds kMaxPending slots.
  void grow_pool();

  /// Appends `s` to the bucket of `t` (t - now() < kWheelSize). A bucket
  /// is a circular list addressed by its tail, whose `next` is the head;
  /// `tails_[b]` is valid only while bucket b's occupancy bit is set.
  void append(Slot* s, Time t) noexcept {
    const std::size_t b = t & kWheelMask;
    const std::size_t w = b >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    Slot*& tail = tails_[b];
    if ((occupied_[w] & bit) != 0) {
      s->next = tail->next;
      tail->next = s;
    } else {
      s->next = s;
      occupied_[w] |= bit;
      summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
    tail = s;
  }

  /// Pushes `s` onto the overflow heap at time `t`.
  void push_far(Slot* s, Time t);

  /// The first occupancy word after w, circularly (w itself last) that
  /// has a bit set. Precondition: the wheel is not empty.
  std::size_t next_word(std::size_t w) const noexcept;

  /// Finds the earliest pending event; if it is due at or before `limit`,
  /// moves now() to its time (migrating overflow keys), unlinks it and
  /// returns its slot. Returns nullptr, changing nothing, otherwise.
  Slot* next_event(Time limit);

  /// Runs events due at or before `limit` until none is left or
  /// `max_events` have run; returns how many ran.
  std::size_t drain(Time limit, std::size_t max_events);

  /// Runs `s`'s callback in place, then destroys it and frees the slot --
  /// also when it throws.
  void run_slot(Slot* s);

  /// Moves now() to `t` and migrates the overflow keys now within the
  /// horizon.
  void advance_to(Time t);
  /// Moves the earliest overflow keys into the wheel while they are within
  /// the horizon. Precondition: the earliest one is.
  void migrate();

  /// Runs cb() under `site`'s ProfileScope and records a site sample
  /// (profiler armed only). Wall time is attributed by the profiler's
  /// block-sampled clock, not per-callback reads (see sim/profiler.hpp).
  void run_profiled(Callback& cb, KernelProfiler::SiteId site);

  /// 4-ary heap on Later, hole-based: a sift moves 16-byte keys only.
  void push_key(Key k);
  /// Removes and returns the earliest key. Precondition: heap non-empty.
  Key pop_key() noexcept;
  /// Reassigns sequence numbers 0..n-1 to the pending keys in (time, seq)
  /// order; a sorted array is already a valid heap.
  void renumber_keys();

  /// Pool chunks; a chunk never moves, so a running callback stays put.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Slot* free_ = nullptr;  ///< free-list head
  /// Bucket tails, valid only while the bucket's bit is set: never
  /// initialized, so a Scheduler costs no 64 KB clear.
  std::unique_ptr<Slot*[]> tails_;
  std::array<std::uint64_t, kWheelWords> occupied_{};  ///< bit per bucket
  std::array<std::uint64_t, kWheelWords / 64> summary_{};  ///< bit per word
  std::vector<Key> heap_;  ///< overflow keys, 4-ary min-heap
  std::size_t pending_ = 0;
  Slot* running_ = nullptr;  ///< slot of the innermost running callback
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_at_now_ = 0;
  std::size_t timestamp_budget_ = 4'000'000;
  KernelStats stats_;
  KernelProfiler* profiler_ = nullptr;
  Watchdog* watchdog_ = nullptr;
};

}  // namespace mts::sim
