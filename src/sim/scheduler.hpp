// Discrete-event scheduler.
//
// Two-level queue: a FIFO "delta ring" holds events at the current
// timestamp (the dominant case -- zero-delay gate writes and delta cycles),
// and a 4-ary min-heap of (time, sequence) keys holds future events. When
// the ring drains, the earliest heap timestamp is promoted: every heap event
// at that time moves into the ring in scheduling order before any of them
// runs, so same-timestamp events always execute in scheduling order
// regardless of which level they entered through. This gives the kernel
// deterministic delta-cycle semantics: a zero-delay write scheduled while
// processing time T runs later within T, never "before" already-pending
// work.
//
// The future level is split in two. The heap holds only 16-byte keys
// {time, seq << 24 | slot}; the callbacks stay put in a slot pool whose
// free list runs through the slots (the same shape as Signal's transaction
// pool). A sift therefore moves keys, never a callback: a callback is built
// once, in place, in its slot, and moved exactly once more -- out of the
// slot when it runs, or into the ring when it is promoted as a sibling.
// The packed key has two limits:
//   - at most kMaxFutureEvents (2^24) future events pending at once; the
//     next at()/after() into the future raises SimulationError;
//   - sequence numbers run out after kSeqLimit (2^40) future events since
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

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/error.hpp"
#include "sim/kernel_stats.hpp"
#include "sim/profiler.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace mts::sim {

class Watchdog;

class Scheduler {
 public:
  using Callback = InplaceFunction<void()>;

  Scheduler() = default;
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
    if (t == now_) {
      // Same-timestamp events always have a later sequence number than
      // anything still in the heap at this time (those were promoted into
      // the ring before execution started), so FIFO order is scheduling
      // order.
      ring_.push_back(RingEvent{Callback(std::forward<F>(f)), site});
    } else {
      if (free_head_ == kNoSlot) grow_pool();
      const std::uint32_t slot = free_head_;
      Slot& s = pool_[slot];
      // A free slot holds an empty Callback, so the callable is built
      // straight over it: no temporary, no move-assignment. On a throw the
      // slot is restored to empty and stays on the free list.
      try {
        ::new (static_cast<void*>(&s.cb)) Callback(std::forward<F>(f));
      } catch (...) {
        ::new (static_cast<void*>(&s.cb)) Callback();
        throw;
      }
      s.site = site;
      free_head_ = s.next_free;
      if (next_seq_ == kSeqLimit) renumber_keys();
      push_key(Key{t, next_seq_++ << kSlotBits | slot});
    }
    note_push();
  }

  /// Schedules `f` at now() + delay.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void after(Time delay, F&& f) {
    at(now_ + delay, std::forward<F>(f));
  }

  bool empty() const noexcept { return ring_.empty() && heap_.empty(); }
  std::size_t pending() const noexcept { return ring_.size() + heap_.size(); }

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
  /// queues, zeroed health counters -- while KEEPING the grown storage of
  /// the delta ring, the key heap and the callback pool, so the next run is
  /// allocation-free from its first event. Pending callbacks are destroyed.
  /// The armed profiler (if any) is kept; the timestamp budget is kept.
  /// This is the campaign engine's per-run arena-reuse hook
  /// (sim/campaign.hpp).
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
    s.pool_high_water = ring_.capacity() + heap_.capacity();
    if (profiler_ != nullptr) {
      profiler_->flush();
      s.hot_sites = profiler_->top();
    }
    return s;
  }

  static constexpr std::size_t kDefaultRunBudget = 500'000'000;

 private:
  friend struct SchedulerTestAccess;

  /// Bits of a future-event key that hold the pool slot; the other 40
  /// hold the scheduling sequence number.
  static constexpr unsigned kSlotBits = 24;
  /// Future events that may be pending at once.
  static constexpr std::size_t kMaxFutureEvents = std::size_t{1} << kSlotBits;
  /// Future events scheduled (since construction or reset()) before the
  /// pending keys are renumbered.
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kSlotBits);
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct RingEvent {
    Callback cb;
    KernelProfiler::SiteId site = 0;
  };
  /// A future event's heap entry: `seq_slot` packs the scheduling sequence
  /// number above the pool slot index. Sequence numbers are unique, so the
  /// slot bits never decide a comparison.
  struct Key {
    Time t = 0;
    std::uint64_t seq_slot = 0;
    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(seq_slot & (kMaxFutureEvents - 1));
    }
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq_slot > b.seq_slot;
    }
  };
  /// A future event's callback; free slots hold an empty Callback and link
  /// through `next_free`.
  struct Slot {
    Callback cb;
    KernelProfiler::SiteId site = 0;
    std::uint32_t next_free = kNoSlot;
  };

  /// Appends one slot and makes it the free-list head. Raises
  /// SimulationError once the pool holds kMaxFutureEvents slots.
  void grow_pool();

  /// Returns `slot` (whose callback has been moved out) to the free list.
  void free_slot(std::uint32_t slot) noexcept {
    pool_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  /// 4-ary heap on Later, hole-based: a sift moves 16-byte keys only.
  void push_key(Key k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!Later{}(heap_[parent], k)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  /// Removes and returns the earliest key. Precondition: heap non-empty.
  Key pop_key() noexcept {
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (Later{}(heap_[best], heap_[c])) best = c;
      }
      if (!Later{}(last, heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
    return top;
  }

  /// Reassigns sequence numbers 0..n-1 to the pending keys in (time, seq)
  /// order; a sorted array is already a valid heap.
  void renumber_keys();

  /// Pops and runs the front delta-ring event (which is at now()).
  void run_one_from_ring();

  /// Advances now() to the earliest heap timestamp and runs its first event
  /// directly; any sibling events at the same timestamp are first moved into
  /// the delta ring (in scheduling order) so they run before the executed
  /// event's zero-delay children. Precondition: ring empty, heap non-empty.
  void run_one_from_heap();

  /// Runs cb() under `site`'s ProfileScope and records a site sample
  /// (profiler armed only). Wall time is attributed by the profiler's
  /// block-sampled clock, not per-callback reads (see sim/profiler.hpp).
  void run_profiled(Callback& cb, KernelProfiler::SiteId site);

  void dispatch(RingEvent& ev) {
    if (profiler_ == nullptr) {
      ev.cb();
    } else {
      run_profiled(ev.cb, ev.site);
    }
  }

  void note_push() noexcept {
    const std::size_t depth = ring_.size() + heap_.size();
    if (depth > stats_.peak_queue_depth) stats_.peak_queue_depth = depth;
  }

  RingBuffer<RingEvent> ring_;  ///< events at now(), FIFO order
  std::vector<Key> heap_;       ///< future event keys, 4-ary min-heap
  std::vector<Slot> pool_;      ///< future event callbacks, by key slot
  std::uint32_t free_head_ = kNoSlot;  ///< free-list head into pool_
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_at_now_ = 0;
  std::size_t timestamp_budget_ = 4'000'000;
  KernelStats stats_;
  KernelProfiler* profiler_ = nullptr;
  Watchdog* watchdog_ = nullptr;
};

}  // namespace mts::sim
