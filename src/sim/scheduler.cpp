#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/watchdog.hpp"

namespace mts::sim {

Scheduler::Scheduler()
    : tails_(std::make_unique_for_overwrite<Slot*[]>(kWheelSize)) {
  // The first chunk is allocated here, on the constructing thread, rather
  // than at a campaign worker's first at().
  grow_pool();
}

void Scheduler::grow_pool() {
  const std::size_t base = chunks_.size() * kChunkSlots;
  if (base == kMaxPending) {
    throw SimulationError("more than " + std::to_string(kMaxPending) +
                          " events pending at t=" + format_time(now_));
  }
  Slot* chunk =
      chunks_.emplace_back(std::make_unique<Slot[]>(kChunkSlots)).get();
  for (std::size_t i = kChunkSlots; i-- > 0;) {
    chunk[i].index = static_cast<std::uint32_t>(base + i);
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
}

void Scheduler::push_far(Slot* s, Time t) {
  if (next_seq_ == kSeqLimit) renumber_keys();
  push_key(Key{t, next_seq_++ << kSlotBits | s->index});
}

void Scheduler::migrate() {
  // Pop order keeps each bucket in scheduling order: these keys were all
  // scheduled before any direct insert at their time could happen.
  do {
    const Key k = pop_key();
    const std::uint32_t slot = k.slot();
    append(&chunks_[slot / kChunkSlots][slot % kChunkSlots], k.t);
  } while (!heap_.empty() && heap_.front().t - now_ < kWheelSize);
}

// advance_to, next_event and run_slot are forced inline into drain(), the
// one run loop: members are externally visible, so at -O2 GCC keeps them as
// calls, which costs the shallow event chain about a tenth of its time.
[[gnu::always_inline]] inline void Scheduler::advance_to(Time t) {
  now_ = t;
  events_at_now_ = 0;
  if (!heap_.empty() && heap_.front().t - t < kWheelSize) migrate();
}

std::size_t Scheduler::next_word(std::size_t w) const noexcept {
  static_assert(kWheelWords == 128, "the summary is two words");
  const std::size_t p = (w + 1) % kWheelWords;
  const std::size_t h = p >> 6;
  const std::uint64_t m = summary_[h] & (~std::uint64_t{0} << (p & 63));
  if (m != 0) return (h << 6) | static_cast<std::size_t>(std::countr_zero(m));
  if (summary_[h ^ 1] != 0) {
    return ((h ^ 1) << 6) |
           static_cast<std::size_t>(std::countr_zero(summary_[h ^ 1]));
  }
  // Wrapped all the way round: only words before p are left.
  return (h << 6) | static_cast<std::size_t>(std::countr_zero(summary_[h]));
}

[[gnu::always_inline]] inline Scheduler::Slot* Scheduler::next_event(
    Time limit) {
  // The earliest bucket, scanning circularly from now()'s: first the rest
  // of now()'s word, then the summary from the next word on.
  std::size_t here = now_ & kWheelMask;
  std::size_t w = here >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (here & 63));
  if (bits == 0) {
    if ((summary_[0] | summary_[1]) == 0) {
      // The wheel is empty: jump to the first overflow event.
      if (heap_.empty() || heap_.front().t > limit) return nullptr;
      advance_to(heap_.front().t);
      here = now_ & kWheelMask;
      w = here >> 6;
      bits = occupied_[w] & (~std::uint64_t{0} << (here & 63));
    } else {
      w = next_word(w);
      bits = occupied_[w];
    }
  }
  const std::size_t b =
      (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
  const Time t = now_ + ((b - here) & kWheelMask);
  if (t > limit) return nullptr;
  if (t != now_) advance_to(t);
  if (++events_at_now_ > timestamp_budget_) {
    throw SimulationError("combinational oscillation: more than " +
                          std::to_string(timestamp_budget_) +
                          " events at t=" + format_time(now_));
  }
  Slot* tail = tails_[b];
  Slot* head = tail->next;
  if (head == tail) {
    occupied_[w] &= ~(std::uint64_t{1} << (b & 63));
    if (occupied_[w] == 0) {
      summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
    }
  } else {
    tail->next = head->next;
  }
  --pending_;
  return head;
}

[[gnu::always_inline]] inline void Scheduler::run_slot(Slot* s) {
  // The callback runs where it was built: chunks never move, and its slot
  // is neither in a bucket nor on the free list until it has returned.
  struct Recycle {
    Scheduler* self;
    Slot* s;
    Slot* outer;
    ~Recycle() {
      s->cb.reset();
      s->next = self->free_;
      self->free_ = s;
      self->running_ = outer;
    }
  } recycle{this, s, running_};
  running_ = s;
  ++stats_.events_executed;
  if (profiler_ == nullptr) {
    s->cb();
  } else {
    run_profiled(s->cb, s->site);
  }
}

void Scheduler::run_profiled(Callback& cb, KernelProfiler::SiteId site) {
  // Sample first: the block's wall clock then covers this callback and the
  // dispatch work leading to the next one. While cb runs, `site` is the
  // current site, so events it schedules inherit its attribution (see
  // sim/profiler.hpp).
  profiler_->sample(site);
  ProfileScope scope(profiler_, site);
  cb();
}

void Scheduler::push_key(Key k) {
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

Scheduler::Key Scheduler::pop_key() noexcept {
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

void Scheduler::renumber_keys() {
  std::sort(heap_.begin(), heap_.end(),
            [](const Key& a, const Key& b) { return Later{}(b, a); });
  next_seq_ = 0;
  for (Key& k : heap_) k.seq_slot = next_seq_++ << kSlotBits | k.slot();
}

std::size_t Scheduler::drain(Time limit, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events) {
    Slot* s = next_event(limit);
    if (s == nullptr) break;
    run_slot(s);
    ++executed;
    if (watchdog_ != nullptr) watchdog_->tick(now_);
  }
  return executed;
}

bool Scheduler::step() { return drain(~Time{0}, 1) == 1; }

void Scheduler::run_until(Time t) {
  drain(t, ~std::size_t{0});
  if (now_ < t) advance_to(t);
  // Close the profiler's open sample block so host time spent outside the
  // kernel (between runs) is never charged to a site.
  if (profiler_ != nullptr) profiler_->flush();
}

std::size_t Scheduler::run(std::size_t max_events) {
  const std::size_t executed = drain(~Time{0}, max_events);
  if (profiler_ != nullptr) profiler_->flush();
  return executed;
}

void Scheduler::reset() {
  if (running_ != nullptr) {
    throw SimulationError(
        "Scheduler::reset() called from a running event at t=" +
        format_time(now_));
  }
  // Keep the grown pool and key heap, so a campaign worker's second run
  // schedules into warm arenas. Pending callbacks are destroyed and the
  // free list is rebuilt over the whole pool in slot order.
  heap_.clear();
  occupied_.fill(0);
  summary_.fill(0);
  free_ = nullptr;
  for (std::size_t c = chunks_.size(); c-- > 0;) {
    for (std::size_t i = kChunkSlots; i-- > 0;) {
      Slot& s = chunks_[c][i];
      s.cb.reset();
      s.next = free_;
      free_ = &s;
    }
  }
  pending_ = 0;
  now_ = 0;
  next_seq_ = 0;
  events_at_now_ = 0;
  stats_ = KernelStats{};
}

}  // namespace mts::sim
