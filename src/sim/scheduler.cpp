#include "sim/scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/watchdog.hpp"

namespace mts::sim {

void Scheduler::run_one_from_ring() {
  if (++events_at_now_ > timestamp_budget_) {
    throw SimulationError("combinational oscillation: more than " +
                          std::to_string(timestamp_budget_) +
                          " events at t=" + format_time(now_));
  }
  // Move the event out before invoking: it may schedule new events and
  // grow the ring while running.
  RingEvent ev = ring_.pop_front();
  ++stats_.events_executed;
  dispatch(ev);
}

void Scheduler::run_one_from_heap() {
  const Key k = pop_key();
  // Move the callback out once and recycle its slot before invoking: the
  // callback may schedule new events and grow the pool while running.
  Slot& s = pool_[k.slot()];
  Callback cb = std::move(s.cb);
  const KernelProfiler::SiteId site = s.site;
  free_slot(k.slot());
  now_ = k.t;
  events_at_now_ = 1;
  // Scheduling order: siblings at this timestamp (larger seq than k) enter
  // the delta ring before cb runs, so cb's zero-delay children -- appended
  // to the ring during execution -- land after them. The common case (no
  // sibling) skips the ring entirely.
  while (!heap_.empty() && heap_.front().t == k.t) {
    const std::uint32_t sib = pop_key().slot();
    ring_.push_back(RingEvent{std::move(pool_[sib].cb), pool_[sib].site});
    free_slot(sib);
  }
  ++stats_.events_executed;
  if (profiler_ == nullptr) {
    cb();
  } else {
    run_profiled(cb, site);
  }
}

void Scheduler::grow_pool() {
  if (pool_.size() == kMaxFutureEvents) {
    throw SimulationError("more than " + std::to_string(kMaxFutureEvents) +
                          " future events pending at t=" + format_time(now_));
  }
  pool_.emplace_back();
  free_head_ = static_cast<std::uint32_t>(pool_.size() - 1);
}

void Scheduler::renumber_keys() {
  std::sort(heap_.begin(), heap_.end(),
            [](const Key& a, const Key& b) { return Later{}(b, a); });
  next_seq_ = 0;
  for (Key& k : heap_) k.seq_slot = next_seq_++ << kSlotBits | k.slot();
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

bool Scheduler::step() {
  if (!ring_.empty()) {
    run_one_from_ring();
  } else if (!heap_.empty()) {
    run_one_from_heap();
  } else {
    return false;
  }
  if (watchdog_ != nullptr) watchdog_->tick(now_);
  return true;
}

void Scheduler::run_until(Time t) {
  for (;;) {
    if (!ring_.empty()) {
      if (now_ > t) break;  // time already advanced past the horizon
      run_one_from_ring();
    } else if (!heap_.empty() && heap_.front().t <= t) {
      run_one_from_heap();
    } else {
      break;
    }
    if (watchdog_ != nullptr) watchdog_->tick(now_);
  }
  if (now_ < t) {
    now_ = t;
    events_at_now_ = 0;
  }
  // Close the profiler's open sample block so host time spent outside the
  // kernel (between runs) is never charged to a site.
  if (profiler_ != nullptr) profiler_->flush();
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events) {
    if (!ring_.empty()) {
      run_one_from_ring();
    } else if (!heap_.empty()) {
      run_one_from_heap();
    } else {
      break;
    }
    ++executed;
    if (watchdog_ != nullptr) watchdog_->tick(now_);
  }
  if (profiler_ != nullptr) profiler_->flush();
  return executed;
}

void Scheduler::reset() {
  // Drain (not reallocate) every level: RingBuffer::clear and
  // vector::clear keep their grown storage, so a campaign worker's second
  // run schedules into warm arenas. Pending callbacks are destroyed and the
  // free list is rebuilt over the whole pool in slot order.
  ring_.clear();
  heap_.clear();
  free_head_ = kNoSlot;
  for (std::size_t i = pool_.size(); i-- > 0;) {
    pool_[i].cb.reset();
    free_slot(static_cast<std::uint32_t>(i));
  }
  now_ = 0;
  next_seq_ = 0;
  events_at_now_ = 0;
  stats_ = KernelStats{};
}

}  // namespace mts::sim
