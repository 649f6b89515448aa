#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mts::sim {

/// Reaches the wheel's geometry.
struct SchedulerTestAccess {
  static constexpr Time kWheelSize = Scheduler::kWheelSize;
  static constexpr std::size_t kChunkSlots = Scheduler::kChunkSlots;
};

namespace {

constexpr Time kHorizon = SchedulerTestAccess::kWheelSize;

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, SameTimestampRunsInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int hits = 0;
  s.at(10, [&] {
    ++hits;
    s.after(5, [&] { ++hits; });
  });
  s.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(s.now(), 15u);
}

TEST(Scheduler, ZeroDelayEventRunsAtSameTimeAfterCurrent) {
  Scheduler s;
  std::vector<int> order;
  s.at(10, [&] {
    s.after(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  s.at(10, [&] { order.push_back(3); });
  s.run();
  // The zero-delay event was scheduled after both time-10 events existed,
  // so it runs last within t=10.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler s;
  s.at(10, [] {});
  s.run();
  EXPECT_THROW(s.at(5, [] {}), AssertionError);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWhenIdle) {
  Scheduler s;
  s.run_until(1000);
  EXPECT_EQ(s.now(), 1000u);
}

TEST(Scheduler, RunUntilDoesNotExecuteLaterEvents) {
  Scheduler s;
  int hits = 0;
  s.at(50, [&] { ++hits; });
  s.at(150, [&] { ++hits; });
  s.run_until(100);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(s.now(), 100u);
  s.run_until(200);
  EXPECT_EQ(hits, 2);
}

TEST(Scheduler, RunUntilInclusiveOfBoundary) {
  Scheduler s;
  int hits = 0;
  s.at(100, [&] { ++hits; });
  s.run_until(100);
  EXPECT_EQ(hits, 1);
}

TEST(Scheduler, OscillationGuardThrows) {
  Scheduler s;
  s.set_timestamp_budget(100);
  std::function<void()> loop = [&] { s.after(0, loop); };
  s.at(10, loop);
  EXPECT_THROW(s.run(), SimulationError);
}

TEST(Scheduler, RunBudgetStopsExecution) {
  Scheduler s;
  int hits = 0;
  std::function<void()> loop = [&] {
    ++hits;
    s.after(1, loop);
  };
  s.at(0, loop);
  EXPECT_EQ(s.run(100), 100u);
  EXPECT_EQ(hits, 100);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.at(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PendingCountsQueuedEvents) {
  Scheduler s;
  s.at(1, [] {});
  s.at(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
}

// Events at one timestamp are scheduled both before and while that
// timestamp executes; all of them share one bucket, and scheduling order
// must hold across that boundary.
TEST(Scheduler, FifoOrderAcrossRingHeapBoundary) {
  Scheduler s;
  std::vector<int> order;
  s.at(5, [&] {
    order.push_back(1);
    s.at(5, [&] { order.push_back(4); });  // scheduled while t=5 runs
    s.at(5, [&] { order.push_back(5); });  // scheduled while t=5 runs
  });
  s.at(5, [&] { order.push_back(2); });  // sibling of the first event
  s.at(5, [&] { order.push_back(3); });  // sibling of the first event
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// The per-timestamp budget must count the zero-delay events of a timestamp
// that time advanced to, and must reset when time advances.
TEST(Scheduler, OscillationBudgetSpansBothQueueLevels) {
  Scheduler s;
  s.set_timestamp_budget(50);
  std::function<void()> loop = [&] { s.after(0, loop); };
  s.at(7, loop);  // time advances to t=7, then loops there
  EXPECT_THROW(s.run(), SimulationError);

  Scheduler ok;
  ok.set_timestamp_budget(50);
  int hits = 0;
  std::function<void()> advance = [&] {
    if (++hits < 200) ok.after(1, advance);
  };
  ok.at(0, advance);
  ok.run();  // 200 events, but only one per timestamp: budget never trips
  EXPECT_EQ(hits, 200);
}

TEST(Scheduler, StatsCountExecutedEventsAndPeakDepth) {
  Scheduler s;
  EXPECT_EQ(s.stats().events_executed, 0u);
  for (int i = 0; i < 8; ++i) {
    s.at(static_cast<Time>(i + 1), [] {});
  }
  EXPECT_EQ(s.stats().peak_queue_depth, 8u);
  s.run();
  EXPECT_EQ(s.stats().events_executed, 8u);
  EXPECT_GE(s.stats().pool_high_water, 8u);
}

// Steady-state chains must recycle queue storage rather than grow it: the
// pool high-water mark after a million-event chain stays at the small
// initial footprint.
TEST(Scheduler, SteadyStateChainDoesNotGrowPools) {
  Scheduler s;
  std::uint64_t count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100'000) s.after(1, tick);
  };
  s.at(1, tick);
  s.run();
  EXPECT_EQ(count, 100'000u);
  // One outstanding event at a time: a handful of slots at most.
  EXPECT_LE(s.stats().pool_high_water, 64u);
}

// reset() is the campaign engine's arena-reuse hook: it must return the
// scheduler to t=0 with empty queues and zeroed counters while KEEPING the
// grown event-pool storage, so a worker's next run allocates nothing.
TEST(Scheduler, ResetDropsPendingWorkButKeepsArenas) {
  Scheduler s;
  int late_fires = 0;
  for (int i = 0; i < 32; ++i) {
    s.at(static_cast<Time>(100 + i), [&] { ++late_fires; });
  }
  s.run_until(50);  // nothing executed yet; queue is primed
  const std::size_t grown_pool = s.stats().pool_high_water;
  EXPECT_GE(grown_pool, 32u);

  s.reset();
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.stats().events_executed, 0u);
  EXPECT_EQ(s.stats().peak_queue_depth, 0u);
  // Pending callbacks were destroyed, not deferred.
  s.run();
  EXPECT_EQ(late_fires, 0);
  EXPECT_EQ(s.now(), 0u);

  // The arena survived: refilling to the same depth allocates no new slots.
  int refill_fires = 0;
  for (int i = 0; i < 32; ++i) {
    s.at(static_cast<Time>(10 + i), [&] { ++refill_fires; });
  }
  s.run();
  EXPECT_EQ(refill_fires, 32);
  EXPECT_EQ(s.stats().events_executed, 32u);
  EXPECT_LE(s.stats().pool_high_water, grown_pool);
}

// The order contract in its simplest form: every event runs in (time,
// scheduling sequence) order, whichever queue level holds it.
class ReferenceQueue {
 public:
  Time now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  template <typename F>
  void at(Time t, F&& f) {
    queue_.emplace(std::make_pair(t, seq_++), std::function<void()>(f));
  }
  template <typename F>
  void after(Time delay, F&& f) {
    at(now_ + delay, std::forward<F>(f));
  }
  bool step() {
    if (queue_.empty()) return false;
    const auto first = queue_.begin();
    now_ = first->first.first;
    std::function<void()> f = std::move(first->second);
    queue_.erase(first);
    f();
    return true;
  }
  void run_until(Time t) {
    while (!queue_.empty() && queue_.begin()->first.first <= t) step();
    if (now_ < t) now_ = t;
  }
  std::size_t run(std::size_t max_events) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }
  void reset() {
    queue_.clear();
    now_ = 0;
    seq_ = 0;
  }

 private:
  std::map<std::pair<Time, std::uint64_t>, std::function<void()>> queue_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
};

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 31;
  x *= 0x9e3779b97f4a7c15ull;
  return x ^ (x >> 29);
}

/// Seeded random traffic for a queue Q. Events are numbered in scheduling
/// order; each one logs (id, now) when it runs and schedules children
/// chosen by its own id only, so two queues that run events in the same
/// order produce identical logs, and the first misordered event shows.
template <typename Q>
class Traffic {
 public:
  Traffic(Q& q, std::uint64_t seed) : q_(q), seed_(seed) {}

  struct Fire {
    Traffic* tr;
    std::uint64_t id;
    void operator()() const { tr->fire(id); }
  };
  /// Too big for the inline buffer: exercises the heap-cell payload.
  struct BigFire {
    Traffic* tr;
    std::uint64_t id;
    std::array<std::uint64_t, 8> pad{};
    void operator()() const { tr->fire(id); }
  };

  /// Schedules one event; `r` picks the delay, the entry point and the
  /// callable's storage class. Zero and small delays dominate so same-time
  /// siblings meet in one bucket. One event in ten goes to the wheel's
  /// horizon (kHorizon - 1, kHorizon, kHorizon + 1) or beyond it, up to
  /// 4 * kHorizon, to a time on a 16-ps grid, so overflow events meet
  /// events that later small delays insert straight into their bucket.
  void schedule(std::uint64_t r) {
    const std::uint64_t id = next_id_++;
    const std::uint64_t pick = r % 20;
    const Time now = q_.now();
    Time delay = pick < 6    ? 0
                 : pick < 15 ? 1 + (r >> 8) % 3
                 : pick < 18 ? (r >> 8) % 200
                 : pick < 19 ? kHorizon - 1 + (r >> 8) % 3
                             : (r >> 8) % (4 * kHorizon + 1);
    if (pick == 19) delay = std::max(now, (now + delay) & ~Time{15}) - now;
    const Time t = now + delay;
    switch ((r >> 16) % 4) {
      case 0: q_.at(t, Fire{this, id}); break;
      case 1: q_.after(delay, Fire{this, id}); break;
      case 2: q_.at(t, BigFire{this, id}); break;
      default:
        q_.after(delay, std::function<void()>(Fire{this, id}));
        break;
    }
  }

  void fire(std::uint64_t id) {
    log.emplace_back(id, q_.now());
    std::uint64_t r = mix(seed_ ^ (id * 0x2545f4914f6cdd1dull));
    const std::uint64_t children = next_id_ < kMaxEvents ? r % 3 : 0;
    for (std::uint64_t i = 0; i < children; ++i) {
      r = mix(r + i + 1);
      schedule(r);
    }
  }

  std::vector<std::pair<std::uint64_t, Time>> log;

 private:
  static constexpr std::uint64_t kMaxEvents = 20'000;
  Q& q_;
  std::uint64_t seed_;
  std::uint64_t next_id_ = 0;
};

/// One seeded mix of bursts, step(), run(n), run_until horizons and a
/// mid-run reset(); the log records every event plus now() and pending()
/// after each operation.
template <typename Q>
std::vector<std::pair<std::uint64_t, Time>> drive(std::uint64_t seed) {
  Q q;
  Traffic<Q> tr(q, seed);
  std::uint64_t r = mix(seed);
  auto note = [&] {
    tr.log.emplace_back(~std::uint64_t{0} - q.pending(), q.now());
  };
  for (int op = 0; op < 400; ++op) {
    r = mix(r + static_cast<std::uint64_t>(op));
    switch (r % 8) {
      case 0:
      case 1:
      case 2: {
        const std::uint64_t burst = 1 + (r >> 8) % 6;
        for (std::uint64_t i = 0; i < burst; ++i) tr.schedule(mix(r + i));
        break;
      }
      case 3:
      case 4:
        for (std::uint64_t i = 0; i < 1 + (r >> 8) % 8; ++i) q.step();
        break;
      case 5:
        // Mostly short horizons; one in four jumps now() up to 3 horizons
        // ahead, into time that overflow events are pending at.
        q.run_until(q.now() + ((r >> 8) % 4 == 0 ? (r >> 10) % (3 * kHorizon)
                                                 : (r >> 10) % 64));
        break;
      case 6:
        q.run(1 + (r >> 8) % 50);
        break;
      default:
        q.run_until(q.now());
        break;
    }
    if (op == 200) q.reset();
    note();
  }
  if (r % 2 == 0) q.reset();
  q.run(Scheduler::kDefaultRunBudget);
  note();
  return tr.log;
}

TEST(Scheduler, MatchesTimeSequenceReferenceOnSeededTraffic) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto want = drive<ReferenceQueue>(seed);
    const auto got = drive<Scheduler>(seed);
    ASSERT_GT(want.size(), 400u) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " entry " << i;
    }
  }
}

// A running callback runs in place in its pool slot: one that schedules
// enough events to grow the pool by many chunks must still read its own
// captures afterwards.
TEST(Scheduler, CallbackMayGrowThePoolWhileRunning) {
  Scheduler s;
  std::vector<std::uint64_t> seen;
  std::uint64_t fired = 0;
  struct Grower {
    Scheduler* s;
    std::vector<std::uint64_t>* seen;
    std::uint64_t* fired;
    std::uint64_t a, b;
    void operator()() const {
      seen->push_back(a);
      for (int i = 0; i < 5000; ++i) {
        s->after(1 + static_cast<Time>(i % 97), [f = fired] { ++*f; });
      }
      seen->push_back(a);
      seen->push_back(b);
    }
  };
  static_assert(sizeof(Grower) <= kCallbackInlineSize);
  s.at(3, Grower{&s, &seen, &fired, 0x1234, 0x5678});
  const std::size_t first_chunk = s.stats().pool_high_water;
  EXPECT_EQ(first_chunk, SchedulerTestAccess::kChunkSlots);
  s.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0x1234, 0x1234, 0x5678}));
  EXPECT_EQ(fired, 5000u);
  EXPECT_GT(s.stats().pool_high_water, 5000u);
}

// reset() destroys every pending callback exactly once -- inline, heap-cell
// and std::function payloads, in the current bucket, in later buckets and
// behind overflow keys -- and the pool serves the next run.
TEST(Scheduler, ResetDestroysEachPendingCallbackOnce) {
  struct Tracked {
    explicit Tracked(int* live) : live(live) { ++*live; }
    Tracked(const Tracked& o) : live(o.live), pad(o.pad) { ++*live; }
    ~Tracked() { --*live; }
    void operator()() const {}
    int* live;
    std::array<std::uint64_t, 8> pad{};
  };
  static_assert(sizeof(Tracked) > kCallbackInlineSize);
  int live = 0;
  auto token = std::make_shared<int>(0);
  Scheduler s;
  s.at(1, [&] {
    s.after(0, Tracked(&live));  // current bucket
    for (int i = 0; i < 10; ++i) {
      s.after(static_cast<Time>(1 + i), Tracked(&live));
      s.after(static_cast<Time>(1 + i), std::function<void()>([token] {}));
    }
    for (int i = 0; i < 3; ++i) {  // overflow
      s.after(kHorizon + static_cast<Time>(i), Tracked(&live));
    }
  });
  s.step();
  EXPECT_EQ(live, 14);
  EXPECT_EQ(token.use_count(), 11);
  s.reset();
  EXPECT_EQ(live, 0);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(s.empty());

  int hits = 0;
  for (int i = 0; i < 30; ++i) {
    s.at(static_cast<Time>(5 + i % 3), [&hits] { ++hits; });
  }
  s.run();
  EXPECT_EQ(hits, 30);
  EXPECT_EQ(live, 0);
}

// Every event lies beyond the wheel's horizon, so each takes an overflow
// key: they run in time order, and the three at one time in scheduling
// order. Event 2 sifts above 0, so heap-array order would run 1 before 0.
TEST(Scheduler, OverflowEventsRunInTimeThenSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  const Time times[] = {20, 20, 10, 20, 10, 15};
  for (int i = 0; i < 6; ++i) {
    s.at(kHorizon + times[i], [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 5, 0, 1, 3}));
}

// An event that waited in the overflow heap and one inserted straight into
// the wheel at the same time run in scheduling order: the overflow event
// migrates as soon as now() comes within the horizon of it, before any
// event can be inserted directly at its time.
TEST(Scheduler, OverflowAndDirectInsertAtOneTimeKeepSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  const Time t = 2 * kHorizon + 5;
  s.at(t, [&] { order.push_back(0); });  // overflow
  s.at(t, [&] { order.push_back(1); });  // overflow
  s.at(t - kHorizon, [&] {
    // now() + kHorizon == t: still overflow.
    s.at(t, [&] { order.push_back(2); });
    s.after(1, [&] {
      // t - now() == kHorizon - 1: a direct insert.
      s.at(t, [&] { order.push_back(3); });
    });
  });
  s.run_until(t - kHorizon / 2);  // a jump migrates the rest
  s.at(t, [&] { order.push_back(4); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.now(), t);
}

// A callback that throws still has its callable destroyed and its slot
// recycled: a thousand throwing events do not grow the pool, and the
// scheduler runs normally afterwards.
TEST(Scheduler, ThrowingEventsRecycleTheirSlots) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  auto throw_once = [&](Time delay) {
    s.after(delay, [token] { throw std::runtime_error("boom"); });
    EXPECT_THROW(s.run(), std::runtime_error);
  };
  throw_once(kHorizon);  // the key heap has grown too
  const std::size_t pool = s.stats().pool_high_water;
  for (int i = 1; i < 1000; ++i) {
    throw_once(static_cast<Time>(i % 3 == 0 ? 0 : i % 3 == 1 ? 7 : kHorizon + i));
  }
  EXPECT_EQ(s.stats().pool_high_water, pool);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.stats().events_executed, 1000u);

  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    s.after(static_cast<Time>(i % 5), [&hits] { ++hits; });
  }
  s.run();
  EXPECT_EQ(hits, 100);
}

// reset() from inside a running callback would destroy the callable that
// is running: it raises SimulationError and changes nothing instead.
TEST(Scheduler, ResetFromARunningCallbackThrows) {
  Scheduler s;
  std::vector<std::uint64_t> seen;
  int later = 0;
  struct Resetter {
    Scheduler* s;
    std::vector<std::uint64_t>* seen;
    std::uint64_t a, b;
    void operator()() const {
      EXPECT_THROW(s->reset(), SimulationError);
      seen->push_back(a);
      seen->push_back(b);
    }
  };
  s.at(5, [&later] { ++later; });
  s.at(3, Resetter{&s, &seen, 0xabcd, 0xef01});
  s.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0xabcd, 0xef01}));
  EXPECT_EQ(later, 1);
  EXPECT_EQ(s.now(), 5u);
  s.reset();  // outside a callback it works
  EXPECT_EQ(s.now(), 0u);
}

}  // namespace
}  // namespace mts::sim
