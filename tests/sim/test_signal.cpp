#include "sim/signal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace mts::sim {
namespace {

TEST(Signal, InitialValue) {
  Simulation sim;
  Wire w(sim, "w", true);
  EXPECT_TRUE(w.read());
  Word d(sim, "d", 42);
  EXPECT_EQ(d.read(), 42u);
}

TEST(Signal, SetNotifiesOnChangeOnly) {
  Simulation sim;
  Wire w(sim, "w");
  int changes = 0;
  w.on_change([&](bool, bool) { ++changes; });
  w.set(false);  // no change
  EXPECT_EQ(changes, 0);
  w.set(true);
  EXPECT_EQ(changes, 1);
  w.set(true);  // no change
  EXPECT_EQ(changes, 1);
}

TEST(Signal, ListenerSeesOldAndNewValues) {
  Simulation sim;
  Word d(sim, "d", 7);
  std::uint64_t seen_old = 0, seen_new = 0;
  d.on_change([&](const std::uint64_t& o, const std::uint64_t& n) {
    seen_old = o;
    seen_new = n;
  });
  d.set(9);
  EXPECT_EQ(seen_old, 7u);
  EXPECT_EQ(seen_new, 9u);
}

TEST(Signal, TransportWritesAllCommitInOrder) {
  Simulation sim;
  Wire w(sim, "w");
  std::vector<bool> history;
  w.on_change([&](bool, bool n) { history.push_back(n); });
  w.write(true, 10, DelayKind::kTransport);
  w.write(false, 20, DelayKind::kTransport);
  w.write(true, 30, DelayKind::kTransport);
  sim.run();
  EXPECT_EQ(history, (std::vector<bool>{true, false, true}));
}

TEST(Signal, InertialWriteCancelsPending) {
  Simulation sim;
  Wire w(sim, "w");
  int changes = 0;
  w.on_change([&](bool, bool) { ++changes; });
  w.write(true, 100, DelayKind::kInertial);
  // Before the first commits, the driver changes its mind: pulse filtered.
  sim.run_until(50);
  w.write(false, 100, DelayKind::kInertial);
  sim.run();
  EXPECT_EQ(changes, 0);
  EXPECT_FALSE(w.read());
}

TEST(Signal, InertialGlitchFilteredButSteadyValuePasses) {
  Simulation sim;
  Wire w(sim, "w");
  w.write(true, 100, DelayKind::kInertial);
  sim.run();
  EXPECT_TRUE(w.read());
}

TEST(Signal, PendingWritesTracked) {
  Simulation sim;
  Wire w(sim, "w");
  w.write(true, 10, DelayKind::kTransport);
  w.write(true, 20, DelayKind::kTransport);
  EXPECT_EQ(w.pending_writes(), 2u);
  sim.run();
  EXPECT_EQ(w.pending_writes(), 0u);
}

TEST(Signal, EdgeHelpers) {
  Simulation sim;
  Wire w(sim, "w");
  int rises = 0, falls = 0;
  w.on_rise([&] { ++rises; });
  w.on_fall([&] { ++falls; });
  w.set(true);
  w.set(false);
  w.set(true);
  EXPECT_EQ(rises, 2);
  EXPECT_EQ(falls, 1);
}

TEST(Signal, ListenersAddedDuringNotificationMissThatEvent) {
  Simulation sim;
  Wire w(sim, "w");
  int second_listener_hits = 0;
  w.on_change([&](bool, bool) {
    w.on_change([&](bool, bool) { ++second_listener_hits; });
  });
  w.set(true);
  EXPECT_EQ(second_listener_hits, 0);
  w.set(false);
  EXPECT_EQ(second_listener_hits, 1);
}

TEST(Signal, NameAndSimulationAccessors) {
  Simulation sim;
  Wire w(sim, "top.sub.w");
  EXPECT_EQ(w.name(), "top.sub.w");
  EXPECT_EQ(&w.simulation(), &sim);
}

TEST(Signal, MemberEdgeListenersFireOnMatchingEdgeOnly) {
  Simulation sim;
  Wire w(sim, "w");
  int rises = 0, falls = 0, changes = 0;
  w.on_rise([&] { ++rises; });
  w.on_fall([&] { ++falls; });
  w.on_change([&](bool, bool) { ++changes; });
  w.set(true);
  w.set(false);
  w.set(true);
  EXPECT_EQ(rises, 2);
  EXPECT_EQ(falls, 1);
  EXPECT_EQ(changes, 3);
}

// Edge and change listeners interleave in registration order within one
// notification.
TEST(Signal, EdgeAndChangeListenersRunInRegistrationOrder) {
  Simulation sim;
  Wire w(sim, "w");
  std::vector<int> order;
  w.on_change([&](bool, bool) { order.push_back(1); });
  w.on_rise([&] { order.push_back(2); });
  w.on_change([&](bool, bool) { order.push_back(3); });
  w.set(true);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Edge listeners registered while a notification is being delivered must
// not observe the in-flight change -- same guarantee as on_change, and the
// registration must not invalidate the listener list mid-dispatch.
TEST(Signal, EdgeListenersAddedDuringNotificationMissThatEvent) {
  Simulation sim;
  Wire w(sim, "w");
  int late_rises = 0;
  w.on_rise([&] { w.on_rise([&] { ++late_rises; }); });
  w.set(true);
  EXPECT_EQ(late_rises, 0);
  w.set(false);
  w.set(true);
  // First rise registered one new listener; the second rise registered
  // another and fired the first.
  EXPECT_EQ(late_rises, 1);
}

// Transaction slots are recycled through the free list: a long sequence of
// write+commit cycles must not grow the pool past the peak number of
// simultaneously outstanding writes.
TEST(Signal, TransactionPoolRecyclesSlots) {
  Simulation sim;
  Wire w(sim, "w");
  bool v = false;
  for (int i = 0; i < 10'000; ++i) {
    v = !v;
    w.write(v, 1, DelayKind::kTransport);
    sim.run();
  }
  EXPECT_LE(w.pool_slots(), 4u);
}

// Regression for the seed's O(n) pending-list erase: with thousands of
// transport writes outstanding, each commit must be O(1), so the whole
// burst commits in time proportional to n, not n^2. Guarded by comparing
// pool growth (which is linear by construction) rather than wall-clock:
// every slot is used exactly once and the sim completes within the default
// run budget.
TEST(Signal, ThousandsOfPendingTransportWritesCommitLinearly) {
  Simulation sim;
  Word w(sim, "w");
  constexpr std::uint64_t kWrites = 20'000;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    w.write(i + 1, static_cast<Time>(i + 1), DelayKind::kTransport);
  }
  EXPECT_EQ(w.pending_writes(), kWrites);
  EXPECT_EQ(w.pool_slots(), kWrites);  // all outstanding at once
  sim.run();
  EXPECT_EQ(w.pending_writes(), 0u);
  EXPECT_EQ(w.read(), kWrites);
  // A second identical burst reuses the recycled slots: no pool growth.
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    w.write(i + 1, static_cast<Time>(i + 1), DelayKind::kTransport);
  }
  EXPECT_EQ(w.pool_slots(), kWrites);
  sim.run();
}

// An inertial write cancels every pending write in O(1) via the generation
// watermark; cancelled transactions still recycle their slots.
TEST(Signal, InertialCancellationRecyclesCancelledSlots) {
  Simulation sim;
  Wire w(sim, "w");
  for (int i = 0; i < 100; ++i) {
    w.write(true, static_cast<Time>(i + 10), DelayKind::kTransport);
  }
  w.write(false, 1, DelayKind::kInertial);  // cancels all 100
  EXPECT_EQ(w.pending_writes(), 1u);
  sim.run();
  EXPECT_FALSE(w.read());
  const std::size_t pool_after_cancel = w.pool_slots();
  // The freed slots satisfy the next burst without new allocations.
  for (int i = 0; i < 100; ++i) {
    w.write(true, static_cast<Time>(i + 10), DelayKind::kTransport);
  }
  EXPECT_EQ(w.pool_slots(), pool_after_cancel);
  sim.run();
}

}  // namespace
}  // namespace mts::sim
