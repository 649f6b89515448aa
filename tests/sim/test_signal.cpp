#include "sim/signal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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
// watermark; cancelled transactions still recycle their slots. The wire
// starts high so the inertial write is a real change (a settled-value one
// would schedule nothing) and a surviving transport write would show.
TEST(Signal, InertialCancellationRecyclesCancelledSlots) {
  Simulation sim;
  Wire w(sim, "w", true);
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

// --- Settled-value elision ------------------------------------------------
//
// An inertial write of the value the wire already holds cancels every
// pending write but schedules nothing: its commit would change nothing.

TEST(Signal, SettledInertialWriteSchedulesNothing) {
  Simulation sim;
  Wire w(sim, "w", true);
  int changes = 0;
  w.on_change([&](bool, bool) { ++changes; });
  const std::uint64_t before = sim.sched().events_executed();
  w.write(true, 100, DelayKind::kInertial);
  EXPECT_EQ(w.pending_writes(), 0u);
  EXPECT_EQ(w.pool_slots(), 0u);
  sim.run();
  EXPECT_EQ(sim.sched().events_executed(), before);
  EXPECT_TRUE(w.read());
  EXPECT_EQ(changes, 0);
}

TEST(Signal, SettledInertialWriteStillCancelsPendingTransportWrites) {
  Simulation sim;
  Word d(sim, "d", 5);
  int changes = 0;
  d.on_change([&](const std::uint64_t&, const std::uint64_t&) { ++changes; });
  d.write(6, 10, DelayKind::kTransport);
  d.write(7, 20, DelayKind::kTransport);
  EXPECT_EQ(d.pending_writes(), 2u);
  d.write(5, 30, DelayKind::kInertial);  // settled: cancels both
  EXPECT_EQ(d.pending_writes(), 0u);
  sim.run();
  EXPECT_EQ(d.read(), 5u);
  EXPECT_EQ(changes, 0);
}

TEST(Signal, InertialWriteOfNewValueStillPendsAndCommits) {
  Simulation sim;
  Wire w(sim, "w");
  std::vector<Time> rises;
  w.on_rise([&] { rises.push_back(sim.now()); });
  w.write(false, 10, DelayKind::kInertial);  // settled: elided
  w.write(true, 40, DelayKind::kInertial);   // a change: pends
  EXPECT_EQ(w.pending_writes(), 1u);
  sim.run();
  EXPECT_EQ(w.pending_writes(), 0u);
  EXPECT_TRUE(w.read());
  EXPECT_EQ(rises, (std::vector<Time>{40}));
}

// --- The no-mixing guard ----------------------------------------------------
//
// Inside an elided write's window (now() <= the time its commit would have
// run) a set() or transport commit that changes the wire would have been
// overwritten by that commit; the signal throws instead of diverging.

/// Runs `f` and returns the SimulationError message it throws ("" if none).
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const SimulationError& e) {
    return e.what();
  }
  return "";
}

TEST(SignalGuard, SetInsideTheWindowThrowsNamingTheWire) {
  Simulation sim;
  Wire w(sim, "top.q");
  w.write(false, 100, DelayKind::kInertial);  // settled until t=100
  sim.run_until(40);
  const std::string msg = error_of([&] { w.set(true); });
  EXPECT_NE(msg.find("top.q"), std::string::npos) << msg;
  EXPECT_FALSE(w.read());
}

TEST(SignalGuard, SetAtTheWindowEndThrows) {
  Simulation sim;
  Wire w(sim, "top.q");
  w.write(false, 100, DelayKind::kInertial);
  sim.run_until(100);
  EXPECT_NE(error_of([&] { w.set(true); }).find("top.q"), std::string::npos);
}

TEST(SignalGuard, TransportCommitInsideTheWindowThrows) {
  Simulation sim;
  Word d(sim, "top.bus", 3);
  d.write(3, 100, DelayKind::kInertial);  // settled until t=100
  d.write(9, 50, DelayKind::kTransport);  // would have been overwritten
  const std::string msg = error_of([&] { sim.run(); });
  EXPECT_NE(msg.find("top.bus"), std::string::npos) << msg;
}

TEST(SignalGuard, TransportCommitAtTheWindowEndThrows) {
  Simulation sim;
  Word d(sim, "top.bus", 3);
  d.write(3, 100, DelayKind::kInertial);
  d.write(9, 100, DelayKind::kTransport);
  EXPECT_NE(error_of([&] { sim.run(); }).find("top.bus"), std::string::npos);
}

TEST(SignalGuard, NoThrowOnceTheWindowHasPassed) {
  Simulation sim;
  Word d(sim, "d", 3);
  d.write(3, 100, DelayKind::kInertial);
  d.write(9, 101, DelayKind::kTransport);
  sim.run();
  EXPECT_EQ(d.read(), 9u);
  sim.run_until(500);
  d.set(4);
  EXPECT_EQ(d.read(), 4u);
}

TEST(SignalGuard, NoThrowAfterAnInertialWriteThatSchedules) {
  Simulation sim;
  Wire w(sim, "w");
  w.write(false, 100, DelayKind::kInertial);  // settled until t=100
  w.write(true, 10, DelayKind::kInertial);    // schedules: window closed
  sim.run_until(20);
  EXPECT_TRUE(w.read());
  w.set(false);
  EXPECT_FALSE(w.read());
  w.write(true, 5, DelayKind::kTransport);
  sim.run();
  EXPECT_TRUE(w.read());
}

TEST(SignalGuard, UnchangedValueInsideTheWindowIsNoConflict) {
  Simulation sim;
  Wire w(sim, "w");
  w.write(false, 100, DelayKind::kInertial);
  w.write(false, 10, DelayKind::kTransport);
  sim.run_until(50);
  w.set(false);
  sim.run();
  EXPECT_FALSE(w.read());
}

}  // namespace
}  // namespace mts::sim
