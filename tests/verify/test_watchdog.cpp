// Run watchdog: wall-clock deadlines, deadlock-on-drain, and livelock
// detection with stuck-site diagnostics -- synthetic probes first, then the
// two hang shapes reproduced on real FIFO circuits.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sim/simulation.hpp"
#include "sim/watchdog.hpp"
#include "sync/clock.hpp"

namespace mts::sim {
namespace {

/// Pre-schedules a dense batch of no-op events, one every `step` ps up to
/// `until`: "events keep executing" without any token movement.
void busy_loop(Simulation& sim, Time step, Time until) {
  for (Time t = step; t <= until; t += step) sim.sched().after(t, [] {});
}

TEST(Watchdog, WallDeadlineKillsASlowRun) {
  Simulation sim(1);
  Watchdog wd(WatchdogConfig{1e-9, 0, 64});
  wd.watch("driver", [] { return 3u; });
  wd.arm(sim);
  busy_loop(sim, 10, 10'000);
  try {
    sim.run_until(20'000);
    FAIL() << "expected DeadlineError";
  } catch (const DeadlineError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadline"), std::string::npos) << msg;
    EXPECT_NE(msg.find("driver (3 in flight)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("kernel:"), std::string::npos) << msg;
  }
  Watchdog::disarm(sim);
}

TEST(Watchdog, GenerousDeadlinePollsWithoutFiring) {
  Simulation sim(1);
  Watchdog wd(WatchdogConfig{60.0, 0, 16});
  wd.arm(sim);
  busy_loop(sim, 10, 10'000);
  sim.run_until(10'000);  // ~1000 events, ~60 polls
  EXPECT_GT(wd.polls(), 10u);
  Watchdog::disarm(sim);
}

TEST(Watchdog, DrainWithWorkInFlightIsDeadlock) {
  Simulation sim(1);
  Watchdog wd;
  std::uint64_t stuck = 2;
  wd.watch("put-driver", [&stuck] { return stuck; });
  wd.arm(sim);
  sim.sched().after(100, [] {});  // one event, then the queue drains
  try {
    sim.run_until(1'000);
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("put-driver (2 in flight)"), std::string::npos) << msg;
  }
  // Work completes: the same drain is no longer a deadlock.
  stuck = 0;
  sim.sched().after(100, [] {});
  EXPECT_NO_THROW(sim.run_until(2'000));
  Watchdog::disarm(sim);
}

TEST(Watchdog, FrozenProgressWithEventsRunningIsLivelock) {
  Simulation sim(1);
  Watchdog wd(WatchdogConfig{0.0, 1'000, 4});
  wd.watch("station", [] { return 1u; }, [] { return 42u; });  // frozen
  wd.arm(sim);
  busy_loop(sim, 10, 100'000);  // events keep executing...
  try {
    sim.run_until(100'000);  // ...but nothing ever moves
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("livelock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("station (1 in flight)"), std::string::npos) << msg;
  }
  Watchdog::disarm(sim);
}

TEST(Watchdog, AdvancingProgressDefeatsTheLivelockVerdict) {
  Simulation sim(1);
  Watchdog wd(WatchdogConfig{0.0, 1'000, 4});
  std::uint64_t completed = 0;
  // In flight until the last completion lands (a drained queue with work
  // still owed is a deadlock, and rightly so -- see the previous test).
  wd.watch(
      "station", [&completed] { return completed < 100 ? 1u : 0u; },
      [&completed] { return completed; });
  wd.arm(sim);
  busy_loop(sim, 10, 50'000);
  // The protocol moves (slowly): one completion per 500ps beats the
  // 1000ps window.
  for (Time t = 500; t <= 50'000; t += 500) {
    sim.sched().after(t, [&completed] { ++completed; });
  }
  EXPECT_NO_THROW(sim.run_until(50'000));
  EXPECT_EQ(completed, 100u);
  Watchdog::disarm(sim);
}

TEST(Watchdog, IdleInFlightFreeCircuitNeverTrips) {
  Simulation sim(1);
  Watchdog wd(WatchdogConfig{0.0, 1'000, 4});
  wd.watch("sink", [] { return 0u; }, [] { return 0u; });  // nothing owed
  wd.arm(sim);
  busy_loop(sim, 10, 50'000);
  EXPECT_NO_THROW(sim.run_until(50'000));
  Watchdog::disarm(sim);
}

TEST(Watchdog, SimulationResetDisarms) {
  Simulation sim(1);
  Watchdog wd(WatchdogConfig{1e-12, 0, 1});  // would fire instantly
  wd.arm(sim);
  sim.reset(2);
  busy_loop(sim, 10, 10'000);
  EXPECT_NO_THROW(sim.run_until(10'000));  // reset returned the fast path
}

TEST(Watchdog, ErrorTypesFormADiagnosableHierarchy) {
  // Campaign supervision catches WatchdogError (and classifies by the
  // demangled concrete type); harnesses may catch SimulationError.
  EXPECT_THROW(throw DeadlineError("x"), WatchdogError);
  EXPECT_THROW(throw DeadlockError("x"), WatchdogError);
  EXPECT_THROW(throw LivelockError("x"), WatchdogError);
  EXPECT_THROW(throw WatchdogError("x"), SimulationError);
}

TEST(Watchdog, ConfigAndPollAccessors) {
  Watchdog wd(WatchdogConfig{2.5, 300, 128});
  EXPECT_DOUBLE_EQ(wd.config().wall_deadline_sec, 2.5);
  EXPECT_EQ(wd.config().progress_window, 300u);
  EXPECT_EQ(wd.config().poll_interval_events, 128u);
  // Directly drivable from harness loops; the deadline clock only starts at
  // arm(), so use a deadline-free config for the unarmed poll.
  Watchdog free_running(WatchdogConfig{0.0, 0, 128});
  EXPECT_EQ(free_running.polls(), 0u);
  free_running.poll(0);
  EXPECT_EQ(free_running.polls(), 1u);
}

// ---------------------------------------------------- real-circuit hangs --

TEST(Watchdog, StoppedReceiverClockDeadlocksTheAsyncFifo) {
  // An async-sync FIFO whose get clock never ticks: the async sender fills
  // the capacity, the next handshake's ack is withheld, every event
  // eventually drains -- the classic mixed-timing deadlock, diagnosed at
  // the drain with the stuck occupancy named.
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sim::Wire dead_clk(sim, "dead_clk", false);  // never toggles
  fifo::AsyncSyncFifo dut(sim, "dut", cfg, dead_clk);
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, gp / 2, 0xFF, nullptr);
  Watchdog wd;
  wd.watch("dut.occupancy", [&dut] { return dut.occupancy(); });
  wd.arm(sim);
  try {
    sim.run_until(1'000 * gp);
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dut.occupancy"), std::string::npos) << msg;
  }
  EXPECT_GT(dut.occupancy(), 0u);
  Watchdog::disarm(sim);
}

TEST(Watchdog, HealthyFifoTrafficPassesUnderAnArmedWatchdog) {
  // The same watchdog riding a healthy run must stay quiet end to end.
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, gp / 2, 0xFF, &sb);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {1.0, 1});
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  Watchdog wd(WatchdogConfig{30.0, 100 * gp, 256});
  wd.watch(
      "dut.occupancy", [&dut] { return dut.occupancy(); },
      [&gm] { return gm.dequeued(); });
  wd.arm(sim);
  EXPECT_NO_THROW(sim.run_until(4 * gp + 300 * gp));
  EXPECT_GT(gm.dequeued(), 50u);
  EXPECT_EQ(sb.errors(), 0u);
  Watchdog::disarm(sim);
}

}  // namespace
}  // namespace mts::sim
