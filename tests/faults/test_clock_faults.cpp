// Clock fault injection: PVT drift and extra cycle-to-cycle jitter, and the
// mixed-clock FIFO's tolerance of both (the design makes NO assumption
// about the relationship between the two clocks, so perturbing them must
// never corrupt data -- only shift throughput).
#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sim/fault.hpp"
#include "sync/clock.hpp"

#include "fault_test_util.hpp"

namespace mts::sync {
namespace {

using sim::Time;

std::uint64_t edges_over(double drift, Time extra_jitter, std::uint64_t seed) {
  sim::Simulation sim(seed);
  sim::FaultPlan plan(seed);
  if (drift != 1.0 || extra_jitter != 0) {
    plan.inject_clock("clk", sim::ClockFault{extra_jitter, drift});
    sim.arm_faults(&plan);
  }
  Clock clk(sim, "clk", {1000, 0, 0.5, 0});
  sim.run_until(1'000'000);
  return clk.edges();
}

TEST(ClockFaults, UnarmedClockTicksAtTheNominalRate) {
  // Edges at t = 0, 1000, ..., 1'000'000 inclusive.
  EXPECT_EQ(edges_over(1.0, 0, 7), 1001u);
}

TEST(ClockFaults, DriftStretchesThePeriod) {
  const std::uint64_t slow = edges_over(1.25, 0, 7);
  // 1000 cycles at 1250ps each -> 800 edges.
  EXPECT_GE(slow, 798u);
  EXPECT_LE(slow, 802u);
  const std::uint64_t fast = edges_over(0.8, 0, 7);
  EXPECT_GE(fast, 1248u);
  EXPECT_LE(fast, 1252u);
}

TEST(ClockFaults, ExtraJitterPreservesTheMeanRate) {
  const std::uint64_t seed = faulttest::fault_seed(0xC10C);
  const std::uint64_t n = edges_over(1.0, 200, seed);
  // Uniform +/-200ps on a 1000ps period: the mean period is unchanged, so
  // the count stays within a few percent over 1000 cycles.
  EXPECT_GT(n, 960u);
  EXPECT_LT(n, 1040u);
}

TEST(ClockFaults, PeriodFloorKeepsExtremeDriftAlive) {
  // drift 0.01 would ask for a 10ps period; the floor clamps at period/4+1
  // so the clock neither deadlocks nor floods the queue unboundedly.
  const std::uint64_t n = edges_over(0.01, 0, 7);
  EXPECT_GE(n, 3900u);  // 1e6 / 251
  EXPECT_LE(n, 4000u);
}

TEST(ClockFaults, PerturbationsAreCountedAndDescribed) {
  sim::Simulation sim(5);
  sim::FaultPlan plan(5);
  plan.inject_clock("clk_get", sim::ClockFault{150, 1.1});
  sim.arm_faults(&plan);
  Clock cp(sim, "clk_put", {1000, 0, 0.5, 0});
  Clock cg(sim, "clk_get", {1000, 0, 0.5, 0});
  sim.run_until(100'000);
  EXPECT_EQ(plan.count("clock.perturb"), cg.edges());
  EXPECT_EQ(cp.edges(), 101u);  // untargeted clock unaffected (t=0..1e5)
  EXPECT_NE(plan.describe().find("clock[clk_get]"), std::string::npos);
}

TEST(ClockFaults, MixedClockFifoSurvivesDriftAndJitterOnBothClocks) {
  // The robustness half of the claim: drifting, jittering clocks change
  // *rates*, never *data*. Invariants hold through a long soak.
  const std::uint64_t seed = faulttest::fault_seed(0xC10D);
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(seed);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sim::FaultPlan plan(seed);
  // Put clock drifts 8% slow; get clock jitters by 5% of its period. Both
  // stay well above the design minimum, mimicking PVT corners rather than
  // a broken clock tree.
  plan.inject_clock("clk_put", sim::ClockFault{0, 1.08});
  plan.inject_clock("clk_get", sim::ClockFault{gp / 20, 1.0});
  sim.arm_faults(&plan);
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                     sb);
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {0.9, 1});
  sim.run_until(4 * pp + 1500 * pp);
  const std::string diag =
      plan.describe() + "\n" +
      faulttest::repro_hint(
          "ClockFaults.MixedClockFifoSurvivesDriftAndJitterOnBothClocks",
          seed);
  EXPECT_GT(gm.dequeued(), 500u) << diag;
  EXPECT_EQ(sb.errors(), 0u) << diag;
  EXPECT_EQ(dut.overflow_count(), 0u) << diag;
  EXPECT_EQ(dut.underflow_count(), 0u) << diag;
  EXPECT_GT(plan.count("clock.perturb"), 1000u);
}

}  // namespace
}  // namespace mts::sync
