// Bundled-data timing violations on the asynchronous put interface.
//
// The 4-phase bundling convention (Fig. 3b) promises data stable before
// req+; the matched-delay margin is the latch-transparency interval
// documented by fifo::async_put_data_margin(). A BundlingFault lags the
// data behind the request; the protocol must absorb any lag below the
// margin and must corrupt once the lag clearly exceeds it -- there is no
// graceful degradation past the documented bound, which is the paper's
// argument for why bundled data needs timing validation while the
// handshake itself is delay-insensitive.
#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/async_timing.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sim/fault.hpp"
#include "sync/clock.hpp"

#include "fault_test_util.hpp"

namespace mts::fifo {
namespace {

using sim::Time;

struct BundleHarness {
  FifoConfig cfg;
  sim::Simulation sim;
  Time gp;
  sync::Clock cg;
  AsyncSyncFifo dut;
  bfm::Scoreboard sb;
  bfm::AsyncPutDriver put;
  bfm::SyncGetDriver get;
  bfm::GetMonitor gm;

  static FifoConfig make_cfg() {
    FifoConfig cfg;
    cfg.capacity = 4;
    cfg.width = 8;
    return cfg;
  }

  explicit BundleHarness(std::uint64_t seed)
      : cfg(make_cfg()),
        sim(seed),
        gp(2 * SyncGetSide::min_period(cfg)),
        cg(sim, "cg", {gp, 4 * gp, 0.5, 0}),
        dut(sim, "dut", cfg, cg.out()),
        sb(sim, "sb"),
        put(sim, "put", dut.put_req(), dut.put_ack(), dut.put_data(), cfg.dm,
            gp / 2, 0xFF, &sb),
        get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1}),
        gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb) {}

  void soak(unsigned cycles) { sim.run_until(4 * gp + cycles * gp); }
};

TEST(BundledData, MarginIsPositiveAndStructural) {
  const FifoConfig cfg = BundleHarness::make_cfg();
  const Time margin = async_put_data_margin(cfg);
  EXPECT_GT(margin, 0);
  // The margin spans at least one full request forward path; it must grow
  // with capacity (wider broadcast + deeper ack tree) and width (heavier
  // we load).
  FifoConfig big = cfg;
  big.capacity = 16;
  EXPECT_GT(async_put_data_margin(big), margin);
  big = cfg;
  big.width = 64;
  EXPECT_GT(async_put_data_margin(big), margin);
}

TEST(BundledData, LagWithinMarginIsAbsorbed) {
  const std::uint64_t seed = faulttest::fault_seed(0xB0D1);
  BundleHarness h(seed);
  const Time margin = async_put_data_margin(h.cfg);
  sim::FaultPlan plan(seed);
  plan.inject_bundling("put", sim::BundlingFault{margin / 2});
  h.sim.arm_faults(&plan);
  h.soak(200);
  EXPECT_GT(h.gm.dequeued(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u)
      << plan.describe() << "\n"
      << faulttest::repro_hint("BundledData.LagWithinMarginIsAbsorbed", seed);
  EXPECT_GT(plan.count("bundling.lag"), 0u);
}

TEST(BundledData, LagJustBelowMarginIsAbsorbed) {
  const std::uint64_t seed = faulttest::fault_seed(0xB0D2);
  BundleHarness h(seed);
  const Time margin = async_put_data_margin(h.cfg);
  // One latch d-to-q inside the bound: the last lag the latch still
  // captures before we- cuts it off.
  sim::FaultPlan plan(seed);
  plan.inject_bundling("put", sim::BundlingFault{margin - h.cfg.dm.latch_d_to_q});
  h.sim.arm_faults(&plan);
  h.soak(200);
  EXPECT_GT(h.gm.dequeued(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u)
      << plan.describe() << "\n"
      << faulttest::repro_hint("BundledData.LagJustBelowMarginIsAbsorbed",
                               seed);
}

TEST(BundledData, LagPastMarginCorruptsEveryItem) {
  const std::uint64_t seed = faulttest::fault_seed(0xB0D3);
  BundleHarness h(seed);
  const Time margin = async_put_data_margin(h.cfg);
  // Two gate delays past the bound: the latch has provably closed.
  sim::FaultPlan plan(seed);
  plan.inject_bundling("put",
                       sim::BundlingFault{margin + 2 * h.cfg.dm.gate(1)});
  h.sim.arm_faults(&plan);
  h.soak(200);
  ASSERT_GT(h.gm.dequeued(), 50u);
  // Every item whose predecessor differed arrives stale: the scoreboard
  // flags (nearly) all of them, not an occasional glitch.
  EXPECT_GT(h.sb.errors(), h.gm.dequeued() / 2)
      << plan.describe() << "\n"
      << faulttest::repro_hint("BundledData.LagPastMarginCorruptsEveryItem",
                               seed);
}

TEST(BundledData, UnarmedSimulationIsUnaffectedByTheHook) {
  // Same harness, no plan armed: the hook's branch must not change
  // behaviour (the golden-waveform test pins bit-identical traces; this
  // pins the protocol outcome).
  BundleHarness h(1);
  h.soak(200);
  EXPECT_GT(h.gm.dequeued(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

}  // namespace
}  // namespace mts::fifo
