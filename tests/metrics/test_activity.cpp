#include "metrics/activity.hpp"

#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/baseline_shift_fifo.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sync/clock.hpp"

namespace mts::metrics {
namespace {

TEST(ActivityMeter, CountsWireTransitions) {
  sim::Simulation sim;
  sim::Wire w(sim, "w");
  ActivityMeter m;
  m.watch(w, 2.5);
  w.set(true);
  w.set(false);
  w.set(true);
  EXPECT_EQ(m.transitions(), 3u);
  EXPECT_DOUBLE_EQ(m.weighted_activity(), 7.5);
  m.reset();
  EXPECT_EQ(m.transitions(), 0u);
}

TEST(ActivityMeter, CountsHammingDistanceOnWords) {
  sim::Simulation sim;
  sim::Word d(sim, "d", 0);
  ActivityMeter m;
  m.watch(d, 1.0);
  d.set(0xFF);        // 8 bits flip
  d.set(0xF0);        // 4 bits flip
  d.set(0xF0);        // no change: no event
  EXPECT_EQ(m.transitions(), 12u);
}

TEST(DataMoves, TokenRingWritesOncePerItem) {
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  sim::Simulation sim(1);
  const sim::Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const sim::Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                     sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {0.7, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1});
  sim.run_until(4 * pp + 400 * pp);
  EXPECT_EQ(dut.data_moves(), sb.pushed());
}

TEST(DataMoves, BaselinePaysOneWritePerStage) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const sim::Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const sim::Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::BaselineShiftFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::GetMonitor mon(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1});
  sim.run_until(4 * pp + 500 * pp);
  ASSERT_GT(mon.dequeued(), 50u);
  const double per_item = static_cast<double>(dut.data_moves()) /
                          static_cast<double>(mon.dequeued());
  // Insert + 3 hops to traverse a 4-stage pipeline.
  EXPECT_NEAR(per_item, 4.0, 0.5);
}

}  // namespace
}  // namespace mts::metrics
