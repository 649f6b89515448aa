#include "fifo/mixed_timing_fifo.hpp"

#include <gtest/gtest.h>

#include "fifo/interface_sides.hpp"

#include "bfm/bfm.hpp"
#include "metrics/experiments.hpp"
#include "sync/clock.hpp"

namespace mts::fifo {
namespace {

using sim::Time;

FifoConfig small_cfg(unsigned capacity = 4, unsigned width = 8) {
  FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  return cfg;
}

/// Harness with comfortably slow clocks (2x the critical path) so tests
/// exercise protocol logic, not timing margins.
struct Harness {
  sim::Simulation sim{1};
  FifoConfig cfg;
  Time put_p;
  Time get_p;
  sync::Clock clk_put;
  sync::Clock clk_get;
  MixedClockFifo dut;
  bfm::Scoreboard sb{sim, "sb"};
  bfm::PutMonitor put_mon;
  bfm::GetMonitor get_mon;

  explicit Harness(const FifoConfig& c, double get_ratio = 1.0)
      : cfg(c),
        put_p(2 * SyncPutSide::min_period(c)),
        get_p(static_cast<Time>(2 * get_ratio *
                                static_cast<double>(SyncGetSide::min_period(c)))),
        clk_put(sim, "clk_put", {put_p, 4 * put_p, 0.5, 0}),
        clk_get(sim, "clk_get", {get_p, 4 * put_p + get_p / 3, 0.5, 0}),
        dut(sim, "dut", c, clk_put.out(), clk_get.out()),
        put_mon(sim, clk_put.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                sb),
        get_mon(sim, clk_get.out(), dut.valid_get(), dut.data_get(), sb) {}

  /// Runs until time t (absolute).
  void run_to(Time t) { sim.run_until(t); }
  Time start() const { return 4 * put_p; }
};

TEST(MixedClockFifo, ConfigValidation) {
  sim::Simulation sim;
  sync::Clock cp(sim, "cp", {1000, 0, 0.5, 0});
  sync::Clock cg(sim, "cg", {1000, 0, 0.5, 0});
  FifoConfig bad = small_cfg();
  bad.capacity = 1;
  EXPECT_THROW(MixedClockFifo(sim, "f", bad, cp.out(), cg.out()), ConfigError);
  bad = small_cfg();
  bad.width = 0;
  EXPECT_THROW(MixedClockFifo(sim, "f", bad, cp.out(), cg.out()), ConfigError);
  bad.width = 65;
  EXPECT_THROW(MixedClockFifo(sim, "f", bad, cp.out(), cg.out()), ConfigError);
}

TEST(MixedClockFifo, StartsEmpty) {
  Harness h(small_cfg());
  h.run_to(h.start() + 4 * h.put_p);
  EXPECT_EQ(h.dut.occupancy(), 0u);
  EXPECT_TRUE(h.dut.empty().read());
  EXPECT_FALSE(h.dut.full().read());
}

TEST(MixedClockFifo, SinglePutRaisesOccupancy) {
  Harness h(small_cfg());
  const Time react = h.cfg.dm.flop.clk_to_q + 1;
  const Time edge = h.start() + 8 * h.put_p;
  h.sim.sched().at(edge + react, [&] {
    h.dut.data_put().set(0x42);
    h.dut.req_put().set(true);
    h.sb.push(0x42);
  });
  h.sim.sched().at(edge + h.put_p + react, [&] { h.dut.req_put().set(false); });
  h.run_to(edge + 6 * h.put_p);
  EXPECT_EQ(h.dut.occupancy(), 1u);
  EXPECT_TRUE(h.dut.cell_f(0).read());
  EXPECT_EQ(h.put_mon.enqueued(), 1u);
}

TEST(MixedClockFifo, PutThenGetDeliversData) {
  Harness h(small_cfg());
  bfm::SyncGetDriver get_drv(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                             h.cfg.dm, bfm::RateConfig{1.0, 1});
  const Time react = h.cfg.dm.flop.clk_to_q + 1;
  const Time edge = h.start() + 8 * h.put_p;
  h.sim.sched().at(edge + react, [&] {
    h.dut.data_put().set(0x42);
    h.dut.req_put().set(true);
    h.sb.push(0x42);
  });
  h.sim.sched().at(edge + h.put_p + react, [&] { h.dut.req_put().set(false); });

  h.run_to(edge + 20 * h.get_p);
  EXPECT_EQ(h.get_mon.dequeued(), 1u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.occupancy(), 0u);
  EXPECT_TRUE(h.dut.empty().read());
}

TEST(MixedClockFifo, FillsToApparentCapacityAndAssertsFull) {
  Harness h(small_cfg(4));
  bfm::SyncPutDriver put_drv(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                             h.dut.data_put(), h.dut.full(), h.cfg.dm,
                             bfm::RateConfig{1.0, 1}, 0xFF);
  // No gets: the FIFO fills. The anticipating detector declares full with
  // one empty cell left (Section 3.2); the synchronizer latency lets
  // exactly one more in-flight put land in that reserved cell, so the FIFO
  // tops out at n items with no overwrite.
  h.run_to(h.start() + 30 * h.put_p);
  EXPECT_TRUE(h.dut.full().read());
  EXPECT_EQ(h.dut.occupancy(), 4u);
  EXPECT_EQ(h.put_mon.enqueued(), 4u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
}

TEST(MixedClockFifo, DrainsAfterFillAndReturnsToEmpty) {
  Harness h(small_cfg(4));
  bfm::SyncPutDriver put_drv(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                             h.dut.data_put(), h.dut.full(), h.cfg.dm,
                             bfm::RateConfig{1.0, 1}, 0xFF);
  h.run_to(h.start() + 30 * h.put_p);
  put_drv.set_enabled(false);
  bfm::SyncGetDriver get_drv(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                             h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.run_to(h.start() + 80 * h.put_p);
  EXPECT_EQ(h.dut.occupancy(), 0u);
  EXPECT_TRUE(h.dut.empty().read());
  EXPECT_EQ(h.get_mon.dequeued(), 4u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(MixedClockFifo, SaturatedTrafficPreservesOrderAndData) {
  Harness h(small_cfg(8));
  bfm::SyncPutDriver put_drv(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                             h.dut.data_put(), h.dut.full(), h.cfg.dm,
                             bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::SyncGetDriver get_drv(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                             h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.run_to(h.start() + 400 * h.put_p);
  EXPECT_GT(h.get_mon.dequeued(), 100u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(MixedClockFifo, FastProducerSlowConsumer) {
  Harness h(small_cfg(4), 3.0);  // get clock 3x slower
  bfm::SyncPutDriver put_drv(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                             h.dut.data_put(), h.dut.full(), h.cfg.dm,
                             bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::SyncGetDriver get_drv(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                             h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.run_to(h.start() + 600 * h.put_p);
  EXPECT_GT(h.get_mon.dequeued(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(MixedClockFifo, SlowProducerFastConsumer) {
  // get clock at 1.2x its minimum period: still much faster than the put
  // clock (which runs at 2x its own minimum).
  Harness h(small_cfg(4), 0.6);
  bfm::SyncPutDriver put_drv(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                             h.dut.data_put(), h.dut.full(), h.cfg.dm,
                             bfm::RateConfig{0.5, 1}, 0xFF);
  bfm::SyncGetDriver get_drv(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                             h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.run_to(h.start() + 600 * h.put_p);
  EXPECT_GT(h.get_mon.dequeued(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(MixedClockFifo, NoDeadlockWithSingleResidentItem) {
  // The bi-modal detector's reason for existing (Section 3.2): put ONE item
  // with no get request pending, then request -- the oe path must unblock
  // the receiver.
  Harness h(small_cfg(4));
  const Time react = h.cfg.dm.flop.clk_to_q + 1;
  const Time edge = h.start() + 8 * h.put_p;
  h.sim.sched().at(edge + react, [&] {
    h.dut.data_put().set(0x17);
    h.dut.req_put().set(true);
    h.sb.push(0x17);
  });
  h.sim.sched().at(edge + h.put_p + react, [&] { h.dut.req_put().set(false); });

  // Only now does the receiver start requesting.
  h.sim.sched().at(edge + 10 * h.get_p, [&] { h.dut.req_get().set(true); });

  h.run_to(edge + 40 * h.get_p);
  EXPECT_EQ(h.get_mon.dequeued(), 1u) << "bi-modal detector failed to release "
                                         "the last item (deadlock)";
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(MixedClockFifo, StaticTimingOrdering) {
  // Structural facts Table 1 reflects: get slower than put; capacity and
  // width both slow the interfaces down.
  const FifoConfig c48 = small_cfg(4, 8);
  EXPECT_LT(SyncPutSide::min_period(c48), SyncGetSide::min_period(c48));
  EXPECT_LT(SyncPutSide::min_period(small_cfg(4, 8)),
            SyncPutSide::min_period(small_cfg(16, 8)));
  EXPECT_LT(SyncPutSide::min_period(small_cfg(4, 8)),
            SyncPutSide::min_period(small_cfg(4, 16)));
  EXPECT_LT(SyncGetSide::min_period(small_cfg(4, 8)),
            SyncGetSide::min_period(small_cfg(16, 8)));
}

}  // namespace
}  // namespace mts::fifo
