#include "fifo/mixed_timing_fifo.hpp"

#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
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

struct Harness {
  sim::Simulation sim{1};
  FifoConfig cfg;
  Time get_p;
  sync::Clock clk_get;
  AsyncSyncFifo dut;
  bfm::Scoreboard sb{sim, "sb"};
  bfm::GetMonitor get_mon;

  explicit Harness(const FifoConfig& c, double get_scale = 2.0)
      : cfg(c),
        get_p(static_cast<Time>(get_scale *
                                static_cast<double>(SyncGetSide::min_period(c)))),
        clk_get(sim, "clk_get", {get_p, 4 * get_p, 0.5, 0}),
        dut(sim, "dut", c, clk_get.out()),
        get_mon(sim, clk_get.out(), dut.valid_get(), dut.data_get(), sb) {}

  Time start() const { return 4 * get_p; }
};

TEST(AsyncSyncFifo, StartsEmptyAndAckIdle) {
  Harness h(small_cfg());
  h.sim.run_until(h.start() + 4 * h.get_p);
  EXPECT_EQ(h.dut.occupancy(), 0u);
  EXPECT_TRUE(h.dut.empty().read());
  EXPECT_FALSE(h.dut.put_ack().read());
}

TEST(AsyncSyncFifo, SingleHandshakeEnqueues) {
  Harness h(small_cfg());
  bfm::AsyncPutDriver put(h.sim, "put", h.dut.put_req(), h.dut.put_ack(),
                          h.dut.put_data(), h.cfg.dm,
                          bfm::AsyncPutDriver::kManual, 0xFF, &h.sb);
  h.sim.sched().at(h.start() + 2 * h.get_p, [&] { put.issue_one(); });
  h.sim.run_until(h.start() + 8 * h.get_p);
  EXPECT_EQ(put.completed(), 1u);
  EXPECT_EQ(h.dut.occupancy(), 1u);
  EXPECT_FALSE(h.dut.put_req().read());  // 4-phase fully reset
  EXPECT_FALSE(h.dut.put_ack().read());
}

TEST(AsyncSyncFifo, PutThenSyncGetDeliversData) {
  Harness h(small_cfg());
  bfm::AsyncPutDriver put(h.sim, "put", h.dut.put_req(), h.dut.put_ack(),
                          h.dut.put_data(), h.cfg.dm,
                          bfm::AsyncPutDriver::kManual, 0xFF, &h.sb);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.sim.sched().at(h.start() + 2 * h.get_p, [&] { put.issue_one(); });
  h.sim.run_until(h.start() + 20 * h.get_p);
  EXPECT_EQ(h.get_mon.dequeued(), 1u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.occupancy(), 0u);
}

TEST(AsyncSyncFifo, AckWithheldWhenFull) {
  Harness h(small_cfg(4));
  // Saturating sender, no receiver: the FIFO fills and then withholds ack.
  bfm::AsyncPutDriver put(h.sim, "put", h.dut.put_req(), h.dut.put_ack(),
                          h.dut.put_data(), h.cfg.dm, 0, 0xFF, &h.sb);
  h.sim.run_until(h.start() + 40 * h.get_p);
  EXPECT_EQ(h.dut.occupancy(), 4u);
  EXPECT_EQ(put.completed(), 4u);
  EXPECT_TRUE(h.dut.put_req().read());  // request pending, unacknowledged
  EXPECT_FALSE(h.dut.put_ack().read());
  EXPECT_EQ(h.dut.overflow_count(), 0u);

  // A receiver appears: space frees, the pending put completes.
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.sim.run_until(h.start() + 80 * h.get_p);
  EXPECT_GT(put.completed(), 4u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(AsyncSyncFifo, SaturatedTrafficPreservesOrder) {
  Harness h(small_cfg(8));
  bfm::AsyncPutDriver put(h.sim, "put", h.dut.put_req(), h.dut.put_ack(),
                          h.dut.put_data(), h.cfg.dm, 0, 0xFF, &h.sb);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.sim.run_until(h.start() + 500 * h.get_p);
  EXPECT_GT(h.get_mon.dequeued(), 100u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(AsyncSyncFifo, BurstySenderRandomReceiver) {
  Harness h(small_cfg(4));
  bfm::AsyncPutDriver put(h.sim, "put", h.dut.put_req(), h.dut.put_ack(),
                          h.dut.put_data(), h.cfg.dm, 3 * h.get_p, 0xFF, &h.sb);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{0.3, 1});
  h.sim.run_until(h.start() + 600 * h.get_p);
  EXPECT_GT(h.get_mon.dequeued(), 30u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(AsyncSyncFifo, TokenRingWrapsAround) {
  // More handshakes than cells: the put token must circulate the ring.
  Harness h(small_cfg(4));
  bfm::AsyncPutDriver put(h.sim, "put", h.dut.put_req(), h.dut.put_ack(),
                          h.dut.put_data(), h.cfg.dm, h.get_p / 2, 0xFF, &h.sb);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.sim.run_until(h.start() + 200 * h.get_p);
  EXPECT_GT(put.completed(), 12u);  // at least three laps of a 4-cell ring
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(AsyncSyncFifo, NoDeadlockWithSingleResidentItem) {
  Harness h(small_cfg(4));
  bfm::AsyncPutDriver put(h.sim, "put", h.dut.put_req(), h.dut.put_ack(),
                          h.dut.put_data(), h.cfg.dm,
                          bfm::AsyncPutDriver::kManual, 0xFF, &h.sb);
  h.sim.sched().at(h.start() + 2 * h.get_p, [&] { put.issue_one(); });
  // The receiver only starts requesting after the item has settled.
  h.sim.sched().at(h.start() + 12 * h.get_p,
                   [&] { h.dut.req_get().set(true); });
  h.sim.run_until(h.start() + 40 * h.get_p);
  EXPECT_EQ(h.get_mon.dequeued(), 1u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(AsyncSyncFifo, RejectsBadConfig) {
  sim::Simulation sim;
  sync::Clock clk(sim, "clk", {1000, 0, 0.5, 0});
  FifoConfig bad = small_cfg();
  bad.capacity = 0;
  EXPECT_THROW(AsyncSyncFifo(sim, "f", bad, clk.out()), ConfigError);
}

TEST(AsyncSyncFifo, GetMinPeriodMatchesMixedClock) {
  // Table 1: identical get columns for the mixed-clock and async-sync
  // designs -- the get half is literally the same block.
  const FifoConfig cfg = small_cfg(8, 16);
  sim::Simulation sim;
  sync::Clock clk(sim, "clk", {1000, 0, 0.5, 0});
  AsyncSyncFifo f(sim, "f", cfg, clk.out());
  EXPECT_EQ(f.get_min_period(), SyncGetSide::min_period(cfg));
}

}  // namespace
}  // namespace mts::fifo
