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
  Time put_p;
  sync::Clock clk_put;
  SyncAsyncFifo dut;
  bfm::Scoreboard sb{sim, "sb"};
  bfm::PutMonitor put_mon;

  explicit Harness(const FifoConfig& c)
      : cfg(c),
        put_p(2 * SyncPutSide::min_period(c)),
        clk_put(sim, "clk_put", {put_p, 4 * put_p, 0.5, 0}),
        dut(sim, "dut", c, clk_put.out()),
        put_mon(sim, clk_put.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                sb) {}

  Time start() const { return 4 * put_p; }
};

TEST(SyncAsyncFifo, StartsEmpty) {
  Harness h(small_cfg());
  h.sim.run_until(h.start() + 4 * h.put_p);
  EXPECT_EQ(h.dut.occupancy(), 0u);
  EXPECT_FALSE(h.dut.full().read());
  EXPECT_FALSE(h.dut.get_ack().read());
}

TEST(SyncAsyncFifo, SyncPutAsyncGetRoundTrip) {
  Harness h(small_cfg());
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::AsyncGetDriver get(h.sim, "get", h.dut.get_req(), h.dut.get_ack(),
                          h.dut.get_data(), h.cfg.dm, 0, &h.sb);
  h.sim.run_until(h.start() + 300 * h.put_p);
  EXPECT_GT(get.completed(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(SyncAsyncFifo, AckWithheldWhenEmpty) {
  Harness h(small_cfg());
  bfm::AsyncGetDriver get(h.sim, "get", h.dut.get_req(), h.dut.get_ack(),
                          h.dut.get_data(), h.cfg.dm, 0, &h.sb);
  h.sim.run_until(h.start() + 20 * h.put_p);
  // No data ever enqueued: the receiver's request hangs unacknowledged.
  EXPECT_EQ(get.completed(), 0u);
  EXPECT_TRUE(h.dut.get_req().read());
  EXPECT_FALSE(h.dut.get_ack().read());

  // A put arrives: the pending get completes.
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  h.sim.run_until(h.start() + 40 * h.put_p);
  EXPECT_GT(get.completed(), 0u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(SyncAsyncFifo, FullStallsTheSynchronousSender) {
  Harness h(small_cfg(4));
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  h.sim.run_until(h.start() + 40 * h.put_p);
  EXPECT_TRUE(h.dut.full().read());
  EXPECT_EQ(h.dut.occupancy(), 4u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
}

TEST(SyncAsyncFifo, SlowReaderBackpressure) {
  Harness h(small_cfg(4));
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::AsyncGetDriver get(h.sim, "get", h.dut.get_req(), h.dut.get_ack(),
                          h.dut.get_data(), h.cfg.dm, 6 * h.put_p, &h.sb);
  h.sim.run_until(h.start() + 400 * h.put_p);
  EXPECT_GT(get.completed(), 30u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
}

TEST(SyncAsyncFifo, RelayStationVariantRejected) {
  sim::Simulation sim;
  sync::Clock clk(sim, "clk", {1000, 0, 0.5, 0});
  FifoConfig cfg = small_cfg();
  cfg.controller = ControllerKind::kRelayStation;
  EXPECT_THROW(SyncAsyncFifo(sim, "f", cfg, clk.out()), ConfigError);
}

}  // namespace
}  // namespace mts::fifo
