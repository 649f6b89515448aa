#include "fifo/mixed_timing_fifo.hpp"

#include <gtest/gtest.h>

#include "bfm/bfm.hpp"

namespace mts::fifo {
namespace {

FifoConfig small_cfg(unsigned capacity = 4, unsigned width = 8) {
  FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  return cfg;
}

TEST(AsyncAsyncFifo, StartsIdle) {
  sim::Simulation sim;
  AsyncAsyncFifo dut(sim, "dut", small_cfg());
  sim.run_until(10000);
  EXPECT_EQ(dut.occupancy(), 0u);
  EXPECT_FALSE(dut.put_ack().read());
  EXPECT_FALSE(dut.get_ack().read());
}

TEST(AsyncAsyncFifo, FullySelfTimedRoundTrip) {
  sim::Simulation sim(1);
  FifoConfig cfg = small_cfg(8);
  AsyncAsyncFifo dut(sim, "dut", cfg);
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 0, 0xFF, &sb);
  bfm::AsyncGetDriver get(sim, "get", dut.get_req(), dut.get_ack(),
                          dut.get_data(), cfg.dm, 0, &sb);
  sim.run_until(2'000'000);  // 2us of free-running handshakes
  EXPECT_GT(get.completed(), 200u);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(dut.overflow_count(), 0u);
  EXPECT_EQ(dut.underflow_count(), 0u);
}

TEST(AsyncAsyncFifo, GetBlocksOnEmptyPutBlocksOnFull) {
  sim::Simulation sim(1);
  FifoConfig cfg = small_cfg(4);
  AsyncAsyncFifo dut(sim, "dut", cfg);
  bfm::Scoreboard sb(sim, "sb");

  // Reader first: must hang.
  bfm::AsyncGetDriver get(sim, "get", dut.get_req(), dut.get_ack(),
                          dut.get_data(), cfg.dm, 0, &sb);
  sim.run_until(100'000);
  EXPECT_EQ(get.completed(), 0u);
  EXPECT_TRUE(dut.get_req().read());

  // Writer appears and saturates: reader unblocks; writer eventually rides
  // the full boundary.
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 0, 0xFF, &sb);
  sim.run_until(2'000'000);
  EXPECT_GT(get.completed(), 100u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(AsyncAsyncFifo, FillsCompletelyThenStops) {
  sim::Simulation sim(1);
  FifoConfig cfg = small_cfg(4);
  AsyncAsyncFifo dut(sim, "dut", cfg);
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 0, 0xFF, &sb);
  sim.run_until(1'000'000);
  // No detectors on a purely asynchronous FIFO: every cell fills.
  EXPECT_EQ(dut.occupancy(), 4u);
  EXPECT_EQ(put.completed(), 4u);
  EXPECT_TRUE(dut.put_req().read());   // fifth put pending
  EXPECT_FALSE(dut.put_ack().read());  // ...unacknowledged
  EXPECT_EQ(dut.overflow_count(), 0u);
}

TEST(AsyncAsyncFifo, MismatchedRatesPreserveOrder) {
  sim::Simulation sim(7);
  FifoConfig cfg = small_cfg(4);
  AsyncAsyncFifo dut(sim, "dut", cfg);
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 12'000, 0xFF, &sb);
  bfm::AsyncGetDriver get(sim, "get", dut.get_req(), dut.get_ack(),
                          dut.get_data(), cfg.dm, 1'000, &sb);
  sim.run_until(3'000'000);
  EXPECT_GT(get.completed(), 100u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(AsyncAsyncFifo, RelayStationVariantRejected) {
  sim::Simulation sim;
  FifoConfig cfg = small_cfg();
  cfg.controller = ControllerKind::kRelayStation;
  EXPECT_THROW(AsyncAsyncFifo(sim, "f", cfg), ConfigError);
}

}  // namespace
}  // namespace mts::fifo
