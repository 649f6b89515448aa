// The testbench assembles each side's stimulus from the side kind and the
// controller (metrics/testbench.hpp's table), and a saturated run through
// it moves data on every design.
#include "metrics/testbench.hpp"

#include <gtest/gtest.h>

#include "sim/error.hpp"

namespace mts::metrics {
namespace {

fifo::FifoConfig cfg_of(fifo::ControllerKind controller) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  cfg.controller = controller;
  return cfg;
}

constexpr Side kPut{4'000, 8'000};
constexpr Side kGet{4'000, 9'000};

TEST(Testbench, SyncSidesGetMonitorsAndDriversInFifoMode) {
  sim::Simulation sim(1);
  Testbench<fifo::MixedClockFifo> tb(sim, cfg_of(fifo::ControllerKind::kFifo),
                                     kPut, kGet);
  EXPECT_TRUE(tb.clk_put && tb.clk_get);
  EXPECT_TRUE(tb.put_mon && tb.put_drv && tb.get_mon && tb.get_drv);
  EXPECT_FALSE(tb.rs_source || tb.rs_sink || tb.async_put || tb.async_get);
  sim.run_until(200'000);
  EXPECT_GT(tb.delivered(), 20u);
  EXPECT_EQ(tb.sb.errors(), 0u);
  EXPECT_EQ(tb.last_delivery(), tb.get_mon->last_dequeue_time());
}

TEST(Testbench, SyncSidesGetSourceAndSinkInRelayStationMode) {
  sim::Simulation sim(1);
  Testbench<fifo::MixedClockFifo> tb(
      sim, cfg_of(fifo::ControllerKind::kRelayStation), kPut, kGet);
  EXPECT_TRUE(tb.rs_source && tb.rs_sink);
  EXPECT_FALSE(tb.put_mon || tb.put_drv || tb.get_mon || tb.get_drv);
  sim.run_until(200'000);
  EXPECT_GT(tb.delivered(), 20u);
  EXPECT_EQ(tb.delivered(), tb.rs_sink->received_valid());
  EXPECT_EQ(tb.sb.errors(), 0u);
}

TEST(Testbench, AsyncSidesGetHandshakeDriversAndNoClock) {
  sim::Simulation sim(1);
  Testbench<fifo::AsyncAsyncFifo> tb(
      sim, cfg_of(fifo::ControllerKind::kFifo), {}, {});
  EXPECT_FALSE(tb.clk_put || tb.clk_get);
  EXPECT_TRUE(tb.async_put && tb.async_get);
  sim.run_until(100'000);
  EXPECT_GT(tb.delivered(), 20u);
  EXPECT_EQ(tb.delivered(), tb.async_get->completed());
  EXPECT_EQ(tb.sb.errors(), 0u);
}

TEST(Testbench, MixedSidesPairOneClockWithOneHandshake) {
  sim::Simulation as_sim(1);
  Testbench<fifo::AsyncSyncFifo> as(
      as_sim, cfg_of(fifo::ControllerKind::kFifo), {}, kGet);
  EXPECT_TRUE(!as.clk_put && as.clk_get && as.async_put && as.get_drv);
  as_sim.run_until(200'000);
  EXPECT_GT(as.delivered(), 20u);
  EXPECT_EQ(as.sb.errors(), 0u);

  sim::Simulation sa_sim(1);
  Testbench<fifo::SyncAsyncFifo> sa(
      sa_sim, cfg_of(fifo::ControllerKind::kFifo), kPut, {});
  EXPECT_TRUE(sa.clk_put && !sa.clk_get && sa.put_drv && sa.async_get);
  sa_sim.run_until(200'000);
  EXPECT_GT(sa.delivered(), 20u);
  EXPECT_EQ(sa.sb.errors(), 0u);
}

TEST(Testbench, ManualSidesKeepOnlyTheirMonitors) {
  Side put = kPut;
  Side get = kGet;
  put.gap = kManual;
  get.gap = kManual;
  for (const auto controller :
       {fifo::ControllerKind::kFifo, fifo::ControllerKind::kRelayStation}) {
    sim::Simulation sim(1);
    Testbench<fifo::MixedClockFifo> tb(sim, cfg_of(controller), put, get);
    EXPECT_TRUE(tb.put_mon && tb.get_mon);
    EXPECT_FALSE(tb.put_drv || tb.get_drv || tb.rs_source || tb.rs_sink);
  }
  sim::Simulation sim(1);
  Testbench<fifo::AsyncSyncFifo> as(sim, cfg_of(fifo::ControllerKind::kFifo),
                                    put, kGet);
  ASSERT_TRUE(as.async_put);
  sim.run_until(100'000);
  EXPECT_EQ(as.async_put->completed(), 0u);  // waits for issue_one()
}

TEST(Testbench, ManualAsyncGetSideIsAConfigError) {
  sim::Simulation sim(1);
  Side get;
  get.gap = kManual;
  using Tb = Testbench<fifo::SyncAsyncFifo>;
  EXPECT_THROW(Tb(sim, cfg_of(fifo::ControllerKind::kFifo), kPut, get),
               ConfigError);
}

}  // namespace
}  // namespace mts::metrics
