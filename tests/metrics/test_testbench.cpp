// The testbench puts one put end and one get end (bfm/ends.hpp, whose table
// tests/bfm/test_ends.cpp pins row by row) on the endpoints its FIFO
// presents, and a saturated run through it moves data on every design.
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

using bfm::EndpointStyle;

TEST(Testbench, SyncSidesGetMonitorsAndDriversInFifoMode) {
  sim::Simulation sim(1);
  Testbench<fifo::MixedClockFifo> tb(sim, cfg_of(fifo::ControllerKind::kFifo),
                                     kPut, kGet);
  EXPECT_TRUE(tb.clk_put && tb.clk_get);
  EXPECT_EQ(put_endpoint(tb.dut).style, EndpointStyle::kFifoPut);
  EXPECT_EQ(get_endpoint(tb.dut).style, EndpointStyle::kFifoGet);
  sim.run_until(200'000);
  EXPECT_GT(tb.delivered(), 20u);
  EXPECT_EQ(tb.sb.errors(), 0u);
  EXPECT_EQ(tb.last_delivery(), tb.get_end.last_delivery());
}

TEST(Testbench, SyncSidesGetSourceAndSinkInRelayStationMode) {
  sim::Simulation sim(1);
  Testbench<fifo::MixedClockFifo> tb(
      sim, cfg_of(fifo::ControllerKind::kRelayStation), kPut, kGet);
  // Latency-insensitive ports over the FIFO's own put and get wires.
  const bfm::Endpoint put = put_endpoint(tb.dut);
  const bfm::Endpoint get = get_endpoint(tb.dut);
  EXPECT_EQ(put.style, EndpointStyle::kLi);
  EXPECT_EQ(get.style, EndpointStyle::kLi);
  EXPECT_EQ(put.li.valid, &tb.dut.req_put());
  EXPECT_EQ(put.li.stop, &tb.dut.full());
  EXPECT_EQ(get.li.valid, &tb.dut.valid_get());
  EXPECT_EQ(get.li.stop, &tb.dut.stop_in());
  sim.run_until(200'000);
  EXPECT_GT(tb.delivered(), 20u);
  EXPECT_EQ(tb.sb.errors(), 0u);
}

TEST(Testbench, AsyncSidesGetHandshakeDriversAndNoClock) {
  sim::Simulation sim(1);
  Testbench<fifo::AsyncAsyncFifo> tb(
      sim, cfg_of(fifo::ControllerKind::kFifo), {}, {});
  EXPECT_FALSE(tb.clk_put || tb.clk_get);
  EXPECT_EQ(put_endpoint(tb.dut).style, EndpointStyle::kHandshake);
  EXPECT_EQ(get_endpoint(tb.dut).style, EndpointStyle::kHandshake);
  EXPECT_FALSE(get_endpoint(tb.dut).push);  // a FIFO get port is pulled
  sim.run_until(100'000);
  EXPECT_GT(tb.delivered(), 20u);
  EXPECT_EQ(tb.sb.errors(), 0u);
}

TEST(Testbench, MixedSidesPairOneClockWithOneHandshake) {
  sim::Simulation as_sim(1);
  Testbench<fifo::AsyncSyncFifo> as(
      as_sim, cfg_of(fifo::ControllerKind::kFifo), {}, kGet);
  EXPECT_TRUE(!as.clk_put && as.clk_get);
  EXPECT_EQ(put_endpoint(as.dut).style, EndpointStyle::kHandshake);
  EXPECT_EQ(get_endpoint(as.dut).style, EndpointStyle::kFifoGet);
  as_sim.run_until(200'000);
  EXPECT_GT(as.delivered(), 20u);
  EXPECT_EQ(as.sb.errors(), 0u);

  sim::Simulation sa_sim(1);
  Testbench<fifo::SyncAsyncFifo> sa(
      sa_sim, cfg_of(fifo::ControllerKind::kFifo), kPut, {});
  EXPECT_TRUE(sa.clk_put && !sa.clk_get);
  EXPECT_EQ(put_endpoint(sa.dut).style, EndpointStyle::kFifoPut);
  EXPECT_EQ(get_endpoint(sa.dut).style, EndpointStyle::kHandshake);
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
    // Nobody requests: nothing enters or leaves.
    sim.run_until(100'000);
    EXPECT_EQ(tb.put_end.sent(), 0u);
    EXPECT_EQ(tb.delivered(), 0u);
    EXPECT_EQ(tb.sb.errors(), 0u);
  }
  sim::Simulation sim(1);
  Testbench<fifo::AsyncSyncFifo> as(sim, cfg_of(fifo::ControllerKind::kFifo),
                                    put, kGet);
  sim.run_until(100'000);
  EXPECT_EQ(as.put_end.sent(), 0u);  // waits for issue_one()
}

// A rejected testbench builds nothing, so nothing it scheduled outlives it.
template <class Fifo>
void expect_rejected_cleanly(const fifo::FifoConfig& cfg, const Side& put,
                             const Side& get) {
  sim::Simulation sim(1);
  EXPECT_THROW(Testbench<Fifo>(sim, cfg, put, get), ConfigError);
  EXPECT_EQ(sim.sched().pending(), 0u);
  sim.run_until(200'000);
  EXPECT_EQ(sim.now(), 200'000u);
}

TEST(Testbench, ManualAsyncGetSideIsAConfigError) {
  Side get;
  get.gap = kManual;
  const fifo::FifoConfig cfg = cfg_of(fifo::ControllerKind::kFifo);
  expect_rejected_cleanly<fifo::SyncAsyncFifo>(cfg, kPut, get);
  expect_rejected_cleanly<fifo::AsyncAsyncFifo>(cfg, {}, get);
}

TEST(Testbench, InvalidConfigIsAConfigErrorBeforeAnyPart) {
  fifo::FifoConfig tiny = cfg_of(fifo::ControllerKind::kFifo);
  tiny.capacity = 1;
  expect_rejected_cleanly<fifo::MixedClockFifo>(tiny, kPut, kGet);
  expect_rejected_cleanly<fifo::AsyncSyncFifo>(tiny, {}, kGet);
  // An asynchronous get side has no relay-station mode.
  const fifo::FifoConfig relay = cfg_of(fifo::ControllerKind::kRelayStation);
  expect_rejected_cleanly<fifo::SyncAsyncFifo>(relay, kPut, {});
}

}  // namespace
}  // namespace mts::metrics
