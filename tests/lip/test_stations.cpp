// The mixed-timing relay stations (Sections 5.2 / 5.3): each is its FIFO
// counterpart with relay-station controllers (FifoConfig::controller =
// kRelayStation). Fig. 12's packetIn = {data_put, req_put} with stopOut =
// full; packetOut = {data_get, valid_get} with stopIn.
#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "lip/chain.hpp"
#include "sync/clock.hpp"

namespace mts::lip {
namespace {

using sim::Time;

fifo::FifoConfig base_cfg(unsigned capacity = 4) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = 8;
  return cfg;
}

fifo::FifoConfig rs_cfg(unsigned capacity = 4) {
  fifo::FifoConfig cfg = base_cfg(capacity);
  cfg.controller = fifo::ControllerKind::kRelayStation;
  return cfg;
}

TEST(McRelayStationTest, ForcesRelayControllers) {
  sim::Simulation sim;
  sync::Clock cp(sim, "cp", {3000, 0, 0.5, 0});
  sync::Clock cg(sim, "cg", {3500, 0, 0.5, 0});
  // Even when handed a FIFO-mode config, the links install relay
  // controllers (the paper's derivation: only the controllers change).
  MixedClockLink mc(sim, "mc", base_cfg(), cp.out(), cg.out(), 1, 1);
  EXPECT_EQ(mc.mcrs().config().controller,
            fifo::ControllerKind::kRelayStation);
  AsyncSyncLink as(sim, "as", base_cfg(), cg.out(), 1, 1);
  EXPECT_EQ(as.asrs().config().controller,
            fifo::ControllerKind::kRelayStation);
}

TEST(McRelayStationTest, StreamsAcrossClockDomains) {
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(8);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg) * 5 / 4;  // slower
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 777, 0.5, 0});
  fifo::MixedClockFifo rs(sim, "rs", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", cp.out(), rs.data_put(), rs.req_put(),
                    rs.stop_out(), cfg.dm, 1.0, 0xFF, sb);
  bfm::RsSink sink(sim, "sink", cg.out(), rs.data_get(), rs.valid_get(),
                   rs.stop_in(), cfg.dm, 0.0, sb);
  sim.run_until(4 * pp + 500 * pp);
  EXPECT_GT(sink.received_valid(), 200u);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(rs.overflow_count(), 0u);
  EXPECT_EQ(rs.underflow_count(), 0u);
}

TEST(McRelayStationTest, BackPressurePropagatesAsStopOut) {
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(4);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 777, 0.5, 0});
  fifo::MixedClockFifo rs(sim, "rs", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", cp.out(), rs.data_put(), rs.req_put(),
                    rs.stop_out(), cfg.dm, 1.0, 0xFF, sb);
  // Consumer permanently stopped: the station fills with valid packets and
  // stalls the left link.
  rs.stop_in().set(true);
  sim.run_until(4 * pp + 40 * pp);
  EXPECT_TRUE(rs.stop_out().read());
  EXPECT_EQ(rs.occupancy(), cfg.capacity);
  EXPECT_EQ(rs.overflow_count(), 0u);

  // Release: everything drains in order.
  bfm::RsSink sink(sim, "sink", cg.out(), rs.data_get(), rs.valid_get(),
                   rs.stop_in(), cfg.dm, 0.0, sb);
  rs.stop_in().set(false);
  sim.run_until(4 * pp + 400 * pp);
  EXPECT_GT(sink.received_valid(), 100u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(McRelayStationTest, MixedValidAndVoidPacketsKeepOrder) {
  // Relay stations transport void packets like any other (Section 5.1);
  // only the valid ones carry data and only those are order-checked.
  sim::Simulation sim(9);
  const fifo::FifoConfig cfg = rs_cfg(8);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 777, 0.5, 0});
  fifo::MixedClockFifo rs(sim, "rs", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", cp.out(), rs.data_put(), rs.req_put(),
                    rs.stop_out(), cfg.dm, 0.4, 0xFF, sb);
  bfm::RsSink sink(sim, "sink", cg.out(), rs.data_get(), rs.valid_get(),
                   rs.stop_in(), cfg.dm, 0.2, sb);
  sim.run_until(4 * pp + 800 * pp);
  EXPECT_GT(sink.received_valid(), 100u);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(rs.overflow_count(), 0u);
  EXPECT_EQ(rs.underflow_count(), 0u);
}

TEST(AsRelayStationTest, AsyncDomainToSyncDomain) {
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(4);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo rs(sim, "rs", cfg, cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", rs.put_req(), rs.put_ack(), rs.put_data(),
                          cfg.dm, 0, 0xFF, &sb);
  bfm::RsSink sink(sim, "sink", cg.out(), rs.data_get(), rs.valid_get(),
                   rs.stop_in(), cfg.dm, 0.0, sb);
  sim.run_until(4 * gp + 500 * gp);
  EXPECT_GT(sink.received_valid(), 100u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(AsRelayStationTest, EmitsInvalidPacketsWhenEmpty) {
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(4);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo rs(sim, "rs", cfg, cg.out());
  // No sender: valid_get must stay low on every cycle (Fig. 16).
  unsigned valid_edges = 0;
  cg.out().on_rise([&] {
    if (rs.valid_get().read()) ++valid_edges;
  });
  sim.run_until(4 * gp + 100 * gp);
  EXPECT_EQ(valid_edges, 0u);
}

TEST(AsRelayStationTest, StopInGatesValidity) {
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(4);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo rs(sim, "rs", cfg, cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", rs.put_req(), rs.put_ack(), rs.put_data(),
                          cfg.dm, 0, 0xFF, &sb);
  rs.stop_in().set(true);
  sim.run_until(4 * gp + 60 * gp);
  // Stopped: nothing valid leaves even though data is queued inside.
  EXPECT_FALSE(rs.valid_get().read());
  EXPECT_GT(rs.occupancy(), 0u);
}

}  // namespace
}  // namespace mts::lip
