// Armed soak over all four FIFO designs: every design is built on the same
// cell array, so with a verify::Hub and an observability registry armed
// each one must check and count its traffic the same way. Drivers pace the
// traffic below saturation, then the sender stops and the FIFO drains, so
// every item offered has been delivered when the counters are read.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/fifo.hpp"
#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

namespace mts::fifo {
namespace {

using sim::Time;

enum class Design { kMixedClock, kAsyncSync, kSyncAsync, kAsyncAsync };

struct SoakOutcome {
  std::uint64_t delivered = 0;
  std::uint64_t pushed = 0;
  std::uint64_t sb_errors = 0;
  std::uint64_t overflows = 0;
  std::uint64_t underflows = 0;
};

FifoConfig soak_cfg() {
  FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  return cfg;
}

/// Runs paced traffic through `design` for `cycles` put periods, stops the
/// sender and lets the FIFO drain for as long again.
SoakOutcome run_soak(Design design, sim::Simulation& sim, unsigned cycles) {
  const FifoConfig cfg = soak_cfg();
  const Time pp = 2 * SyncPutSide::min_period(cfg);
  const Time gp = 2 * SyncGetSide::min_period(cfg);
  const Time gap = pp / 2;
  bfm::Scoreboard sb(sim, "sb");
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get", {gp, 4 * pp + gp / 3, 0.5, 0});
  SoakOutcome out;

  auto soak = [&](auto& dut, auto& put, auto delivered) {
    sim.run_until(4 * pp + cycles * pp);
    put.set_enabled(false);
    sim.run_until(4 * pp + 2 * cycles * pp);
    out.delivered = delivered();
    out.pushed = sb.pushed();
    out.sb_errors = sb.errors();
    out.overflows = dut.overflow_count();
    out.underflows = dut.underflow_count();
  };

  switch (design) {
    case Design::kMixedClock: {
      MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
      bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(),
                         dut.data_put(), sb);
      bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
      bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(),
                             dut.data_put(), dut.full(), cfg.dm, {0.7, 1},
                             0xFF);
      bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                             {0.6, 1});
      soak(dut, put, [&] { return gm.dequeued(); });
      break;
    }
    case Design::kAsyncSync: {
      AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
      bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                              dut.put_data(), cfg.dm, gap, 0xFF, &sb);
      bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
      bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                             {0.6, 1});
      soak(dut, put, [&] { return gm.dequeued(); });
      break;
    }
    case Design::kSyncAsync: {
      SyncAsyncFifo dut(sim, "dut", cfg, cp.out());
      bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(),
                         dut.data_put(), sb);
      bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(),
                             dut.data_put(), dut.full(), cfg.dm, {0.7, 1},
                             0xFF);
      bfm::AsyncGetDriver get(sim, "get", dut.get_req(), dut.get_ack(),
                              dut.get_data(), cfg.dm, gap, &sb);
      soak(dut, put, [&] { return get.completed(); });
      break;
    }
    case Design::kAsyncAsync: {
      AsyncAsyncFifo dut(sim, "dut", cfg);
      bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                              dut.put_data(), cfg.dm, gap, 0xFF, &sb);
      bfm::AsyncGetDriver get(sim, "get", dut.get_req(), dut.get_ack(),
                              dut.get_data(), cfg.dm, 2 * gap, &sb);
      soak(dut, put, [&] { return get.completed(); });
      break;
    }
  }
  return out;
}

class ArmedFifoSoak : public ::testing::TestWithParam<Design> {};

TEST_P(ArmedFifoSoak, MonitorsStaySilentAndRegistryCountsEveryItem) {
  sim::Simulation sim(11);
  verify::Hub hub;
  hub.arm(sim);
  metrics::Registry reg;
  sim::Observability obs;
  obs.metrics = &reg;
  obs.arm(sim);

  const SoakOutcome out = run_soak(GetParam(), sim, 400);

  EXPECT_GT(out.delivered, 100u);
  EXPECT_EQ(out.delivered, out.pushed) << "FIFO did not drain";
  EXPECT_EQ(out.sb_errors, 0u);
  EXPECT_EQ(out.overflows, 0u);
  EXPECT_EQ(out.underflows, 0u);
  EXPECT_EQ(hub.total(), 0u) << hub.to_json();
  EXPECT_EQ(reg.counter("dut", "puts").value(), out.delivered);
  EXPECT_EQ(reg.counter("dut", "gets").value(), out.delivered);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ArmedFifoSoak,
    ::testing::Values(Design::kMixedClock, Design::kAsyncSync,
                      Design::kSyncAsync, Design::kAsyncAsync),
    [](const ::testing::TestParamInfo<Design>& info) -> std::string {
      switch (info.param) {
        case Design::kMixedClock: return "MixedClock";
        case Design::kAsyncSync: return "AsyncSync";
        case Design::kSyncAsync: return "SyncAsync";
        case Design::kAsyncAsync: return "AsyncAsync";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace mts::fifo
