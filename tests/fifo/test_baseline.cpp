// Tests of the Seizovic-style baseline FIFO and of the comparative claims
// the paper's Related Work makes against it.
#include "fifo/baseline_shift_fifo.hpp"

#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "sync/clock.hpp"

namespace mts::fifo {
namespace {

using sim::Time;

FifoConfig cfg_of(unsigned capacity) {
  FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = 8;
  return cfg;
}

struct Harness {
  sim::Simulation sim{1};
  FifoConfig cfg;
  Time pp;
  Time gp;
  sync::Clock cp;
  sync::Clock cg;
  BaselineShiftFifo dut;
  bfm::Scoreboard sb{sim, "sb"};
  bfm::GetMonitor get_mon;

  explicit Harness(const FifoConfig& c)
      : cfg(c),
        pp(2 * SyncPutSide::min_period(c)),
        gp(2 * SyncGetSide::min_period(c)),
        cp(sim, "cp", {pp, 4 * pp, 0.5, 0}),
        cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0}),
        dut(sim, "dut", c, cp.out(), cg.out()),
        get_mon(sim, cg.out(), dut.valid_get(), dut.data_get(), sb) {}
};

TEST(BaselineShiftFifo, DeliversInAscendingOrder) {
  Harness h(cfg_of(4));
  bfm::SyncPutDriver put(h.sim, "put", h.cp.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         {1.0, 1}, 0xFFFFFF);
  bfm::SyncGetDriver get(h.sim, "get", h.cg.out(), h.dut.req_get(), h.cfg.dm,
                         {1.0, 1});
  // The baseline has no en_put wire for exact enqueue accounting; since the
  // producer counts up, FIFO order == strictly ascending delivered values.
  std::uint64_t last = 0;
  unsigned received = 0;
  unsigned order_errors = 0;
  h.cg.out().on_rise([&] {
    if (!h.dut.valid_get().read()) return;
    const std::uint64_t v = h.dut.data_get().read();
    if (v <= last) ++order_errors;
    last = v;
    ++received;
  });
  h.sim.run_until(4 * h.pp + 400 * h.pp);
  EXPECT_GT(received, 50u);
  EXPECT_EQ(order_errors, 0u);
}

TEST(BaselineShiftFifo, LatencyGrowsLinearlyWithStages) {
  auto latency_of = [](unsigned capacity) {
    FifoConfig cfg = cfg_of(capacity);
    sim::Simulation sim(1);
    const Time pp = 2 * SyncPutSide::min_period(cfg);
    const Time gp = 2 * SyncGetSide::min_period(cfg);
    sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
    sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
    BaselineShiftFifo dut(sim, "dut", cfg, cp.out(), cg.out());
    bfm::Scoreboard sb(sim, "sb");
    bfm::GetMonitor mon(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
    dut.req_get().set(true);

    const Time react = cfg.dm.flop.clk_to_q + 1;
    const Time edge = 4 * pp + 8 * pp;
    const Time t_start = edge + react;
    sim.sched().at(t_start, [&] {
      dut.data_put().set(0x55);
      dut.req_put().set(true);
      sb.push(0x55);
    });
    sim.sched().at(edge + pp + react, [&] { dut.req_put().set(false); });
    sim.run_until(edge + 200 * gp);
    EXPECT_EQ(mon.dequeued(), 1u) << "capacity " << capacity;
    return mon.last_dequeue_time() - t_start;
  };

  const Time l4 = latency_of(4);
  const Time l8 = latency_of(8);
  const Time l16 = latency_of(16);
  // The Related-Work claim: latency proportional to the number of stages.
  EXPECT_GT(l8, l4 + l4 / 2);
  EXPECT_GT(l16, l8 + l8 / 2);
}

TEST(BaselineShiftFifo, FullBlocksWriter) {
  Harness h(cfg_of(4));
  bfm::SyncPutDriver put(h.sim, "put", h.cp.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         {1.0, 1}, 0xFF);
  // No reader: the pipeline fills and full throttles the writer.
  h.sim.run_until(4 * h.pp + 100 * h.pp);
  EXPECT_EQ(h.dut.occupancy(), 4u);
  EXPECT_TRUE(h.dut.full().read());
}

TEST(BaselineShiftFifo, EmptiesCompletely) {
  Harness h(cfg_of(4));
  bfm::SyncPutDriver put(h.sim, "put", h.cp.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         {1.0, 1}, 0xFF);
  h.sim.run_until(4 * h.pp + 60 * h.pp);
  put.set_enabled(false);
  bfm::SyncGetDriver get(h.sim, "get", h.cg.out(), h.dut.req_get(), h.cfg.dm,
                         {1.0, 1});
  h.sim.run_until(4 * h.pp + 300 * h.pp);
  EXPECT_EQ(h.dut.occupancy(), 0u);
  EXPECT_TRUE(h.dut.empty().read());
}

}  // namespace
}  // namespace mts::fifo
