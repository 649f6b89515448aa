// Fig. 3c's three get outcomes, observed exactly as the paper specifies:
// following a get request, (valid_get, empty) encodes
//   (a) item dequeued, more available     -> valid=1, empty=0
//   (b) item dequeued, FIFO became empty  -> valid=1, empty=1
//   (c) FIFO empty, nothing dequeued      -> valid=0, empty=1
#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sync/clock.hpp"

namespace mts::fifo {
namespace {

using sim::Time;

struct Outcomes {
  unsigned a = 0;  // valid & !empty
  unsigned b = 0;  // valid & empty
  unsigned c = 0;  // !valid & empty
  unsigned other = 0;  // !valid & !empty (no request or request in flight)
};

TEST(ProtocolOutcomes, AllThreeGetOutcomesObservable) {
  FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;

  sim::Simulation sim(1);
  const Time pp = 2 * SyncPutSide::min_period(cfg);
  const Time gp = 2 * SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());

  Outcomes seen;
  bool requesting = false;
  // Paper sampling discipline (Fig. 3c): the data/validity of a get are
  // committed at the clock edge; "if the FIFO becomes empty that clock
  // cycle, empty is also asserted" -- i.e. the empty flag is read later in
  // the same cycle, after the synchronizers have updated.
  const Time flag_settle = cfg.dm.flop.clk_to_q + cfg.dm.gate(2, 2) +
                           cfg.dm.gate(2) + 50;
  cg.out().on_rise([&] {
    if (!requesting) return;
    const bool valid = dut.valid_get().read();
    sim.sched().after(flag_settle, [&, valid] {
      const bool empty = dut.empty().read();
      if (valid && !empty) ++seen.a;
      else if (valid && empty) ++seen.b;
      else if (!valid && empty) ++seen.c;
      else ++seen.other;
    });
  });

  // Enqueue 5 items back to back, then request continuously: the drain
  // passes through "more available" (a), hits "dequeued, became empty per
  // the anticipating definition" (b), then idles at "empty" (c).
  const Time react = cfg.dm.flop.clk_to_q + 1;
  const Time edge = 4 * pp + 8 * pp;
  for (int k = 0; k < 5; ++k) {
    sim.sched().at(edge + static_cast<Time>(k) * pp + react, [&dut, k] {
      dut.data_put().set(0x10 + static_cast<std::uint64_t>(k));
      dut.req_put().set(true);
    });
  }
  sim.sched().at(edge + 5 * pp + react, [&] { dut.req_put().set(false); });
  sim.sched().at(edge + 8 * pp, [&] {
    dut.req_get().set(true);
    requesting = true;
  });

  sim.run_until(edge + 60 * gp);

  EXPECT_GT(seen.a, 0u) << "never saw: dequeued with more available";
  EXPECT_GT(seen.b, 0u) << "never saw: dequeued and FIFO became empty";
  EXPECT_GT(seen.c, 0u) << "never saw: empty, request unanswered";
  // Every item was eventually delivered.
  EXPECT_EQ(seen.a + seen.b, 5u);
  EXPECT_EQ(dut.occupancy(), 0u);
}

TEST(ProtocolOutcomes, ValidNeverAssertedWithoutRequest) {
  FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;

  sim::Simulation sim(2);
  const Time pp = 2 * SyncPutSide::min_period(cfg);
  const Time gp = 2 * SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  // No get requests at all: valid_get must stay low at every get edge.
  unsigned spurious = 0;
  cg.out().on_rise([&] {
    if (dut.valid_get().read()) ++spurious;
  });
  sim.run_until(4 * pp + 200 * pp);
  EXPECT_EQ(spurious, 0u);
  EXPECT_FALSE(dut.empty().read());  // it does hold data
}

}  // namespace
}  // namespace mts::fifo
