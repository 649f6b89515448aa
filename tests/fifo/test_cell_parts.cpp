// Unit tests for the reusable cell parts in isolation -- the granularity
// the paper's design-reuse argument operates at.
#include "fifo/cell_parts.hpp"

#include <gtest/gtest.h>

#include "sync/clock.hpp"

namespace mts::fifo {
namespace {

using sim::Time;

FifoConfig cfg4() {
  FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  return cfg;
}

TEST(SyncPutPartTest, LatchesDataAndValidityOnEnabledEdge) {
  sim::Simulation sim;
  const FifoConfig cfg = cfg4();
  gates::Netlist nl(sim, "t");
  gates::TimingDomain dom(sim, "dom");
  const Time period = 4000;
  sync::Clock clk(sim, "clk", {period, 2 * period, 0.5, 0});

  sim::Wire& en = nl.wire("en");
  sim::Wire& tok_in = nl.wire("tok_in");
  sim::Wire& tok_out = nl.wire("tok_out", true);
  sim::Word& data = nl.word("data");
  sim::Wire& req = nl.wire("req");
  SyncPutPart part(nl, 0, clk.out(), en, tok_in, tok_out, data, req, cfg, &dom,
                   true);

  // Cycle with the token held and the enable high: we rises mid-cycle,
  // data latches at the ending edge.
  sim.sched().at(2 * period + 200, [&] {
    data.set(0x5C);
    req.set(true);
    en.set(true);
  });
  sim.run_until(3 * period - 100);
  EXPECT_TRUE(part.we().read());   // announced during the active cycle
  EXPECT_EQ(part.reg_q().read(), 0u);  // but not yet latched
  sim.run_until(3 * period + 1000);
  EXPECT_EQ(part.reg_q().read(), 0x5Cu);
  EXPECT_TRUE(part.v_q().read());
  // Token left (tok_in was 0).
  EXPECT_FALSE(tok_out.read());
}

TEST(SyncPutPartTest, DisabledCellDoesNothing) {
  sim::Simulation sim;
  const FifoConfig cfg = cfg4();
  gates::Netlist nl(sim, "t");
  const Time period = 4000;
  sync::Clock clk(sim, "clk", {period, 2 * period, 0.5, 0});

  sim::Wire& en = nl.wire("en");  // stays low
  sim::Wire& tok_in = nl.wire("tok_in");
  sim::Wire& tok_out = nl.wire("tok_out", true);
  sim::Word& data = nl.word("data", 0x77);
  sim::Wire& req = nl.wire("req", true);
  SyncPutPart part(nl, 0, clk.out(), en, tok_in, tok_out, data, req, cfg,
                   nullptr, true);

  sim.run_until(6 * period);
  EXPECT_FALSE(part.we().read());
  EXPECT_EQ(part.reg_q().read(), 0u);
  EXPECT_TRUE(tok_out.read());  // token held while disabled
}

TEST(AsyncPutPartTest, HandshakeLatchesDataAndPassesToken) {
  sim::Simulation sim;
  const FifoConfig cfg = cfg4();
  gates::Netlist nl(sim, "t");

  sim::Wire& req = nl.wire("req");
  sim::Word& data = nl.word("data");
  sim::Wire& we1 = nl.wire("we1");
  sim::Wire& e = nl.wire("e", true);
  sim::Wire& we_out = nl.wire("we_out");
  AsyncPutPart part(nl, 0, req, data, we1, e, we_out, cfg, true);

  sim.run_until(5'000);
  EXPECT_TRUE(part.ptok().read());  // initial token holder

  data.set(0xAB);
  req.set(true);
  sim.run_until(10'000);
  EXPECT_TRUE(part.we().read());
  EXPECT_EQ(part.reg_q().read(), 0xABu);
  EXPECT_FALSE(part.ptok().read());  // OPT reset: token released

  req.set(false);
  sim.run_until(15'000);
  EXPECT_FALSE(part.we().read());

  // The token comes back around (pulse on we1): ready for the next put.
  we1.set(true);
  sim.run_until(17'000);
  we1.set(false);
  sim.run_until(20'000);
  EXPECT_TRUE(part.ptok().read());
}

TEST(AsyncPutPartTest, FullCellBlocksHandshake) {
  sim::Simulation sim;
  const FifoConfig cfg = cfg4();
  gates::Netlist nl(sim, "t");

  sim::Wire& req = nl.wire("req");
  sim::Word& data = nl.word("data");
  sim::Wire& we1 = nl.wire("we1");
  sim::Wire& e = nl.wire("e", false);  // cell full: e_i low
  sim::Wire& we_out = nl.wire("we_out");
  AsyncPutPart part(nl, 0, req, data, we1, e, we_out, cfg, true);

  req.set(true);
  sim.run_until(10'000);
  EXPECT_FALSE(part.we().read());  // C-element guard holds

  e.set(true);  // cell drained
  sim.run_until(20'000);
  EXPECT_TRUE(part.we().read());  // pending put completes
}

TEST(AsyncGetPartTest, HandshakeReadsOnlyFullCells) {
  sim::Simulation sim;
  const FifoConfig cfg = cfg4();
  gates::Netlist nl(sim, "t");

  sim::Wire& req = nl.wire("req");
  sim::Wire& re1 = nl.wire("re1");
  sim::Wire& f = nl.wire("f", false);  // empty
  sim::Wire& re_out = nl.wire("re_out");
  AsyncGetPart part(nl, 0, req, re1, f, re_out, cfg, true);

  req.set(true);
  sim.run_until(10'000);
  EXPECT_FALSE(part.re().read());  // nothing to read

  f.set(true);
  sim.run_until(20'000);
  EXPECT_TRUE(part.re().read());
  req.set(false);
  sim.run_until(30'000);
  EXPECT_FALSE(part.re().read());
  EXPECT_FALSE(part.gtok().read());  // token released after the read
}

TEST(TokenMatchDelays, RelayControllersNeedLessMatching) {
  const FifoConfig fifo_cfg = cfg4();
  FifoConfig rs_cfg = cfg4();
  rs_cfg.controller = ControllerKind::kRelayStation;
  // The relay put controller (inverter) responds faster, so less token
  // buffering is needed -- which is why the MCRS put interface is faster.
  EXPECT_LT(put_token_match_delay(rs_cfg), put_token_match_delay(fifo_cfg));
  // Both grow with capacity and width (broadcast term).
  FifoConfig big = cfg4();
  big.capacity = 16;
  EXPECT_LT(put_token_match_delay(fifo_cfg), put_token_match_delay(big));
  FifoConfig wide = cfg4();
  wide.width = 32;
  EXPECT_LT(get_token_match_delay(fifo_cfg), get_token_match_delay(wide));
}

}  // namespace
}  // namespace mts::fifo
