// Equivalence: the gate-level relay station and the behavioural model must
// produce identical packet streams cycle for cycle under identical inputs
// (same source, same stall pattern), and the structural netlist must pass
// the usual no-loss/no-reorder soak with timing checks armed.
#include "lip/relay_station_structural.hpp"

#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "gates/netlist.hpp"
#include "lip/chain.hpp"
#include "lip/relay_station.hpp"
#include "sync/clock.hpp"

namespace mts::lip {
namespace {

using sim::Time;

TEST(StructuralRelayStation, LockstepEquivalentToBehaviouralModel) {
  sim::Simulation sim(3);
  const gates::DelayModel dm = gates::DelayModel::hp06();
  const Time period = 2000;
  sync::Clock clk(sim, "clk", {period, period, 0.5, 0});
  gates::Netlist nl(sim, "t");

  // Shared input link driven by one source; per-instance output links and a
  // shared stall wire driven by one pattern generator.
  sim::Word& in_d = nl.word("in_d");
  sim::Wire& in_v = nl.wire("in_v");
  sim::Wire& stop_beh = nl.wire("stop_beh");  // each RS drives its own stopOut
  sim::Wire& stop_str = nl.wire("stop_str");
  sim::Wire& stall = nl.wire("stall");

  sim::Word& out_d_beh = nl.word("out_d_beh");
  sim::Wire& out_v_beh = nl.wire("out_v_beh");
  sim::Word& out_d_str = nl.word("out_d_str");
  sim::Wire& out_v_str = nl.wire("out_v_str");

  RelayStation beh(sim, "beh", clk.out(), in_d, in_v, stop_beh, out_d_beh,
                   out_v_beh, stall, dm);
  StructuralRelayStation str(sim, "str", clk.out(), in_d, in_v, stop_str,
                             out_d_str, out_v_str, stall, dm);

  // Source: free-running packet generator (no back-pressure dependence, so
  // both instances see identical inputs -- their stopOut wires are only
  // compared, not consumed).
  std::uint64_t next = 1;
  clk.out().on_rise([&] {
    const bool valid = (next % 3) != 0;  // mix of valid and void packets
    in_d.write(next & 0xFF, dm.flop.clk_to_q, sim::DelayKind::kInertial);
    in_v.write(valid, dm.flop.clk_to_q, sim::DelayKind::kInertial);
    ++next;
  });
  // Stall pattern: deterministic bursts.
  std::uint64_t cycle = 0;
  clk.out().on_rise([&] {
    const bool s = (cycle % 11) >= 7 || (cycle % 23) == 3;
    ++cycle;
    stall.write(s, dm.flop.clk_to_q, sim::DelayKind::kInertial);
  });

  // Lockstep comparison at every edge after a warmup.
  unsigned mismatches = 0;
  unsigned compared = 0;
  clk.out().on_rise([&] {
    if (sim.now() < 6 * period) return;
    ++compared;
    if (out_v_beh.read() != out_v_str.read()) ++mismatches;
    if (out_v_beh.read() && out_d_beh.read() != out_d_str.read()) ++mismatches;
    if (stop_beh.read() != stop_str.read()) ++mismatches;
  });

  sim.run_until(600 * period);
  EXPECT_GT(compared, 500u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(StructuralRelayStation, SoakWithTimingChecksArmed) {
  sim::Simulation sim(5);
  const gates::DelayModel dm = gates::DelayModel::hp06();
  const Time period = 2000;
  sync::Clock clk(sim, "clk", {period, period, 0.5, 0});
  gates::Netlist nl(sim, "t");
  gates::TimingDomain dom(sim, "rs");

  sim::Word& in_d = nl.word("in_d");
  sim::Wire& in_v = nl.wire("in_v");
  sim::Wire& s_out = nl.wire("s_out");
  sim::Word& out_d = nl.word("out_d");
  sim::Wire& out_v = nl.wire("out_v");
  sim::Wire& s_in = nl.wire("s_in");
  StructuralRelayStation rs(sim, "rs", clk.out(), in_d, in_v, s_out, out_d,
                            out_v, s_in, dm, &dom);
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", clk.out(), in_d, in_v, s_out, dm, 0.8, 0xFF,
                    sb);
  bfm::RsSink sink(sim, "sink", clk.out(), out_d, out_v, s_in, dm, 0.35, sb);

  dom.set_enabled(false);
  sim.run_until(4 * period);
  dom.set_enabled(true);
  sim.run_until(1500 * period);

  EXPECT_GT(sink.received_valid(), 400u);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(dom.violations(), 0u);
}

TEST(StructuralRelayStation, StallParksAndDrains) {
  sim::Simulation sim(1);
  const gates::DelayModel dm = gates::DelayModel::hp06();
  const Time period = 2000;
  sync::Clock clk(sim, "clk", {period, period, 0.5, 0});
  gates::Netlist nl(sim, "t");
  sim::Word& in_d = nl.word("in_d");
  sim::Wire& in_v = nl.wire("in_v");
  sim::Wire& s_out = nl.wire("s_out");
  sim::Word& out_d = nl.word("out_d");
  sim::Wire& out_v = nl.wire("out_v");
  sim::Wire& s_in = nl.wire("s_in", true);  // consumer starts stalled
  StructuralRelayStation rs(sim, "rs", clk.out(), in_d, in_v, s_out, out_d,
                            out_v, s_in, dm);
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", clk.out(), in_d, in_v, s_out, dm, 1.0, 0xFF,
                    sb);

  // Manual consumer honouring the transfer convention: consumes at an edge
  // iff its own registered stop was low during the ending cycle.
  bool stall_now = true;
  bool prev_stop = true;
  std::uint64_t received = 0;
  clk.out().on_rise([&] {
    if (!prev_stop && out_v.read()) {
      sb.pop_check(out_d.read());
      ++received;
    }
    prev_stop = stall_now;
    s_in.write(stall_now, dm.flop.clk_to_q, sim::DelayKind::kInertial);
  });

  sim.run_until(16 * period);
  EXPECT_TRUE(rs.stalled());
  EXPECT_TRUE(s_out.read());

  sim.sched().at(20 * period + 300, [&] { stall_now = false; });
  sim.run_until(200 * period);
  EXPECT_FALSE(rs.stalled());
  EXPECT_GT(received, 100u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(StructuralRelayStation, ChainOfStructuralStationsKeepsOrder) {
  sim::Simulation sim(4);
  const gates::DelayModel dm = gates::DelayModel::hp06();
  const Time period = 2000;
  sync::Clock clk(sim, "clk", {period, period, 0.5, 0});
  gates::Netlist nl(sim, "t");
  sim::Word& in_d = nl.word("ind");
  sim::Wire& in_v = nl.wire("inv");
  sim::Wire& s_out = nl.wire("sout");
  sim::Word& out_d = nl.word("outd");
  sim::Wire& out_v = nl.wire("outv");
  sim::Wire& s_in = nl.wire("sin");
  SyncRelayChain chain(sim, "chain", clk.out(), 4, dm, in_d, in_v, s_out,
                       out_d, out_v, s_in, RsImpl::kStructural);
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", clk.out(), in_d, in_v, s_out, dm, 0.85, 0xFF,
                    sb);
  bfm::RsSink sink(sim, "sink", clk.out(), out_d, out_v, s_in, dm, 0.3, sb);
  sim.run_until(1200 * period);
  EXPECT_GT(sink.received_valid(), 400u);
  EXPECT_EQ(sb.errors(), 0u);
}

}  // namespace
}  // namespace mts::lip
