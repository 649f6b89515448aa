#include "lip/chain.hpp"

#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "sync/clock.hpp"

namespace mts::lip {
namespace {

using sim::Time;

fifo::FifoConfig rs_cfg(unsigned capacity = 8) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;
  return cfg;
}

TEST(SyncRelayChainTest, PipelineOfLengthFiveKeepsOrder) {
  sim::Simulation sim(1);
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
  SyncRelayChain chain(sim, "chain", clk.out(), 5, dm, in_d, in_v, s_out, out_d,
                       out_v, s_in);
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", clk.out(), in_d, in_v, s_out, dm, 0.9, 0xFF, sb);
  bfm::RsSink sink(sim, "sink", clk.out(), out_d, out_v, s_in, dm, 0.3, sb);
  sim.run_until(1500 * period);
  EXPECT_GT(sink.received_valid(), 500u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(SyncRelayChainTest, LengthZeroIsAWire) {
  sim::Simulation sim(1);
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
  SyncRelayChain chain(sim, "chain", clk.out(), 0, dm, in_d, in_v, s_out, out_d,
                       out_v, s_in);
  in_d.set(0x5A);
  in_v.set(true);
  s_in.set(true);
  sim.run_until(10000);
  EXPECT_EQ(out_d.read(), 0x5Au);
  EXPECT_TRUE(out_v.read());
  EXPECT_TRUE(s_out.read());  // stop passes backwards
}

TEST(MixedClockLinkTest, EndToEndAcrossDomainsAndChains) {
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(8);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg) * 9 / 8;
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 1234, 0.5, 0});
  MixedClockLink link(sim, "link", cfg, cp.out(), cg.out(), 3, 4);
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", cp.out(), link.data_in(), link.valid_in(),
                    link.stop_out(), cfg.dm, 1.0, 0xFF, sb);
  bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                   link.stop_in(), cfg.dm, 0.1, sb);
  sim.run_until(4 * pp + 1200 * pp);
  EXPECT_GT(sink.received_valid(), 400u);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(link.mcrs().overflow_count(), 0u);
  EXPECT_EQ(link.mcrs().underflow_count(), 0u);
}

TEST(AsyncSyncLinkTest, Fig14TopologyEndToEnd) {
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(4);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  AsyncSyncLink link(sim, "link", cfg, cg.out(), 3, 3);
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", link.put_req(), link.put_ack(),
                          link.put_data(), cfg.dm, 0, 0xFF, &sb);
  bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                   link.stop_in(), cfg.dm, 0.1, sb);
  sim.run_until(4 * gp + 1200 * gp);
  EXPECT_GT(sink.received_valid(), 300u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(AsyncSyncLinkTest, DirectConnectionWithoutArs) {
  // "In principle, no relay stations need to be inserted in the
  // asynchronous communication channels" (Section 5.3).
  sim::Simulation sim(1);
  const fifo::FifoConfig cfg = rs_cfg(4);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  AsyncSyncLink link(sim, "link", cfg, cg.out(), 0, 2);
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", link.put_req(), link.put_ack(),
                          link.put_data(), cfg.dm, 0, 0xFF, &sb);
  bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                   link.stop_in(), cfg.dm, 0.0, sb);
  sim.run_until(4 * gp + 600 * gp);
  EXPECT_GT(sink.received_valid(), 150u);
  EXPECT_EQ(sb.errors(), 0u);
}

TEST(MixedClockLinkTest, ThroughputIndependentOfChainLength) {
  // The latency-insensitivity claim: longer wires (more relay stations)
  // add latency but do not reduce steady-state throughput.
  auto run = [](unsigned len) {
    sim::Simulation sim(1);
    const fifo::FifoConfig cfg = rs_cfg(8);
    const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
    const Time gp = pp;
    sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
    sync::Clock cg(sim, "cg", {gp, 4 * pp + 997, 0.5, 0});
    MixedClockLink link(sim, "link", cfg, cp.out(), cg.out(), len, len);
    bfm::Scoreboard sb(sim, "sb");
    bfm::RsSource src(sim, "src", cp.out(), link.data_in(), link.valid_in(),
                      link.stop_out(), cfg.dm, 1.0, 0xFF, sb);
    bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                     link.stop_in(), cfg.dm, 0.0, sb);
    sim.run_until(4 * pp + 800 * pp);
    EXPECT_EQ(sb.errors(), 0u);
    return sink.received_valid();
  };
  const auto t1 = run(1);
  const auto t8 = run(8);
  EXPECT_GT(t1, 300u);
  // Longer chains add only pipeline-fill latency, bounded by ~2 packets
  // per extra station out of ~700 delivered.
  EXPECT_NEAR(static_cast<double>(t8), static_cast<double>(t1),
              0.05 * static_cast<double>(t1));
}

}  // namespace
}  // namespace mts::lip
