// End-to-end topology integration: the paper's full systems under random
// workloads, plus a stochastic-metastability soak.
#include <gtest/gtest.h>

#include <sstream>

#include "bfm/bfm.hpp"
#include "fifo/fifo.hpp"
#include "lip/lip.hpp"
#include "sync/clock.hpp"

namespace mts {
namespace {

using sim::Time;

struct TopologyParam {
  unsigned left_len;
  unsigned right_len;
  double ratio;  // right clock period vs left
  double stall;  // sink stall probability
  std::uint64_t seed;
};

class Fig11Topology : public ::testing::TestWithParam<TopologyParam> {};

TEST_P(Fig11Topology, MixedClockLinkDeliversEverythingInOrder) {
  const TopologyParam p = GetParam();
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;

  sim::Simulation sim(p.seed);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp =
      static_cast<Time>(static_cast<double>(2 * fifo::SyncGetSide::min_period(cfg)) *
                        p.ratio);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 919, 0.5, 0});
  lip::MixedClockLink link(sim, "link", cfg, cp.out(), cg.out(), p.left_len,
                           p.right_len);
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", cp.out(), link.data_in(), link.valid_in(),
                    link.stop_out(), cfg.dm, 0.9, 0xFF, sb);
  bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                   link.stop_in(), cfg.dm, p.stall, sb);

  sim.run_until(4 * pp + 900 * pp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(link.mcrs().overflow_count(), 0u);
  EXPECT_EQ(link.mcrs().underflow_count(), 0u);
  EXPECT_GT(sink.received_valid(), 80u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fig11Topology,
    ::testing::Values(TopologyParam{0, 0, 1.0, 0.0, 1},
                      TopologyParam{1, 1, 1.0, 0.0, 2},
                      TopologyParam{4, 2, 1.4, 0.2, 3},
                      TopologyParam{2, 6, 0.8, 0.3, 4},
                      TopologyParam{8, 8, 1.0, 0.1, 5},
                      TopologyParam{3, 3, 2.2, 0.5, 6}),
    [](const ::testing::TestParamInfo<TopologyParam>& info) {
      std::ostringstream os;
      os << "l" << info.param.left_len << "_r" << info.param.right_len << "_k"
         << static_cast<int>(info.param.ratio * 10) << "_st"
         << static_cast<int>(info.param.stall * 10) << "_s" << info.param.seed;
      return os.str();
    });

class Fig14Topology : public ::testing::TestWithParam<TopologyParam> {};

TEST_P(Fig14Topology, AsyncSyncLinkDeliversEverythingInOrder) {
  const TopologyParam p = GetParam();
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;

  sim::Simulation sim(p.seed);
  const Time gp =
      static_cast<Time>(static_cast<double>(2 * fifo::SyncGetSide::min_period(cfg)) *
                        p.ratio);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  lip::AsyncSyncLink link(sim, "link", cfg, cg.out(), p.left_len, p.right_len);
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", link.put_req(), link.put_ack(),
                          link.put_data(), cfg.dm, 0, 0xFF, &sb);
  bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                   link.stop_in(), cfg.dm, p.stall, sb);

  sim.run_until(4 * gp + 900 * gp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_GT(sink.received_valid(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fig14Topology,
    ::testing::Values(TopologyParam{0, 1, 1.0, 0.0, 1},
                      TopologyParam{2, 2, 1.0, 0.1, 2},
                      TopologyParam{6, 4, 1.3, 0.3, 3},
                      TopologyParam{1, 8, 1.0, 0.2, 4},
                      TopologyParam{8, 1, 1.8, 0.4, 5}),
    [](const ::testing::TestParamInfo<TopologyParam>& info) {
      std::ostringstream os;
      os << "a" << info.param.left_len << "_s" << info.param.right_len << "_k"
         << static_cast<int>(info.param.ratio * 10) << "_st"
         << static_cast<int>(info.param.stall * 10) << "_sd" << info.param.seed;
      return os.str();
    });

TEST(StochasticMetastability, DepthTwoSurvivesLongSoak) {
  // Stochastic resolution on, irrational-ish clock ratio: the paper's
  // depth-2 synchronizers must keep the FIFO correct.
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  cfg.sync.mode = sync::MetaMode::kStochastic;

  sim::Simulation sim(99);
  const Time pp = fifo::SyncPutSide::min_period(cfg) * 4 / 3;
  const Time gp = static_cast<Time>(
      static_cast<double>(fifo::SyncGetSide::min_period(cfg)) * 1.377);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 577, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor put_mon(sim, cp.out(), dut.en_put(), dut.req_put(),
                          dut.data_put(), sb);
  bfm::GetMonitor get_mon(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1});

  sim.run_until(4 * pp + 2000 * pp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(dut.overflow_count(), 0u);
  EXPECT_EQ(dut.underflow_count(), 0u);
  EXPECT_GT(get_mon.dequeued(), 500u);
}

TEST(LongSoak, MixedClockTenThousandCyclesIrrationalRatio) {
  // A long-haul run at an awkward clock ratio with moderate margins: the
  // strongest single statement of end-to-end robustness in the suite.
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 16;
  sim::Simulation sim(424242);
  const Time pp = fifo::SyncPutSide::min_period(cfg) * 9 / 8;
  const Time gp = static_cast<Time>(
      static_cast<double>(fifo::SyncGetSide::min_period(cfg)) * 1.6180339);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 313, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                     sb);
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {0.9, 1}, 0xFFFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {0.95, 1});
  sim.run_until(4 * pp + 10'000 * pp);
  EXPECT_GT(gm.dequeued(), 5'000u);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(dut.overflow_count(), 0u);
  EXPECT_EQ(dut.underflow_count(), 0u);
  EXPECT_EQ(dut.put_domain().violations(), 0u);
  EXPECT_EQ(dut.get_domain().violations(), 0u);
}

TEST(StochasticMetastability, AsyncSyncSoak) {
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  cfg.sync.mode = sync::MetaMode::kStochastic;

  sim::Simulation sim(123);
  const Time gp = fifo::SyncGetSide::min_period(cfg) * 4 / 3;
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 0, 0xFF, &sb);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1});
  bfm::GetMonitor get_mon(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);

  sim.run_until(4 * gp + 2000 * gp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_GT(get_mon.dequeued(), 500u);
}

}  // namespace
}  // namespace mts
