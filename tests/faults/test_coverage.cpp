// Protocol-state coverage: bin bookkeeping, edge subscriptions, the
// standard FIFO/relay bin sets, and surfacing through sim::Report.
#include "metrics/cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "lip/chain.hpp"
#include "sync/clock.hpp"

namespace mts::metrics {
namespace {

using sim::Time;

TEST(Coverage, DefineHitMissingAllHit) {
  Coverage cov("unit");
  EXPECT_FALSE(cov.all_hit());  // vacuously false: no bins yet
  cov.define("a");
  cov.define("b");
  EXPECT_EQ(cov.size(), 2u);
  EXPECT_FALSE(cov.all_hit());
  cov.hit("a");
  EXPECT_EQ(cov.hits("a"), 1u);
  EXPECT_EQ(cov.missing(), std::vector<std::string>{"b"});
  cov.hit("b", 3);
  EXPECT_TRUE(cov.all_hit());
  EXPECT_EQ(cov.hits("b"), 3u);
  EXPECT_EQ(cov.hits("nonexistent"), 0u);
}

TEST(Coverage, SummaryNamesTheMissingBins) {
  Coverage cov("proto");
  cov.define("x.rise");
  cov.hit("y.fall");
  const std::string s = cov.summary();
  EXPECT_NE(s.find("proto: 1/2 bins hit"), std::string::npos) << s;
  EXPECT_NE(s.find("x.rise"), std::string::npos) << s;
}

TEST(Coverage, EdgeSubscriptionsCountEdges) {
  sim::Simulation sim(1);
  sim::Wire w(sim, "w", false);
  Coverage cov;
  cov.bin_rise("w.rise", w);
  cov.bin_fall("w.fall", w);
  cov.bin_nth_rise("w.wrap", w, 2);
  for (int i = 0; i < 3; ++i) {
    sim.sched().after(10, [&w] { w.set(true); });
    sim.sched().after(20, [&w] { w.set(false); });
    sim.run_until(sim.now() + 30);
  }
  EXPECT_EQ(cov.hits("w.rise"), 3u);
  EXPECT_EQ(cov.hits("w.fall"), 3u);
  EXPECT_EQ(cov.hits("w.wrap"), 2u);  // rises 2 and 3
}

TEST(Coverage, ReportSurfacesHitsAndMisses) {
  Coverage cov("c");
  cov.define("never");
  cov.hit("often", 4);
  sim::Report r;
  cov.report_into(r, 1234);
  EXPECT_EQ(r.count("coverage"), 2u);       // summary + hit bin
  EXPECT_EQ(r.count("coverage-miss"), 1u);  // the missed bin
  EXPECT_EQ(r.failure_count(), 0u);         // misses are warnings, not errors
  const auto& entries = r.entries();
  const bool found = std::any_of(
      entries.begin(), entries.end(), [](const sim::ReportEntry& e) {
        return e.category == "coverage-miss" &&
               e.message.find("never") != std::string::npos;
      });
  EXPECT_TRUE(found);
}

TEST(Coverage, MixedClockFifoBinsAllHitUnderSaturatedTraffic) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  Coverage cov("mcfifo");
  cover_fifo(cov, "mc", dut);
  EXPECT_FALSE(cov.all_hit());  // nothing has run yet

  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                     sb);
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  // A consumer that pauses lets the FIFO fill (full/nearfull bins) and
  // drain (empty bins): alternate bursts via the driver's rate.
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {0.7, 1});
  sim.run_until(4 * pp + 400 * pp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_TRUE(cov.all_hit()) << cov.summary();
  // Wrap bins mean the token rings really cycled: the fifo reused cell 0.
  EXPECT_GT(cov.hits("mc.ptok.wrap"), 10u);
  EXPECT_GT(cov.hits("mc.gtok.wrap"), 10u);
}

TEST(Coverage, StallValidBinsOnARelayLink) {
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;
  sim::Simulation sim(3);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + 1234, 0.5, 0});
  lip::MixedClockLink link(sim, "link", cfg, cp.out(), cg.out(), 2, 2);
  bfm::Scoreboard sb(sim, "sb");
  // valid_rate and stall_rate both strictly inside (0,1) so all four
  // stall x valid combinations occur, and near-balanced fill/drain rates so
  // the occupancy random-walks across the whole range (empty..full bins).
  bfm::RsSource src(sim, "src", cp.out(), link.data_in(), link.valid_in(),
                    link.stop_out(), cfg.dm, 0.55, 0xFF, sb);
  bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                   link.stop_in(), cfg.dm, 0.45, sb);
  Coverage cov("link");
  cover_stall_valid(cov, "out", cg.out(), link.valid_out(), link.stop_in());
  cover_fifo(cov, "mcrs", link.mcrs());
  // The relay chains throttle the drain, so under steady traffic the MCRS
  // hugs the full end. A source pause mid-run lets the link drain (oe and
  // sv.idle bins; occ buckets are FIFO-controller-only -- relay cells
  // enqueue v=0 bubbles, see attach_occ_buckets) before traffic resumes.
  sim.sched().at(4 * pp + 600 * pp, [&src] { src.set_enabled(false); });
  sim.sched().at(4 * pp + 900 * pp, [&src] { src.set_enabled(true); });
  sim.run_until(4 * pp + 1200 * pp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_TRUE(cov.all_hit()) << cov.summary();
}

TEST(Coverage, OccupancyHistogramCoversReachedLevels) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  Coverage cov;
  cover_occupancy_histogram(cov, "dut", dut);
  EXPECT_EQ(cov.size(), 5u);  // occ.0 .. occ.4
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  sim.run_until(4 * pp + 40 * pp);  // fill, no drain
  EXPECT_GT(cov.hits("dut.occ.4"), 0u);
  EXPECT_GT(cov.hits("dut.occ.1"), 0u);
}

TEST(Coverage, MergeAddsHitsAndImportsForeignBins) {
  Coverage a("shard0");
  a.define("x.miss");
  a.hit("x.rise", 3);
  Coverage b("shard1");
  b.hit("x.rise", 2);
  b.hit("x.miss");      // hit only on the other shard
  b.define("y.other");  // defined (unhit) only on the other shard
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.hits("x.rise"), 5u);
  EXPECT_EQ(a.hits("x.miss"), 1u);
  EXPECT_EQ(a.hits("y.other"), 0u);
  EXPECT_EQ(a.missing(), std::vector<std::string>{"y.other"});
}

TEST(Coverage, MergeIsIndependentOfShardOrder) {
  // Campaign workers merge in worker order; the folded bins must not
  // depend on which worker executed which runs.
  auto shard = [](std::uint64_t n) {
    auto c = std::make_unique<Coverage>();  // Coverage is non-copyable
    c->hit("a", n);
    c->define("b");
    return c;
  };
  auto ab = shard(1);
  ab->merge(*shard(4));
  auto ba = shard(4);
  ba->merge(*shard(1));
  EXPECT_EQ(ab->bins(), ba->bins());
  EXPECT_EQ(ab->hits("a"), 5u);
}

}  // namespace
}  // namespace mts::metrics
