// Determinism guarantees: identical seeds must give bit-identical runs
// (the property that makes every experiment in EXPERIMENTS.md
// regenerable), and different seeds must actually vary the stochastic
// elements.
#include <gtest/gtest.h>

#include "fifo/interface_sides.hpp"
#include "metrics/experiments.hpp"

namespace mts {
namespace {

using enum metrics::Design;

fifo::FifoConfig cfg_of(unsigned capacity) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = 8;
  return cfg;
}

TEST(Determinism, IdenticalSeedsGiveIdenticalValidationRuns) {
  const fifo::FifoConfig cfg = cfg_of(8);
  const sim::Time pp = fifo::SyncPutSide::min_period(cfg);
  const sim::Time gp = fifo::SyncGetSide::min_period(cfg);
  const auto a = metrics::validate(kMixedClock, cfg, pp, gp, 400, 7);
  const auto b = metrics::validate(kMixedClock, cfg, pp, gp, 400, 7);
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.dequeued, b.dequeued);
  EXPECT_EQ(a.timing_violations, b.timing_violations);
  EXPECT_EQ(a.scoreboard_errors, b.scoreboard_errors);
}

TEST(Determinism, StochasticModeIsSeedReproducible) {
  fifo::FifoConfig cfg = cfg_of(8);
  cfg.sync.mode = sync::MetaMode::kStochastic;
  const sim::Time pp = fifo::SyncPutSide::min_period(cfg) * 5 / 4;
  const sim::Time gp = fifo::SyncGetSide::min_period(cfg) * 4 / 3;
  const auto a = metrics::validate(kMixedClock, cfg, pp, gp, 400, 99);
  const auto b = metrics::validate(kMixedClock, cfg, pp, gp, 400, 99);
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.dequeued, b.dequeued);
}

TEST(Determinism, ThroughputRowsAreStableAcrossRepeats) {
  const auto a = metrics::throughput(kMixedClock, cfg_of(4), 300);
  const auto b = metrics::throughput(kMixedClock, cfg_of(4), 300);
  EXPECT_DOUBLE_EQ(a.put, b.put);
  EXPECT_DOUBLE_EQ(a.get, b.get);
  EXPECT_EQ(a.validated, b.validated);

  const auto c = metrics::throughput(kAsyncSync, cfg_of(4), 300);
  const auto d = metrics::throughput(kAsyncSync, cfg_of(4), 300);
  EXPECT_DOUBLE_EQ(c.put, d.put);
}

TEST(Determinism, LatencyRowsAreStableAcrossRepeats) {
  const auto a = metrics::latency(kMixedClock, cfg_of(4), 6);
  const auto b = metrics::latency(kMixedClock, cfg_of(4), 6);
  EXPECT_DOUBLE_EQ(a.min_ns, b.min_ns);
  EXPECT_DOUBLE_EQ(a.max_ns, b.max_ns);
}

}  // namespace
}  // namespace mts
