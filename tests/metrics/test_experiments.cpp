// Tests of the Table 1 experiment harness itself: the throughput rows must
// validate (clean saturated run at the reported rates) and the latency rows
// must behave like the paper's (min <= max, both a few clock periods, RS
// variants close to their FIFO counterparts).
#include "metrics/experiments.hpp"

#include <gtest/gtest.h>

namespace mts::metrics {
namespace {

using enum Design;

fifo::FifoConfig cfg_of(unsigned capacity, unsigned width, bool rs = false) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  if (rs) cfg.controller = fifo::ControllerKind::kRelayStation;
  return cfg;
}

TEST(Experiments, MixedClockThroughputValidates) {
  const ThroughputRow row = throughput(kMixedClock, cfg_of(4, 8), 600);
  EXPECT_TRUE(row.validated);
  EXPECT_GT(row.put, row.get);  // Table 1: put faster than get
  EXPECT_FALSE(row.put_async);
}

TEST(Experiments, AsyncSyncThroughputValidates) {
  const ThroughputRow row = throughput(kAsyncSync, cfg_of(4, 8), 600);
  EXPECT_TRUE(row.validated);
  EXPECT_TRUE(row.put_async);
  EXPECT_GT(row.put, 0.0);
  // Table 1: the async put interface is slower than the sync get.
  EXPECT_LT(row.put, row.get);
}

TEST(Experiments, ThroughputFallsWithCapacityAndWidth) {
  const ThroughputRow small = throughput(kMixedClock, cfg_of(4, 8), 300);
  const ThroughputRow big_cap = throughput(kMixedClock, cfg_of(16, 8), 300);
  const ThroughputRow big_width = throughput(kMixedClock, cfg_of(4, 16), 300);
  EXPECT_GT(small.put, big_cap.put);
  EXPECT_GT(small.get, big_cap.get);
  EXPECT_GT(small.put, big_width.put);
  EXPECT_GT(small.get, big_width.get);
}

TEST(Experiments, MixedClockLatencyRowSane) {
  const LatencyRow row = latency(kMixedClock, cfg_of(4, 8), 8);
  EXPECT_GT(row.min_ns, 0.0);
  EXPECT_LE(row.min_ns, row.max_ns);
  // Latency through an empty FIFO is a handful of ns in this technology,
  // not hundreds (Table 1: 5.43 / 6.34 for the real circuit).
  EXPECT_LT(row.max_ns, 60.0);
  // Min and max differ by at most ~1 get period (sampling alignment).
  EXPECT_LT(row.max_ns - row.min_ns, 8.0);
}

TEST(Experiments, AsyncSyncLatencyRowSane) {
  const LatencyRow row = latency(kAsyncSync, cfg_of(4, 8), 8);
  EXPECT_GT(row.min_ns, 0.0);
  EXPECT_LE(row.min_ns, row.max_ns);
  EXPECT_LT(row.max_ns, 60.0);
}

TEST(Experiments, LatencyGrowsWithCapacity) {
  const LatencyRow small = latency(kMixedClock, cfg_of(4, 8), 6);
  const LatencyRow big = latency(kMixedClock, cfg_of(16, 8), 6);
  EXPECT_LT(small.min_ns, big.min_ns);
}

TEST(Experiments, RelayStationRowsValidate) {
  const ThroughputRow mc = throughput(kMixedClock, cfg_of(4, 8, true), 600);
  EXPECT_TRUE(mc.validated);
  const ThroughputRow as = throughput(kAsyncSync, cfg_of(4, 8, true), 600);
  EXPECT_TRUE(as.validated);
}

TEST(Experiments, RelayStationLatencyCloseToFifo) {
  const LatencyRow fifo_row = latency(kMixedClock, cfg_of(4, 8), 6);
  const LatencyRow rs_row = latency(kMixedClock, cfg_of(4, 8, true), 6);
  EXPECT_GT(rs_row.min_ns, 0.0);
  // Table 1: MCRS latency within ~1 ns of the FIFO's.
  EXPECT_LT(std::abs(rs_row.min_ns - fifo_row.min_ns), 3.0);
}

TEST(Experiments, AsyncPutRateIndependentOfControllerKind) {
  // Table 1: the async-sync FIFO and ASRS share identical put columns.
  const ThroughputRow f = throughput(kAsyncSync, cfg_of(4, 8), 500);
  const ThroughputRow r = throughput(kAsyncSync, cfg_of(4, 8, true), 500);
  EXPECT_NEAR(f.put, r.put, 0.05 * f.put);
}

TEST(Experiments, UndeliveredLatencyRowReportsNoPhases) {
  // An ne-only empty detector deadlocks on the last item, so the single
  // put of every phase stays in the FIFO: the row must say so rather than
  // report a sentinel as a latency.
  fifo::FifoConfig cfg = cfg_of(4, 8);
  cfg.empty_kind = fifo::EmptyDetectorKind::kNeOnly;
  for (const Design d : {kMixedClock, kAsyncSync}) {
    const LatencyRow row = latency(d, cfg, 6);
    EXPECT_EQ(row.delivered, 0u);
    EXPECT_EQ(row.min_ns, 0.0);
    EXPECT_EQ(row.max_ns, 0.0);
  }
  const LatencyRow none = latency(kMixedClock, cfg_of(4, 8), 0);
  EXPECT_EQ(none.delivered, 0u);
  EXPECT_EQ(none.min_ns, 0.0);
  EXPECT_EQ(none.max_ns, 0.0);
}

TEST(Experiments, LatencyRowCountsDeliveringPhases) {
  EXPECT_EQ(latency(kMixedClock, cfg_of(4, 8), 6).delivered, 6u);
  EXPECT_EQ(latency(kAsyncSync, cfg_of(4, 8, true), 6).delivered, 6u);
  // An asynchronous receiver has no clock phase to sweep: one run.
  EXPECT_EQ(latency(kSyncAsync, cfg_of(4, 8), 6).delivered, 1u);
  EXPECT_EQ(latency(kAsyncAsync, cfg_of(4, 8), 6).delivered, 1u);
}

}  // namespace
}  // namespace mts::metrics
