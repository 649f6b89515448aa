// Tests of the extension experiments completing the 2x2 interface matrix.
#include <gtest/gtest.h>

#include "fifo/interface_sides.hpp"
#include "metrics/experiments.hpp"

namespace mts::metrics {
namespace {

using enum Design;

fifo::FifoConfig cfg_of(unsigned capacity, unsigned width) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  return cfg;
}

TEST(MatrixExtension, SyncAsyncThroughputValidates) {
  const ThroughputRow row = throughput(kSyncAsync, cfg_of(4, 8), 600);
  EXPECT_TRUE(row.validated);
  // The synchronous put side matches the mixed-clock put (same half).
  const ThroughputRow mc = throughput(kMixedClock, cfg_of(4, 8), 300);
  EXPECT_DOUBLE_EQ(row.put, mc.put);
  // The asynchronous get side is slower than the sync put.
  EXPECT_LT(row.get, row.put);
  EXPECT_GT(row.get, 0.0);
}

TEST(MatrixExtension, AsyncAsyncThroughputValidates) {
  const ThroughputRow row = throughput(kAsyncAsync, cfg_of(4, 8), 300);
  EXPECT_TRUE(row.validated);
  EXPECT_GT(row.put, 100.0);
  EXPECT_GT(row.get, 100.0);
  // In a self-timed loop the two interfaces rate-match.
  EXPECT_NEAR(row.put, row.get, 0.1 * row.put);
}

TEST(MatrixExtension, SaturatedRunsValidateOnTheAsyncReceiverDesigns) {
  // One validation run covers every design: a synchronous side at its
  // critical-path period, an asynchronous side with no idle gap.
  const fifo::FifoConfig cfg = cfg_of(4, 8);
  const ValidationResult sa = validate(
      kSyncAsync, cfg, fifo::SyncPutSide::min_period(cfg), 0, 600);
  EXPECT_TRUE(sa.clean());
  EXPECT_GT(sa.dequeued, 150u);
  const ValidationResult aa = validate(kAsyncAsync, cfg, 0, 0, 300);
  EXPECT_TRUE(aa.clean());
  EXPECT_GT(aa.dequeued, 150u);
}

TEST(MatrixExtension, SyncAsyncLatencyDeterministic) {
  const LatencyRow row = latency(kSyncAsync, cfg_of(4, 8));
  EXPECT_GT(row.min_ns, 0.0);
  EXPECT_DOUBLE_EQ(row.min_ns, row.max_ns);
  // No synchronizer crossing on the read side: lower latency than the
  // fully synchronous design's minimum.
  const LatencyRow mc = latency(kMixedClock, cfg_of(4, 8), 6);
  EXPECT_LT(row.min_ns, mc.min_ns);
}

TEST(MatrixExtension, AsyncAsyncLatencyLowest) {
  const LatencyRow aa = latency(kAsyncAsync, cfg_of(4, 8));
  const LatencyRow sa = latency(kSyncAsync, cfg_of(4, 8));
  EXPECT_GT(aa.min_ns, 0.0);
  // No clock anywhere: the async-async FIFO has the lowest latency of the
  // matrix (the [4] design's headline property).
  EXPECT_LT(aa.min_ns, sa.min_ns);
}

TEST(MatrixExtension, LatencyGrowsWithCapacityAcrossTheMatrix) {
  EXPECT_LT(latency(kSyncAsync, cfg_of(4, 8)).min_ns,
            latency(kSyncAsync, cfg_of(16, 8)).min_ns);
  EXPECT_LT(latency(kAsyncAsync, cfg_of(4, 8)).min_ns,
            latency(kAsyncAsync, cfg_of(16, 8)).min_ns);
}

}  // namespace
}  // namespace mts::metrics
