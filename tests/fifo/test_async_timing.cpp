// The asynchronous handshake's static cycle-time estimate must track the
// measured saturated rate and scale the way Table 1 does.
#include "fifo/async_timing.hpp"

#include <gtest/gtest.h>

#include "fifo/interface_sides.hpp"
#include "metrics/experiments.hpp"

namespace mts::fifo {
namespace {

FifoConfig cfg_of(unsigned capacity, unsigned width) {
  FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  return cfg;
}

TEST(AsyncTiming, EstimateTracksMeasurementWithin15Percent) {
  for (unsigned cap : {4u, 8u, 16u}) {
    const FifoConfig cfg = cfg_of(cap, 8);
    const double est = async_put_mops_estimate(cfg);
    const double meas =
        metrics::throughput(metrics::Design::kAsyncSync, cfg, 500).put;
    EXPECT_NEAR(est, meas, 0.15 * meas) << "capacity " << cap;
  }
}

TEST(AsyncTiming, ScalesWithCapacityAndWidth) {
  EXPECT_GT(async_put_mops_estimate(cfg_of(4, 8)),
            async_put_mops_estimate(cfg_of(16, 8)));
  EXPECT_GT(async_put_mops_estimate(cfg_of(4, 8)),
            async_put_mops_estimate(cfg_of(4, 16)));
}

TEST(AsyncTiming, IndependentOfControllerKind) {
  // The async put half is identical in the FIFO and the ASRS (Table 1's
  // identical columns).
  FifoConfig fifo_cfg = cfg_of(8, 8);
  FifoConfig rs_cfg = fifo_cfg;
  rs_cfg.controller = ControllerKind::kRelayStation;
  EXPECT_EQ(async_put_cycle_estimate(fifo_cfg),
            async_put_cycle_estimate(rs_cfg));
}

TEST(AsyncTiming, SlowerThanSyncInterfaces) {
  // Table 1's ordering: the asynchronous put protocol is the slowest
  // interface of each design.
  const FifoConfig cfg = cfg_of(8, 8);
  EXPECT_LT(async_put_mops_estimate(cfg),
            sim::period_to_mhz(SyncGetSide::min_period(cfg)));
}

}  // namespace
}  // namespace mts::fifo
