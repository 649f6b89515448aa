// Timing validation: the static critical-path analysis (which generates
// Table 1's throughput numbers) must agree with dynamic behaviour --
// clean at the reported minimum period, failing when clocked meaningfully
// faster.
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

TEST(Timing, MixedClockCleanAtStaticMinimum) {
  const FifoConfig cfg = cfg_of(4, 8);
  const auto v = metrics::validate(
      metrics::Design::kMixedClock, cfg, SyncPutSide::min_period(cfg),
      SyncGetSide::min_period(cfg), 800);
  EXPECT_TRUE(v.clean()) << "violations=" << v.timing_violations
                         << " over=" << v.overflows << " under=" << v.underflows
                         << " sb=" << v.scoreboard_errors;
  EXPECT_GT(v.enqueued, 200u);
  EXPECT_GT(v.dequeued, 200u);
}

TEST(Timing, MixedClockCleanAtStaticMinimumLarge) {
  const FifoConfig cfg = cfg_of(16, 16);
  const auto v = metrics::validate(
      metrics::Design::kMixedClock, cfg, SyncPutSide::min_period(cfg),
      SyncGetSide::min_period(cfg), 600);
  EXPECT_TRUE(v.clean());
  EXPECT_GT(v.dequeued, 150u);
}

TEST(Timing, MixedClockFailsWellBelowMinimumGetPeriod) {
  // Clock the get interface 25% beyond its critical path while the put
  // interface saturates: the empty-detector loop misses edges and the
  // design underflows or corrupts data.
  const FifoConfig cfg = cfg_of(4, 8);
  const auto v = metrics::validate(
      metrics::Design::kMixedClock, cfg, SyncPutSide::min_period(cfg),
      SyncGetSide::min_period(cfg) * 3 / 4, 800);
  EXPECT_FALSE(v.clean());
}

TEST(Timing, MixedClockFailsWellBelowMinimumPutPeriod) {
  const FifoConfig cfg = cfg_of(4, 8);
  // Consumer much slower: the FIFO rides the full boundary, where a late
  // full flag manifests as overwrites.
  const auto v = metrics::validate(
      metrics::Design::kMixedClock, cfg, SyncPutSide::min_period(cfg) * 3 / 4,
      SyncGetSide::min_period(cfg) * 3, 800);
  EXPECT_FALSE(v.clean());
}

TEST(Timing, AsyncSyncCleanAtStaticMinimum) {
  const FifoConfig cfg = cfg_of(4, 8);
  const auto v = metrics::validate(
      metrics::Design::kAsyncSync, cfg, 0, SyncGetSide::min_period(cfg), 800);
  EXPECT_TRUE(v.clean()) << "violations=" << v.timing_violations
                         << " over=" << v.overflows << " under=" << v.underflows
                         << " sb=" << v.scoreboard_errors;
  EXPECT_GT(v.dequeued, 100u);
}

TEST(Timing, RelayStationVariantsCleanAtStaticMinimum) {
  FifoConfig cfg = cfg_of(4, 8);
  cfg.controller = ControllerKind::kRelayStation;
  const auto mc = metrics::validate(
      metrics::Design::kMixedClock, cfg, SyncPutSide::min_period(cfg),
      SyncGetSide::min_period(cfg), 800);
  EXPECT_TRUE(mc.clean());
  EXPECT_GT(mc.dequeued, 200u);

  const auto as = metrics::validate(
      metrics::Design::kAsyncSync, cfg, 0, SyncGetSide::min_period(cfg), 800);
  EXPECT_TRUE(as.clean());
  EXPECT_GT(as.dequeued, 100u);
}

TEST(Timing, RelayStationPutFasterThanFifoPut) {
  // Table 1: the MCRS put interface (inverter controller) beats the FIFO
  // put interface (AND controller); the get sides differ by at most one
  // gate (the paper measures the MCRS get ~2% slower; our model lands
  // within ~2% in the other direction -- see EXPERIMENTS.md).
  FifoConfig fifo_cfg = cfg_of(8, 8);
  FifoConfig rs_cfg = fifo_cfg;
  rs_cfg.controller = ControllerKind::kRelayStation;
  EXPECT_LT(SyncPutSide::min_period(rs_cfg), SyncPutSide::min_period(fifo_cfg));
  const double fifo_get = static_cast<double>(SyncGetSide::min_period(fifo_cfg));
  const double rs_get = static_cast<double>(SyncGetSide::min_period(rs_cfg));
  EXPECT_NEAR(rs_get, fifo_get, 0.05 * fifo_get);
}

TEST(Timing, Table1RelationshipsAreProcessInvariant) {
  // A uniformly shrunk technology must preserve every Table 1 ordering;
  // only absolute rates change.
  for (double factor : {0.6, 1.5}) {
    FifoConfig cfg = cfg_of(8, 8);
    cfg.dm = gates::DelayModel::hp06().scaled(factor);
    FifoConfig rs = cfg;
    rs.controller = ControllerKind::kRelayStation;
    FifoConfig big = cfg;
    big.capacity = 16;

    EXPECT_LT(SyncPutSide::min_period(cfg), SyncGetSide::min_period(cfg));
    EXPECT_LT(SyncPutSide::min_period(rs), SyncPutSide::min_period(cfg));
    EXPECT_LT(SyncPutSide::min_period(cfg), SyncPutSide::min_period(big));
    // Faster process => shorter periods overall.
    if (factor < 1.0) {
      EXPECT_LT(SyncPutSide::min_period(cfg),
                SyncPutSide::min_period(cfg_of(8, 8)));
    } else {
      EXPECT_GT(SyncPutSide::min_period(cfg),
                SyncPutSide::min_period(cfg_of(8, 8)));
    }
  }
}

TEST(Timing, ScaledProcessStillValidatesDynamically) {
  FifoConfig cfg = cfg_of(4, 8);
  cfg.dm = gates::DelayModel::hp06().scaled(0.6);
  const auto v = metrics::validate(
      metrics::Design::kMixedClock, cfg, SyncPutSide::min_period(cfg),
      SyncGetSide::min_period(cfg), 600);
  EXPECT_TRUE(v.clean());
  EXPECT_GT(v.dequeued, 150u);
}

TEST(Timing, BreakdownSumsToMinPeriod) {
  for (unsigned cap : {4u, 8u, 16u}) {
    for (unsigned width : {8u, 16u}) {
      for (bool rs : {false, true}) {
        FifoConfig cfg = cfg_of(cap, width);
        cfg.controller =
            rs ? ControllerKind::kRelayStation : ControllerKind::kFifo;
        EXPECT_EQ(path_total(SyncPutSide::describe_min_period(cfg)),
                  SyncPutSide::min_period(cfg));
        EXPECT_EQ(path_total(SyncGetSide::describe_min_period(cfg)),
                  SyncGetSide::min_period(cfg));
      }
    }
  }
}

TEST(Timing, BreakdownElementsAreNamedAndNonTrivial) {
  const auto put_path = SyncPutSide::describe_min_period(cfg_of(8, 8));
  ASSERT_GE(put_path.size(), 5u);
  for (const PathElement& e : put_path) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_GT(e.delay, 0u);
  }
  // The detector and the token/controller leg are the two big terms.
  const auto get_path = SyncGetSide::describe_min_period(cfg_of(8, 8));
  bool has_detector = false;
  for (const PathElement& e : get_path) {
    has_detector = has_detector || e.name.find("detector") != std::string::npos;
  }
  EXPECT_TRUE(has_detector);
}

TEST(Timing, PeriodsScaleWithCapacityAndWidth) {
  for (bool rs : {false, true}) {
    FifoConfig base = cfg_of(4, 8);
    base.controller = rs ? ControllerKind::kRelayStation : ControllerKind::kFifo;
    FifoConfig big_cap = base;
    big_cap.capacity = 16;
    FifoConfig big_width = base;
    big_width.width = 16;
    EXPECT_LT(SyncPutSide::min_period(base), SyncPutSide::min_period(big_cap));
    EXPECT_LT(SyncPutSide::min_period(base), SyncPutSide::min_period(big_width));
    EXPECT_LT(SyncGetSide::min_period(base), SyncGetSide::min_period(big_cap));
    EXPECT_LT(SyncGetSide::min_period(base), SyncGetSide::min_period(big_width));
  }
}

}  // namespace
}  // namespace mts::fifo
