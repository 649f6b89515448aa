// Ablation tests for the design decisions of Section 3.2: these prove the
// paper's arguments by breaking each mechanism and watching the predicted
// failure appear.
#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sync/clock.hpp"

namespace mts::fifo {
namespace {

using sim::Time;

FifoConfig cfg_with(EmptyDetectorKind empty_kind, FullDetectorKind full_kind) {
  FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  cfg.empty_kind = empty_kind;
  cfg.full_kind = full_kind;
  return cfg;
}

struct Harness {
  sim::Simulation sim{1};
  FifoConfig cfg;
  Time put_p;
  Time get_p;
  sync::Clock clk_put;
  sync::Clock clk_get;
  MixedClockFifo dut;
  bfm::Scoreboard sb{sim, "sb"};
  bfm::PutMonitor put_mon;
  bfm::GetMonitor get_mon;

  explicit Harness(const FifoConfig& c)
      : cfg(c),
        put_p(2 * SyncPutSide::min_period(c)),
        get_p(2 * SyncGetSide::min_period(c)),
        clk_put(sim, "clk_put", {put_p, 4 * put_p, 0.5, 0}),
        clk_get(sim, "clk_get", {get_p, 4 * put_p + get_p / 3, 0.5, 0}),
        dut(sim, "dut", c, clk_put.out(), clk_get.out()),
        put_mon(sim, clk_put.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                sb),
        get_mon(sim, clk_get.out(), dut.valid_get(), dut.data_get(), sb) {}

  Time start() const { return 4 * put_p; }

  /// One item placed into the FIFO, then the receiver starts requesting
  /// only after the item has settled -- the deadlock scenario of Section
  /// 3.2.
  void run_single_item_then_get() {
    const Time react = cfg.dm.flop.clk_to_q + 1;
    const Time edge = start() + 8 * put_p;
    sim.sched().at(edge + react, [this] {
      dut.data_put().set(0x33);
      dut.req_put().set(true);
      sb.push(0x33);
    });
    sim.sched().at(edge + put_p + react, [this] { dut.req_put().set(false); });
    sim.sched().at(edge + 10 * get_p, [this] { dut.req_get().set(true); });
    sim.run_until(edge + 60 * get_p);
  }
};

TEST(DetectorAblation, NeOnlyDeadlocksOnLastItem) {
  // With only the anticipating ("new") empty definition, a FIFO holding one
  // item reads as empty forever: the receiver stalls and the item is stuck.
  Harness h(cfg_with(EmptyDetectorKind::kNeOnly, FullDetectorKind::kAnticipating));
  h.run_single_item_then_get();
  EXPECT_EQ(h.get_mon.dequeued(), 0u) << "ne-only detector should deadlock";
  EXPECT_EQ(h.dut.occupancy(), 1u);
  EXPECT_TRUE(h.dut.empty().read());
}

TEST(DetectorAblation, BimodalDeliversLastItem) {
  // Same scenario with the paper's bi-modal detector: delivered.
  Harness h(cfg_with(EmptyDetectorKind::kBimodal, FullDetectorKind::kAnticipating));
  h.run_single_item_then_get();
  EXPECT_EQ(h.get_mon.dequeued(), 1u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(DetectorAblation, OeOnlyUnderflowsUnderSaturatedGets) {
  // With only the true-empty definition, the synchronizer latency lets the
  // receiver fire gets into an already-drained FIFO (Section 3.2's
  // motivation for the "new empty" definition).
  Harness h(cfg_with(EmptyDetectorKind::kOeOnly, FullDetectorKind::kAnticipating));
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{0.35, 1}, 0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.sim.run_until(h.start() + 600 * h.put_p);
  EXPECT_GT(h.dut.underflow_count(), 0u)
      << "oe-only detector should underflow near empty";
}

TEST(DetectorAblation, BimodalSurvivesTheSameWorkload) {
  Harness h(cfg_with(EmptyDetectorKind::kBimodal, FullDetectorKind::kAnticipating));
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{0.35, 1}, 0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.sim.run_until(h.start() + 600 * h.put_p);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(DetectorAblation, ExactFullOverflowsUnderSaturatedPuts) {
  // With the exact full definition (no empty cells), the two-cycle
  // synchronizer latency lets the sender overwrite an occupied cell.
  Harness h(cfg_with(EmptyDetectorKind::kBimodal, FullDetectorKind::kExact));
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{0.3, 1});
  h.sim.run_until(h.start() + 600 * h.put_p);
  EXPECT_GT(h.dut.overflow_count() + h.sb.errors(), 0u)
      << "exact-full detector should overflow near full";
}

TEST(DetectorAblation, AnticipatingFullSurvivesTheSameWorkload) {
  Harness h(cfg_with(EmptyDetectorKind::kBimodal, FullDetectorKind::kAnticipating));
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{0.3, 1});
  h.sim.run_until(h.start() + 600 * h.put_p);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

// --- Full-boundary hazard characterization (see DvKind documentation) ---
//
// With the paper's SR-latch DV, a cell is declared empty the moment its get
// STARTS; when the reader's clock is much slower than the writer's and the
// FIFO rides the full boundary, the margin cell can be granted back to the
// writer while the read is still in flight. The serialized (conservative)
// DV declares the cell empty only when the get COMPLETES, closing the
// window. These runs are deterministic (fixed seed, no jitter).

namespace {
struct BoundaryOutcome {
  std::uint64_t corruptions;
  std::uint64_t delivered;
};

BoundaryOutcome run_full_boundary(DvKind dv) {
  FifoConfig cfg = cfg_with(EmptyDetectorKind::kBimodal,
                            FullDetectorKind::kAnticipating);
  cfg.dv_kind = dv;
  sim::Simulation sim(5);
  const Time pp = 2 * SyncPutSide::min_period(cfg);
  const Time gp = static_cast<Time>(
      2 * 2.7 * static_cast<double>(SyncGetSide::min_period(cfg)));
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                     sb);
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1});
  sim.run_until(4 * pp + 500 * pp);
  return {sb.errors() + dut.overflow_count() + dut.underflow_count(),
          gm.dequeued()};
}
}  // namespace

TEST(DvAblation, SrLatchDvCorruptsAtFullBoundaryWithSlowReader) {
  const BoundaryOutcome out = run_full_boundary(DvKind::kSrLatch);
  EXPECT_GT(out.corruptions, 0u)
      << "expected the documented slow-reader hazard to reproduce";
}

TEST(DvAblation, ConservativeDvIsCleanAtTheSameBoundary) {
  const BoundaryOutcome out = run_full_boundary(DvKind::kConservative);
  EXPECT_EQ(out.corruptions, 0u);
  EXPECT_GT(out.delivered, 50u);
}

TEST(DvAblation, ConservativeDvPassesTheStandardBattery) {
  FifoConfig cfg = cfg_with(EmptyDetectorKind::kBimodal,
                            FullDetectorKind::kAnticipating);
  cfg.dv_kind = DvKind::kConservative;
  Harness h(cfg);
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{1.0, 1});
  h.sim.run_until(h.start() + 500 * h.put_p);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
  EXPECT_GT(h.get_mon.dequeued(), 100u);
}

// --- Depth/anticipation coupling (found by the fuzz campaign) ---
//
// "Arbitrarily robust" synchronizer depth cannot be raised alone: a flag
// takes depth cycles to cross, so the opposite interface can complete
// depth-1 further operations before a stall lands. The anticipating
// detectors must therefore announce boundaries depth-1 items early
// (anticipation_window), and the Fig. 7b veto must join before the LAST
// synchronizer latch. These tests pin the generalized behaviour.

TEST(DepthCoupling, DepthThreeIsCleanWithWidenedAnticipation) {
  FifoConfig cfg = cfg_with(EmptyDetectorKind::kBimodal,
                            FullDetectorKind::kAnticipating);
  cfg.capacity = 6;
  cfg.sync.depth = 3;
  Harness h(cfg);
  bfm::SyncPutDriver put(h.sim, "put", h.clk_put.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm,
                         bfm::RateConfig{1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.clk_get.out(), h.dut.req_get(),
                         h.cfg.dm, bfm::RateConfig{0.4, 1});  // rides empty+full
  h.sim.run_until(h.start() + 800 * h.put_p);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.dut.overflow_count(), 0u);
  EXPECT_EQ(h.dut.underflow_count(), 0u);
  EXPECT_GT(h.get_mon.dequeued(), 100u);
}

TEST(DepthCoupling, DepthFourLastItemStillDelivered) {
  FifoConfig cfg = cfg_with(EmptyDetectorKind::kBimodal,
                            FullDetectorKind::kAnticipating);
  cfg.capacity = 8;
  cfg.sync.depth = 4;
  Harness h(cfg);
  h.run_single_item_then_get();
  EXPECT_EQ(h.get_mon.dequeued(), 1u);
  EXPECT_EQ(h.sb.errors(), 0u);
}

TEST(DepthCoupling, CapacityBelowWindowRejected) {
  FifoConfig cfg = cfg_with(EmptyDetectorKind::kBimodal,
                            FullDetectorKind::kAnticipating);
  cfg.capacity = 2;
  cfg.sync.depth = 3;  // window 3 > capacity 2
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(DetectorAblation, BimodalWithDepthZeroRejected) {
  FifoConfig cfg = cfg_with(EmptyDetectorKind::kBimodal,
                            FullDetectorKind::kAnticipating);
  cfg.sync.depth = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

}  // namespace
}  // namespace mts::fifo
