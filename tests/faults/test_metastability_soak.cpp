// Metastability soak: the paper's robustness claim as a falsifiable
// experiment.
//
// A MetaFault stretches the susceptibility window and resolution tau of
// every synchronizer *front* stage ("Sync.ff0"), accelerating the rare
// events the two-parameter MTBF model rates until they are observable in a
// bounded run. With a depth-1 synchronizer the late-settling flag reaches
// the put/get controllers mid-cycle, glitches the we/re pulses and corrupts
// the FIFO state (scoreboard mismatches, overflow, underflow). With the
// paper's depth-2 (or deeper) chain the same injected stress -- same seed,
// same accelerated front-stage distribution -- is filtered by the healthy
// rear stages and the run stays clean. The depth-1 escape *rate* is also
// checked against the analytic sync::mtbf_seconds prediction (order of
// magnitude: the soak is a short run of a Poisson process).
//
// Seed override: MTS_FAULT_SEED=<n> (the nightly CI job sets one derived
// from the date). Failures print the FaultPlan and a one-line repro.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iostream>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sync/clock.hpp"
#include "sync/mtbf.hpp"

#include "fault_test_util.hpp"

namespace mts {
namespace {

using sim::Time;

// Acceleration parameters: chosen so the depth-1 run expects tens of
// escapes (statistically solid) while the depth-2 run expects none (the
// rear stage runs at nominal tau, so a front escape would additionally
// need a nominal-tau escape -- probability ~exp(-slack/tau) ~ 1e-15).
constexpr double kWindowScale = 4.0;   // front-stage window: 100ps -> 400ps
constexpr double kTauScale = 15.0;     // front-stage tau: 80ps -> 1200ps
constexpr unsigned kSoakCycles = 6000; // put-clock cycles per run

struct SoakResult {
  std::uint64_t samples = 0;      // front-stage in-window samples
  std::uint64_t escapes = 0;      // resolutions past the slack threshold
  std::uint64_t sb_errors = 0;
  std::uint64_t overflow = 0;
  std::uint64_t underflow = 0;
  std::uint64_t dequeued = 0;
  double elapsed_sec = 0;         // simulated seconds
  double f_full = 0;              // measured raw-detector toggle rates (Hz)
  double f_ne = 0;
  double f_oe = 0;
  Time put_period = 0;
  Time get_period = 0;
  std::string plan_desc;

  std::uint64_t corruption() const { return sb_errors + overflow + underflow; }
};

SoakResult run_soak(sim::Simulation& sim, unsigned depth,
                    std::uint64_t seed) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  cfg.sync.depth = depth;
  cfg.sync.mode = sync::MetaMode::kStochastic;

  // Reseed with the soak's own (MTS_FAULT_SEED-overridable) seed: the run
  // is bit-identical to the historical standalone-Simulation version, the
  // campaign only contributes arena reuse and parallel placement.
  sim.reset(seed);
  // Generous, incommensurate periods: protocol timing is comfortable and
  // the domains' relative phase precesses, so raw-flag transitions sweep
  // uniformly across the receiving clocks' susceptibility windows.
  const Time base = fifo::SyncPutSide::min_period(cfg) * 2;
  const Time pp = base;
  const Time gp = base * 107 / 97 + 3;
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get",
                 {gp, 4 * pp + static_cast<Time>(seed % gp), 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());

  // Escape thresholds: the per-stage resolution slack of the receiving
  // clock (mtbf.hpp's t_r). fullSync is clocked by clk_put, ne/oe by
  // clk_get; register the specific site first (first match wins).
  sim::FaultPlan plan(seed);
  const sim::MetaFault front{kWindowScale, kTauScale, 0.5,
                             sync::stage_slack({1, pp, 0, cfg.dm})};
  sim::MetaFault front_get = front;
  front_get.escape_threshold = sync::stage_slack({1, gp, 0, cfg.dm});
  plan.inject_meta("fullSync.ff0", front);
  plan.inject_meta("Sync.ff0", front_get);
  sim.arm_faults(&plan);

  // Raw-flag toggle counters give the measured f_data for the MTBF model.
  std::uint64_t tog_full = 0, tog_ne = 0, tog_oe = 0;
  dut.full_raw().on_change([&tog_full](bool, bool) { ++tog_full; });
  dut.ne_raw().on_change([&tog_ne](bool, bool) { ++tog_ne; });
  dut.oe_raw().on_change([&tog_oe](bool, bool) { ++tog_oe; });

  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                     sb);
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {0.85, 1});

  const Time t0 = 4 * pp;
  const Time t1 = t0 + kSoakCycles * pp;
  sim.run_until(t1);

  SoakResult r;
  r.samples = plan.count("meta.sample");
  r.escapes = plan.count("meta.escape");
  r.sb_errors = sb.errors();
  r.overflow = dut.overflow_count();
  r.underflow = dut.underflow_count();
  r.dequeued = gm.dequeued();
  r.elapsed_sec = static_cast<double>(t1 - t0) * 1e-12;
  r.f_full = static_cast<double>(tog_full) / r.elapsed_sec;
  r.f_ne = static_cast<double>(tog_ne) / r.elapsed_sec;
  r.f_oe = static_cast<double>(tog_oe) / r.elapsed_sec;
  r.put_period = pp;
  r.get_period = gp;
  r.plan_desc = plan.describe();
  // The plan and every component above are about to leave scope; disarm so
  // the Simulation never holds a dangling plan pointer between runs.
  sim.arm_faults(nullptr);
  return r;
}

/// The three accelerated soaks (depths 1, 2, 3) as one sim::Campaign,
/// executed once and shared by the per-depth TESTs below. Config index c
/// maps to depth c+1; every run reseeds with the common fault seed, so the
/// depth-2/3 runs see the exact same injected front-stage stress as the
/// depth-1 run -- that sameness IS the experiment.
struct SoakCampaign {
  std::array<SoakResult, 3> by_depth;  // [depth-1]
  std::size_t failed = 0;
  std::string first_error;
};

const SoakCampaign& soak_campaign() {
  static const SoakCampaign shared = [] {
    SoakCampaign out;
    const std::uint64_t seed = faulttest::fault_seed(0x1EAF);
    sim::CampaignOptions opt;
    opt.workers = faulttest::campaign_jobs();
    opt.seed = 0x1EAF;
    sim::Campaign campaign(3, 1, opt);
    campaign.run([&out, seed](sim::CampaignContext& ctx) {
      const unsigned depth = static_cast<unsigned>(ctx.spec().config) + 1;
      out.by_depth[ctx.spec().config] = run_soak(ctx.sim(), depth, seed);
      ctx.set("escapes",
              static_cast<double>(out.by_depth[ctx.spec().config].escapes));
    });
    out.failed = campaign.failed();
    for (const sim::RunResult& r : campaign.results()) {
      if (!r.ok && out.first_error.empty()) out.first_error = r.error;
    }
    return out;
  }();
  return shared;
}

/// Expected escape count over the soak from the analytic model, using the
/// *injected* (accelerated) window and tau and the *measured* flag toggle
/// rates. The Etdff's nominal susceptibility window is its setup time.
double predicted_escapes(const SoakResult& r) {
  gates::DelayModel dm = gates::DelayModel::hp06();
  dm.meta_window =
      static_cast<Time>(static_cast<double>(dm.flop.setup) * kWindowScale);
  dm.meta_tau =
      static_cast<Time>(static_cast<double>(dm.meta_tau) * kTauScale);
  double rate = 0;  // failures per second, summed over the three chains
  rate += 1.0 / sync::mtbf_seconds({1, r.put_period, r.f_full, dm});
  rate += 1.0 / sync::mtbf_seconds({1, r.get_period, r.f_ne, dm});
  rate += 1.0 / sync::mtbf_seconds({1, r.get_period, r.f_oe, dm});
  return rate * r.elapsed_sec;
}

TEST(MetastabilitySoak, DepthOneCorruptsAndEscapeRateMatchesMtbfModel) {
  const std::uint64_t seed = faulttest::fault_seed(0x1EAF);
  ASSERT_EQ(soak_campaign().failed, 0u) << soak_campaign().first_error;
  const SoakResult& r = soak_campaign().by_depth[0];
  const double pred = predicted_escapes(r);
  const std::string diag =
      r.plan_desc + "\nsamples=" + std::to_string(r.samples) +
      " escapes=" + std::to_string(r.escapes) +
      " predicted=" + std::to_string(pred) +
      " sb_errors=" + std::to_string(r.sb_errors) +
      " overflow=" + std::to_string(r.overflow) +
      " underflow=" + std::to_string(r.underflow) +
      " dequeued=" + std::to_string(r.dequeued) + "\n" +
      faulttest::repro_hint("MetastabilitySoak.*", seed);
  std::cout << "[depth 1] " << diag << "\n";

  // The run still moves data (it is degraded, not deadlocked)...
  EXPECT_GT(r.dequeued, kSoakCycles / 8) << diag;
  // ...but a depth-1 synchronizer lets accelerated metastability through:
  // the scoreboard/occupancy checkers catch real corruption.
  EXPECT_GT(r.corruption(), 0u) << diag;
  // The escape rate tracks the analytic MTBF model. Both sides of the
  // bound matter: >pred/10 means the injection really runs at the modelled
  // rate, <pred*10 means it does not over-fire (e.g. no same-domain flag
  // transitions parked inside the window).
  ASSERT_GE(r.escapes, 5u) << diag;
  EXPECT_GT(static_cast<double>(r.escapes), pred / 10.0) << diag;
  EXPECT_LT(static_cast<double>(r.escapes), pred * 10.0) << diag;
}

TEST(MetastabilitySoak, DepthTwoStaysCleanUnderTheSameStress) {
  const std::uint64_t seed = faulttest::fault_seed(0x1EAF);
  ASSERT_EQ(soak_campaign().failed, 0u) << soak_campaign().first_error;
  const SoakResult& r = soak_campaign().by_depth[1];
  const std::string diag = r.plan_desc + "\n" +
                           faulttest::repro_hint("MetastabilitySoak.*", seed);
  std::cout << "[depth 2] samples=" << r.samples << " escapes=" << r.escapes
            << " corruption=" << r.corruption() << " dequeued=" << r.dequeued
            << "\n";
  // The front stage is stressed exactly as in the depth-1 run...
  EXPECT_GT(r.samples, 20u) << diag;
  // ...but the nominal-tau rear stage filters every late resolution: no
  // escapes are even *possible* to record (the threshold applies to the
  // final stage) and, decisively, nothing downstream corrupts.
  EXPECT_EQ(r.escapes, 0u) << diag;
  EXPECT_EQ(r.corruption(), 0u) << diag;
  EXPECT_GT(r.dequeued, kSoakCycles / 4) << diag;
}

TEST(MetastabilitySoak, DepthThreeStaysCleanUnderTheSameStress) {
  const std::uint64_t seed = faulttest::fault_seed(0x1EAF);
  ASSERT_EQ(soak_campaign().failed, 0u) << soak_campaign().first_error;
  const SoakResult& r = soak_campaign().by_depth[2];
  const std::string diag = r.plan_desc + "\n" +
                           faulttest::repro_hint("MetastabilitySoak.*", seed);
  EXPECT_GT(r.samples, 20u) << diag;
  EXPECT_EQ(r.escapes, 0u) << diag;
  EXPECT_EQ(r.corruption(), 0u) << diag;
  EXPECT_GT(r.dequeued, kSoakCycles / 4) << diag;
}

TEST(MetastabilitySoak, UnarmedStochasticDepthTwoBaselineIsClean) {
  // Nominal tau, no plan: the paper's configuration passes the same soak
  // (this is the control run for the accelerated experiments above).
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  cfg.sync.depth = 2;
  cfg.sync.mode = sync::MetaMode::kStochastic;
  sim::Simulation sim(faulttest::fault_seed(0x1EAF));
  const Time pp = fifo::SyncPutSide::min_period(cfg) * 2;
  const Time gp = pp * 107 / 97 + 3;
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(),
                     sb);
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {0.85, 1});
  sim.run_until(4 * pp + 2000 * pp);
  EXPECT_EQ(sb.errors(), 0u);
  EXPECT_EQ(dut.overflow_count(), 0u);
  EXPECT_EQ(dut.underflow_count(), 0u);
}

}  // namespace
}  // namespace mts
