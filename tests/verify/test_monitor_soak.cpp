// Armed-monitor soak: protocol monitors riding fault-injection campaigns
// in record-and-continue mode. Pins the three properties the nightly
// monitor-soak CI job relies on: violations are attributed only to the
// faulted configs, an armed run behaves identically to an unarmed one, and
// same-seed armed runs are deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "bfm/bfm.hpp"
#include "fifo/async_timing.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

#include "../faults/fault_test_util.hpp"

namespace mts::verify {
namespace {

using sim::Time;

/// Async-sync FIFO + drivers built against a caller-owned Simulation (the
/// campaign worker's shard), so monitors attach iff the engine armed a hub.
struct SoakRig {
  fifo::FifoConfig cfg;
  Time gp;
  sync::Clock cg;
  fifo::AsyncSyncFifo dut;
  bfm::Scoreboard sb;
  bfm::AsyncPutDriver put;
  bfm::SyncGetDriver get;
  bfm::GetMonitor gm;

  static fifo::FifoConfig make_cfg() {
    fifo::FifoConfig cfg;
    cfg.capacity = 4;
    cfg.width = 8;
    return cfg;
  }

  explicit SoakRig(sim::Simulation& sim)
      : cfg(make_cfg()),
        gp(2 * fifo::SyncGetSide::min_period(cfg)),
        cg(sim, "cg", {gp, 4 * gp, 0.5, 0}),
        dut(sim, "dut", cfg, cg.out()),
        sb(sim, "sb"),
        put(sim, "put", dut.put_req(), dut.put_ack(), dut.put_data(), cfg.dm,
            gp / 2, 0xFF, &sb),
        get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1}),
        gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb) {}
};

TEST(MonitorSoak, CampaignAttributesViolationsToFaultedConfigsOnly) {
  // Config 0: clean traffic. Config 1: bundling lag past the margin. The
  // engine arms a per-worker record-and-continue hub around every run;
  // violations must land only in config-1 results, and no run may fail
  // (kRecord never throws).
  sim::CampaignOptions opt;
  opt.workers = faulttest::campaign_jobs();
  opt.seed = 0x50AC;
  opt.collect_violations = true;
  sim::Campaign campaign(2, 3, opt);
  campaign.run([](sim::CampaignContext& ctx) {
    // gtest assertions stay on the caller's thread; record and check later.
    ctx.set("hub_armed", ctx.monitors() != nullptr &&
                                 ctx.sim().monitors() == ctx.monitors()
                             ? 1.0
                             : 0.0);
    SoakRig rig(ctx.sim());
    sim::FaultPlan plan(ctx.spec().seed);
    if (ctx.spec().config == 1) {
      plan.inject_bundling(
          "put", sim::BundlingFault{fifo::async_put_data_margin(rig.cfg) +
                                    2 * rig.cfg.dm.gate(1)});
    }
    ctx.sim().arm_faults(&plan);
    ctx.sim().run_until(4 * rig.gp + 150 * rig.gp);
    ctx.sim().arm_faults(nullptr);
    ctx.set("dequeued", static_cast<double>(rig.gm.dequeued()));
  });

  ASSERT_EQ(campaign.failed(), 0u);
  for (const sim::RunResult& r : campaign.results()) {
    const std::size_t config = r.index / 3;
    EXPECT_EQ(r.scalars.at("hub_armed"), 1.0) << "run " << r.index;
    EXPECT_GT(r.scalars.at("dequeued"), 30.0) << "run " << r.index;
    if (config == 0) {
      EXPECT_EQ(r.violations, 0u) << "run " << r.index << ": "
                                  << r.violations_json;
      EXPECT_TRUE(r.violations_json.empty());
    } else {
      EXPECT_GT(r.violations, 0u) << "run " << r.index;
      EXPECT_NE(r.violations_json.find("bundled-data"), std::string::npos)
          << r.violations_json;
    }
  }
}

TEST(MonitorSoak, ArmedRunMatchesUnarmedProtocolOutcome) {
  // Monitors only read wires: the same seed must dequeue the same item
  // count with and without the hub (the golden-waveform suite pins the
  // stronger bit-identical-VCD form of this claim).
  std::uint64_t unarmed = 0, armed = 0;
  {
    sim::Simulation sim(7);
    SoakRig rig(sim);
    sim.run_until(4 * rig.gp + 200 * rig.gp);
    unarmed = rig.gm.dequeued();
    EXPECT_EQ(rig.sb.errors(), 0u);
  }
  {
    sim::Simulation sim(7);
    Hub hub;
    hub.arm(sim);
    SoakRig rig(sim);
    sim.run_until(4 * rig.gp + 200 * rig.gp);
    armed = rig.gm.dequeued();
    EXPECT_EQ(rig.sb.errors(), 0u);
    EXPECT_EQ(hub.total(), 0u) << hub.to_json();
    Hub::disarm(sim);
  }
  EXPECT_GT(unarmed, 50u);
  EXPECT_EQ(armed, unarmed);
}

TEST(MonitorSoak, SameSeedArmedFaultSoaksAreDeterministic) {
  const std::uint64_t seed = faulttest::fault_seed(0x50AD);
  auto run_once = [seed](Hub& hub) {
    sim::Simulation sim(seed);
    hub.arm(sim);
    SoakRig rig(sim);
    sim::FaultPlan plan(seed);
    plan.inject_bundling(
        "put", sim::BundlingFault{fifo::async_put_data_margin(rig.cfg) +
                                  2 * rig.cfg.dm.gate(1)});
    sim.arm_faults(&plan);
    sim.run_until(4 * rig.gp + 200 * rig.gp);
    sim.arm_faults(nullptr);
    Hub::disarm(sim);
  };
  Hub a, b;
  a.set_policy(Policy::kCount);  // soak mode: bounded memory...
  run_once(a);
  run_once(b);  // ...and the default record mode sees the same stream
  EXPECT_GT(a.total(), 0u);
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.count(Invariant::kBundledData), b.count(Invariant::kBundledData));
  EXPECT_TRUE(a.violations().empty());            // kCount keeps no log
  EXPECT_EQ(b.violations().size(),
            std::min<std::size_t>(b.total(), 10'000));  // kRecord logs all
}

}  // namespace
}  // namespace mts::verify
