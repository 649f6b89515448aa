// sim::Campaign engine suite: run-matrix semantics, seed derivation,
// failure isolation, and the headline determinism proof -- a 4-worker
// campaign is bit-identical to the 1-worker (sequential) campaign in every
// observable artifact: campaign JSON (host stats excluded), per-run report
// JSON, merged coverage bins, fault escape counts, and golden VCD hashes.
//
// The determinism workload deliberately stacks every stochastic subsystem:
// a depth-varying mixed-clock FIFO in stochastic metastability mode with
// an armed MetaFault plan (per-run FaultPlan RNG), VCD tracing and
// per-run coverage. If worker placement leaked into ANY of those, the
// byte comparison would catch it. TSan CI runs this binary (label
// "campaign") to also prove the absence of data races on the same paths.
//
// The engine and campaignd's in-process oracle (run_local) fold the same
// run records through the same CampaignOutcome; a workload writing every
// metric kind into ctx.metrics() pins the two to byte identity too.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bfm/bfm.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/json.hpp"
#include "campaignd/workload.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "metrics/cover.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "sync/clock.hpp"

namespace mts {
namespace {

using sim::Time;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CampaignSeed, DerivationIsPureNonZeroAndCollisionFreeOverTheMatrix) {
  // Pure function of (campaign seed, index): same inputs, same output.
  EXPECT_EQ(sim::campaign_run_seed(1, 0), sim::campaign_run_seed(1, 0));
  // Distinct over a realistic matrix, never zero (a zero seed would make
  // mt19937_64 fall back to a fixed default elsewhere).
  std::set<std::uint64_t> seen;
  for (std::uint64_t cs : {1ull, 2ull, 20260806ull}) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::uint64_t s = sim::campaign_run_seed(cs, i);
      EXPECT_NE(s, 0u);
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 3000u);
}

TEST(Campaign, EveryCellRunsOnceWithRowMajorSpecsAndDerivedSeeds) {
  sim::CampaignOptions opt;
  opt.workers = 4;
  opt.seed = 42;
  sim::Campaign campaign(4, 3, opt);
  EXPECT_EQ(campaign.runs(), 12u);

  campaign.run([](sim::CampaignContext& ctx) {
    ctx.set("config", static_cast<double>(ctx.spec().config));
    ctx.set("rep", static_cast<double>(ctx.spec().rep));
    ctx.set("worker", static_cast<double>(ctx.worker()));
    // The context's Simulation starts reset: time 0, empty report.
    ctx.set("now", static_cast<double>(ctx.sim().now()));
  });

  ASSERT_EQ(campaign.results().size(), 12u);
  EXPECT_EQ(campaign.failed(), 0u);
  for (std::size_t i = 0; i < 12; ++i) {
    const sim::RunResult& r = campaign.results()[i];
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.seed, sim::campaign_run_seed(42, i));
    EXPECT_EQ(r.scalars.at("config"), static_cast<double>(i / 3));
    EXPECT_EQ(r.scalars.at("rep"), static_cast<double>(i % 3));
    EXPECT_EQ(r.scalars.at("now"), 0.0);
    EXPECT_LT(r.scalars.at("worker"), 4.0);
  }
}

TEST(Campaign, WorkerCountClampsToRunCountAndZeroMeansHardware) {
  sim::CampaignOptions opt;
  opt.workers = 16;
  sim::Campaign small(3, 1, opt);
  EXPECT_EQ(small.workers(), 3u);

  opt.workers = 0;
  sim::Campaign hw(64, 1, opt);
  EXPECT_GE(hw.workers(), 1u);
}

TEST(Campaign, BodyExceptionFailsThatRunOnlyAndIsCaptured) {
  sim::CampaignOptions opt;
  opt.workers = 2;
  opt.seed = 7;
  sim::Campaign campaign(6, 1, opt);
  campaign.run([](sim::CampaignContext& ctx) {
    if (ctx.spec().index == 3) throw std::runtime_error("boom at 3");
    ctx.set("fine", 1.0);
  });
  EXPECT_EQ(campaign.failed(), 1u);
  EXPECT_FALSE(campaign.results()[3].ok);
  EXPECT_EQ(campaign.results()[3].error, "boom at 3");
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(campaign.results()[i].ok) << i;
    EXPECT_EQ(campaign.results()[i].scalars.at("fine"), 1.0) << i;
  }
  // The failed run appears in the JSON with its error string.
  EXPECT_NE(campaign.to_json().find("boom at 3"), std::string::npos);
}

TEST(Campaign, WorkerMetricsAccumulateAndMergeAcrossRuns) {
  constexpr std::size_t kRuns = 9;
  for (unsigned workers : {1u, 3u}) {
    sim::CampaignOptions opt;
    opt.workers = workers;
    opt.seed = 5;
    sim::Campaign campaign(kRuns, 1, opt);
    campaign.run([](sim::CampaignContext& ctx) {
      ctx.metrics().counter("engine", "runs").inc();
      ctx.metrics().gauge("engine", "config").set(
          static_cast<double>(ctx.spec().config));
      // Falls with the run index: a last-write-per-worker reduction would
      // depend on which worker ran the last runs.
      ctx.metrics().gauge("engine", "countdown").set(
          static_cast<double>(kRuns - 1 - ctx.spec().index));
    });
    // Counters add across runs; gauges take the max over runs, whatever
    // the worker count.
    const metrics::Counter* c =
        campaign.merged_metrics().find_counter("engine", "runs");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 9u);
    const metrics::Gauge* g =
        campaign.merged_metrics().find_gauge("engine", "config");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->value(), 8.0);
    const metrics::Gauge* countdown =
        campaign.merged_metrics().find_gauge("engine", "countdown");
    ASSERT_NE(countdown, nullptr);
    EXPECT_EQ(countdown->value(), static_cast<double>(kRuns - 1))
        << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// The determinism proof.
// ---------------------------------------------------------------------------

struct DetArtifacts {
  std::string campaign_json;            // to_json(include_host_stats=false)
  std::vector<std::string> run_reports; // per-run report JSON, index order
  std::vector<std::uint64_t> vcd_hashes;
  std::vector<double> escapes;          // fault escapes per run
  std::map<std::string, std::uint64_t> coverage_bins;
};

/// The stacked-stochastic workload: run index selects synchronizer depth
/// (1 or 2); the campaign-derived seed drives the Simulation RNG and a
/// per-run FaultPlan. Every artifact lands in a run-index slot or the
/// run's own record -- never shared across threads.
DetArtifacts run_det_campaign(unsigned workers, const std::string& tag) {
  const std::size_t kRuns = 6;
  sim::CampaignOptions opt;
  opt.workers = workers;
  opt.seed = 0xDE7;
  opt.capture_run_reports = true;
  sim::Campaign campaign(kRuns, 1, opt);

  std::vector<std::uint64_t> hashes(kRuns, 0);

  campaign.run([&hashes, &tag](sim::CampaignContext& ctx) {
    const std::size_t idx = ctx.spec().index;
    fifo::FifoConfig cfg;
    cfg.capacity = 4;
    cfg.width = 8;
    cfg.sync.depth = 1 + static_cast<unsigned>(idx % 2);
    cfg.sync.mode = sync::MetaMode::kStochastic;

    sim::Simulation& sim = ctx.sim();
    const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
    const Time gp = pp * 107 / 97 + 3;
    sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
    sync::Clock cg(sim, "cg",
                   {gp, 4 * pp + static_cast<Time>(ctx.spec().seed % gp),
                    0.5, 0});
    fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());

    // Per-run fault plan seeded from the campaign-derived seed: the fault
    // RNG stream is a function of the run index, not the worker.
    sim::FaultPlan plan(ctx.spec().seed);
    plan.inject_meta("Sync.ff0", sim::MetaFault{4.0, 15.0, 0.5, 60});
    sim.arm_faults(&plan);

    bfm::Scoreboard sb(sim, "sb");
    bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(),
                       dut.data_put(), sb);
    bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
    bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(),
                           dut.data_put(), dut.full(), cfg.dm, {1.0, 1},
                           0xFF);
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {0.85, 1});
    metrics::cover_fifo(ctx.coverage(), "dut", dut);

    // Distinct VCD file per (worker-count, run): runs never share a path
    // within one campaign, and the two campaigns under comparison never
    // clobber each other's files.
    const std::string vcd_path =
        "campaign_det_" + tag + "_run" + std::to_string(idx) + ".vcd";
    sim::VcdWriter vcd(vcd_path);
    vcd.watch(cp.out(), "clk_put");
    vcd.watch(dut.req_put(), "req_put");
    vcd.watch(dut.full(), "full");
    vcd.watch(cg.out(), "clk_get");
    vcd.watch(dut.valid_get(), "valid_get");
    vcd.start();

    sim.run_until(4 * pp + 800 * pp);
    vcd.finish();
    hashes[idx] = fnv1a(slurp(vcd_path));

    ctx.set("escapes", static_cast<double>(plan.count("meta.escape")));
    ctx.set("samples", static_cast<double>(plan.count("meta.sample")));
    ctx.set("sb_errors", static_cast<double>(sb.errors()));
    sim.arm_faults(nullptr);
  });

  EXPECT_EQ(campaign.failed(), 0u);

  DetArtifacts a;
  a.campaign_json = campaign.to_json(/*include_host_stats=*/false);
  for (const sim::RunResult& r : campaign.results()) {
    a.run_reports.push_back(r.report_json);
    a.escapes.push_back(r.scalars.at("escapes"));
  }
  a.vcd_hashes = hashes;
  a.coverage_bins = campaign.merged_coverage().bins();
  return a;
}

TEST(CampaignDeterminism, FourWorkersBitIdenticalToOneWorker) {
  const DetArtifacts seq = run_det_campaign(1, "w1");
  const DetArtifacts par = run_det_campaign(4, "w4");

  // Headline: the whole campaign document, byte for byte.
  EXPECT_EQ(seq.campaign_json, par.campaign_json);

  // And each constituent artifact, for sharper failure localization:
  ASSERT_EQ(seq.run_reports.size(), par.run_reports.size());
  for (std::size_t i = 0; i < seq.run_reports.size(); ++i) {
    EXPECT_EQ(seq.run_reports[i], par.run_reports[i]) << "run " << i;
    EXPECT_EQ(seq.escapes[i], par.escapes[i]) << "run " << i;
    EXPECT_EQ(seq.vcd_hashes[i], par.vcd_hashes[i]) << "run " << i;
  }
  EXPECT_EQ(seq.coverage_bins, par.coverage_bins);

  // The workload really exercised its stochastic machinery (otherwise this
  // proof proves nothing): coverage bins were hit across the runs.
  std::uint64_t cov_hits = 0;
  for (const auto& [bin, n] : seq.coverage_bins) cov_hits += n;
  EXPECT_GT(cov_hits, 0u);
}

/// campaignd's fifo_soak (via chaos_soak, for a flaky run) plus a counter,
/// a gauge and a histogram written into ctx.metrics(). The counter counts
/// attempts, so a retried run's record carries both of its attempts.
class MeteredSoak : public campaignd::Workload {
 public:
  explicit MeteredSoak(const campaignd::json::Value& params)
      : inner_(campaignd::make_workload("chaos_soak", params)),
        runs_(params.get_u64("runs", 1)) {}

  void run(sim::CampaignContext& ctx) override {
    metrics::Registry& m = ctx.metrics();
    m.counter("body", "attempts").inc();
    inner_->run(ctx);
    m.gauge("body", "countdown")
        .set(static_cast<double>(runs_ - 1 - ctx.spec().index));
    m.histogram("body", "dequeued", {2.0, 4.0, 8.0, 16.0})
        .observe(ctx.result().scalars.at("dequeued"));
  }

 private:
  std::unique_ptr<campaignd::Workload> inner_;
  std::uint64_t runs_;
};

TEST(CampaignDeterminism, EngineMatchesCampaigndOracleWithBodyMetrics) {
  campaignd::register_workload(
      "metered_soak", [](const campaignd::json::Value& p) {
        return std::make_unique<MeteredSoak>(p);
      });
  campaignd::JobSpec job;
  job.workload = "metered_soak";
  job.configs = 3;
  job.reps = 3;
  job.params = campaignd::json::parse(
      "{\"cycles\": 12, \"coverage\": false, \"runs\": 9,"
      " \"fail_indices\": [4], \"flaky\": true}");
  job.opt.seed = 0x3A7;
  job.opt.max_attempts = 2;
  job.opt.collect_violations = true;
  job.opt.telemetry_interval = 5 * sim::kNanosecond;
  job.opt.telemetry_max_points = 256;
  job.opt.telemetry_window = 128;
  job.opt.slo.metric = "latency_ps";
  job.opt.slo.budget = 1.0;  // every run breaches: the manifest is folded

  campaignd::Coordinator::Outcome local;
  campaignd::run_local(job, local);
  ASSERT_EQ(local.results.size(), 9u);
  EXPECT_EQ(local.results[4].classification, "flaky");
  EXPECT_FALSE(local.timeline.empty());
  const metrics::Gauge* g = local.metrics.find_gauge("body", "countdown");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value(), 8.0);
  const metrics::Counter* c = local.metrics.find_counter("body", "attempts");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 10u);

  const std::unique_ptr<campaignd::Workload> wl =
      campaignd::make_workload(job.workload, job.params);
  for (unsigned workers : {1u, 4u}) {
    sim::CampaignOptions opt = job.opt;
    opt.workers = workers;
    sim::Campaign engine(job.configs, job.reps, opt);
    engine.run(wl->body());
    EXPECT_EQ(engine.to_json(false), local.to_json(false))
        << workers << " workers";
    EXPECT_EQ(engine.health_json(false), local.health_json(false))
        << workers << " workers";
    EXPECT_EQ(engine.merged_timeline().to_jsonl(), local.timeline.to_jsonl())
        << workers << " workers";
  }
}

TEST(CampaignDeterminism, RerunWithSameSeedIsBitIdentical) {
  // Two fresh 2-worker campaigns, same seed: identical documents. Guards
  // against any hidden global state surviving engine construction.
  const DetArtifacts a = run_det_campaign(2, "r1");
  const DetArtifacts b = run_det_campaign(2, "r2");
  EXPECT_EQ(a.campaign_json, b.campaign_json);
  EXPECT_EQ(a.vcd_hashes, b.vcd_hashes);
}

}  // namespace
}  // namespace mts
