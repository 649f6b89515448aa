// Campaign streaming-telemetry suite: engine-armed per-run samplers,
// timeline artifacts, SLO gates and the campaign-health document -- all
// proven worker-count independent the same way test_campaign.cpp proves
// the core engine: byte-comparing the 1-worker artifacts against 4-worker.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "metrics/registry.hpp"
#include "sim/campaign.hpp"
#include "sim/observe.hpp"
#include "sim/telemetry.hpp"
#include "sync/clock.hpp"

namespace mts {
namespace {

using sim::Time;

/// Deterministic run body: a tick chain whose length depends on the run
/// index, an occupancy-style telemetry source, and a latency histogram in
/// the engine's per-run registry (the SLO target). Everything derives from
/// ctx.spec(), never from the worker, so artifacts must be
/// placement-independent.
void telemetry_body(sim::CampaignContext& ctx) {
  sim::Simulation& sim = ctx.sim();
  const std::size_t index = ctx.spec().index;

  if (ctx.telemetry() != nullptr) {
    ctx.telemetry()->add_source("dut", "bus", "occupancy", [index] {
      return static_cast<double>(index + 1);
    });
  }
  metrics::Registry* reg = sim.observability() != nullptr
                               ? sim.observability()->metrics
                               : nullptr;
  if (reg != nullptr) {
    metrics::Histogram& h = reg->histogram("dut", "latency_ps", {1e9});
    // Run i's p100 is 100 * (i + 1): run 0 stays under a 150 ps budget,
    // every later run breaches it.
    for (int s = 1; s <= 20; ++s) {
      h.observe(static_cast<double>(s) * 5.0 * static_cast<double>(index + 1));
    }
  }

  // Keep the queue busy for 50 ns so the 1 ns sampler gets ~50 ticks.
  struct Chain {
    sim::Simulation* sim;
    std::uint64_t* left;
    void operator()() const {
      if (*left > 0) {
        --*left;
        sim->sched().after(sim::kNanosecond, *this);
      }
    }
  };
  std::uint64_t left = 50;
  sim.sched().after(sim::kNanosecond, Chain{&sim, &left});
  sim.run();
  ctx.set("ticks", 50.0 - static_cast<double>(left));
}

sim::CampaignOptions telemetry_options(unsigned workers) {
  sim::CampaignOptions opt;
  opt.workers = workers;
  opt.seed = 42;
  opt.telemetry_interval = sim::kNanosecond;
  opt.telemetry_max_points = 256;
  opt.telemetry_window = 64;
  opt.slo.metric = "latency_ps";
  opt.slo.percentile = 0.99;
  opt.slo.budget = 150.0;
  return opt;
}

TEST(CampaignTelemetry, PerRunSamplersProduceTimelinesAndSloVerdicts) {
  sim::Campaign c(2, 2, telemetry_options(1));
  c.run(telemetry_body);
  ASSERT_EQ(c.results().size(), 4u);
  for (const sim::RunResult& r : c.results()) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.telemetry_samples, 10u) << "run " << r.index;
  }
  // The merged timeline carries the body's source and its rollup ...
  const std::string timeline = c.merged_timeline().to_jsonl();
  EXPECT_NE(timeline.find("dut.occupancy"), std::string::npos);
  EXPECT_NE(timeline.find("domain.bus.occupancy"), std::string::npos);
  // ... and the windowed percentile series of the SLO histogram.
  EXPECT_NE(timeline.find("dut.latency_ps.p99"), std::string::npos);
  // Host-dependent kernel series must stay out of run artifacts.
  EXPECT_EQ(timeline.find("pool_high_water"), std::string::npos);
  // Run i observes max latency 100 * (i + 1) vs budget 150: run 0 passes,
  // runs 1..3 breach (fail_run is off, so ok stays true).
  EXPECT_EQ(c.results()[0].slo_breaches, 0u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.results()[i].slo_breaches, 1u) << "run " << i;
    EXPECT_EQ(c.results()[i].slo_worst_instance, "dut");
    EXPECT_GT(c.results()[i].slo_worst, 150.0);
  }
  // Breaches land in the merged report under the campaign-slo category.
  EXPECT_EQ(c.merged_report().count("campaign-slo"), 3u);
}

TEST(CampaignTelemetry, SloFailRunFailsBreachingRunsLikeExceptions) {
  sim::CampaignOptions opt = telemetry_options(1);
  opt.slo.fail_run = true;
  sim::Campaign c(2, 2, opt);
  c.run(telemetry_body);
  EXPECT_TRUE(c.results()[0].ok);
  EXPECT_EQ(c.failed(), 3u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(c.results()[i].ok);
    EXPECT_EQ(c.results()[i].error_type, "SloBreach");
    EXPECT_NE(c.results()[i].error.find("latency_ps"), std::string::npos);
  }
}

TEST(CampaignTelemetry, TimelinesAndHealthAreWorkerCountIndependent) {
  sim::Campaign c1(2, 3, telemetry_options(1));
  c1.run(telemetry_body);
  sim::Campaign c4(2, 3, telemetry_options(4));
  c4.run(telemetry_body);

  ASSERT_EQ(c1.results().size(), c4.results().size());
  for (std::size_t i = 0; i < c1.results().size(); ++i) {
    EXPECT_EQ(c1.results()[i].telemetry_samples,
              c4.results()[i].telemetry_samples)
        << "run " << i;
    EXPECT_EQ(c1.results()[i].slo_worst, c4.results()[i].slo_worst);
  }
  // The run-index-ordered folds: merged timeline and health doc, byte for
  // byte. (Host stats stay out of health_json by default.)
  EXPECT_EQ(c1.merged_timeline().to_jsonl(), c4.merged_timeline().to_jsonl());
  EXPECT_EQ(c1.health_json(), c4.health_json());
  EXPECT_EQ(c1.to_json(false), c4.to_json(false));
}

TEST(CampaignTelemetry, HealthJsonSummarizesVerdictsDeterministically) {
  sim::Campaign c(2, 2, telemetry_options(1));
  c.run(telemetry_body);
  const std::string h = c.health_json();
  EXPECT_NE(h.find("\"runs\": 4"), std::string::npos);
  EXPECT_NE(h.find("\"ok\": 4"), std::string::npos);
  EXPECT_NE(h.find("\"slo_breaches\": 3"), std::string::npos);
  EXPECT_NE(h.find("\"worst\""), std::string::npos);
  EXPECT_NE(h.find("\"latency_ps\""), std::string::npos);
  // No volatile host numbers unless asked for.
  EXPECT_EQ(h.find("wall_seconds"), std::string::npos);
  EXPECT_NE(c.health_json(true).find("wall_seconds"), std::string::npos);

  // The written file holds the same bytes health_json() returns.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mts_campaign_health_test.json";
  ASSERT_TRUE(c.write_health_json(path.string()));
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), h);
  std::filesystem::remove(path);
}

TEST(CampaignTelemetry, SloOnlyModeIsolatesRegistryWithoutSampler) {
  // budget > 0 with telemetry_interval == 0: per-run registry + SLO
  // verdicts, no sampler, no timelines.
  sim::CampaignOptions opt;
  opt.workers = 1;
  opt.seed = 42;
  opt.slo.metric = "latency_ps";
  opt.slo.percentile = 0.99;
  opt.slo.budget = 150.0;
  sim::Campaign c(2, 2, opt);
  c.run(telemetry_body);
  EXPECT_EQ(c.results()[0].slo_breaches, 0u);
  EXPECT_EQ(c.results()[1].slo_breaches, 1u);
  for (const sim::RunResult& r : c.results()) {
    EXPECT_EQ(r.telemetry_samples, 0u);
  }
  EXPECT_TRUE(c.merged_timeline().empty());
}

/// Real-FIFO run body: config 0 is a saturated mixed-clock FIFO, config 1
/// an async-sync FIFO fed by a saturating four-phase sender. Both arm the
/// components' own telemetry sources and registry metrics (occupancy and
/// latency histograms, transfer counters, synchronizer counters).
void real_fifo_body(sim::CampaignContext& ctx) {
  sim::Simulation& sim = ctx.sim();
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  const Time gp = fifo::SyncGetSide::min_period(cfg);
  const Time phase = static_cast<Time>(ctx.spec().seed % (gp / 2));
  bfm::Scoreboard sb(sim, "sb");
  if (ctx.spec().config == 0) {
    const Time pp = fifo::SyncPutSide::min_period(cfg);
    const Time settle = 4 * std::max(pp, gp);
    sync::Clock cp(sim, "clk_put", {pp, settle, 0.5, 0});
    sync::Clock cg(sim, "clk_get", {gp, settle + phase, 0.5, 0});
    fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
    bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(),
                       dut.data_put(), sb);
    bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
    bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(),
                           dut.data_put(), dut.full(), cfg.dm, {1.0, 1},
                           0xFF);
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {0.7, 1});
    sim.run_until(settle + 120 * pp);
  } else {
    const Time settle = 4 * gp;
    sync::Clock cg(sim, "clk_get", {gp, settle + phase, 0.5, 0});
    fifo::AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
    bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                            dut.put_data(), cfg.dm, 0, 0xFF, &sb);
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {0.7, 1});
    bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
    sim.run_until(settle + 120 * gp);
  }
  ctx.set("delivered", static_cast<double>(sb.popped()));
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Options of the golden timeline campaign (2 configs x 2 reps of
/// real_fifo_body): 2 ns sampling, an 8-sample window, a flag-only SLO.
sim::CampaignOptions golden_timeline_options() {
  sim::CampaignOptions opt;
  opt.workers = 1;
  opt.seed = 7;
  opt.telemetry_interval = 2 * sim::kNanosecond;
  opt.telemetry_max_points = 64;
  opt.telemetry_window = 8;
  opt.slo.metric = "latency_ps";
  opt.slo.percentile = 0.99;
  opt.slo.budget = 5'000;
  return opt;
}

// Byte pin of the sampler's whole output on real components: series names,
// values, decimation and the windowed percentiles (an 8-sample window, so
// the rings wrap and the occupancy windows hold tied values). Any change to
// how a tick is sampled must leave this hash unchanged.
TEST(CampaignTelemetry, MergedTimelineMatchesGolden) {
  sim::Campaign c(2, 2, golden_timeline_options());
  c.run(real_fifo_body);
  ASSERT_EQ(c.failed(), 0u);
  for (const sim::RunResult& r : c.results()) {
    EXPECT_GT(r.telemetry_samples, 100u) << "run " << r.index;
    EXPECT_GT(r.scalars.at("delivered"), 20.0) << "run " << r.index;
  }
  const std::string timeline = c.merged_timeline().to_jsonl();
  EXPECT_NE(timeline.find("dut.occupancy.p999"), std::string::npos);
  EXPECT_NE(timeline.find("domain."), std::string::npos);
  EXPECT_EQ(fnv1a(timeline + c.health_json()), 0xcbc47d7cf19b163aull)
      << std::hex << fnv1a(timeline + c.health_json());
}

/// `timeline` without its `kernel.*` series lines.
std::string without_kernel_series(const std::string& timeline) {
  std::istringstream in(timeline);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"s\": \"kernel.") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// `json` with every `"kernel": {...}` object (and its leading separator)
/// cut out. The kernel objects hold no strings with braces, so counting
/// braces finds each object's end.
std::string without_kernel_objects(std::string json) {
  const std::string key = ",\n  \"kernel\": {";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at)) {
    std::size_t end = at + key.size();
    for (int depth = 1; depth > 0; ++end) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}') --depth;
    }
    json.erase(at, end - at);
  }
  return json;
}

// The same campaign as MergedTimelineMatchesGolden with the kernel's own
// counters taken out: the timeline without its kernel.* series, the health
// document, and the campaign document without its "kernel" objects. A
// kernel change that schedules fewer events may move only the counters,
// never what the designs did.
TEST(CampaignTelemetry, MergedTimelineDesignSeriesMatchGolden) {
  sim::Campaign c(2, 2, golden_timeline_options());
  c.run(real_fifo_body);
  ASSERT_EQ(c.failed(), 0u);
  const std::string timeline = c.merged_timeline().to_jsonl();
  const std::string design = without_kernel_series(timeline);
  EXPECT_NE(design.find("dut.occupancy.p999"), std::string::npos);
  EXPECT_EQ(design.find("kernel."), std::string::npos);
  const std::string doc = without_kernel_objects(c.to_json(false));
  EXPECT_EQ(doc.find("\"kernel\""), std::string::npos);
  EXPECT_NE(doc.find("\"runs\""), std::string::npos);
  const std::string pinned = design + c.health_json() + doc;
  EXPECT_EQ(fnv1a(pinned), 0x683578d7e1b31927ull) << std::hex << fnv1a(pinned);
}

// --- Report::merge edge cases (the campaign reduction primitive) ----------

TEST(ReportMerge, EmptyIntoEmptyAndPopulatedEdges) {
  sim::Report a;
  sim::Report b;
  a.merge(b);
  EXPECT_EQ(a.failure_count(), 0u);
  a.add(0, sim::Severity::kError, "cat", "boom");
  a.merge(b);  // populated <- empty: unchanged
  EXPECT_EQ(a.count("cat"), 1u);
  EXPECT_EQ(a.failure_count(), 1u);
  b.merge(a);  // empty <- populated: becomes a copy
  EXPECT_EQ(b.count("cat"), 1u);
  EXPECT_EQ(b.failure_count(), 1u);
}

TEST(ReportMerge, DisjointCategoriesUnion) {
  sim::Report a;
  a.add(0, sim::Severity::kInfo, "alpha", "one");
  sim::Report b;
  b.add(1, sim::Severity::kWarning, "beta", "two");
  a.merge(b);
  EXPECT_EQ(a.count("alpha"), 1u);
  EXPECT_EQ(a.count("beta"), 1u);
  EXPECT_EQ(a.failure_count(), 0u);  // info + warning: no failures
}

}  // namespace
}  // namespace mts
