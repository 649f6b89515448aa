// Lossless snapshot round-trips: a restored Report/Registry/Coverage/
// timeline must re-render byte-identically and merge exactly like the
// original -- the property that makes multi-process and resumed campaigns
// byte-identical to the sequential in-process run.
#include "campaignd/snapshots.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaignd/json.hpp"
#include "metrics/coverage.hpp"
#include "metrics/registry.hpp"
#include "metrics/timeseries.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"

namespace campaignd = mts::campaignd;
namespace json = mts::campaignd::json;
namespace sim = mts::sim;
namespace metrics = mts::metrics;

namespace {

sim::Report sample_report() {
  sim::Report r;
  r.add(10, sim::Severity::kInfo, "scoreboard", "put 0xAB");
  r.add(25, sim::Severity::kWarning, "coverage-miss", "bin \"x\"\nnot hit");
  r.add(40, sim::Severity::kViolation, "setup", "margin -3 @ dut.cp");
  r.add(41, sim::Severity::kError, "bus-conflict", "two drivers\ton d[1]");
  sim::KernelStats ks;
  ks.events_executed = 123456;
  ks.peak_queue_depth = 77;
  ks.pool_high_water = 256;
  ks.hot_sites.push_back({"fifo.cpp:42", 999, 55555});
  ks.hot_sites.push_back({"clock rise", 500, 1234});
  r.set_kernel(ks);
  return r;
}

void fill_registry(metrics::Registry& reg) {
  reg.counter("dut", "puts").inc(41);
  reg.counter("dut", "gets").inc(40);
  reg.counter("sb", "errors");  // zero-valued counter must survive
  reg.gauge("dut", "occupancy").set(3.5);
  metrics::Histogram& h =
      reg.histogram("dut", "latency", {1.0, 2.0, 5.0, 10.0});
  for (double v : {0.5, 1.5, 1.5, 4.0, 9.0, 100.0}) h.observe(v);
}

}  // namespace

// -- Report -----------------------------------------------------------------

TEST(CampaigndSnapshots, ReportRoundTripExact) {
  const sim::Report orig = sample_report();
  const json::Value snap = campaignd::report_to_json(orig);

  sim::Report restored;
  campaignd::report_from_json(snap, restored);
  EXPECT_EQ(campaignd::report_to_json(restored).dump(), snap.dump());
  EXPECT_EQ(restored.to_json(), orig.to_json());
  EXPECT_EQ(restored.failure_count(), orig.failure_count());
  EXPECT_EQ(restored.total_added(), orig.total_added());
  EXPECT_EQ(restored.categories(), orig.categories());
}

TEST(CampaigndSnapshots, ReportRoundTripPreservesPastCapCounts) {
  // Entries dropped past the cap leave only counters behind; replaying
  // add() could never reconstruct that -- restore() must.
  sim::Report orig;
  orig.set_max_entries(2);
  for (int i = 0; i < 5; ++i) {
    orig.add(static_cast<sim::Time>(i), sim::Severity::kViolation, "setup",
             "v" + std::to_string(i));
  }
  ASSERT_EQ(orig.entries().size(), 2u);
  ASSERT_EQ(orig.total_added(), 5u);
  ASSERT_EQ(orig.failure_count(), 5u);

  const json::Value snap = campaignd::report_to_json(orig);
  sim::Report restored;
  campaignd::report_from_json(snap, restored);
  EXPECT_EQ(restored.total_added(), 5u);
  EXPECT_EQ(restored.failure_count(), 5u);
  EXPECT_EQ(restored.entries().size(), 2u);
  EXPECT_EQ(campaignd::report_to_json(restored).dump(), snap.dump());
}

TEST(CampaigndSnapshots, RestoredReportsMergeLikeOriginals) {
  sim::Report a = sample_report();
  sim::Report b;
  b.add(99, sim::Severity::kError, "setup", "late");
  sim::KernelStats ks;
  ks.events_executed = 10;
  ks.peak_queue_depth = 200;  // max should win in the merge
  b.set_kernel(ks);

  sim::Report merged_orig;
  merged_orig.merge(a);
  merged_orig.merge(b);

  sim::Report ra, rb, merged_restored;
  campaignd::report_from_json(campaignd::report_to_json(a), ra);
  campaignd::report_from_json(campaignd::report_to_json(b), rb);
  merged_restored.merge(ra);
  merged_restored.merge(rb);

  EXPECT_EQ(merged_restored.to_json(), merged_orig.to_json());
}

// -- Registry ---------------------------------------------------------------

TEST(CampaigndSnapshots, RegistryRoundTripExact) {
  metrics::Registry orig;
  fill_registry(orig);
  const json::Value snap = campaignd::registry_to_json(orig);

  metrics::Registry restored;
  campaignd::registry_from_json(snap, restored);
  EXPECT_EQ(campaignd::registry_to_json(restored).dump(), snap.dump());
  EXPECT_EQ(restored.to_json(), orig.to_json());
}

TEST(CampaigndSnapshots, PerRunDeltasMergeLikeLifetimeAccumulation) {
  // The distributed worker clears its registry before every run and ships
  // the whole thing as that run's delta; the in-process engine accumulates
  // over a worker's lifetime. For counters and histograms the two must
  // fold to the same bytes.
  metrics::Registry lifetime;
  metrics::Registry folded;
  for (int run = 0; run < 3; ++run) {
    metrics::Registry delta;
    for (metrics::Registry* reg : {&lifetime, &delta}) {
      reg->counter("dut", "puts").inc(static_cast<std::uint64_t>(10 + run));
      metrics::Histogram& h = reg->histogram("dut", "lat", {1.0, 4.0});
      h.observe(0.5 * (run + 1));
      h.observe(3.0 + run);
    }
    metrics::Registry fresh;
    campaignd::registry_from_json(campaignd::registry_to_json(delta), fresh);
    folded.merge(fresh);
  }
  EXPECT_EQ(campaignd::registry_to_json(folded).dump(),
            campaignd::registry_to_json(lifetime).dump());
}

TEST(CampaigndSnapshots, RegistryHistogramLayoutMismatchRejected) {
  metrics::Registry orig;
  orig.histogram("i", "h", {1.0, 2.0}).observe(1.5);
  const json::Value snap = campaignd::registry_to_json(orig);

  metrics::Registry target;
  target.histogram("i", "h", {5.0});  // conflicting pre-existing layout
  EXPECT_THROW(campaignd::registry_from_json(snap, target),
               json::ProtocolError);
}

// -- Coverage ---------------------------------------------------------------

TEST(CampaigndSnapshots, CoverageRoundTripKeepsMissedBins) {
  metrics::Coverage orig("fifo_soak");
  orig.define("dut.full.rise");  // declared but never hit
  orig.hit("dut.ne.rise", 7);
  orig.hit("dut.wrap.put", 2);
  const json::Value snap = campaignd::coverage_to_json(orig);

  metrics::Coverage restored("fifo_soak");
  campaignd::coverage_from_json(snap, restored);
  EXPECT_EQ(campaignd::coverage_to_json(restored).dump(), snap.dump());
  EXPECT_EQ(restored.bins(), orig.bins());
  EXPECT_EQ(restored.missing(), orig.missing());
  EXPECT_EQ(restored.summary(), orig.summary());
}

TEST(CampaigndSnapshots, CoverageDeltasMergeLikeAccumulation) {
  metrics::Coverage lifetime("c");
  metrics::Coverage folded("c");
  for (int run = 0; run < 3; ++run) {
    metrics::Coverage delta("c");
    for (metrics::Coverage* c : {&lifetime, &delta}) {
      c->define("never");
      c->hit("a", static_cast<std::uint64_t>(run + 1));
      if (run == 1) c->hit("b");
    }
    metrics::Coverage fresh("c");
    campaignd::coverage_from_json(campaignd::coverage_to_json(delta), fresh);
    folded.merge(fresh);
  }
  EXPECT_EQ(campaignd::coverage_to_json(folded).dump(),
            campaignd::coverage_to_json(lifetime).dump());
}

// -- Timeline ---------------------------------------------------------------

TEST(CampaigndSnapshots, TimelineRoundTripExact) {
  metrics::TimeSeriesStore orig(/*max_points=*/8);
  for (std::uint64_t t = 0; t < 20; ++t) {
    orig.append("dut.occ", t * 10, static_cast<double>(t % 4));
  }
  orig.append("sb.errors", 5, 0.0);
  const json::Value snap = campaignd::timeline_to_json(orig);

  metrics::TimeSeriesStore restored(/*max_points=*/8);
  campaignd::timeline_from_json(snap, restored);
  EXPECT_EQ(campaignd::timeline_to_json(restored).dump(), snap.dump());
  EXPECT_EQ(restored.to_jsonl(), orig.to_jsonl());

  // Decimation state (appended counts) must survive so a restored series
  // keeps merging deterministically.
  const metrics::TimeSeries* s = restored.find("dut.occ");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->appended(), orig.find("dut.occ")->appended());
}

// -- RunResult --------------------------------------------------------------

TEST(CampaigndSnapshots, RunResultRoundTripAllFields) {
  sim::RunResult r;
  r.index = 11;
  r.seed = 0xDEADBEEFCAFEF00Dull;
  r.ok = false;
  r.error = "injected failure at run 11";
  r.error_type = "mts::SimulationError";
  r.scalars = {{"errors", 2.0}, {"throughput", 0.125}};
  r.report_json = "{\"x\":1}";
  r.artifact = "{\"y\":[1,2]}";
  r.attempts = 3;
  r.classification = "flaky";
  r.repro_path = "/tmp/run-11.json";
  r.violations = 4;
  r.violations_json = "[{\"kind\":\"setup\"}]";
  r.telemetry_samples = 17;
  r.slo_worst = 9.75;
  r.slo_worst_instance = "dut";
  r.slo_breaches = 1;

  const json::Value snap = campaignd::run_result_to_json(r);
  const sim::RunResult back = campaignd::run_result_from_json(snap);
  EXPECT_EQ(campaignd::run_result_to_json(back).dump(), snap.dump());
  EXPECT_EQ(back.index, r.index);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.ok, r.ok);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.error_type, r.error_type);
  EXPECT_EQ(back.scalars, r.scalars);
  EXPECT_EQ(back.attempts, r.attempts);
  EXPECT_EQ(back.classification, r.classification);
  EXPECT_EQ(back.violations, r.violations);
  EXPECT_EQ(back.slo_worst, r.slo_worst);
  EXPECT_EQ(back.telemetry_samples, r.telemetry_samples);
}

// -- Options / run records / digest ----------------------------------------

TEST(CampaigndSnapshots, OptionsRoundTrip) {
  sim::CampaignOptions opt;
  opt.seed = 0xFFFFFFFFFFFFFFFFull;  // must survive as exact u64
  opt.max_attempts = 3;
  opt.quarantine_after = 2;
  opt.repro_dir = "/tmp/repro";
  opt.run_deadline_sec = 1.5;
  opt.collect_violations = true;
  opt.telemetry_interval = 50;
  opt.telemetry_max_points = 128;
  opt.telemetry_window = 64;
  opt.capture_run_reports = true;

  const json::Value snap = campaignd::options_to_json(opt);
  const sim::CampaignOptions back = campaignd::options_from_json(snap);
  EXPECT_EQ(campaignd::options_to_json(back).dump(), snap.dump());
  EXPECT_EQ(back.seed, opt.seed);
  EXPECT_EQ(back.max_attempts, opt.max_attempts);
  EXPECT_EQ(back.quarantine_after, opt.quarantine_after);
  EXPECT_EQ(back.repro_dir, opt.repro_dir);
  EXPECT_EQ(back.run_deadline_sec, opt.run_deadline_sec);
  EXPECT_EQ(back.collect_violations, opt.collect_violations);
  EXPECT_EQ(back.telemetry_interval, opt.telemetry_interval);
}

TEST(CampaigndSnapshots, MakeRunRecordShape) {
  sim::RunRecord rec;
  rec.result.index = 3;
  rec.result.ok = true;

  const json::Value minimal = campaignd::make_run_record(rec);
  EXPECT_FALSE(minimal.has("coverage"));
  EXPECT_FALSE(minimal.has("timeline"));

  rec.coverage.hit("a");
  rec.timeline.append("s", 1, 2.0);
  const json::Value with_all = campaignd::make_run_record(rec);
  EXPECT_TRUE(with_all.has("result"));
  EXPECT_TRUE(with_all.has("report"));
  EXPECT_TRUE(with_all.has("registry"));
  EXPECT_TRUE(with_all.has("coverage"));
  EXPECT_TRUE(with_all.has("timeline"));
}

TEST(CampaigndSnapshots, RunRecordRoundTripsThroughJson) {
  sim::RunRecord rec;
  rec.result.index = 5;
  rec.result.seed = 0xFFFFFFFFFFFFFFFFull;
  rec.result.scalars["x"] = 0.1;
  rec.report.add(7, sim::Severity::kWarning, "cat", "msg");
  rec.metrics.counter("i", "c").inc(3);
  rec.metrics.gauge("i", "g").set(-2.5);
  rec.metrics.histogram("i", "h", {1.0, 10.0}).observe(4.0);
  rec.timeline.append("s", 1, 2.0);
  rec.coverage.define("missed");
  rec.coverage.hit("dut.ne.rise", 4);

  const json::Value snap = campaignd::make_run_record(rec);
  sim::RunRecord back;
  campaignd::run_record_from_json(snap, back);
  EXPECT_EQ(campaignd::make_run_record(back).dump(), snap.dump());
  EXPECT_EQ(back.coverage.bins(), rec.coverage.bins());
  EXPECT_EQ(back.report.to_json(), rec.report.to_json());
  EXPECT_EQ(back.metrics.to_json(), rec.metrics.to_json());
  EXPECT_EQ(back.timeline.to_jsonl(), rec.timeline.to_jsonl());

  // A result-only record (a quarantine skip) folds as an empty run.
  json::Value skip = json::Value::object();
  skip.set("result", snap.at("result"));
  sim::RunRecord bare;
  campaignd::run_record_from_json(skip, bare);
  EXPECT_EQ(bare.result.index, 5u);
  EXPECT_EQ(bare.report.entries().size(), 0u);
  EXPECT_EQ(bare.metrics.to_json(), metrics::Registry().to_json());
  EXPECT_TRUE(bare.timeline.empty());
}

TEST(CampaigndSnapshots, JobDigestSensitivity) {
  sim::CampaignOptions opt;
  opt.seed = 42;
  const std::string base =
      campaignd::job_digest(3, 2, opt, "fifo_soak", "{\"cycles\":8}");
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, campaignd::job_digest(3, 2, opt, "fifo_soak",
                                        "{\"cycles\":8}"));  // stable

  EXPECT_NE(base, campaignd::job_digest(4, 2, opt, "fifo_soak",
                                        "{\"cycles\":8}"));
  EXPECT_NE(base, campaignd::job_digest(3, 3, opt, "fifo_soak",
                                        "{\"cycles\":8}"));
  EXPECT_NE(base, campaignd::job_digest(3, 2, opt, "chaos_soak",
                                        "{\"cycles\":8}"));
  EXPECT_NE(base, campaignd::job_digest(3, 2, opt, "fifo_soak",
                                        "{\"cycles\":9}"));
  sim::CampaignOptions opt2 = opt;
  opt2.seed = 43;
  EXPECT_NE(base, campaignd::job_digest(3, 2, opt2, "fifo_soak",
                                        "{\"cycles\":8}"));

  // A run_filter's run list is part of the job; the whole matrix keeps
  // its digest, so existing full-matrix checkpoints still resume.
  EXPECT_EQ(base, campaignd::job_digest(3, 2, opt, "fifo_soak",
                                        "{\"cycles\":8}", {}));
  const std::string some =
      campaignd::job_digest(3, 2, opt, "fifo_soak", "{\"cycles\":8}", {4, 5});
  EXPECT_NE(base, some);
  EXPECT_NE(some, campaignd::job_digest(3, 2, opt, "fifo_soak",
                                        "{\"cycles\":8}", {0, 1, 2, 3}));
}

TEST(CampaigndSnapshots, MalformedSnapshotsRejected) {
  sim::Report rep;
  metrics::Registry reg;
  metrics::Coverage cov("c");
  metrics::TimeSeriesStore tl;
  const json::Value not_an_object = json::parse("[1,2,3]");
  EXPECT_THROW(campaignd::report_from_json(not_an_object, rep),
               json::ProtocolError);
  EXPECT_THROW(campaignd::registry_from_json(not_an_object, reg),
               json::ProtocolError);
  EXPECT_THROW(campaignd::coverage_from_json(not_an_object, cov),
               json::ProtocolError);
  EXPECT_THROW(campaignd::timeline_from_json(not_an_object, tl),
               json::ProtocolError);
  EXPECT_THROW(campaignd::run_result_from_json(not_an_object),
               json::ProtocolError);
  EXPECT_THROW(campaignd::options_from_json(not_an_object),
               json::ProtocolError);

  // Wrong member kinds inside an otherwise plausible object.
  EXPECT_THROW(campaignd::run_result_from_json(
                   json::parse("{\"index\":\"three\"}")),
               json::ProtocolError);
}
