#include "metrics/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sim/report.hpp"

namespace mts::metrics {
namespace {

TEST(Registry, CountersAndGaugesResolveOrCreate) {
  Registry r;
  Counter& c = r.counter("dut", "puts");
  c.inc();
  c.inc(4);
  EXPECT_EQ(r.counter("dut", "puts").value(), 5u);  // same node
  r.gauge("dut", "occupancy").set(3.5);
  EXPECT_DOUBLE_EQ(r.gauge("dut", "occupancy").value(), 3.5);
  EXPECT_EQ(r.instance_count(), 1u);
}

TEST(Registry, FindReturnsNullForAbsentMetrics) {
  Registry r;
  r.counter("dut", "puts");
  EXPECT_NE(r.find_counter("dut", "puts"), nullptr);
  EXPECT_EQ(r.find_counter("dut", "gets"), nullptr);
  EXPECT_EQ(r.find_counter("other", "puts"), nullptr);
  EXPECT_EQ(r.find_gauge("dut", "puts"), nullptr);
  EXPECT_EQ(r.find_histogram("dut", "puts"), nullptr);
}

TEST(Histogram, EmptyHistogramIsAllZero) {
  Histogram h(Histogram::linear_bounds(4));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(Histogram, TracksSumMinMaxAndBuckets) {
  Histogram h({10.0, 100.0, 1000.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  h.observe(5000.0);  // +inf tail bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5555.0 / 4.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  for (const auto n : h.bucket_counts()) EXPECT_EQ(n, 1u);
}

TEST(Histogram, PercentilesAreOrderedAndClampedToObservedRange) {
  Histogram h(Histogram::exponential_bounds(100.0, 1e7));
  for (int i = 0; i < 100; ++i) h.observe(1000.0 + i * 10.0);  // 1000..1990
  const double p50 = h.percentile(0.50);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_GT(p99, 0.0);
}

TEST(Histogram, SingleBucketDistributionStaysBelowMax) {
  // All samples inside one bucket: interpolation must clamp to the
  // observed max, not the bucket's upper bound.
  Histogram h({1000.0, 1'000'000.0});
  for (int i = 0; i < 10; ++i) h.observe(2000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 2000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 2000.0);
}

TEST(Histogram, ExponentialBoundsAre125PerDecadeWithinRange) {
  const auto b = Histogram::exponential_bounds(100.0, 1e7);
  ASSERT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.front(), 100.0);
  EXPECT_DOUBLE_EQ(b.back(), 1e7);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Histogram, LinearBoundsCoverEveryOccupancyLevel) {
  const auto b = Histogram::linear_bounds(8);
  ASSERT_EQ(b.size(), 9u);
  EXPECT_DOUBLE_EQ(b.front(), 0.0);
  EXPECT_DOUBLE_EQ(b.back(), 8.0);
}

TEST(Registry, ToJsonCarriesAllThreeMetricKinds) {
  Registry r;
  r.counter("dut", "puts").inc(7);
  r.gauge("dut", "fill").set(0.5);
  Histogram& h = r.histogram("dut", "latency_ps", {100.0, 1000.0});
  h.observe(250.0);

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"dut\""), std::string::npos);
  EXPECT_NE(json.find("\"puts\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"fill\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ps\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Registry, HistogramBucketsAreSparseInJson) {
  Registry r;
  Histogram& h = r.histogram("dut", "lat", {1.0, 2.0, 3.0, 4.0});
  h.observe(2.5);  // only the (2,3] bucket is populated
  const std::string json = r.to_json();
  EXPECT_NE(json.find("[3, 1]"), std::string::npos);
  EXPECT_EQ(json.find("[1, 0]"), std::string::npos);  // empty buckets elided
}

TEST(Registry, ToCsvEmitsOneRowPerMetric) {
  Registry r;
  r.counter("a", "puts").inc(2);
  r.histogram("b", "lat", {10.0}).observe(5.0);
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("instance,metric,kind,count,mean,p50,p95,p99,max"),
            std::string::npos);
  EXPECT_NE(csv.find("a,puts,counter,2"), std::string::npos);
  EXPECT_NE(csv.find("b,lat,histogram,1"), std::string::npos);
}

TEST(Registry, BindAttachesMetricsSectionToReportJson) {
  Registry r;
  r.counter("dut", "puts").inc(3);
  sim::Report report;
  r.bind(report);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"puts\": 3"), std::string::npos);
}

TEST(Registry, ReportIntoEmitsOneLinePerHistogram) {
  Registry r;
  r.histogram("dut", "latency_ps", {100.0}).observe(42.0);
  sim::Report report;
  r.report_into(report, 1234);
  EXPECT_EQ(report.count("metrics"), 1u);
  EXPECT_EQ(report.failure_count(), 0u);  // kInfo lines are not failures
}

// --- percentile edge contract (documented on Histogram) -------------------

TEST(Histogram, PercentileEdgesEmptySingleAndClampedP) {
  Histogram h({10.0, 100.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 0.0);   // empty: documented 0.0
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 0.0);
  h.observe(42.0);
  // Single sample: every percentile is that sample.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
  h.observe(7.0);
  // p<=0 pins to the observed min, p>=1 to the observed max.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(-1.0), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(2.0), 42.0);
}

TEST(Histogram, WindowPercentileEdges) {
  Histogram h({10.0, 100.0});
  h.set_window(16);
  EXPECT_EQ(h.window_capacity(), 16u);
  EXPECT_EQ(h.window_count(), 0u);
  EXPECT_DOUBLE_EQ(h.window_percentile(0.99), 0.0);  // empty window
  h.observe(42.0);
  EXPECT_EQ(h.window_count(), 1u);
  EXPECT_DOUBLE_EQ(h.window_percentile(0.50), 42.0);  // single sample
  EXPECT_DOUBLE_EQ(h.window_percentile(0.999), 42.0);
  h.observe(7.0);
  EXPECT_DOUBLE_EQ(h.window_percentile(0.0), 7.0);    // p<=0 -> window min
  EXPECT_DOUBLE_EQ(h.window_percentile(1.0), 42.0);   // p>=1 -> window max
}

TEST(Histogram, WindowP999WithFewerThanThousandSamplesIsWindowMax) {
  // Nearest-rank: with n < 1000, ceil(0.999 * n) == n, so p99.9 of a small
  // window is exactly its max -- the documented regression case.
  Histogram h({1e6});
  h.set_window(1024);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.window_percentile(0.999), 100.0);
  EXPECT_DOUBLE_EQ(h.window_percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.window_percentile(0.50), 50.0);
}

TEST(Histogram, WindowEvictsOldestAndIsExactOverRecentSamples) {
  Histogram h({1e6});
  h.set_window(8);
  for (int i = 0; i < 100; ++i) h.observe(1000.0);  // old regime
  for (int i = 1; i <= 8; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.window_count(), 8u);
  // Only the 8 most recent samples remain: 1..8.
  EXPECT_DOUBLE_EQ(h.window_percentile(0.50), 4.0);
  EXPECT_DOUBLE_EQ(h.window_percentile(1.0), 8.0);
  // The cumulative view still spans all 108 observations.
  EXPECT_EQ(h.count(), 108u);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

/// Nearest-rank oracle: sort the window, index ceil(p * n) (1-based),
/// min for p <= 0, max for p >= 1, 0 when empty.
double sorted_reference(std::vector<double> window, double p) {
  if (window.empty()) return 0.0;
  std::sort(window.begin(), window.end());
  const std::size_t n = window.size();
  if (p <= 0.0) return window.front();
  if (p >= 1.0) return window.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));
  return window[std::clamp<std::size_t>(rank, 1, n) - 1];
}

TEST(Histogram, WindowPercentilesMatchSortedReference) {
  // Ascending (the sampler's order), then an arbitrary order that walks
  // back and forth across already-selected ranks.
  const std::vector<std::vector<double>> orders = {
      {-0.5, 0.0, 1e-9, 0.25, 0.5, 0.5, 0.95, 0.99, 0.999, 1.0, 1.5},
      {0.99, 0.5, 1.0, 0.0, 0.999, 0.25, 0.95, -1.0, 0.5}};
  std::mt19937_64 rng(20010618);
  std::vector<double> scratch;
  for (const std::size_t cap : {1u, 2u, 7u, 64u, 1000u}) {
    for (const std::size_t fill : {std::size_t{0}, std::size_t{1}, cap - 1,
                                   cap, 2 * cap + 3}) {
      Histogram h({1e6});
      h.set_window(cap);
      std::deque<double> recent;  // the last `cap` observations
      // Half the samples from a few levels, so ranks land on runs of ties;
      // half distinct, so a wrong neighbour shows.
      std::uniform_int_distribution<int> level(0, 9);
      std::uniform_real_distribution<double> spread(0.0, 25.0);
      for (std::size_t i = 0; i < fill; ++i) {
        const double x = i % 2 == 0 ? static_cast<double>(level(rng)) * 2.5
                                    : spread(rng);
        h.observe(x);
        recent.push_back(x);
        if (recent.size() > cap) recent.pop_front();
      }
      const std::vector<double> window(recent.begin(), recent.end());
      ASSERT_EQ(h.window_count(), window.size());
      // Plus every rank in turn: (i + 0.5) / n selects rank i + 1.
      std::vector<double> every_rank;
      for (std::size_t i = 0; i < window.size(); ++i) {
        every_rank.push_back((static_cast<double>(i) + 0.5) /
                             static_cast<double>(window.size()));
      }
      std::vector<std::vector<double>> all = orders;
      all.push_back(every_rank);
      for (const std::vector<double>& ps : all) {
        std::vector<double> out(ps.size(), -1.0);
        h.window_percentiles(ps.data(), ps.size(), out.data(), scratch);
        for (std::size_t i = 0; i < ps.size(); ++i) {
          const double want = sorted_reference(window, ps[i]);
          EXPECT_EQ(out[i], want)
              << "cap " << cap << " fill " << fill << " p " << ps[i];
          EXPECT_EQ(h.window_percentile(ps[i]), want)
              << "cap " << cap << " fill " << fill << " p " << ps[i];
        }
      }
    }
  }
}

TEST(Registry, GenerationMovesOnlyWhenTheMetricSetChanges) {
  Registry r;
  std::uint64_t g = r.generation();
  r.counter("dut", "puts");
  EXPECT_GT(r.generation(), g);
  g = r.generation();
  r.counter("dut", "puts").inc();  // resolve, not create
  r.gauge("dut", "fill");
  EXPECT_GT(r.generation(), g);
  g = r.generation();
  r.histogram("dut", "lat", {10.0}).observe(1.0);
  EXPECT_GT(r.generation(), g);
  g = r.generation();
  r.histogram("dut", "lat", {10.0}).observe(2.0);
  r.gauge("dut", "fill").set(1.0);
  EXPECT_EQ(r.generation(), g);

  Registry same;
  same.counter("dut", "puts").inc();
  r.merge(same);  // merges into existing metrics only
  EXPECT_EQ(r.generation(), g);
  Registry more;
  more.histogram("other", "lat", {10.0});
  r.merge(more);
  EXPECT_GT(r.generation(), g);
  g = r.generation();
  r.clear();
  EXPECT_GT(r.generation(), g);
}

TEST(Registry, DefaultWindowAppliesToHistogramsCreatedAfterward) {
  Registry r;
  Histogram& before = r.histogram("a", "lat", {10.0});
  r.set_default_window(32);
  Histogram& after = r.histogram("b", "lat", {10.0});
  EXPECT_EQ(before.window_capacity(), 0u);
  EXPECT_EQ(after.window_capacity(), 32u);
  EXPECT_EQ(r.default_window(), 32u);
}

TEST(RegistryMerge, CountersAddGaugesMaxAcrossShards) {
  Registry a;
  a.counter("dut", "puts").inc(3);
  a.gauge("dut", "occ").set(2.0);
  Registry b;
  b.counter("dut", "puts").inc(4);
  b.counter("dut", "gets").inc(1);       // only in b
  b.gauge("dut", "occ").set(5.0);
  b.gauge("other", "depth").set(1.0);    // new instance
  a.merge(b);
  EXPECT_EQ(a.counter("dut", "puts").value(), 7u);
  EXPECT_EQ(a.counter("dut", "gets").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("dut", "occ").value(), 5.0);  // max, not last
  EXPECT_DOUBLE_EQ(a.gauge("other", "depth").value(), 1.0);
}

TEST(RegistryMerge, HistogramBucketsCountsAndExtremaCombine) {
  const std::vector<double> bounds{10.0, 100.0};
  Registry a;
  a.histogram("dut", "lat", bounds).observe(5.0);
  a.histogram("dut", "lat", bounds).observe(50.0);
  Registry b;
  b.histogram("dut", "lat", bounds).observe(500.0);
  a.merge(b);
  const Histogram* h = a.find_histogram("dut", "lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->min(), 5.0);
  EXPECT_DOUBLE_EQ(h->max(), 500.0);
  // Percentiles see the union of the shards' buckets.
  EXPECT_GT(h->percentile(0.99), 100.0);
}

TEST(RegistryMerge, HistogramBoundsMismatchThrows) {
  Registry a;
  a.histogram("dut", "lat", {10.0}).observe(1.0);
  Registry b;
  b.histogram("dut", "lat", {20.0}).observe(1.0);
  EXPECT_THROW(a.merge(b), ConfigError);
}

TEST(RegistryMerge, CommutativeAndIndependentOfShardOrder) {
  // The campaign reduction folds worker registries in worker order; the
  // result must not depend on that order.
  auto build = [](std::uint64_t n, double g) {
    auto r = std::make_unique<Registry>();  // Registry is non-copyable
    r->counter("dut", "puts").inc(n);
    r->gauge("dut", "occ").set(g);
    r->histogram("dut", "lat", {10.0}).observe(g);
    return r;
  };
  auto ab = build(1, 2.0);
  ab->merge(*build(5, 9.0));
  auto ba = build(5, 9.0);
  ba->merge(*build(1, 2.0));
  EXPECT_EQ(ab->to_json(), ba->to_json());
}

TEST(RegistryMerge, EmptyIntoEmptyAndEmptyIntoPopulated) {
  Registry a;
  Registry b;
  a.merge(b);  // empty <- empty: no-op
  EXPECT_EQ(a.instance_count(), 0u);
  a.counter("dut", "puts").inc(3);
  a.merge(b);  // populated <- empty: unchanged
  EXPECT_EQ(a.counter("dut", "puts").value(), 3u);
  EXPECT_EQ(a.instance_count(), 1u);
  b.merge(a);  // empty <- populated: becomes a copy
  EXPECT_EQ(b.counter("dut", "puts").value(), 3u);
}

TEST(RegistryMerge, DisjointInstanceSetsUnion) {
  Registry a;
  a.counter("left", "puts").inc(1);
  Registry b;
  b.counter("right", "gets").inc(2);
  b.histogram("right", "lat", {10.0}).observe(5.0);
  a.merge(b);
  EXPECT_EQ(a.instance_count(), 2u);
  EXPECT_EQ(a.counter("left", "puts").value(), 1u);
  EXPECT_EQ(a.counter("right", "gets").value(), 2u);
  ASSERT_NE(a.find_histogram("right", "lat"), nullptr);
  EXPECT_EQ(a.find_histogram("right", "lat")->count(), 1u);
}

TEST(RegistryMerge, WindowsDoNotMergeAcrossShards) {
  // Sliding windows are per-shard recency state; merge() combines only the
  // cumulative buckets. The destination keeps its own window contents.
  Registry a;
  a.set_default_window(8);
  a.histogram("dut", "lat", {1e6}).observe(10.0);
  Registry b;
  b.set_default_window(8);
  b.histogram("dut", "lat", {1e6}).observe(999.0);
  a.merge(b);
  const Histogram* h = a.find_histogram("dut", "lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);                          // cumulative merged
  EXPECT_EQ(h->window_count(), 1u);                   // window untouched
  EXPECT_DOUBLE_EQ(h->window_percentile(1.0), 10.0);  // a's sample only
}

TEST(Registry, ClearDropsEveryInstance) {
  Registry r;
  r.counter("dut", "puts").inc(3);
  r.histogram("dut", "lat", {10.0}).observe(1.0);
  r.clear();
  EXPECT_EQ(r.instance_count(), 0u);
  EXPECT_EQ(r.find_counter("dut", "puts"), nullptr);
}

}  // namespace
}  // namespace mts::metrics
