#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sim/simulation.hpp"
#include "sim/trace_session.hpp"
#include "verify/hub.hpp"

namespace mts::sim {
namespace {

/// Self-rescheduling tick chain: keeps the queue non-empty for `limit`
/// ticks of `period` so the periodic probe has something to ride along.
void tick_chain(Simulation& sim, Time period, std::uint64_t* count,
                std::uint64_t limit) {
  if (++*count < limit) {
    sim.sched().after(period, [&sim, period, count, limit] {
      tick_chain(sim, period, count, limit);
    });
  }
}

TEST(Telemetry, SamplesEveryIntervalWhileEventsPend) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = 10 * kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  std::uint64_t ticks = 0;
  sim.sched().after(kNanosecond,
                    [&] { tick_chain(sim, kNanosecond, &ticks, 200); });
  sim.run();
  EXPECT_EQ(ticks, 200u);
  // Ticks end at t = 200 ns; probes fire at 10, 20, ... until the queue
  // drains, so ~20 samples with at most one probe of slack either way.
  EXPECT_GE(tel.samples(), 19u);
  EXPECT_LE(tel.samples(), 21u);
  EXPECT_FALSE(tel.active());  // probe retired: the queue drained
  EXPECT_TRUE(sim.sched().empty());
}

TEST(Telemetry, ProbeRetiresAfterOneSampleOnAnIdleQueue) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = 10 * kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  sim.run();  // only the probe is pending: one sample, then retirement
  EXPECT_EQ(tel.samples(), 1u);
  EXPECT_FALSE(tel.active());
  EXPECT_EQ(sim.now(), 10 * kNanosecond);  // drained one interval after start
}

TEST(Telemetry, SourcesSampleIntoSeriesAndDomainRollups) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.add_source("f0", "bus", "occupancy", [] { return 2.0; });
  tel.add_source("f1", "bus", "occupancy", [] { return 3.0; });
  tel.add_source("g0", "disp", "occupancy", [] { return 5.0; });
  tel.start(sim);
  sim.run();
  ASSERT_EQ(tel.samples(), 1u);
  const metrics::TimeSeriesStore& st = tel.store();
  ASSERT_NE(st.find("f0.occupancy"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("f0.occupancy")->last(), 2.0);
  EXPECT_DOUBLE_EQ(st.find("f1.occupancy")->last(), 3.0);
  // Rollup: sum over the domain's sources of one kind.
  ASSERT_NE(st.find("domain.bus.occupancy"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("domain.bus.occupancy")->last(), 5.0);
  ASSERT_NE(st.find("domain.disp.occupancy"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("domain.disp.occupancy")->last(), 5.0);
}

TEST(Telemetry, KernelSeriesPresentAndHostSeriesOptIn) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = 10 * kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  std::uint64_t ticks = 0;
  sim.sched().after(kNanosecond,
                    [&] { tick_chain(sim, kNanosecond, &ticks, 100); });
  sim.run();
  const metrics::TimeSeriesStore& st = tel.store();
  ASSERT_NE(st.find("kernel.events_per_us"), nullptr);
  EXPECT_GT(st.find("kernel.events_per_us")->last(), 0.0);
  ASSERT_NE(st.find("kernel.queue_depth"), nullptr);
  // Host-dependent series stay out of the default export (campaign
  // timelines must be worker-count independent).
  EXPECT_EQ(st.find("kernel.pool_high_water"), nullptr);

  Simulation sim2;
  cfg.include_host_series = true;
  Telemetry tel2(cfg);
  tel2.start(sim2);
  std::uint64_t ticks2 = 0;
  sim2.sched().after(kNanosecond,
                     [&] { tick_chain(sim2, kNanosecond, &ticks2, 100); });
  sim2.run();
  EXPECT_NE(tel2.store().find("kernel.pool_high_water"), nullptr);
}

TEST(Telemetry, RegistrySnapshotCoversCountersGaugesAndWindowPercentiles) {
  Simulation sim;
  metrics::Registry reg;
  reg.set_default_window(128);  // all 100 observations fit the window
  reg.counter("dut", "puts").inc(7);
  reg.gauge("dut", "fill").set(0.5);
  metrics::Histogram& h = reg.histogram("dut", "latency_ps", {1e6});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));

  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.set_registry(&reg);
  tel.start(sim);
  sim.run();
  const metrics::TimeSeriesStore& st = tel.store();
  ASSERT_NE(st.find("dut.puts"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.puts")->last(), 7.0);
  ASSERT_NE(st.find("dut.fill"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.fill")->last(), 0.5);
  // Windowed nearest-rank percentiles of the raw recent samples 1..100.
  ASSERT_NE(st.find("dut.latency_ps.p50"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.latency_ps.p50")->last(), 50.0);
  ASSERT_NE(st.find("dut.latency_ps.p999"), nullptr);
  EXPECT_DOUBLE_EQ(st.find("dut.latency_ps.p999")->last(), 100.0);
}

TEST(Telemetry, ViolationSeriesAppearOnlyWithAnArmedHub) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.start(sim);
  sim.run();
  EXPECT_EQ(tel.store().find("verify.violations"), nullptr);

  Simulation sim2;
  verify::Hub hub;
  hub.set_policy(verify::Policy::kCount);
  hub.arm(sim2);
  Telemetry tel2(cfg);
  tel2.start(sim2);
  sim2.run();
  ASSERT_NE(tel2.store().find("verify.violations"), nullptr);
  EXPECT_DOUBLE_EQ(tel2.store().find("verify.violations")->last(), 0.0);
}

TEST(Telemetry, CounterTracksMergeIntoTraceSessionJson) {
  Simulation sim;
  TraceSession trace;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.add_source("dut", "bus", "occupancy", [] { return 4.0; });
  tel.attach_trace(&trace);
  tel.start(sim);
  sim.run();
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("dut.occupancy"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  // Still a well-formed traceEvents document after the splice.
  EXPECT_NE(json.rfind("]}"), std::string::npos);
}

TEST(Telemetry, AttachTraceNullDetachesCounterTracks) {
  Simulation sim;
  TraceSession trace;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.add_source("dut", "bus", "occupancy", [] { return 4.0; });
  tel.attach_trace(&trace);
  tel.start(sim);
  sim.run();
  ASSERT_NE(trace.to_json().find("\"telemetry\""), std::string::npos);
  tel.attach_trace(nullptr);
  const std::string json = trace.to_json();
  EXPECT_EQ(json.find("\"telemetry\""), std::string::npos);
  EXPECT_EQ(json.find("dut.occupancy"), std::string::npos);
}

TEST(Telemetry, ObservabilityArmWiresRegistryWindowAndStartsProbe) {
  Simulation sim;
  metrics::Registry reg;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  cfg.histogram_window = 77;
  Telemetry tel(cfg);
  Observability obs;
  obs.metrics = &reg;
  obs.telemetry = &tel;
  obs.arm(sim);
  EXPECT_TRUE(tel.active());
  EXPECT_EQ(reg.default_window(), 77u);  // windows armed before construction
  sim.run();
  EXPECT_EQ(tel.samples(), 1u);
}

TEST(Telemetry, ResetDropsSourcesSeriesAndSamplerState) {
  Simulation sim;
  TelemetryConfig cfg;
  cfg.interval = kNanosecond;
  Telemetry tel(cfg);
  tel.add_source("dut", "bus", "occupancy", [] { return 1.0; });
  tel.start(sim);
  sim.run();
  EXPECT_GT(tel.samples(), 0u);
  tel.reset();
  EXPECT_EQ(tel.source_count(), 0u);
  EXPECT_EQ(tel.samples(), 0u);
  EXPECT_TRUE(tel.store().empty());
  EXPECT_FALSE(tel.active());
  // reset() keeps the config: the campaign engine re-arms the same object.
  EXPECT_EQ(tel.config().interval, kNanosecond);
}

// --- handle lifetime: what the sampler sees when its inputs change mid-run

using Points = std::vector<std::pair<Time, double>>;

/// One series' retained points as (t in ns, value), or {} when absent.
Points points_of(const Telemetry& tel, const std::string& name) {
  Points out;
  if (const metrics::TimeSeries* s = tel.store().find(name); s != nullptr) {
    for (const metrics::TimePoint& p : s->points()) {
      out.emplace_back(p.t / kNanosecond, p.v);
    }
  }
  return out;
}

/// Samples every 10 ns over a queue kept busy until 45 ns (so five
/// samples, at 10..50 ns) and runs `mid` at 25 ns, between two ticks.
void run_with_midpoint(Simulation& sim, Telemetry& tel,
                       std::function<void()> mid) {
  tel.start(sim);
  sim.sched().after(25 * kNanosecond, std::move(mid));
  sim.sched().after(45 * kNanosecond, [] {});
  sim.run();
  ASSERT_EQ(tel.samples(), 5u);
}

TelemetryConfig every_10ns() {
  TelemetryConfig cfg;
  cfg.interval = 10 * kNanosecond;
  return cfg;
}

TEST(Telemetry, SourceAddedAfterFirstTickJoinsItsSeriesAndRollup) {
  Simulation sim;
  Telemetry tel(every_10ns());
  tel.add_source("a", "bus", "occupancy", [] { return 1.0; });
  run_with_midpoint(sim, tel, [&tel] {
    tel.add_source("b", "bus", "occupancy", [] { return 2.0; });
    tel.add_source("c", "disp", "occupancy", [] { return 4.0; });
  });
  EXPECT_EQ(tel.store().names(),
            (std::vector<std::string>{
                "a.occupancy", "b.occupancy", "c.occupancy",
                "domain.bus.occupancy", "domain.disp.occupancy",
                "kernel.events_per_us", "kernel.queue_depth"}));
  EXPECT_EQ(points_of(tel, "a.occupancy"),
            (Points{{10, 1}, {20, 1}, {30, 1}, {40, 1}, {50, 1}}));
  EXPECT_EQ(points_of(tel, "b.occupancy"), (Points{{30, 2}, {40, 2}, {50, 2}}));
  EXPECT_EQ(points_of(tel, "domain.bus.occupancy"),
            (Points{{10, 1}, {20, 1}, {30, 3}, {40, 3}, {50, 3}}));
  EXPECT_EQ(points_of(tel, "domain.disp.occupancy"),
            (Points{{30, 4}, {40, 4}, {50, 4}}));
}

TEST(Telemetry, MetricsCreatedMidRunAreSampledFromTheNextTick) {
  Simulation sim;
  metrics::Registry reg;
  reg.set_default_window(4);
  reg.counter("dut", "puts").inc(7);
  Telemetry tel(every_10ns());
  tel.set_registry(&reg);
  run_with_midpoint(sim, tel, [&reg] {
    reg.counter("dut", "puts").inc();
    reg.counter("dut", "late").inc(3);
    metrics::Histogram& h = reg.histogram("dut", "lat", {1e6});
    // The 4-sample window keeps {3, 3, 9, 2}: p50 is 3, the tail is 9.
    for (const double v : {5.0, 1.0, 3.0, 3.0, 9.0, 2.0}) h.observe(v);
  });
  EXPECT_EQ(tel.store().names(),
            (std::vector<std::string>{
                "dut.lat.p50", "dut.lat.p95", "dut.lat.p99", "dut.lat.p999",
                "dut.late", "dut.puts", "kernel.events_per_us",
                "kernel.queue_depth"}));
  EXPECT_EQ(points_of(tel, "dut.puts"),
            (Points{{10, 7}, {20, 7}, {30, 8}, {40, 8}, {50, 8}}));
  EXPECT_EQ(points_of(tel, "dut.late"), (Points{{30, 3}, {40, 3}, {50, 3}}));
  EXPECT_EQ(points_of(tel, "dut.lat.p50"), (Points{{30, 3}, {40, 3}, {50, 3}}));
  EXPECT_EQ(points_of(tel, "dut.lat.p95"), (Points{{30, 9}, {40, 9}, {50, 9}}));
  EXPECT_EQ(points_of(tel, "dut.lat.p999"),
            (Points{{30, 9}, {40, 9}, {50, 9}}));
}

TEST(Telemetry, RegistryClearedMidRunSamplesOnlyTheRecreatedMetrics) {
  Simulation sim;
  metrics::Registry reg;
  reg.set_default_window(4);
  reg.counter("dut", "puts").inc(7);
  reg.gauge("dut", "fill").set(0.5);
  Telemetry tel(every_10ns());
  tel.set_registry(&reg);
  run_with_midpoint(sim, tel, [&reg] {
    reg.clear();
    reg.counter("dut", "puts").inc(2);
    reg.histogram("dut", "lat", {1e6}).observe(4.0);
  });
  EXPECT_EQ(tel.store().names(),
            (std::vector<std::string>{
                "dut.fill", "dut.lat.p50", "dut.lat.p95", "dut.lat.p99",
                "dut.lat.p999", "dut.puts", "kernel.events_per_us",
                "kernel.queue_depth"}));
  EXPECT_EQ(points_of(tel, "dut.puts"),
            (Points{{10, 7}, {20, 7}, {30, 2}, {40, 2}, {50, 2}}));
  // The gauge was not re-created: its series stops at the clear.
  EXPECT_EQ(points_of(tel, "dut.fill"), (Points{{10, 0.5}, {20, 0.5}}));
  EXPECT_EQ(points_of(tel, "dut.lat.p99"), (Points{{30, 4}, {40, 4}, {50, 4}}));
}

TEST(Telemetry, SetRegistryMidRunSwitchesToTheSecondRegistry) {
  Simulation sim;
  metrics::Registry first;
  first.counter("a", "x").inc(1);
  metrics::Registry second;
  second.gauge("b", "y").set(2.5);
  Telemetry tel(every_10ns());
  tel.set_registry(&first);
  run_with_midpoint(sim, tel, [&] { tel.set_registry(&second); });
  EXPECT_EQ(tel.store().names(),
            (std::vector<std::string>{"a.x", "b.y", "kernel.events_per_us",
                                      "kernel.queue_depth"}));
  EXPECT_EQ(points_of(tel, "a.x"), (Points{{10, 1}, {20, 1}}));
  EXPECT_EQ(points_of(tel, "b.y"), (Points{{30, 2.5}, {40, 2.5}, {50, 2.5}}));
}

TEST(Telemetry, DisarmedRunRegistersNoSourcesViaObservability) {
  // The zero-cost contract at the API level: with no Telemetry in the
  // bundle, arm() leaves nothing behind for components to find.
  Simulation sim;
  Observability obs;
  obs.arm(sim);
  ASSERT_NE(sim.observability(), nullptr);
  EXPECT_EQ(sim.observability()->telemetry, nullptr);
}

}  // namespace
}  // namespace mts::sim
