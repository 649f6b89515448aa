// Harness self-measurement: how fast the discrete-event kernel and a full
// FIFO model simulate on the host, and what each opt-in instrument costs.
// Not a paper experiment -- it documents the cost of using this library.
//
// Measures every number scripts/check_kernel_perf.py gates, once each, under
// an instrumented global allocator, and writes them to BENCH_kernel.json in
// the current directory, stamped with the host and build that produced
// them. `--smoke` runs the small shapes (CI; also exercises the pool and
// free-list code under sanitizers). The per-layer rungs (signal commit, gate
// evaluation, queue depth) are perfbench's, not this binary's.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include "bfm/bfm.hpp"
#include "fifo/fifo.hpp"
#include "metrics/registry.hpp"
#include "sim/observe.hpp"
#include "sim/profiler.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

#include "campaign_workload.hpp"

// ---------------------------------------------------------------------------
// Instrumented allocator hook: counts every global operator new. The kernel's
// zero-allocation claim is verified by diffing this counter around measured
// regions (steady state only -- pools may still grow during warmup).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mts;
using sim::Time;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// The build that produced the numbers: the gate refuses Debug and
/// sanitized builds, whose constant factors say nothing about regressions.
std::string host_json() {
  std::string sanitizers = MTS_BENCH_SANITIZE;
  if (sanitizers.empty() && kSanitized) sanitizers = "unknown";
  if (sanitizers.empty()) sanitizers = "none";
  return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" MTS_BENCH_BUILD_TYPE "\", \"sanitizers\": \"" +
         sanitizers + "\"}";
}

/// Self-rescheduling event chain: the idiomatic new-API callable (two
/// pointers, stored inline in the scheduler's small-buffer callback).
struct ChainTick {
  sim::Scheduler* sched;
  std::uint64_t* count;
  std::uint64_t limit;
  void operator()() const {
    if (++*count < limit) sched->after(1, ChainTick{sched, count, limit});
  }
};

struct Measurement {
  double per_sec = 0.0;  ///< events or put cycles per host second
  double allocs_per_million = 0.0;
};

/// Times `run` and diffs the allocation counter around it.
template <typename Run>
Measurement measure(std::uint64_t units, Run run) {
  const std::uint64_t allocs_before = g_alloc_count.load();
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;
  Measurement m;
  m.per_sec = static_cast<double>(units) /
              std::chrono::duration<double>(t1 - t0).count();
  m.allocs_per_million =
      static_cast<double>(allocs) * 1e6 / static_cast<double>(units);
  return m;
}

/// Best of `reps` runs: throughput is max (transient system load only ever
/// slows a run down) and the allocation count is min for the same reason.
template <typename MeasureFn>
Measurement best_of(int reps, MeasureFn measure_once) {
  Measurement best = measure_once();
  for (int i = 1; i < reps; ++i) {
    const Measurement m = measure_once();
    best.per_sec = std::max(best.per_sec, m.per_sec);
    best.allocs_per_million =
        std::min(best.allocs_per_million, m.allocs_per_million);
  }
  return best;
}

/// Runs a heap-path event chain of `events` events twice on one scheduler:
/// the first pass grows the pools, the second (measured) pass must be
/// allocation-free. With `profiler` armed, every event is attributed to a
/// registered site -- the worst-case per-event observability overhead
/// (timing + attribution on 100% of events).
Measurement measure_chain(std::uint64_t events, sim::KernelProfiler* profiler) {
  sim::Scheduler sched;
  sched.set_profiler(profiler);
  const sim::KernelProfiler::SiteId site =
      profiler != nullptr ? profiler->site("bench chain") : 0;
  std::uint64_t count = 0;
  sched.at_site(0, site, ChainTick{&sched, &count, events});
  sched.run();  // warmup: pools grow to steady state here

  count = 0;
  sched.at_site(sched.now() + 1, site, ChainTick{&sched, &count, events});
  return measure(events, [&] { sched.run(); });
}

/// The instrument a FIFO soak arms.
enum class Instrument { kNone, kMonitors, kTelemetry };

/// The mixed-clock FIFO soak, `cycles` put cycles after a warmup. Disarmed
/// (kNone), it is the zero-cost-when-disarmed contract CI gates: components
/// probe sim.monitors() and obs.telemetry once at construction, so a run
/// with neither armed may not pay for the verify or telemetry subsystems.
/// kMonitors arms a verify::Hub (protocol checkers on every component);
/// kTelemetry arms a sampler that samples every FIFO/relay source plus the
/// registry every four put cycles.
Measurement measure_fifo_soak(std::uint64_t cycles, Instrument instrument) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  verify::Hub hub;
  hub.set_policy(verify::Policy::kCount);
  metrics::Registry registry;
  sim::TelemetryConfig tcfg;
  tcfg.interval = 4 * pp;  // a sample every four put cycles: aggressive
  sim::Telemetry telemetry(tcfg);
  sim::Observability obs;  // armed pointer lives in sim: must span the run
  if (instrument == Instrument::kMonitors) hub.arm(sim);
  if (instrument == Instrument::kTelemetry) {
    obs.metrics = &registry;
    obs.telemetry = &telemetry;
    obs.arm(sim);
  }
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {1.0, 1});
  sim.run_until(4 * pp + 64 * pp);  // warmup: arenas, listeners, series

  return measure(cycles,
                 [&] { sim.run_until(4 * pp + (64 + cycles) * pp); });
}

/// Raw sampler throughput: how many telemetry samples per host second a
/// store with `sources` probes plus a registry of histograms can absorb.
/// Isolates the sampler from the FIFO model, so it records the cost of one
/// take_sample() independent of workload.
double measure_sampler_rate(std::size_t sources, std::uint64_t samples) {
  sim::Simulation sim;
  metrics::Registry registry;
  sim::TelemetryConfig tcfg;
  tcfg.interval = 1;
  tcfg.max_points = 512;
  sim::Telemetry telemetry(tcfg);
  double x = 0.0;
  for (std::size_t i = 0; i < sources; ++i) {
    telemetry.add_source("src" + std::to_string(i), "bench", "value",
                         [&x] { return x; });
  }
  registry.set_default_window(1024);
  metrics::Histogram& h =
      registry.histogram("bench", "latency_ps", {10.0, 100.0, 1000.0});
  for (int i = 0; i < 256; ++i) h.observe(static_cast<double>(i));
  telemetry.set_registry(&registry);
  sim::Observability obs;
  obs.telemetry = &telemetry;
  obs.arm(sim);
  for (std::uint64_t i = 0; i < 64; ++i) telemetry.sample_now();  // warmup

  return measure(samples, [&] {
           for (std::uint64_t i = 0; i < samples; ++i) {
             x += 1.0;
             telemetry.sample_now();
           }
         }).per_sec;
}

/// Slowdown of `armed` relative to `off`, in percent.
double overhead_pct(const Measurement& off, const Measurement& armed) {
  return (off.per_sec / armed.per_sec - 1.0) * 100.0;
}

void write_kernel_json(bool smoke) {
  const std::uint64_t chain_events = smoke ? 2'000'000 : 4'000'000;
  const Measurement chain =
      best_of(3, [&] { return measure_chain(chain_events, nullptr); });
  const Measurement profiled = best_of(3, [&] {
    sim::KernelProfiler prof;
    return measure_chain(chain_events, &prof);
  });

  // One disarmed soak, the denominator of both armed overheads.
  const std::uint64_t fifo_cycles = smoke ? 400 : 4'000;
  const auto soak = [&](Instrument instrument) {
    return best_of(3, [&] { return measure_fifo_soak(fifo_cycles, instrument); });
  };
  const Measurement off = soak(Instrument::kNone);
  const Measurement monitors = soak(Instrument::kMonitors);
  const Measurement telemetry = soak(Instrument::kTelemetry);

  const std::uint64_t sampler_samples = smoke ? 20'000 : 200'000;
  double rate_small = 0.0;
  double rate_large = 0.0;
  for (int i = 0; i < 3; ++i) {
    rate_small = std::max(rate_small, measure_sampler_rate(8, sampler_samples));
    rate_large = std::max(rate_large, measure_sampler_rate(64, sampler_samples));
  }

  // Campaign scaling on the shared FIFO-soak workload (see
  // campaign_workload.hpp). Speedup is bounded by host cores, which the
  // host stamp records, so a 1-core box reporting ~1.0x reads as what it is.
  const std::size_t campaign_reps = smoke ? 3 : 8;
  const unsigned campaign_cycles = smoke ? 100 : 300;
  const unsigned campaign_workers[] = {1, 2, 4, 8};
  double campaign_rps[std::size(campaign_workers)] = {};
  for (std::size_t i = 0; i < std::size(campaign_workers); ++i) {
    campaign_rps[i] = benchwork::measure_campaign_runs_per_sec(
        campaign_workers[i], 3, campaign_reps, campaign_cycles);
  }

  FILE* f = std::fopen("BENCH_kernel.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernel_perf: cannot write BENCH_kernel.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"note\": \"kernel and FIFO-soak cost, disarmed and with "
                  "each opt-in instrument armed; fifo_soak is keyed by soak "
                  "length in put cycles\",\n");
  std::fprintf(f, "  \"host\": %s,\n", host_json().c_str());
  std::fprintf(f, "  \"chain\": {\n");
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(chain_events));
  std::fprintf(f, "    \"events_per_sec\": %.4g,\n", chain.per_sec);
  std::fprintf(f, "    \"allocs_per_million_events\": %.4g,\n",
               chain.allocs_per_million);
  std::fprintf(f, "    \"events_per_sec_profiled\": %.4g,\n", profiled.per_sec);
  std::fprintf(f, "    \"profiler_overhead_pct\": %.1f\n",
               overhead_pct(chain, profiled));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fifo_soak\": {\n");
  std::fprintf(f, "    \"%llu\": {\n",
               static_cast<unsigned long long>(fifo_cycles));
  std::fprintf(f, "      \"cycles_per_sec_disarmed\": %.4g,\n", off.per_sec);
  std::fprintf(f, "      \"allocs_per_million_cycles_disarmed\": %.4g,\n",
               off.allocs_per_million);
  std::fprintf(f, "      \"cycles_per_sec_monitors\": %.4g,\n",
               monitors.per_sec);
  std::fprintf(f, "      \"monitors_overhead_pct\": %.1f,\n",
               overhead_pct(off, monitors));
  std::fprintf(f, "      \"cycles_per_sec_telemetry\": %.4g,\n",
               telemetry.per_sec);
  std::fprintf(f, "      \"telemetry_overhead_pct\": %.1f\n",
               overhead_pct(off, telemetry));
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"sampler\": {\n");
  std::fprintf(f, "    \"samples\": %llu,\n",
               static_cast<unsigned long long>(sampler_samples));
  std::fprintf(f, "    \"samples_per_sec_8_sources\": %.4g,\n", rate_small);
  std::fprintf(f, "    \"samples_per_sec_64_sources\": %.4g,\n", rate_large);
  std::fprintf(f, "    \"registry_histograms\": 1,\n");
  std::fprintf(f, "    \"histogram_window\": 1024\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"campaign\": {\n");
  std::fprintf(f, "    \"runs\": %zu,\n",
               static_cast<std::size_t>(3) * campaign_reps);
  std::fprintf(f, "    \"cycles_per_run\": %u,\n", campaign_cycles);
  std::fprintf(f, "    \"runs_per_sec\": {");
  for (std::size_t i = 0; i < std::size(campaign_workers); ++i) {
    std::fprintf(f, "%s\"%u\": %.1f", i == 0 ? "" : ", ", campaign_workers[i],
                 campaign_rps[i]);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "    \"speedup_4w_vs_1w\": %.2f\n",
               campaign_rps[2] / campaign_rps[0]);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("BENCH_kernel.json: chain %.3g events/s (%.3g allocs/Mevent), "
              "profiled %.3g (+%.1f%%); FIFO soak disarmed %.3g cycles/s, "
              "monitors +%.1f%%, telemetry +%.1f%%; sampler %.3g samples/s "
              "@8 sources, %.3g @64; campaign %.1f runs/s @1w, %.2fx @4w; "
              "host %s\n",
              chain.per_sec, chain.allocs_per_million, profiled.per_sec,
              overhead_pct(chain, profiled), off.per_sec,
              overhead_pct(off, monitors), overhead_pct(off, telemetry),
              rate_small, rate_large, campaign_rps[0],
              campaign_rps[2] / campaign_rps[0], host_json().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_kernel_perf [--smoke]\n");
      return 2;
    }
  }
  write_kernel_json(smoke);
  return 0;
}
