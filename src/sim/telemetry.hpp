// In-run time-series telemetry sampler.
//
// A Telemetry is the fourth Observability sink (sim/observe.hpp): armed on a
// Simulation before components are constructed, it is serviced by the
// Scheduler as a self-rescheduling periodic probe. Every `interval` of sim
// time the probe snapshots
//
//   * every registered per-instance SOURCE -- instantaneous probes the
//     components themselves install at construction (FIFO/relay occupancy,
//     in-flight count, stall duty, synchronizer escape rate),
//   * per-(domain, kind) ROLLUPS -- the sum of every source of one kind in
//     one timing domain, as `domain.<domain>.<kind>`,
//   * the metrics::Registry -- every counter and gauge by value, and every
//     histogram's sliding-window p50/p95/p99/p99.9 (registry.hpp windows,
//     armed via Registry::set_default_window before construction),
//   * kernel builtins -- `kernel.events_per_us` (events executed per
//     microsecond of sim time over the last interval), `kernel.queue_depth`
//     (pending events), and -- only with `include_host_series` --
//     `kernel.pool_high_water` (host-dependent: reflects arena warmth, so
//     campaign timelines exclude it by default),
//   * `verify.violations` / `verify.violation_rate` when a verify::Hub is
//     armed
//
// into a bounded metrics::TimeSeriesStore (decimation policy documented
// there), exportable as JSONL, CSV, and Perfetto counter tracks merged into
// the TraceSession's trace.json via attach_trace().
//
// Determinism contract: the probe reads state and writes the store -- it
// never drives a wire, mints a transaction id, or advances the RNG, so an
// armed run's waveform is bit-identical to a disarmed run of the same seed,
// and the sampled values are a pure function of (design, seed, interval).
// The probe re-schedules itself ONLY while other events are pending;
// otherwise it retires, so the queue still drains (at most one interval
// after the last real event) and watchdog drain detection keeps working.
//
// Lifetime: sources capture component state by pointer; they are invoked
// only from the probe (i.e. while the simulation -- and thus every
// component -- is alive). Destroy-then-sample is undefined; the campaign
// engine calls reset() between runs before components are rebuilt.
//
// Armed cost: a warm tick does no string work and no map lookup, and
// allocates only when a series' point vector grows. Every series is
// resolved to a metrics::TimeSeries* once and kept in a handle table:
//
//   * each source holds its own series and the index of its rollup slot;
//     the slots are the sorted (domain, kind) pairs. Re-resolved on the
//     first tick after add_source();
//   * each registry metric holds one series (counter, gauge) or four
//     (histogram percentiles). Rebound on the first tick after
//     Registry::generation() moves (a metric created, clear(), merge());
//   * the kernel and verify series resolve on first use.
//
// A histogram's four window percentiles come from one copy of its window
// and one nth_element per rank (Histogram::window_percentiles), so a tick
// costs O(sources + metrics + window). Series are still created at their
// first append, so the exports are byte-identical to resolving by name
// each tick. reset() and set_registry() drop every handle; the store has
// only a const accessor, so no outside code can clear it under them.
//
// Disarmed cost: components probe `observability()->telemetry` once at
// construction; with no Telemetry armed they register no sources and keep
// no extra state -- the seed hot path is unchanged (pinned by the
// golden-VCD FNV tests and the <=5% gate in scripts/check_kernel_perf.py).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/timeseries.hpp"
#include "sim/time.hpp"

namespace mts::metrics {
class Counter;
class Gauge;
class Histogram;
class Registry;
}  // namespace mts::metrics

namespace mts::sim {

class Simulation;
class TraceSession;

struct TelemetryConfig {
  /// Sampling period in sim time (picoseconds).
  Time interval = 100 * kNanosecond;
  /// Per-series retained-point cap before decimation (timeseries.hpp).
  std::size_t max_points = 4096;
  /// Sliding-window capacity applied (via Registry::set_default_window) to
  /// histograms created while armed; windowed p50/p95/p99/p99.9 are sampled
  /// per tick. 0 falls back to cumulative bucket percentiles.
  std::size_t histogram_window = 1024;
  /// Emit host-dependent kernel series (pool_high_water). Off by default:
  /// campaign timelines must be worker-count independent and arenas warm
  /// differently per worker.
  bool include_host_series = false;
};

class Telemetry {
 public:
  using Probe = std::function<double()>;

  explicit Telemetry(TelemetryConfig cfg = TelemetryConfig{})
      : cfg_(cfg), store_(cfg.max_points) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryConfig& config() const noexcept { return cfg_; }

  /// Registers an instantaneous per-instance probe, sampled every tick as
  /// series `<instance>.<kind>` and rolled up into `domain.<domain>.<kind>`
  /// (sum over the domain's sources of that kind). Components call this
  /// once, at construction, when armed; registration order is construction
  /// order and therefore deterministic. `fn` may keep mutable state (e.g.
  /// last-tick counters for duty/rate probes).
  void add_source(std::string instance, std::string domain, std::string kind,
                  Probe fn) {
    sources_.push_back(
        Source{std::move(instance), std::move(domain), std::move(kind),
               std::move(fn)});
    sources_resolved_ = false;
  }
  std::size_t source_count() const noexcept { return sources_.size(); }

  /// Registry snapshotted each tick: counters, gauges and histogram window
  /// percentiles (Observability::arm wires the bundle's registry
  /// automatically).
  void set_registry(const metrics::Registry* r) noexcept {
    registry_ = r;
    drop_handles();
  }

  /// Merges this store's counter tracks into `t`'s to_json() output (one
  /// Perfetto counter track per series, under a dedicated "telemetry"
  /// process). Pass nullptr to detach. The Telemetry must outlive the
  /// trace session's export or be detached first. Any call first detaches
  /// the session attached before, which must therefore still be alive.
  void attach_trace(TraceSession* t);

  /// Arms the periodic probe on `sim`: first sample at now() + interval,
  /// then every interval while other events remain pending (see header
  /// comment for the drain contract). Also the re-arm hook after a drain:
  /// calling start() again resumes sampling.
  void start(Simulation& sim);
  /// True between start() and the probe's retirement at queue drain.
  bool active() const noexcept { return active_; }

  /// Takes one sample immediately at sim.now() (final-snapshot / test
  /// hook); requires a prior start().
  void sample_now();

  std::uint64_t samples() const noexcept { return samples_; }

  const metrics::TimeSeriesStore& store() const noexcept { return store_; }

  std::string to_jsonl() const { return store_.to_jsonl(); }
  std::string to_csv() const { return store_.to_csv(); }
  bool write_jsonl(const std::string& path) const {
    return store_.write_jsonl(path);
  }

  /// Drops sources, series and sampler state; keeps the config. The
  /// campaign engine's between-runs hook -- call before components are
  /// rebuilt so stale source pointers never survive into the next run.
  void reset() {
    sources_.clear();
    store_.clear();
    drop_handles();
    registry_ = nullptr;
    sim_ = nullptr;
    active_ = false;
    samples_ = 0;
    last_t_ = 0;
    last_events_ = 0;
    last_violations_ = 0;
  }

 private:
  struct Source {
    std::string instance;
    std::string domain;
    std::string kind;
    Probe fn;
    metrics::TimeSeries* series = nullptr;  ///< `<instance>.<kind>`
    std::size_t rollup = 0;                 ///< index into rollups_
  };
  /// `domain.<domain>.<kind>`: the tick's sum over that pair's sources.
  struct Rollup {
    metrics::TimeSeries* series = nullptr;
    double sum = 0.0;
  };
  /// One registry metric (exactly one pointer set) and its series: one for
  /// a counter or gauge, p50/p95/p99/p999 for a histogram.
  struct MetricHandle {
    const metrics::Counter* counter = nullptr;
    const metrics::Gauge* gauge = nullptr;
    const metrics::Histogram* histogram = nullptr;
    std::array<metrics::TimeSeries*, 4> series{};
  };
  /// Kernel and verify series, each resolved at its first append.
  struct BuiltinHandles {
    metrics::TimeSeries* events_per_us = nullptr;
    metrics::TimeSeries* queue_depth = nullptr;
    metrics::TimeSeries* pool_high_water = nullptr;
    metrics::TimeSeries* violations = nullptr;
    metrics::TimeSeries* violation_rate = nullptr;
  };

  void take_sample(Time t);
  void probe_fired();
  void resolve_sources();
  void bind_registry();
  metrics::TimeSeries& builtin(metrics::TimeSeries*& handle,
                               const char* name);
  /// Forgets every resolved series pointer; the next tick re-resolves.
  void drop_handles() noexcept {
    sources_resolved_ = false;
    metrics_bound_ = false;
    builtins_ = BuiltinHandles{};
  }

  TelemetryConfig cfg_;
  std::vector<Source> sources_;
  std::vector<Rollup> rollups_;
  bool sources_resolved_ = false;
  std::vector<MetricHandle> metrics_;
  bool metrics_bound_ = false;
  std::uint64_t metrics_generation_ = 0;  ///< registry generation bound
  BuiltinHandles builtins_;
  std::vector<double> window_scratch_;  ///< reused percentile buffer
  metrics::TimeSeriesStore store_;
  const metrics::Registry* registry_ = nullptr;
  TraceSession* trace_ = nullptr;  ///< attach_trace() target
  Simulation* sim_ = nullptr;
  bool active_ = false;
  std::uint64_t samples_ = 0;
  Time last_t_ = 0;                    ///< previous sample time (rates)
  std::uint64_t last_events_ = 0;      ///< kernel events at previous sample
  std::uint64_t last_violations_ = 0;  ///< hub total at previous sample
};

}  // namespace mts::sim
