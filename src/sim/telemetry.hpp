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
// Disarmed cost: components probe `observability()->telemetry` once at
// construction; with no Telemetry armed they register no sources and keep
// no extra state -- the seed hot path is unchanged (pinned by the
// golden-VCD FNV tests and the <=5% gate in scripts/check_kernel_perf.py).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/timeseries.hpp"
#include "sim/time.hpp"

namespace mts::metrics {
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
  }
  std::size_t source_count() const noexcept { return sources_.size(); }

  /// Registry snapshotted each tick: counters, gauges and histogram window
  /// percentiles (Observability::arm wires the bundle's registry
  /// automatically).
  void set_registry(const metrics::Registry* r) noexcept { registry_ = r; }

  /// Merges this store's counter tracks into `t`'s to_json() output (one
  /// Perfetto counter track per series, under a dedicated "telemetry"
  /// process). Pass nullptr to detach. The Telemetry must outlive the
  /// trace session's export or be detached first.
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

  metrics::TimeSeriesStore& store() noexcept { return store_; }
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
  };

  void take_sample(Time t);
  void probe_fired();

  TelemetryConfig cfg_;
  std::vector<Source> sources_;
  metrics::TimeSeriesStore store_;
  const metrics::Registry* registry_ = nullptr;
  Simulation* sim_ = nullptr;
  bool active_ = false;
  std::uint64_t samples_ = 0;
  Time last_t_ = 0;                    ///< previous sample time (rates)
  std::uint64_t last_events_ = 0;      ///< kernel events at previous sample
  std::uint64_t last_violations_ = 0;  ///< hub total at previous sample
};

}  // namespace mts::sim
