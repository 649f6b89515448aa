#include "sim/telemetry.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "metrics/registry.hpp"
#include "sim/simulation.hpp"
#include "sim/trace_session.hpp"
#include "verify/hub.hpp"

namespace mts::sim {

void Telemetry::attach_trace(TraceSession* t) {
  if (trace_ != nullptr) trace_->set_extra_events_provider(nullptr);
  trace_ = t;
  if (t != nullptr) {
    t->set_extra_events_provider(
        [this] { return store_.perfetto_events(); });
  }
}

void Telemetry::start(Simulation& sim) {
  sim_ = &sim;
  active_ = true;
  last_t_ = sim.now();
  last_events_ = sim.sched().events_executed();
  last_violations_ =
      sim.monitors() == nullptr ? 0 : sim.monitors()->total();
  sim.sched().after(cfg_.interval, [this] { probe_fired(); });
}

void Telemetry::sample_now() {
  if (sim_ != nullptr) take_sample(sim_->now());
}

void Telemetry::probe_fired() {
  const Time t = sim_->now();
  take_sample(t);
  // Self-reschedule ONLY while other events are pending: the probe never
  // keeps an otherwise-finished simulation alive, so run() still drains and
  // watchdog drain detection still fires (at most one interval late).
  if (!sim_->sched().empty()) {
    sim_->sched().after(cfg_.interval, [this] { probe_fired(); });
  } else {
    active_ = false;
  }
}

void Telemetry::resolve_sources() {
  // Rollup slots are the sorted (domain, kind) pairs, so rollup series are
  // the same set whatever the source registration order.
  std::vector<std::pair<std::string, std::string>> keys;
  keys.reserve(sources_.size());
  for (const Source& s : sources_) keys.emplace_back(s.domain, s.kind);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  rollups_.assign(keys.size(), Rollup{});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    rollups_[i].series =
        &store_.series("domain." + keys[i].first + "." + keys[i].second);
  }
  for (Source& s : sources_) {
    s.series = &store_.series(s.instance + "." + s.kind);
    const auto key = std::make_pair(s.domain, s.kind);
    s.rollup = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  }
  sources_resolved_ = true;
}

void Telemetry::bind_registry() {
  // Registry visit order is (instance, metric) map order.
  metrics_.clear();
  registry_->visit(
      [&](const std::string& inst, const std::string& name,
          const metrics::Counter& c) {
        metrics_.push_back(MetricHandle{
            .counter = &c, .series = {&store_.series(inst + "." + name)}});
      },
      [&](const std::string& inst, const std::string& name,
          const metrics::Gauge& g) {
        metrics_.push_back(MetricHandle{
            .gauge = &g, .series = {&store_.series(inst + "." + name)}});
      },
      [&](const std::string& inst, const std::string& name,
          const metrics::Histogram& h) {
        const std::string base = inst + "." + name;
        metrics_.push_back(MetricHandle{
            .histogram = &h,
            .series = {&store_.series(base + ".p50"),
                       &store_.series(base + ".p95"),
                       &store_.series(base + ".p99"),
                       &store_.series(base + ".p999")}});
      });
  metrics_generation_ = registry_->generation();
  metrics_bound_ = true;
}

metrics::TimeSeries& Telemetry::builtin(metrics::TimeSeries*& handle,
                                        const char* name) {
  if (handle == nullptr) handle = &store_.series(name);
  return *handle;
}

void Telemetry::take_sample(Time t) {
  ++samples_;
  const Time dt = t > last_t_ ? t - last_t_ : 0;

  // Per-instance sources, then per-(domain, kind) rollups, each summed in
  // source registration order.
  if (!sources_resolved_) resolve_sources();
  for (Rollup& r : rollups_) r.sum = 0.0;
  for (Source& s : sources_) {
    const double v = s.fn();
    s.series->append(t, v);
    rollups_[s.rollup].sum += v;
  }
  for (const Rollup& r : rollups_) r.series->append(t, r.sum);

  // Kernel builtins. events_per_us is the interval-local event rate in
  // events per microsecond of SIM time -- a pure function of the event
  // sequence, not of host speed.
  const std::uint64_t events = sim_->sched().events_executed();
  if (dt > 0) {
    const double us = static_cast<double>(dt) / 1e6;
    builtin(builtins_.events_per_us, "kernel.events_per_us")
        .append(t, static_cast<double>(events - last_events_) / us);
  }
  builtin(builtins_.queue_depth, "kernel.queue_depth")
      .append(t, static_cast<double>(sim_->sched().pending()));
  if (cfg_.include_host_series) {
    builtin(builtins_.pool_high_water, "kernel.pool_high_water")
        .append(t,
                static_cast<double>(sim_->sched().stats().pool_high_water));
  }
  last_events_ = events;

  // Violation totals when a hub is armed: cumulative plus interval rate
  // (violations per microsecond of sim time).
  if (const verify::Hub* hub = sim_->monitors(); hub != nullptr) {
    const std::uint64_t total = hub->total();
    builtin(builtins_.violations, "verify.violations")
        .append(t, static_cast<double>(total));
    if (dt > 0) {
      const double us = static_cast<double>(dt) / 1e6;
      builtin(builtins_.violation_rate, "verify.violation_rate")
          .append(t, static_cast<double>(total - last_violations_) / us);
    }
    last_violations_ = total;
  }

  // Full registry snapshot: counters and gauges by value, histograms as
  // sliding-window percentiles (cumulative-bucket fallback when no window
  // is armed).
  if (registry_ != nullptr) {
    if (!metrics_bound_ || metrics_generation_ != registry_->generation()) {
      bind_registry();
    }
    static constexpr std::array<double, 4> kPercentiles = {0.50, 0.95, 0.99,
                                                           0.999};
    for (const MetricHandle& m : metrics_) {
      if (m.counter != nullptr) {
        m.series[0]->append(t, static_cast<double>(m.counter->value()));
      } else if (m.gauge != nullptr) {
        m.series[0]->append(t, m.gauge->value());
      } else {
        std::array<double, 4> v{};
        if (m.histogram->window_capacity() > 0) {
          m.histogram->window_percentiles(kPercentiles.data(), v.size(),
                                          v.data(), window_scratch_);
        } else {
          for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = m.histogram->percentile(kPercentiles[i]);
          }
        }
        for (std::size_t i = 0; i < v.size(); ++i) {
          m.series[i]->append(t, v[i]);
        }
      }
    }
  }

  last_t_ = t;
}

}  // namespace mts::sim
