#include "sim/telemetry.hpp"

#include <map>
#include <utility>

#include "metrics/registry.hpp"
#include "sim/simulation.hpp"
#include "sim/trace_session.hpp"
#include "verify/hub.hpp"

namespace mts::sim {

void Telemetry::attach_trace(TraceSession* t) {
  if (t == nullptr) return;
  t->set_extra_events_provider([this] { return store_.perfetto_events(); });
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

void Telemetry::take_sample(Time t) {
  ++samples_;
  const Time dt = t > last_t_ ? t - last_t_ : 0;

  // Per-instance sources, then per-(domain, kind) rollups. std::map keys
  // the rollups so their series append in sorted order -- deterministic
  // regardless of source registration order.
  std::map<std::pair<std::string, std::string>, double> rollup;
  for (Source& s : sources_) {
    const double v = s.fn();
    store_.append(s.instance + "." + s.kind, t, v);
    rollup[{s.domain, s.kind}] += v;
  }
  for (const auto& [key, sum] : rollup) {
    store_.append("domain." + key.first + "." + key.second, t, sum);
  }

  // Kernel builtins. events_per_us is the interval-local event rate in
  // events per microsecond of SIM time -- a pure function of the event
  // sequence, not of host speed.
  const std::uint64_t events = sim_->sched().events_executed();
  if (dt > 0) {
    const double us = static_cast<double>(dt) / 1e6;
    store_.append("kernel.events_per_us", t,
                  static_cast<double>(events - last_events_) / us);
  }
  store_.append("kernel.queue_depth", t,
                static_cast<double>(sim_->sched().pending()));
  if (cfg_.include_host_series) {
    store_.append("kernel.pool_high_water", t,
                  static_cast<double>(sim_->sched().stats().pool_high_water));
  }
  last_events_ = events;

  // Violation totals when a hub is armed: cumulative plus interval rate
  // (violations per microsecond of sim time).
  if (const verify::Hub* hub = sim_->monitors(); hub != nullptr) {
    const std::uint64_t total = hub->total();
    store_.append("verify.violations", t, static_cast<double>(total));
    if (dt > 0) {
      const double us = static_cast<double>(dt) / 1e6;
      store_.append("verify.violation_rate", t,
                    static_cast<double>(total - last_violations_) / us);
    }
    last_violations_ = total;
  }

  // Full registry snapshot: counters and gauges by value, histograms as
  // sliding-window percentiles (cumulative-bucket fallback when no window
  // is armed). Registry visit order is (instance, metric) map order.
  if (registry_ != nullptr) {
    registry_->visit(
        [&](const std::string& inst, const std::string& name,
            const metrics::Counter& c) {
          store_.append(inst + "." + name, t, static_cast<double>(c.value()));
        },
        [&](const std::string& inst, const std::string& name,
            const metrics::Gauge& g) {
          store_.append(inst + "." + name, t, g.value());
        },
        [&](const std::string& inst, const std::string& name,
            const metrics::Histogram& h) {
          const bool windowed = h.window_capacity() > 0;
          const auto pct = [&](double p) {
            return windowed ? h.window_percentile(p) : h.percentile(p);
          };
          const std::string base = inst + "." + name;
          store_.append(base + ".p50", t, pct(0.50));
          store_.append(base + ".p95", t, pct(0.95));
          store_.append(base + ".p99", t, pct(0.99));
          store_.append(base + ".p999", t, pct(0.999));
        });
  }

  last_t_ = t;
}

}  // namespace mts::sim
