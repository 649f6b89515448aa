// Metrics registry: counters, gauges and fixed-bucket histograms keyed by
// instance name, populated by the observability hooks in src/fifo, src/lip
// and src/sync (see sim/observability.hpp).
//
// Header-only by design: mts_metrics links against mts_fifo (for the
// coverage attachers), so the FIFO/LIP/sync libraries cannot link back to
// mts_metrics without a cycle. A header-only registry lets every layer --
// including mts_sim's observability shim -- use it with no link edge at all.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime (std::map nodes never move), so components resolve
// them once at construction and the per-event cost is an increment.
//
// Serialization: to_json() emits the whole registry as one JSON object
// (instance -> metric -> value/summary); bind(report) attaches that emitter
// to a sim::Report so Report::to_json() carries a "metrics" section.
// to_csv() flattens histograms to one row per instance/metric with
// p50/p95/p99/max columns -- the format the benches append to BENCH_*.json
// sidecar tables and scripts/reproduce.sh tabulates.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/error.hpp"
#include "sim/report.hpp"

namespace mts::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

  /// Campaign reduction: counts add.
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

  /// Campaign reduction: max wins. "Last value" is meaningless across
  /// shards that finish in nondeterministic order; max is the only
  /// commutative choice that keeps high-water-mark gauges (the dominant
  /// use) exact and the merged artifact independent of worker count.
  void merge(const Gauge& other) noexcept {
    value_ = std::max(value_, other.value_);
  }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Buckets are defined by their upper bounds (an
/// implicit +inf bucket catches the tail); percentile() interpolates inside
/// the selected bucket and clamps to the exact observed max, so p99 of a
/// distribution entirely inside one bucket is still <= max().
///
/// Percentile edge contract (cumulative AND windowed):
///   * empty (no samples / empty window)  -> 0.0, always
///   * a single sample                    -> that sample, for every p
///   * p <= 0 -> observed min, p >= 1 -> observed max
/// These are definitions, not interpolation accidents, and are pinned by
/// tests/metrics/test_registry.cpp.
///
/// Sliding window: set_window(n) additionally retains the last n raw
/// observations in a ring. window_percentile(p) is the *exact* nearest-rank
/// (ceil(p*n)) percentile of that window -- no bucket interpolation -- so
/// tail percentiles over recent traffic (windowed p99.9) are exact sample
/// values. With fewer than ceil(1/(1-p)) samples the nearest-rank tail is
/// the window max (e.g. p99.9 of a 100-sample window is its max); this is
/// the defined behavior, not an error. Window state is run-local recency:
/// merge() combines cumulative buckets only and never transfers or mixes
/// windows.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds)
      : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

  /// Exponential-ish bounds 1-2-5 per decade over [lo, hi]; the standard
  /// latency bucketing (picoseconds).
  static std::vector<double> exponential_bounds(double lo, double hi) {
    std::vector<double> b;
    for (double decade = 1.0; decade <= hi; decade *= 10.0) {
      for (double m : {1.0, 2.0, 5.0}) {
        const double bound = decade * m;
        if (bound >= lo && bound <= hi) b.push_back(bound);
      }
    }
    if (b.empty() || b.back() < hi) b.push_back(hi);
    return b;
  }

  /// One bucket per integer level in [0, capacity] (occupancy histograms).
  static std::vector<double> linear_bounds(unsigned capacity) {
    std::vector<double> b;
    b.reserve(capacity + 1);
    for (unsigned i = 0; i <= capacity; ++i) b.push_back(static_cast<double>(i));
    return b;
  }

  void observe(double x) noexcept {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    if (!window_.empty()) {
      window_[window_next_] = x;
      window_next_ = (window_next_ + 1) % window_.size();
      if (window_count_ < window_.size()) ++window_count_;
    }
  }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// p in [0, 1]; linear interpolation across the selected bucket, clamped
  /// to [observed min, observed max]. Edge contract (see class comment):
  /// 0 when empty, the sample itself when count()==1, min at p<=0 and max
  /// at p>=1.
  double percentile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    if (count_ == 1 || p >= 1.0) return max_;
    if (p <= 0.0) return min_;
    const double rank = p * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double lo_cum = static_cast<double>(cum);
      cum += counts_[i];
      if (static_cast<double>(cum) >= rank) {
        const double lo = i == 0 ? min_ : bounds_[i - 1];
        const double hi = i < bounds_.size() ? bounds_[i] : max_;
        const double frac =
            (rank - lo_cum) / static_cast<double>(counts_[i]);
        const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
        return std::clamp(v, min_, max_);
      }
    }
    return max_;
  }

  // -- sliding window (windowed tail percentiles; see class comment) -------

  /// Retains the last `n` raw observations (0 disables and frees the ring).
  /// Existing window contents are dropped on resize.
  void set_window(std::size_t n) {
    window_.assign(n, 0.0);
    if (n == 0) window_.shrink_to_fit();
    window_count_ = 0;
    window_next_ = 0;
  }
  std::size_t window_capacity() const noexcept { return window_.size(); }
  /// Observations currently in the window (<= capacity).
  std::size_t window_count() const noexcept { return window_count_; }
  /// Drops window contents, keeps the capacity (per-run reuse hook).
  void clear_window() noexcept {
    window_count_ = 0;
    window_next_ = 0;
  }

  /// Exact nearest-rank percentile of the sliding window: the
  /// ceil(p * window_count())-th smallest retained sample. Edge contract:
  /// empty window -> 0.0; single sample -> that sample for every p; p <= 0
  /// -> window min; p >= 1 -> window max. p99.9 with fewer than 1000
  /// samples is the window max by construction.
  double window_percentile(double p) const {
    double v = 0.0;
    std::vector<double> scratch;
    window_percentiles(&p, 1, &v, scratch);
    return v;
  }

  /// window_percentile() of each of ps[0..k) into out[0..k), exactly, in one
  /// pass: the window is copied once into `scratch` (caller-owned, reused
  /// across calls so a warm sampler allocates nothing) and each rank is one
  /// std::nth_element. For ascending ps each selection runs over the tail
  /// the previous one left unselected, so asking for more percentiles costs
  /// less than one window each; any order is still exact.
  void window_percentiles(const double* ps, std::size_t k, double* out,
                          std::vector<double>& scratch) const {
    const std::size_t n = window_count_;
    if (n == 0) {
      std::fill(out, out + k, 0.0);
      return;
    }
    scratch.assign(window_.begin(),
                   window_.begin() + static_cast<std::ptrdiff_t>(n));
    const auto at_index = [&scratch](std::size_t i) {
      return scratch.begin() + static_cast<std::ptrdiff_t>(i);
    };
    // Once a selection has run, position `done` holds its sorted value and
    // partitions the rest: scratch[0..done) <= scratch[done] <=
    // scratch(done..n). n means nothing is placed yet.
    std::size_t done = n;
    for (std::size_t i = 0; i < k; ++i) {
      const double p = ps[i];
      std::size_t rank = n;  // 1-based nearest rank; p >= 1 -> max
      if (p <= 0.0) {
        rank = 1;
      } else if (p < 1.0) {
        rank = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))),
            1, n);
      }
      const std::size_t at = rank - 1;
      if (at != done) {
        auto first = scratch.begin();
        auto last = scratch.end();
        if (done < n) {
          if (at > done) {
            first = at_index(done + 1);
          } else {
            last = at_index(done);
          }
        }
        std::nth_element(first, at_index(at), last);
        done = at;
      }
      out[i] = scratch[at];
    }
  }

  /// Campaign reduction: bucket-wise sum plus combined count/sum/min/max.
  /// Both histograms must share one bucket layout (campaign shards attach
  /// metrics through the same code, so layouts agree by construction);
  /// merging disagreeing layouts throws ConfigError. Percentiles of the
  /// merged histogram are exactly the percentiles of the pooled samples
  /// (to bucket resolution) -- merge then interpolate, never average
  /// per-shard percentiles.
  void merge(const Histogram& other) {
    if (other.bounds_ != bounds_) {
      throw ConfigError(
          "Histogram::merge: bucket layouts differ (" +
          std::to_string(bounds_.size()) + " vs " +
          std::to_string(other.bounds_.size()) + " bounds)");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }

  /// Checkpoint/wire seam (src/campaignd): replaces this histogram's
  /// cumulative state with an exact snapshot previously captured through
  /// bucket_counts()/count()/sum()/min()/max(), so a restored histogram
  /// merges byte-identically to the original. `counts` must match this
  /// histogram's bucket layout (bounds().size() + 1 entries). The sliding
  /// window is run-local recency and is not part of a snapshot.
  void restore(const std::vector<std::uint64_t>& counts, std::uint64_t count,
               double sum, double min, double max) {
    if (counts.size() != counts_.size()) {
      throw ConfigError("Histogram::restore: snapshot has " +
                        std::to_string(counts.size()) + " buckets, layout has " +
                        std::to_string(counts_.size()));
    }
    counts_ = counts;
    count_ = count;
    sum_ = sum;
    if (count == 0) {
      min_ = std::numeric_limits<double>::infinity();
      max_ = -std::numeric_limits<double>::infinity();
    } else {
      min_ = min;
      max_ = max;
    }
  }

 private:
  std::vector<double> bounds_;          ///< upper bounds, ascending
  std::vector<std::uint64_t> counts_;   ///< bounds_.size() + 1 (+inf tail)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> window_;          ///< ring of recent raw samples
  std::size_t window_next_ = 0;         ///< ring write cursor
  std::size_t window_count_ = 0;        ///< valid samples in the ring
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// All three resolve-or-create; returned references are stable for the
  /// registry's lifetime. histogram() ignores `upper_bounds` when the
  /// metric already exists.
  Counter& counter(const std::string& instance, const std::string& name) {
    return resolve(instances_[instance].counters, name);
  }
  Gauge& gauge(const std::string& instance, const std::string& name) {
    return resolve(instances_[instance].gauges, name);
  }
  Histogram& histogram(const std::string& instance, const std::string& name,
                       std::vector<double> upper_bounds) {
    auto& m = instances_[instance].histograms;
    auto it = m.find(name);
    if (it == m.end()) {
      it = m.emplace(name, Histogram(std::move(upper_bounds))).first;
      if (default_window_ != 0) it->second.set_window(default_window_);
      ++generation_;
    }
    return it->second;
  }

  /// Bumped whenever the metric set changes: a metric is created (by the
  /// accessors above or by merge()) or clear() drops them all. Metric
  /// pointers taken at one generation stay valid while it holds, which is
  /// what lets sim::Telemetry resolve its per-metric series once instead of
  /// per tick.
  std::uint64_t generation() const noexcept { return generation_; }

  /// Sliding-window capacity applied to histograms created *after* this
  /// call (sim::Telemetry arms it before components construct, so every
  /// component histogram gets a window without per-callsite changes).
  /// 0 (the default) creates histograms without a window.
  void set_default_window(std::size_t n) noexcept { default_window_ = n; }
  std::size_t default_window() const noexcept { return default_window_; }

  /// Campaign reduction: accumulates every instance/metric of `other` into
  /// this registry (creating absent ones). Counters and histogram buckets
  /// add, gauges take the max -- all commutative and associative, so
  /// merging per-worker registries yields the same artifact regardless of
  /// worker count or completion order. Histogram layout mismatches throw
  /// ConfigError (see Histogram::merge).
  void merge(const Registry& other) {
    for (const auto& [iname, oinst] : other.instances_) {
      Instance& inst = instances_[iname];
      for (const auto& [n, c] : oinst.counters) {
        resolve(inst.counters, n).merge(c);
      }
      for (const auto& [n, g] : oinst.gauges) {
        resolve(inst.gauges, n).merge(g);
      }
      for (const auto& [n, h] : oinst.histograms) {
        const auto it = inst.histograms.find(n);
        if (it == inst.histograms.end()) {
          inst.histograms.emplace(n, Histogram(h.bounds())).first->second.merge(
              h);
          ++generation_;
        } else {
          it->second.merge(h);
        }
      }
    }
  }

  /// Drops every instance and metric; keeps the default window. Handles
  /// returned earlier are invalidated -- only use between runs, before
  /// components re-resolve their metrics (the campaign engine's per-run
  /// isolation hook).
  void clear() {
    instances_.clear();
    ++generation_;
  }

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& instance,
                              const std::string& name) const {
    return find(instance, &Instance::counters, name);
  }
  const Gauge* find_gauge(const std::string& instance,
                          const std::string& name) const {
    return find(instance, &Instance::gauges, name);
  }
  const Histogram* find_histogram(const std::string& instance,
                                  const std::string& name) const {
    return find(instance, &Instance::histograms, name);
  }

  /// Deterministic per-tick snapshot walk (sim::Telemetry): every metric in
  /// (instance name, metric name) map order. CFn(instance, name, counter),
  /// GFn(instance, name, gauge), HFn(instance, name, histogram).
  template <typename CFn, typename GFn, typename HFn>
  void visit(CFn&& on_counter, GFn&& on_gauge, HFn&& on_histogram) const {
    for (const auto& [iname, inst] : instances_) {
      for (const auto& [n, c] : inst.counters) on_counter(iname, n, c);
      for (const auto& [n, g] : inst.gauges) on_gauge(iname, n, g);
      for (const auto& [n, h] : inst.histograms) on_histogram(iname, n, h);
    }
  }

  std::size_t instance_count() const noexcept { return instances_.size(); }
  std::vector<std::string> instance_names() const {
    std::vector<std::string> names;
    names.reserve(instances_.size());
    for (const auto& [k, v] : instances_) names.push_back(k);
    return names;
  }

  /// {"<instance>": {"counters": {...}, "gauges": {...},
  ///                 "histograms": {"<name>": {"count":..,"mean":..,
  ///                   "p50":..,"p95":..,"p99":..,"max":..,
  ///                   "buckets":[[bound,count],...]}}}}
  std::string to_json() const {
    std::ostringstream os;
    os << "{";
    bool first_inst = true;
    for (const auto& [iname, inst] : instances_) {
      if (!first_inst) os << ",";
      first_inst = false;
      os << "\n  \"" << sim::json_escape(iname) << "\": {";
      bool first_block = true;
      if (!inst.counters.empty()) {
        os << "\n    \"counters\": {";
        bool first = true;
        for (const auto& [n, c] : inst.counters) {
          if (!first) os << ", ";
          first = false;
          os << "\"" << sim::json_escape(n) << "\": " << c.value();
        }
        os << "}";
        first_block = false;
      }
      if (!inst.gauges.empty()) {
        if (!first_block) os << ",";
        os << "\n    \"gauges\": {";
        bool first = true;
        for (const auto& [n, g] : inst.gauges) {
          if (!first) os << ", ";
          first = false;
          os << "\"" << sim::json_escape(n) << "\": " << json_number(g.value());
        }
        os << "}";
        first_block = false;
      }
      if (!inst.histograms.empty()) {
        if (!first_block) os << ",";
        os << "\n    \"histograms\": {";
        bool first = true;
        for (const auto& [n, h] : inst.histograms) {
          if (!first) os << ",";
          first = false;
          os << "\n      \"" << sim::json_escape(n) << "\": {"
             << "\"count\": " << h.count() << ", \"mean\": "
             << json_number(h.mean()) << ", \"min\": " << json_number(h.min())
             << ", \"p50\": " << json_number(h.percentile(0.50))
             << ", \"p95\": " << json_number(h.percentile(0.95))
             << ", \"p99\": " << json_number(h.percentile(0.99))
             << ", \"max\": " << json_number(h.max()) << ", \"buckets\": [";
          const auto& bounds = h.bounds();
          const auto& counts = h.bucket_counts();
          bool first_b = true;
          for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0) continue;  // sparse: elide empty buckets
            if (!first_b) os << ", ";
            first_b = false;
            os << "["
               << (i < bounds.size() ? json_number(bounds[i])
                                     : std::string("\"+inf\""))
               << ", " << counts[i] << "]";
          }
          os << "]}";
        }
        os << "\n    }";
      }
      os << "\n  }";
    }
    os << "\n}";
    return os.str();
  }

  /// instance,metric,kind,count,mean,p50,p95,p99,max -- one row per metric.
  std::string to_csv() const {
    std::ostringstream os;
    os << "instance,metric,kind,count,mean,p50,p95,p99,max\n";
    for (const auto& [iname, inst] : instances_) {
      for (const auto& [n, c] : inst.counters) {
        os << iname << "," << n << ",counter," << c.value() << ",,,,,\n";
      }
      for (const auto& [n, g] : inst.gauges) {
        os << iname << "," << n << ",gauge,," << g.value() << ",,,,\n";
      }
      for (const auto& [n, h] : inst.histograms) {
        os << iname << "," << n << ",histogram," << h.count() << ","
           << h.mean() << "," << h.percentile(0.50) << ","
           << h.percentile(0.95) << "," << h.percentile(0.99) << ","
           << h.max() << "\n";
      }
    }
    return os.str();
  }

  /// Attaches this registry as `report`'s "metrics" JSON section (see
  /// Report::to_json). The registry must outlive the report binding.
  void bind(sim::Report& report) {
    report.set_metrics_json_provider([this] { return to_json(); });
  }

  /// One kInfo "metrics" report line per histogram (its percentile summary)
  /// at time `t` -- the Coverage::report_into idiom.
  void report_into(sim::Report& r, sim::Time t) const {
    for (const auto& [iname, inst] : instances_) {
      for (const auto& [n, h] : inst.histograms) {
        std::ostringstream line;
        line << iname << "." << n << ": count=" << h.count()
             << " p50=" << h.percentile(0.50) << " p95=" << h.percentile(0.95)
             << " p99=" << h.percentile(0.99) << " max=" << h.max();
        r.add(t, sim::Severity::kInfo, "metrics", line.str());
      }
    }
  }

 private:
  struct Instance {
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
  };

  /// Resolve-or-create of a default-constructed metric (counters, gauges).
  template <typename Map>
  typename Map::mapped_type& resolve(Map& m, const std::string& name) {
    const auto [it, created] = m.try_emplace(name);
    if (created) ++generation_;
    return it->second;
  }

  template <typename Map>
  const typename Map::mapped_type* find(const std::string& instance,
                                        Map Instance::*member,
                                        const std::string& name) const {
    const auto it = instances_.find(instance);
    if (it == instances_.end()) return nullptr;
    const Map& m = it->second.*member;
    const auto mit = m.find(name);
    return mit == m.end() ? nullptr : &mit->second;
  }

  /// JSON has no inf/nan; emit finite decimal (histograms clamp to observed
  /// extremes so this only defends gauges fed bad values).
  static std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    std::ostringstream os;
    os << v;
    return os.str();
  }

  std::map<std::string, Instance> instances_;
  std::size_t default_window_ = 0;  ///< window for histograms created later
  std::uint64_t generation_ = 0;    ///< see generation()
};

}  // namespace mts::metrics
