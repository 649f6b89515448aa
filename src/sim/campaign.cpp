#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <typeinfo>
#include <utility>

#include "sim/error.hpp"
#include "sim/observe.hpp"
#include "sim/telemetry.hpp"
#include "sim/watchdog.hpp"
#include "verify/hub.hpp"

#if defined(__GNUG__)
#include <cxxabi.h>

#include <cstdlib>
#endif

namespace mts::sim {

namespace {

/// Human-readable exception type for failure entries and repro bundles.
std::string demangled(const char* name) {
#if defined(__GNUG__)
  int status = 0;
  char* p = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (p != nullptr) {
    std::string s(p);
    std::free(p);
    return s;
  }
#endif
  return name;
}

/// `lead` + "scalars": {...} when the run recorded any.
void write_scalars(std::ostream& os, const char* lead, const RunResult& r) {
  if (r.scalars.empty()) return;
  os << lead << "\"scalars\": {";
  const char* sep = "";
  for (const auto& [name, v] : r.scalars) {
    os << sep << "\"" << json_escape(name) << "\": " << v;
    sep = ", ";
  }
  os << "}";
}

/// `lead` + "quarantined_configs": [...] when any config is quarantined.
void write_quarantined(std::ostream& os, const char* lead,
                       const std::vector<std::size_t>& configs) {
  if (configs.empty()) return;
  os << lead << "\"quarantined_configs\": [";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    os << (i == 0 ? "" : ", ") << configs[i];
  }
  os << "]";
}

}  // namespace

std::uint64_t campaign_run_seed(std::uint64_t campaign_seed,
                                std::uint64_t run_index) noexcept {
  // splitmix64 finalizer over the (seed, index) pair: one step of the
  // Weyl sequence keyed by the campaign seed, then the usual avalanche.
  std::uint64_t z = campaign_seed + 0x9e3779b97f4a7c15ULL * (run_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 0x9e3779b97f4a7c15ULL : z;
}

RunShard::RunShard(const CampaignOptions& opt)
    : hub(std::make_unique<verify::Hub>()),
      obs(std::make_unique<Observability>()) {
  if (opt.telemetry_interval > 0) {
    TelemetryConfig tc;
    tc.interval = opt.telemetry_interval;
    tc.max_points = opt.telemetry_max_points;
    tc.histogram_window = opt.telemetry_window;
    // pool_high_water reflects worker arena warmth -- a placement detail
    // -- so campaign timelines never include host series.
    tc.include_host_series = false;
    tel = std::make_unique<Telemetry>(tc);
  }
}

RunShard::~RunShard() = default;

namespace {

/// Every attempt of run `spec` on `shard` (see run_step), filling `rec`.
void execute_run(RunShard& shard, const CampaignOptions& opt,
                 const RunSpec& spec, unsigned worker_index,
                 const Campaign::Body& body, RunRecord& rec) {
  RunResult& r = rec.result;
  r.index = spec.index;
  r.seed = spec.seed;

  const unsigned max_attempts = opt.max_attempts == 0 ? 1 : opt.max_attempts;
  // Engine observability: telemetry or an SLO gate switches the run onto
  // the isolated per-run registry (see RunShard).
  const bool engine_obs = opt.telemetry_interval > 0 || opt.slo.budget > 0.0;
  bool ok = false;
  bool identical = true;  // every failure same type + message so far
  std::string first_error;
  std::string first_type;
  unsigned executed = 0;

  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    executed = attempt;
    // Retries re-run the SAME seed from scratch: clear what the previous
    // attempt's body recorded so the slot holds one attempt's output.
    r.scalars.clear();
    r.artifact.clear();
    r.error.clear();
    r.error_type.clear();

    shard.sim.reset(spec.seed);
    verify::Hub* hub = nullptr;
    if (opt.collect_violations) {
      shard.hub->clear();
      shard.hub->arm(shard.sim);
      hub = shard.hub.get();
    }
    Telemetry* tel = nullptr;
    if (engine_obs) {
      // Fresh per-run registry + (telemetry_interval > 0) a reset
      // sampler, armed as an Observability bundle BEFORE the body builds
      // components -- they probe it at construction and wire their
      // metrics and telemetry sources without body changes. reset()
      // also drops the previous run's source closures, so no stale
      // component pointer survives into this attempt.
      shard.run_registry.clear();
      *shard.obs = Observability{};
      shard.obs->metrics = &shard.run_registry;
      if (shard.tel != nullptr) {
        shard.tel->reset();
        shard.obs->telemetry = shard.tel.get();
        tel = shard.tel.get();
      }
      shard.obs->arm(shard.sim);
    }
    // Per-attempt deadline: a hung attempt dies with DeadlineError on a
    // scheduler tick instead of hanging its pool thread forever.
    Watchdog wd(WatchdogConfig{opt.run_deadline_sec, 0, 4096});
    if (opt.run_deadline_sec > 0.0) wd.arm(shard.sim);

    CampaignContext ctx(shard.sim, rec, spec, worker_index, attempt, hub,
                        tel);
    std::string err;
    std::string type;
    bool attempt_ok = false;
    try {
      body(ctx);
      attempt_ok = true;
    } catch (const std::exception& e) {
      err = e.what();
      type = demangled(typeid(e).name());
    } catch (...) {
      err = "unknown exception";
      type = "unknown";
    }
    // The local watchdog dies with this scope: never leave the scheduler
    // holding a pointer to it.
    if (opt.run_deadline_sec > 0.0) Watchdog::disarm(shard.sim);

    if (attempt_ok) {
      ok = true;
      break;
    }
    if (attempt == 1) {
      first_error = err;
      first_type = type;
    } else if (err != first_error || type != first_type) {
      identical = false;
    }
    r.error = err;  // last failure is the one reported
    r.error_type = type;
  }

  // Post-run telemetry / SLO handling, on the FINAL attempt's isolated
  // registry. Sampling stopped at queue drain, so no source closure runs
  // after the body's components were destroyed; only the sampled store
  // and the registry (both engine-owned) are read here.
  if (engine_obs && executed > 0) {
    const SloGate& slo = opt.slo;
    if (!slo.metric.empty()) {
      shard.run_registry.visit(
          [](const std::string&, const std::string&,
             const metrics::Counter&) {},
          [](const std::string&, const std::string&,
             const metrics::Gauge&) {},
          [&](const std::string& inst, const std::string& name,
              const metrics::Histogram& h) {
            if (name != slo.metric || h.count() == 0) return;
            const double v =
                h.window_capacity() > 0 && h.window_count() > 0
                    ? h.window_percentile(slo.percentile)
                    : h.percentile(slo.percentile);
            if (v > r.slo_worst) {
              r.slo_worst = v;
              r.slo_worst_instance = inst;
            }
            if (slo.budget > 0.0 && v > slo.budget) ++r.slo_breaches;
          });
      if (r.slo_breaches > 0 && slo.fail_run && ok) {
        ok = false;
        std::ostringstream msg;
        msg << "SLO breach: " << r.slo_worst_instance << "." << slo.metric
            << " p" << slo.percentile * 100.0 << " = " << r.slo_worst
            << " > budget " << slo.budget;
        r.error = msg.str();
        r.error_type = "SloBreach";
      }
    }
    // The isolated registry is deliberately NOT folded into the campaign:
    // runs of different configs legitimately create layout-divergent
    // histograms under the same instance name (e.g. capacity-sized
    // occupancy buckets), which Registry::merge rejects. Its per-run
    // artifacts are the timelines, SLO verdicts and RunResult fields; only
    // body-written metrics (ctx.metrics()) fold.
    if (shard.tel != nullptr) {
      r.telemetry_samples = shard.tel->samples();
      if (r.telemetry_samples > 0) rec.timeline = shard.tel->store();
    }
  }

  r.ok = ok;
  r.attempts = executed;
  if (ok) {
    if (executed > 1) r.classification = "flaky";  // self-healed
  } else if (max_attempts > 1) {
    r.classification = identical ? "deterministic" : "flaky";
  }

  if (opt.collect_violations) {
    r.violations = shard.hub->total();
    if (r.violations > 0) r.violations_json = shard.hub->to_json();
  }

  // Snapshot the run's report with the pool high-water zeroed: arena
  // capacity is a property of the worker (it grows monotonically over
  // the runs the worker happened to execute), so leaving it in would
  // make the per-run snapshots -- and everything reduced from them --
  // depend on run placement.
  KernelStats ks = shard.sim.sched().stats();
  ks.pool_high_water = 0;
  shard.sim.report().set_kernel(ks);
  if (opt.capture_run_reports) {
    r.report_json = shard.sim.report().to_json();
  }
  rec.report = shard.sim.report();
}

}  // namespace

void run_step(RunShard& shard, const CampaignOptions& opt, std::size_t configs,
              std::size_t reps, std::size_t index, unsigned worker_index,
              const Campaign::Body& body, RunRecord& rec) {
  const RunSpec spec = campaign_run_spec(opt.seed, reps, index);
  execute_run(shard, opt, spec, worker_index, body, rec);
  if (!rec.result.ok && !opt.repro_dir.empty()) {
    write_repro_bundle(opt.repro_dir, opt.seed, configs, reps, spec,
                       rec.result);
  }
}

Campaign::Campaign(std::size_t configs, std::size_t reps, CampaignOptions opt)
    : opt_(std::move(opt)), book_(configs, reps, opt_) {
  unsigned w = opt_.workers;
  if (w == 0) w = std::thread::hardware_concurrency();
  if (w == 0) w = 1;
  const std::size_t n = runs();
  if (n > 0 && n < static_cast<std::size_t>(w)) {
    w = static_cast<unsigned>(n);
  }
  out_.workers = w == 0 ? 1 : w;
}

RunSpec campaign_run_spec(std::uint64_t campaign_seed, std::size_t reps,
                          std::size_t index) noexcept {
  RunSpec spec;
  spec.index = index;
  spec.config = reps > 0 ? index / reps : 0;
  spec.rep = reps > 0 ? index % reps : 0;
  spec.seed = campaign_run_seed(campaign_seed, index);
  return spec;
}

bool write_repro_bundle(const std::string& dir, std::uint64_t campaign_seed,
                        std::size_t configs, std::size_t reps,
                        const RunSpec& spec, RunResult& r) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/run-" + std::to_string(spec.index) + ".json";
  std::ofstream out(path);
  if (!out) return false;  // unwritable repro_dir must not fail the campaign
  out << "{\n"
      << "  \"run\": {\"index\": " << spec.index
      << ", \"config\": " << spec.config << ", \"rep\": " << spec.rep
      << ", \"seed\": " << spec.seed
      << ", \"campaign_seed\": " << campaign_seed
      << ", \"configs\": " << configs << ", \"reps\": " << reps << "},\n"
      << "  \"failure\": {\"type\": \"" << json_escape(r.error_type)
      << "\", \"what\": \"" << json_escape(r.error)
      << "\", \"classification\": \"" << json_escape(r.classification)
      << "\", \"attempts\": " << r.attempts << "}";
  write_scalars(out, ",\n  ", r);
  if (!r.artifact.empty()) out << ",\n  \"artifact\": " << r.artifact;
  if (!r.violations_json.empty()) {
    out << ",\n  \"violations\": " << r.violations_json;
  }
  out << "\n}\n";
  if (!out) return false;
  r.repro_path = path;
  return true;
}

void Campaign::run(const Body& body) {
  if (ran_) throw ConfigError("Campaign::run may only be called once");
  ran_ = true;

  // Pool threads claim listed runs from this cursor and fill the book's
  // slots in place; the fold runs after the pool joins, in run-index
  // order, so nothing depends on which worker claimed which run.
  const std::vector<std::size_t>& list = book_.runs();
  std::atomic<std::size_t> next{0};
  auto drain = [&](RunShard& shard, unsigned worker_index) {
    for (;;) {
      const std::size_t at = next.fetch_add(1, std::memory_order_relaxed);
      if (at >= list.size()) return;
      const std::size_t i = list[at];
      if (!book_.admit(i)) continue;
      run_step(shard, opt_, configs(), reps(), i, worker_index, body,
               book_.slot(i));
      book_.file(i);
    }
  };

  // Workers live in a deque: Simulation is non-movable and each shard's
  // address must stay stable for the threads holding references into it.
  // At one worker the pool is the caller's thread.
  if (!list.empty()) {
    std::deque<RunShard> shards;
    for (unsigned wi = 0; wi < out_.workers; ++wi) shards.emplace_back(opt_);
    const auto t0 = std::chrono::steady_clock::now();
    if (out_.workers == 1) {
      drain(shards[0], 0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(out_.workers);
      for (unsigned wi = 0; wi < out_.workers; ++wi) {
        threads.emplace_back([&drain, &shards, wi] { drain(shards[wi], wi); });
      }
      for (std::thread& t : threads) t.join();
    }
    out_.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  }
  book_.fold(out_);
}

std::size_t Campaign::failed() const noexcept {
  std::size_t n = 0;
  for (const RunResult& r : out_.results) {
    if (!r.ok) ++n;
  }
  return n;
}

bool Campaign::write_health_json(const std::string& path,
                                 bool include_host_stats) const {
  std::ofstream out(path);
  if (!out) return false;
  out << health_json(include_host_stats);
  return static_cast<bool>(out);
}

// -- the run book ------------------------------------------------------------

RunBook::RunBook(std::size_t configs, std::size_t reps,
                 const CampaignOptions& opt, std::vector<std::size_t> filter)
    : configs_(configs),
      reps_(reps),
      opt_(opt),
      runs_(std::move(filter)),
      failures_(configs) {
  const std::size_t matrix = configs * reps;
  if (runs_.empty()) {
    runs_.resize(matrix);
    std::iota(runs_.begin(), runs_.end(), std::size_t{0});
  }
  std::sort(runs_.begin(), runs_.end());
  runs_.erase(std::unique(runs_.begin(), runs_.end()), runs_.end());
  if (!runs_.empty() && runs_.back() >= matrix) {
    throw ConfigError("run_filter index " + std::to_string(runs_.back()) +
                      " outside the " + std::to_string(matrix) +
                      "-run matrix");
  }
  slots_ = std::vector<RunRecord>(runs_.size());
  filed_ = std::vector<std::atomic<bool>>(runs_.size());
  remaining_ = runs_.size();
}

std::size_t RunBook::position(std::size_t index) const {
  const auto it = std::lower_bound(runs_.begin(), runs_.end(), index);
  if (it == runs_.end() || *it != index) {
    throw ConfigError("run " + std::to_string(index) + " is not listed");
  }
  return static_cast<std::size_t>(it - runs_.begin());
}

bool RunBook::listed(std::size_t index) const noexcept {
  return std::binary_search(runs_.begin(), runs_.end(), index);
}

bool RunBook::filed(std::size_t index) const {
  return filed_[position(index)].load(std::memory_order_relaxed);
}

RunRecord& RunBook::slot(std::size_t index) { return slots_[position(index)]; }

bool RunBook::burned(std::size_t config) const noexcept {
  return opt_.quarantine_after > 0 &&
         failures_[config].load(std::memory_order_relaxed) >=
             opt_.quarantine_after;
}

bool RunBook::admit(std::size_t index) {
  (void)position(index);  // ConfigError for an unlisted run
  const std::size_t config = index / reps_;
  if (!burned(config)) return true;
  skip(index, "config " + std::to_string(config) + " quarantined after " +
                  std::to_string(opt_.quarantine_after) + " failed runs");
  file(index);
  return false;
}

RunResult& RunBook::skip(std::size_t index, std::string error) {
  RunResult& r = slot(index).result;
  r.index = index;
  r.seed = campaign_run_seed(opt_.seed, index);
  r.ok = false;
  r.attempts = 0;
  r.classification = "quarantined";
  r.error = std::move(error);
  return r;
}

void RunBook::file(std::size_t index) {
  const std::size_t at = position(index);
  if (filed_[at].exchange(true, std::memory_order_relaxed)) {
    throw ConfigError("run " + std::to_string(index) + " filed twice");
  }
  if (!slots_[at].result.ok && slots_[at].result.attempts > 0) {
    failures_[index / reps_].fetch_add(1, std::memory_order_relaxed);
  }
  --remaining_;
}

std::vector<std::size_t> RunBook::quarantined_configs() const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < configs_; ++c) {
    if (burned(c)) out.push_back(c);
  }
  return out;
}

void RunBook::fold(CampaignOutcome& out) {
  const SloGate& slo = opt_.slo;
  out.configs = configs_;
  out.reps = reps_;
  out.seed = opt_.seed;
  out.slo = slo;
  out.results.reserve(runs_.size() - remaining());
  for (std::size_t at = 0; at < runs_.size(); ++at) {
    if (!filed_[at].load(std::memory_order_relaxed)) continue;
    RunRecord& rec = slots_[at];
    out.results.push_back(std::move(rec.result));
    out.report.merge(rec.report);
    out.metrics.merge(rec.metrics);
    out.coverage.merge(rec.coverage);
    out.timeline.merge(rec.timeline);
  }
  std::vector<RunRecord>().swap(slots_);  // folded: release the records
  out.quarantined_configs = quarantined_configs();

  // Failure manifest: one merged-report entry per failed run, folded in
  // run-index order so the merged artifact stays worker-count independent.
  for (const RunResult& r : out.results) {
    if (r.ok) continue;
    std::string msg = "run " + std::to_string(r.index) + " (config " +
                      std::to_string(r.index / reps_) + ", rep " +
                      std::to_string(r.index % reps_) + ", seed " +
                      std::to_string(r.seed) + ")";
    if (!r.classification.empty()) msg += " [" + r.classification + "]";
    if (!r.error_type.empty()) msg += " " + r.error_type;
    msg += ": " + r.error;
    out.report.add(0, Severity::kError, "campaign-failure", msg);
  }

  // SLO manifest: one merged-report entry per breaching run, folded in
  // run-index order (same worker-count-independence contract as above).
  if (slo.budget > 0.0) {
    for (const RunResult& r : out.results) {
      if (r.slo_breaches == 0) continue;
      std::ostringstream msg;
      msg << "run " << r.index << " (config " << r.index / reps_ << ", rep "
          << r.index % reps_ << "): " << r.slo_worst_instance << "."
          << slo.metric << " p" << slo.percentile * 100.0 << " = "
          << r.slo_worst << " > budget " << slo.budget << " ("
          << r.slo_breaches << " instance(s) over)";
      out.report.add(0, slo.fail_run ? Severity::kError : Severity::kWarning,
                     "campaign-slo", msg.str());
    }
  }
}

namespace {

/// The opening both campaign documents share: "{", the campaign line and,
/// with include_host_stats, the volatile host line.
void open_document(std::ostream& os, const CampaignOutcome& o,
                   bool include_host_stats) {
  const std::size_t total_runs = o.configs * o.reps;
  os << "{\n";
  os << "  \"campaign\": {\"configs\": " << o.configs
     << ", \"reps\": " << o.reps << ", \"runs\": " << total_runs
     << ", \"seed\": " << o.seed << "},\n";
  if (include_host_stats) {
    const double rps = o.wall_seconds > 0.0
                           ? static_cast<double>(total_runs) / o.wall_seconds
                           : 0.0;
    os << "  \"host\": {\"workers\": " << o.workers
       << ", \"wall_seconds\": " << o.wall_seconds
       << ", \"runs_per_sec\": " << rps << "},\n";
  }
}

}  // namespace

std::string CampaignOutcome::health_json(bool include_host_stats) const {
  std::size_t ok = 0, failed_runs = 0, quarantined_runs = 0;
  std::uint64_t breaches = 0, samples = 0;
  double worst = 0.0;
  std::size_t worst_run = 0;
  std::string worst_instance;
  for (const RunResult& r : results) {
    if (r.ok) {
      ++ok;
    } else {
      ++failed_runs;
      if (r.classification == "quarantined") ++quarantined_runs;
    }
    breaches += r.slo_breaches;
    samples += r.telemetry_samples;
    if (r.slo_worst > worst) {
      worst = r.slo_worst;
      worst_run = r.index;
      worst_instance = r.slo_worst_instance;
    }
  }

  std::ostringstream os;
  open_document(os, *this, include_host_stats);
  os << "  \"health\": {\"ok\": " << ok << ", \"failed\": " << failed_runs
     << ", \"quarantined_runs\": " << quarantined_runs
     << ", \"slo_breaches\": " << breaches
     << ", \"telemetry_samples\": " << samples;
  if (!worst_instance.empty()) {
    os << ", \"worst\": {\"run\": " << worst_run << ", \"instance\": \""
       << json_escape(worst_instance) << "\", \"metric\": \""
       << json_escape(slo.metric) << "\", \"percentile\": " << slo.percentile
       << ", \"value\": " << worst << "}";
  }
  os << "}";
  if (slo.budget > 0.0) {
    os << ",\n  \"slo\": {\"metric\": \"" << json_escape(slo.metric)
       << "\", \"percentile\": " << slo.percentile
       << ", \"budget\": " << slo.budget << ", \"fail_run\": "
       << (slo.fail_run ? "true" : "false") << "}";
  }
  write_quarantined(os, ",\n  ", quarantined_configs);
  os << "\n}\n";
  return os.str();
}

std::string CampaignOutcome::to_json(bool include_host_stats) const {
  std::ostringstream os;
  open_document(os, *this, include_host_stats);
  os << "  \"runs\": [";
  bool first = true;
  std::size_t failed_runs = 0;
  for (const RunResult& r : results) {
    if (!r.ok) ++failed_runs;
    if (!first) os << ",";
    first = false;
    os << "\n    {\"index\": " << r.index << ", \"config\": "
       << (reps == 0 ? 0 : r.index / reps) << ", \"rep\": "
       << (reps == 0 ? 0 : r.index % reps) << ", \"seed\": " << r.seed
       << ", \"ok\": " << (r.ok ? "true" : "false");
    if (!r.error.empty()) {
      os << ", \"error\": \"" << json_escape(r.error) << "\"";
    }
    if (!r.error_type.empty()) {
      os << ", \"error_type\": \"" << json_escape(r.error_type) << "\"";
    }
    if (r.attempts != 1) os << ", \"attempts\": " << r.attempts;
    if (!r.classification.empty()) {
      os << ", \"classification\": \"" << json_escape(r.classification)
         << "\"";
    }
    if (!r.repro_path.empty()) {
      os << ", \"repro\": \"" << json_escape(r.repro_path) << "\"";
    }
    if (r.violations > 0) os << ", \"violations\": " << r.violations;
    if (r.telemetry_samples > 0) {
      os << ", \"telemetry_samples\": " << r.telemetry_samples;
    }
    if (r.slo_worst > 0.0) {
      os << ", \"slo_worst\": " << r.slo_worst << ", \"slo_worst_instance\": \""
         << json_escape(r.slo_worst_instance) << "\"";
    }
    if (r.slo_breaches > 0) os << ", \"slo_breaches\": " << r.slo_breaches;
    write_scalars(os, ", ", r);
    if (!r.artifact.empty()) os << ", \"artifact\": " << r.artifact;
    if (!r.report_json.empty()) os << ", \"report\": " << r.report_json;
    os << "}";
  }
  os << (first ? "]" : "\n  ]") << ",\n";
  os << "  \"merged\": {\"failed_runs\": " << failed_runs;
  write_quarantined(os, ", ", quarantined_configs);
  os << ", \"report\": " << report.to_json()
     << ", \"metrics\": " << metrics.to_json() << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace mts::sim
