// Parallel campaign engine: fans a declarative run matrix (config grid x
// replica range) across a worker thread pool, each worker owning one fully
// isolated simulation shard.
//
// The mixed-timing workloads that dominate this repo -- fuzz campaigns,
// accelerated MTBF soaks, the Table 1 / sync-depth / matrix sweeps -- are
// embarrassingly parallel: N independent Simulations with disjoint
// schedulers, pools and RNG streams. A Campaign exploits exactly that and
// nothing more:
//
//   * Sharding. Each worker thread owns a Simulation for its whole
//     lifetime. Nothing inside a run body is shared across threads; the
//     only cross-thread state is the atomic next-run cursor and the
//     RunBook (each run fills its own slot; failure counts are atomics).
//
//   * Arena reuse. Between runs a worker calls Simulation::reset(seed),
//     which empties the scheduler's wheel and overflow heap WITHOUT
//     releasing their grown storage -- so after the first run on each
//     worker, runs schedule into warm arenas and the steady state stays
//     allocation-free, as it is within one run.
//
//   * Determinism. Run `i`'s seed is campaign_run_seed(campaign seed, i) --
//     a pure function of the campaign seed and the run index, never of the
//     worker that happens to execute it. An N-worker campaign therefore
//     produces bit-identical per-run results to the 1-worker (sequential)
//     campaign; only completion order differs. Bodies that need
//     fault-injection randomness construct a FaultPlan(ctx.spec().seed)
//     inside the body: plan RNG is then per-run, not per-worker.
//
//   * One run book. Every run leaves one RunRecord (result, report
//     snapshot, the registry and coverage its body wrote, sampled
//     timeline) in its RunBook slot; RunBook::fold merges them in
//     run-index order, so the merged JSON is independent of worker count.
//     The campaignd transports (run_local, the process fleet) run the same
//     book.
//
// The body runs on pool threads: it must only touch the CampaignContext,
// its per-run locals, and read-only captures (per-worker slots indexed by
// ctx.worker() are fine). gtest assertions belong on the caller's thread,
// after run() returns -- record findings in RunResult scalars instead.
//
// Run supervision (CampaignOptions knobs, all off by default):
//
//   * Failure capture. A thrown body exception records the demangled
//     exception TYPE alongside what(), the config/rep coordinates and the
//     seed -- enough to re-run that cell in isolation.
//   * Self-healing retries. With max_attempts > 1 a failed run is re-run
//     with the SAME seed (the simulation is deterministic, so a real bug
//     reproduces). All attempts failing identically classifies the run
//     "deterministic"; an eventual pass or differing errors classify it
//     "flaky" (host-dependent: thread timing in the body, wall-clock
//     deadlines).
//   * Quarantine. With quarantine_after > 0, once a config accumulates
//     that many finally-failed runs its remaining cells are skipped
//     ("quarantined") instead of executed, so one broken config cannot eat
//     the campaign's wall-clock budget. Which cells get skipped depends on
//     execution order, so quarantine is inherently placement-dependent:
//     leave it off in determinism-sensitive sweeps.
//   * Repro bundles. With repro_dir set, each finally-failed run writes
//     <repro_dir>/run-<index>.json: coordinates, seeds, error, scalars and
//     the run's recorded protocol violations -- a self-contained repro
//     recipe (see docs/ARCHITECTURE.md section 9).
//   * Deadlines. run_deadline_sec arms a per-attempt sim::Watchdog so a
//     hung run dies with DeadlineError instead of hanging the pool.
//   * Violation collection. collect_violations arms a per-worker
//     verify::Hub (record-and-continue) around every run, so components
//     constructed by the body carry protocol monitors and their findings
//     land in the run's report and repro bundle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics/coverage.hpp"
#include "metrics/registry.hpp"  // header-only by design; no link edge
#include "metrics/timeseries.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"

namespace mts::verify {
class Hub;
}  // namespace mts::verify

namespace mts::sim {

class Telemetry;

/// A windowed-percentile service-level objective evaluated by the engine
/// after every run, against that run's ISOLATED registry (enabling
/// telemetry or an SLO switches the engine to a fresh per-run registry --
/// cumulative worker state would make the verdicts depend on run
/// placement; the isolated registry stays out of the campaign reduction,
/// whose artifact keeps only body-written ctx.metrics()). Every histogram
/// named `metric`, in any instance, is checked: its sliding-window
/// percentile (cumulative-bucket percentile when no window is armed) must
/// not exceed `budget`. Breaches are recorded per run (RunResult), folded
/// into the merged Report in run-index order, and -- with fail_run -- fail
/// the run like a thrown body exception.
struct SloGate {
  std::string metric = "latency_ps";  ///< histogram name to gate
  double percentile = 0.99;           ///< in (0, 1]
  double budget = 0.0;                ///< max allowed value; <= 0 disables
  bool fail_run = false;              ///< breach fails the run (vs flag)
};

/// Deterministic per-run seed: a splitmix64-style mix of the campaign seed
/// and the run index. Depends on nothing else (not the worker count, not
/// the schedule), which is what makes N-worker campaigns bit-identical to
/// sequential ones. Never returns 0.
std::uint64_t campaign_run_seed(std::uint64_t campaign_seed,
                                std::uint64_t run_index) noexcept;

struct CampaignOptions {
  /// Worker threads; 0 means one per hardware thread. Clamped to the run
  /// count (a 3-run campaign never spawns a 4th idle thread).
  unsigned workers = 0;
  /// Campaign seed: every run's seed derives from (seed, run index).
  std::uint64_t seed = 1;
  /// Store each run's Report as JSON in its RunResult (report_json). The
  /// kernel pool high-water is zeroed in these captures: it reflects the
  /// executing worker's warm arenas (a host detail that varies with run
  /// placement), not the run's behaviour, and per-run captures must be
  /// placement-independent.
  bool capture_run_reports = false;
  /// Total body executions per run (1 = no retries). A failed run re-runs
  /// with the same seed up to this many attempts and is classified
  /// "deterministic" (every attempt failed identically) or "flaky"
  /// (eventual pass, or differing failures).
  unsigned max_attempts = 1;
  /// After this many finally-failed runs of one config, skip its remaining
  /// cells (classification "quarantined"). 0 disables quarantine.
  unsigned quarantine_after = 0;
  /// When non-empty, each finally-failed run writes a self-contained repro
  /// bundle to <repro_dir>/run-<index>.json (directory is created).
  std::string repro_dir;
  /// Per-ATTEMPT wall-clock budget; a run exceeding it fails with
  /// sim::DeadlineError. 0 disables the per-run watchdog.
  double run_deadline_sec = 0.0;
  /// Arm a per-worker verify::Hub (policy kRecord) around every run:
  /// components the body constructs attach protocol monitors, and the
  /// run's violations land in its report, RunResult and repro bundle.
  bool collect_violations = false;

  // -- streaming run telemetry (sim/telemetry.hpp) ------------------------

  /// Sim-time sampling interval for an engine-armed per-run Telemetry.
  /// 0 disables the sampler. When set, the engine arms an Observability
  /// bundle (per-run registry + sampler) on the worker simulation before
  /// every attempt, so components the body constructs pick both up without
  /// body changes; bodies that arm their own bundle simply override it.
  Time telemetry_interval = 0;
  /// Per-series point cap of the per-run sampler (decimation beyond it).
  std::size_t telemetry_max_points = 2048;
  /// Histogram sliding-window capacity while the sampler is armed.
  std::size_t telemetry_window = 512;

  /// Windowed-percentile SLO gate evaluated after every run (see SloGate).
  SloGate slo;
};

/// One cell of the run matrix, in row-major order over (config, rep).
struct RunSpec {
  std::size_t index = 0;   ///< global run index: config * reps + rep
  std::size_t config = 0;  ///< config-grid cell
  std::size_t rep = 0;     ///< replica within the cell (the "seed range")
  std::uint64_t seed = 0;  ///< campaign_run_seed(campaign seed, index)
};

/// What one run left behind. `scalars` is the body's own extract (escape
/// counts, scoreboard errors, throughput...); `artifact` is an optional
/// body-provided JSON fragment embedded verbatim in the campaign JSON.
struct RunResult {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;                      ///< exception text when !ok
  std::map<std::string, double> scalars;  ///< body-recorded per-run numbers
  std::string report_json;                ///< capture_run_reports only
  std::string artifact;                   ///< optional user JSON fragment

  // -- supervision fields (see CampaignOptions) ---------------------------
  std::string error_type;      ///< demangled exception type when !ok
  unsigned attempts = 1;       ///< body executions (0: quarantine-skipped)
  /// "", "deterministic", "flaky" or "quarantined".
  std::string classification;
  std::string repro_path;      ///< repro bundle file when one was written
  std::uint64_t violations = 0;  ///< hub total (collect_violations only)
  std::string violations_json;   ///< hub JSON when violations > 0

  // -- telemetry / SLO fields (engine telemetry or SLO armed only) --------
  std::uint64_t telemetry_samples = 0;  ///< sampler ticks this run
  double slo_worst = 0.0;      ///< worst observed slo.metric percentile
  std::string slo_worst_instance;  ///< instance holding slo_worst
  std::uint64_t slo_breaches = 0;  ///< instances over budget this run
};

/// Everything one run leaves for the campaign fold, filled in place in its
/// RunBook slot by every transport (the campaignd coordinator decodes the
/// snapshot records its worker processes ship).
struct RunRecord {
  RunResult result;
  /// The run's Report with the kernel pool high-water zeroed: arena
  /// capacity belongs to the worker, not to the run (see
  /// CampaignOptions::capture_run_reports).
  Report report;
  /// What the body wrote through ctx.metrics() and ctx.coverage().
  metrics::Registry metrics;
  metrics::Coverage coverage;
  /// The run's sampled series (engine telemetry only; empty when the
  /// sampler never ticked).
  metrics::TimeSeriesStore timeline;
};

/// The body's window onto its shard: the worker's (reset, reseeded)
/// Simulation, its spec, and this run's record to fill.
class CampaignContext {
 public:
  CampaignContext(Simulation& sim, RunRecord& record, const RunSpec& spec,
                  unsigned worker, unsigned attempt = 1,
                  verify::Hub* monitors = nullptr,
                  Telemetry* telemetry = nullptr)
      : sim_(sim),
        record_(record),
        spec_(spec),
        worker_(worker),
        attempt_(attempt),
        monitors_(monitors),
        telemetry_(telemetry) {}

  CampaignContext(const CampaignContext&) = delete;
  CampaignContext& operator=(const CampaignContext&) = delete;

  /// This run's Simulation: already reset to time 0 and seeded with
  /// spec().seed, arenas warm from the worker's previous runs. Bodies that
  /// key their stimulus on a table of their own seeds may reset it again
  /// (ctx.sim().reset(my_seed)) -- arena reuse is unaffected.
  Simulation& sim() noexcept { return sim_; }

  /// This run's registry (RunRecord::metrics): starts empty, is shared by
  /// the run's attempts, and folds into Campaign::merged_metrics() in
  /// run-index order -- counters and histogram buckets add, gauges take
  /// the max over runs, whatever the worker count or transport.
  metrics::Registry& metrics() noexcept { return record_.metrics; }

  /// This run's coverage bins (RunRecord::coverage) for the attachers in
  /// metrics/cover.hpp: like metrics(), empty at the start of the run,
  /// shared by its attempts, and folded into Campaign::merged_coverage()
  /// on every transport.
  metrics::Coverage& coverage() noexcept { return record_.coverage; }

  const RunSpec& spec() const noexcept { return spec_; }

  /// Stable worker index in [0, workers()), for per-worker state a body
  /// keeps itself (scratch buffers, timing probes).
  unsigned worker() const noexcept { return worker_; }

  RunResult& result() noexcept { return record_.result; }

  /// Shorthand: result().scalars[name] = v.
  void set(const std::string& name, double v) {
    record_.result.scalars[name] = v;
  }

  /// 1-based attempt number for this execution (retries re-run the same
  /// seed with increasing attempt numbers; see CampaignOptions).
  unsigned attempt() const noexcept { return attempt_; }

  /// The engine-armed violation hub (CampaignOptions::collect_violations),
  /// already armed on sim() and cleared for this attempt; nullptr when
  /// collection is off. Bodies may tighten policies on it per run.
  verify::Hub* monitors() const noexcept { return monitors_; }

  /// The engine-armed per-run telemetry sampler (telemetry_interval > 0),
  /// already started on sim() for this attempt; nullptr when engine
  /// telemetry is off. Bodies may add_source() their own probes.
  Telemetry* telemetry() const noexcept { return telemetry_; }

 private:
  Simulation& sim_;
  RunRecord& record_;
  const RunSpec& spec_;
  unsigned worker_;
  unsigned attempt_ = 1;
  verify::Hub* monitors_ = nullptr;
  Telemetry* telemetry_ = nullptr;
};

struct Observability;

/// Worker-lifetime shard state for the per-run step: the Simulation whose
/// arenas stay warm across every run this shard executes and the engine's
/// per-run instruments (collect_violations hub, telemetry sampler). One
/// shard is owned by one executor at a time -- a pool thread inside
/// Campaign::run, or a campaignd worker process (src/campaignd) for its
/// whole lifetime.
struct RunShard {
  /// `opt` sizes the optional engine-telemetry sampler (telemetry_interval
  /// > 0 allocates it with the campaign's TelemetryConfig).
  explicit RunShard(const CampaignOptions& opt);
  ~RunShard();
  RunShard(const RunShard&) = delete;
  RunShard& operator=(const RunShard&) = delete;

  Simulation sim;
  /// Engine telemetry / SLO isolated per-run registry: components the body
  /// builds resolve their metrics here -- cleared before every attempt --
  /// so per-run timelines and SLO verdicts never see another run's samples
  /// and stay independent of run placement.
  metrics::Registry run_registry;
  std::unique_ptr<verify::Hub> hub;  ///< collect_violations shard hub
  std::unique_ptr<Telemetry> tel;    ///< telemetry_interval > 0 only
  std::unique_ptr<Observability> obs;  ///< the engine-armed bundle
};

/// RunBook::fold's product, plus the host figures the artifacts render.
/// sim::Campaign keeps one; campaignd::Coordinator::Outcome extends it.
struct CampaignOutcome {
  std::size_t configs = 0;
  std::size_t reps = 0;
  std::uint64_t seed = 1;
  SloGate slo;  ///< health/slo sections (budget <= 0: omitted)

  std::vector<RunResult> results;  ///< fold order == run-index order
  /// Reports fold in run-index order, so entry order and the entry cap are
  /// worker-count independent. Kernel counters aggregate across runs
  /// (events add, peak depth maxes); the pool high-water reads 0.
  Report report;
  /// Counters and histogram buckets add, gauges take the max over runs.
  metrics::Registry metrics;
  /// Bin hits add; a bin any run defined appears.
  metrics::Coverage coverage;
  /// Run 0's points first, then run 1's, series by series. Per-run sim
  /// times overlap (every run starts at t=0); consumers group by run via
  /// the per-run artifacts when they need separation.
  metrics::TimeSeriesStore timeline;
  std::vector<std::size_t> quarantined_configs;  ///< ascending
  unsigned workers = 1;       ///< host section only
  double wall_seconds = 0.0;  ///< host section only

  /// The campaign-level JSON artifact: matrix shape + seed, per-run
  /// results in index order, and the merged report/metrics. With
  /// include_host_stats=false the volatile host section (worker count,
  /// wall time, runs/sec) is omitted and the document is byte-identical
  /// across worker counts, transports, crashes and resumes.
  std::string to_json(bool include_host_stats = true) const;

  /// Deterministic campaign-health document: run totals (ok / failed /
  /// quarantined), SLO breach totals, the worst observed slo.metric
  /// percentile and its run, and the quarantined-config list -- all
  /// derived from `results`, so it is byte-identical across worker counts.
  /// include_host_stats=true appends the volatile host section.
  std::string health_json(bool include_host_stats = false) const;
};

/// One campaign's run list and the policy every transport applies to it:
/// which runs execute, which ones config quarantine skips, which failures
/// count, and the run-index-order fold. A transport turns listed indices
/// into records, in any order, on any thread --
///   if (book.admit(i)) { run_step(..., book.slot(i)); book.file(i); }
/// -- and folds after the last file. admit, slot, skip and file may run
/// concurrently for different runs.
class RunBook {
 public:
  /// A `configs` x `reps` matrix under `opt`. An empty `filter` lists
  /// every run; otherwise it is sorted and deduplicated, and an index
  /// outside the matrix throws ConfigError.
  RunBook(std::size_t configs, std::size_t reps, const CampaignOptions& opt,
          std::vector<std::size_t> filter = {});
  RunBook(const RunBook&) = delete;
  RunBook& operator=(const RunBook&) = delete;

  std::size_t configs() const noexcept { return configs_; }
  std::size_t reps() const noexcept { return reps_; }
  /// The listed run indices, ascending.
  const std::vector<std::size_t>& runs() const noexcept { return runs_; }
  bool listed(std::size_t index) const noexcept;

  // Each member below throws ConfigError for an unlisted index.
  bool filed(std::size_t index) const;
  /// Run `index`'s record, filled in place by its executor.
  RunRecord& slot(std::size_t index);
  /// The config-quarantine gate. False once the run's config has burned
  /// its failure budget: the book has then filed the skip record itself.
  bool admit(std::size_t index);
  /// Writes the record of a run that will not execute into its slot --
  /// attempts == 0, classification "quarantined", `error` -- unfiled.
  RunResult& skip(std::size_t index, std::string error);
  /// Marks the slot complete (filing twice throws ConfigError). Only an
  /// executed failure (attempts > 0) counts against its config.
  void file(std::size_t index);

  /// Listed runs not yet filed.
  std::size_t remaining() const noexcept { return remaining_.load(); }
  /// The configs whose failure budget is burned, ascending.
  std::vector<std::size_t> quarantined_configs() const;

  /// Folds the filed slots into `out` in run-index order (results move;
  /// reports, registries, coverage, timelines merge), then appends the failure and
  /// SLO manifests (one report entry per failed / breaching run) and sets
  /// the quarantined configs, matrix shape, seed and SLO. Call once: it
  /// releases the slots.
  void fold(CampaignOutcome& out);

 private:
  std::size_t position(std::size_t index) const;
  bool burned(std::size_t config) const noexcept;

  std::size_t configs_;
  std::size_t reps_;
  CampaignOptions opt_;
  std::vector<std::size_t> runs_;
  std::vector<RunRecord> slots_;  ///< one per listed run, same order
  std::vector<std::atomic<bool>> filed_;
  std::vector<std::atomic<std::uint32_t>> failures_;  ///< per config
  std::atomic<std::size_t> remaining_;
};

class Campaign {
 public:
  /// The run body. Invoked once per matrix cell, on a pool thread; must be
  /// safe to call concurrently from `workers()` threads (touch only the
  /// context, per-run locals, read-only captures and ctx.worker()-indexed
  /// slots). A thrown exception fails that run (RunResult::ok == false,
  /// error == what()) without stopping the campaign.
  using Body = std::function<void(CampaignContext&)>;

  /// A `configs` x `reps` matrix: run index = config * reps + rep.
  Campaign(std::size_t configs, std::size_t reps, CampaignOptions opt = {});

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  std::size_t configs() const noexcept { return book_.configs(); }
  std::size_t reps() const noexcept { return book_.reps(); }
  std::size_t runs() const noexcept { return configs() * reps(); }
  unsigned workers() const noexcept { return out_.workers; }
  std::uint64_t seed() const noexcept { return opt_.seed; }

  /// Executes every cell of the matrix across the pool and folds the run
  /// records. Blocks until all runs finish. May be called once.
  void run(const Body& body);

  // -- results (valid after run(); see CampaignOutcome) -------------------

  /// Per-run results in run-index order, independent of worker count.
  const std::vector<RunResult>& results() const noexcept {
    return out_.results;
  }
  /// The fold of every run's ctx.metrics() registry.
  const metrics::Registry& merged_metrics() const noexcept {
    return out_.metrics;
  }
  /// The fold of every run's ctx.coverage() bins.
  const metrics::Coverage& merged_coverage() const noexcept {
    return out_.coverage;
  }
  /// The run-index-order fold of every run's Report, plus the manifests.
  const Report& merged_report() const noexcept { return out_.report; }
  /// The run-index-order fold of every sampled run's timeline (engine
  /// telemetry only).
  const metrics::TimeSeriesStore& merged_timeline() const noexcept {
    return out_.timeline;
  }

  /// Runs whose body threw (quarantine-skipped cells included).
  std::size_t failed() const noexcept;

  /// Config indices quarantined during the run (quarantine_after > 0);
  /// sorted ascending.
  const std::vector<std::size_t>& quarantined() const noexcept {
    return out_.quarantined_configs;
  }
  bool config_quarantined(std::size_t config) const noexcept {
    for (std::size_t q : out_.quarantined_configs) {
      if (q == config) return true;
    }
    return false;
  }

  std::string health_json(bool include_host_stats = false) const {
    return out_.health_json(include_host_stats);
  }

  /// Writes health_json() to `path`; returns false (no throw) on I/O
  /// failure.
  bool write_health_json(const std::string& path,
                         bool include_host_stats = false) const;

  double wall_seconds() const noexcept { return out_.wall_seconds; }
  double runs_per_sec() const noexcept {
    return out_.wall_seconds > 0.0
               ? static_cast<double>(runs()) / out_.wall_seconds
               : 0.0;
  }

  /// The campaign-level JSON artifact; the determinism suite diffs
  /// to_json(false) across worker counts.
  std::string to_json(bool include_host_stats = true) const {
    return out_.to_json(include_host_stats);
  }

 private:
  CampaignOptions opt_;
  bool ran_ = false;
  RunBook book_;
  CampaignOutcome out_;
};

// -- the per-run step (shared with src/campaignd) ---------------------------

/// Run `index` of a row-major matrix with `reps` replicas per config, under
/// campaign seed `campaign_seed`.
RunSpec campaign_run_spec(std::uint64_t campaign_seed, std::size_t reps,
                          std::size_t index) noexcept;

/// Executes run `index` of a `configs` x `reps` matrix into a fresh `rec`
/// on `shard`: every attempt -- same-seed retries with flaky/deterministic
/// classification, per-attempt watchdog deadline, violation hub, engine
/// telemetry and SLO verdicts -- then, for a finally-failed run, the repro
/// bundle (opt.repro_dir). Touches no state outside the shard, `rec` and
/// the repro directory, which is what lets a campaignd worker process
/// produce bit-identical runs to the in-process pool.
void run_step(RunShard& shard, const CampaignOptions& opt, std::size_t configs,
              std::size_t reps, std::size_t index, unsigned worker_index,
              const Campaign::Body& body, RunRecord& rec);

/// Writes <dir>/run-<index>.json -- the self-contained repro bundle
/// (coordinates incl. matrix shape, seeds, failure, scalars, violations)
/// for a finally-failed run -- and records its path in `result`. Returns
/// false on I/O failure without throwing: bundles are best-effort, the
/// in-memory RunResult is authoritative.
bool write_repro_bundle(const std::string& dir, std::uint64_t campaign_seed,
                        std::size_t configs, std::size_t reps,
                        const RunSpec& spec, RunResult& result);

}  // namespace mts::sim
