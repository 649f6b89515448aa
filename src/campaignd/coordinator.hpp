// The campaignd coordinator: fault-tolerant multi-process campaign
// execution with checkpoint/resume.
//
// The coordinator shards a campaign's run matrix into WORK UNITS (explicit
// run-index lists), spawns `workers` crash-isolated worker processes
// (fork/exec of this binary's `worker` subcommand, or any command with a
// {port} placeholder), and dispatches units over a length-prefixed
// TCP/JSON protocol on 127.0.0.1. The run list, the config-quarantine
// gate (applied to each unit at dispatch), failure counting and the fold
// are the job's sim::RunBook, as in sim::Campaign and run_local. Each
// completed run's snapshot record is decoded on arrival into its book
// slot, the one copy of the run; the campaign is done when no listed run
// remains, and finalize is the book's fold -- byte-identical to run_local
// (the chaos suite diffs the two, testing the snapshot codec end to end).
// What the fleet adds exists because processes die: unit retries,
// backoff, unit quarantine, heartbeats and checkpoints.
//
// Fault tolerance:
//   * Crash detection: worker EOF / nonzero exit / signal death, a lost
//     heartbeat (deadline without beats), or a frozen runs-done counter
//     while beats still flow (wedged run: progress deadline). Detected
//     workers are killed, reaped and respawned (up to respawn_limit per
//     slot; beyond it the slot retires and the campaign degrades to fewer
//     workers).
//   * Re-dispatch with backoff: a failed unit returns to the queue minus
//     the runs that already completed, with capped exponential backoff.
//     Each failure gets a signature ("signal:9@run3", "heartbeat-timeout
//     @run7", ...); a unit failing with the SAME signature twice -- the
//     deterministic-failure criterion PR 5 applies to runs -- or exceeding
//     its retry budget is QUARANTINED: its remaining runs are recorded as
//     failed ("quarantined") instead of being retried forever.
//   * Checkpoint/resume: checkpoint_path is an append-only journal of
//     wire frames (checkpoint.hpp): a job header, one frame per filed
//     record (executed, unit-quarantined or config-gated), a completion
//     frame. Every checkpoint_every filed runs and at every shutdown path
//     the staged batch is appended and fsynced; a run without `resume`
//     starts a new journal. `resume` truncates it at the first short or
//     undecodable frame (a record lost there was never filed, so its run
//     re-executes, deterministically), files the rest into the book and
//     dispatches only the remainder: byte-identical artifacts, REPLAYING
//     NOTHING. The job digest covers a run_filter's list.
//   * Graceful shutdown: SIGTERM/SIGINT (install_signal_handlers) or
//     request_shutdown() stops dispatching, writes a final checkpoint,
//     kills the fleet and returns with Outcome::interrupted set.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaignd/json.hpp"
#include "sim/campaign.hpp"

namespace mts::campaignd {

class CoordinatorError : public std::runtime_error {
 public:
  explicit CoordinatorError(const std::string& msg)
      : std::runtime_error("coordinator: " + msg) {}
};

/// What to run: a named workload over a configs x reps matrix.
struct JobSpec {
  std::string workload = "fifo_soak";
  json::Value params = json::Value::object();
  std::size_t configs = 1;
  std::size_t reps = 1;
  /// Engine options (the worker count is process-local and ignored here;
  /// the coordinator's own lives in CoordinatorOptions).
  sim::CampaignOptions opt;
  /// Non-empty: execute only these run indices (repro replay). Empty: the
  /// whole matrix.
  std::vector<std::size_t> run_filter;
};

/// A coordinator lifecycle event, for logging and the chaos suite.
struct Event {
  std::string kind;  ///< worker_spawned|worker_connected|worker_lost|
                     ///< unit_dispatched|unit_requeued|unit_quarantined|
                     ///< run_done|checkpoint_written|degraded|shutdown
  int worker = -1;          ///< slot index, when applicable
  long pid = -1;            ///< worker pid, when applicable
  std::int64_t unit = -1;   ///< unit id, when applicable
  std::string detail;       ///< human-readable specifics (signatures, paths)
};

struct CoordinatorOptions {
  unsigned workers = 2;
  /// Worker command line; "{port}" is replaced with the listener port.
  /// Empty: {"/proc/self/exe", "worker", "--port", "{port}"}.
  std::vector<std::string> worker_cmd;
  /// Runs per work unit; 0 picks ceil(runs / (4 * workers)), min 1.
  std::size_t unit_size = 0;
  int heartbeat_interval_ms = 100;
  /// No heartbeat for this long -> the worker is dead (kill + re-dispatch).
  int heartbeat_timeout_ms = 1000;
  /// Beats flow but the runs-done counter is frozen for this long -> the
  /// worker is wedged (kill + re-dispatch). Must comfortably exceed the
  /// longest single run.
  int progress_timeout_ms = 10000;
  /// Re-dispatches after a unit's first failure before quarantine.
  unsigned unit_retries = 3;
  int backoff_initial_ms = 100;  ///< doubles per failure, capped below
  int backoff_max_ms = 2000;
  /// Respawns per worker slot before it retires (graceful degradation).
  unsigned respawn_limit = 3;
  /// Non-empty: periodic + shutdown checkpoints land here.
  std::string checkpoint_path;
  /// Checkpoint cadence in filed runs (checkpoint_path set only).
  std::size_t checkpoint_every = 8;
  /// Load checkpoint_path first and execute only the remainder.
  bool resume = false;
  /// Chaos directives [{mode, at_run, marker}, ...] forwarded to workers
  /// with the unit containing at_run (tests only).
  json::Value chaos = json::Value::array();
  /// Lifecycle event sink (nullable). Called from the coordinator thread.
  std::function<void(const Event&)> on_event;
};

class Coordinator {
 public:
  /// The campaign fold (run-index order; `workers` is the fleet actually
  /// spawned) plus what only processes have. Non-copyable.
  struct Outcome : sim::CampaignOutcome {
    std::vector<std::int64_t> quarantined_units;  ///< campaignd semantics
    bool interrupted = false;  ///< graceful shutdown before completion
  };

  Coordinator(JobSpec job, CoordinatorOptions opt);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Executes the campaign. Throws CoordinatorError when every worker slot
  /// retired with work still outstanding (after writing a checkpoint, so
  /// nothing is lost). On graceful shutdown returns normally with
  /// out.interrupted == true.
  void run(Outcome& out);

  /// Asks a running campaign to stop at the next loop turn: final
  /// checkpoint, fleet teardown, Outcome::interrupted. Callable from any
  /// thread (and the only coordinator method that is).
  void request_shutdown() noexcept { shutdown_.store(true); }

  /// Installs SIGTERM/SIGINT handlers that flag EVERY coordinator in the
  /// process for graceful shutdown (sig_atomic_t flag; checked each loop
  /// turn). Idempotent.
  static void install_signal_handlers();

 private:
  struct Impl;
  JobSpec job_;
  CoordinatorOptions opt_;
  std::atomic<bool> shutdown_{false};
};

/// The sequential in-process oracle: executes the same job in this process
/// (one shard, run-index order) through the same RunBook and per-run step
/// as the distributed path, filling its book directly. The chaos suite
/// diffs every distributed outcome against this.
/// Validates run_filter exactly like Coordinator::run (CoordinatorError for
/// an index outside the matrix; duplicates execute once).
void run_local(const JobSpec& job, Coordinator::Outcome& out);

}  // namespace mts::campaignd
