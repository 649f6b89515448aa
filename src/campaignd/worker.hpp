// The campaignd worker process: one crash-isolated run executor.
//
// A worker is a child process (fork/exec of this binary's `worker`
// subcommand) that connects back to the coordinator, receives the job
// (workload name + params + matrix shape + options), then executes work
// units -- explicit run-index lists -- one run at a time through the SAME
// sim::run_step the in-process engine uses, on a worker-lifetime RunShard
// with warm arenas; the run list and quarantine gate stay with the
// coordinator's sim::RunBook. Each completed run ships its sim::RunRecord
// as a snapshot record (make_run_record) back over the wire; the
// coordinator files it into its book, which folds in run-index order, so
// run placement is not observable in the merged artifacts.
//
// Crash isolation is the point: a run that segfaults, aborts, wedges or
// loses its process takes down THIS worker only. The coordinator detects
// the death (EOF, waitpid, heartbeat/progress deadline), respawns and
// re-dispatches -- see coordinator.hpp.
//
// A heartbeat thread beats every heartbeat_interval_ms with a monotone
// runs-done counter. The counter is what distinguishes "alive but wedged"
// (beats flow, counter frozen -> progress timeout) from "dead" (no beats
// -> heartbeat timeout).
//
// Chaos directives (tests only) ride on work units and fire exactly once
// across re-dispatches, gated by O_CREAT|O_EXCL marker files: kill, abort,
// hang, mute_heartbeat, drop_connection. They let the chaos suite script
// every failure mode the coordinator must survive, deterministically.
#pragma once

#include <cstdint>

namespace mts::campaignd {

struct WorkerOptions {
  std::uint16_t port = 0;  ///< coordinator port on 127.0.0.1
};

/// Runs the worker loop until the coordinator says shutdown, the
/// connection drops, or a chaos directive terminates the process. Returns
/// a process exit code (0: clean shutdown or coordinator EOF; 2: protocol
/// or execution error, reported to the coordinator when possible).
int run_worker(const WorkerOptions& opt);

}  // namespace mts::campaignd
