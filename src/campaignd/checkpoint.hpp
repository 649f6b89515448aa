// Crash-consistent campaign checkpoints.
//
// The coordinator periodically persists every completed run's snapshot
// record (the same JSON document the worker sent over the wire: RunResult
// + per-run Report/Registry/Coverage/timeline deltas). `--resume` reloads
// the file, files those records into the job's sim::RunBook, and the
// finalize step folds it in run-index order -- so a resumed campaign
// REPLAYS NOTHING and still renders byte-identical merged artifacts: the
// fold is a pure function of the per-run records, never of when or in
// which process they were produced. (Storing folded partial state instead would order the
// Report entry fold by checkpoint time, which is exactly the placement
// dependence the engine's run-index-order contract exists to kill.)
//
// Write protocol: serialize to `<path>.tmp`, fsync, rename over `<path>`.
// A SIGKILL between any two steps leaves either the old complete file or
// the new complete file -- never a torn one. The header pins the matrix
// shape and a job digest (snapshots.hpp); load_checkpoint rejects a file
// from a different job with CheckpointError rather than folding apples
// into oranges.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaignd/json.hpp"

namespace mts::campaignd {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& msg)
      : std::runtime_error("checkpoint: " + msg) {}
};

inline constexpr const char* kCheckpointMagic = "mts-campaignd-checkpoint";
inline constexpr int kCheckpointVersion = 1;

struct Checkpoint {
  std::size_t configs = 0;
  std::size_t reps = 0;
  std::string digest;  ///< job_digest() of the owning job
  /// Whether the campaign had finished when this checkpoint was written
  /// (a final checkpoint of a complete campaign; resume just re-renders).
  bool complete = false;
  /// One record per completed run, in the order they completed (the fold
  /// re-sorts by run index). Each record is the worker's run_done payload:
  /// {"result": ..., "report": ..., "registry": ..., "coverage"?, ...}.
  std::vector<json::Value> runs;
};

/// Extracts the record's run index (record.result.index); throws
/// CheckpointError on malformed records.
std::size_t record_run_index(const json::Value& record);

/// Atomically writes `cp` to `path` (tmp + fsync + rename). Throws
/// CheckpointError on I/O failure.
void write_checkpoint(const std::string& path, const Checkpoint& cp);

/// Loads and validates a checkpoint. `expect_digest` non-empty enforces
/// job compatibility. Malformed JSON, wrong magic/version, digest mismatch
/// or out-of-range run indices throw CheckpointError.
Checkpoint load_checkpoint(const std::string& path,
                           const std::string& expect_digest = "");

}  // namespace mts::campaignd
