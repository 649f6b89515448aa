// Crash-consistent campaign checkpoints: an append-only journal.
//
// The coordinator journals every filed run's snapshot record (the same
// JSON document a worker sends over the wire: its sim::RunRecord).
// `--resume` files those records into the job's sim::RunBook, and the
// finalize step folds it in run-index order -- so a resumed campaign
// REPLAYS NOTHING and still renders byte-identical merged artifacts: the
// fold is a pure function of the per-run records, never of when or in
// which process they were produced. (Storing folded partial state instead
// would order the Report entry fold by checkpoint time, which is exactly
// the placement dependence the engine's run-index-order contract exists to
// kill.)
//
// Format: wire.hpp frames. A header {"magic", "version", "job": {configs,
// reps, digest}} -- a resume rejects another job's journal rather than
// fold apples into oranges -- then one frame per filed record in
// filing order, then {"complete": true} once the campaign finished. The
// first commit writes the header and its batch to `<path>.tmp`, fsyncs and
// renames it over `<path>`; later commits append and fsync.
//
// Truncation rule: a SIGKILL mid-append tears the tail. The loader stops
// at the first short or undecodable frame, and a resume truncates the file
// there before appending. Dropping a torn record is safe: its run was
// never filed, so the resumed campaign executes it again, and run_step is
// deterministic, so the new record equals the lost one.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>

#include "campaignd/json.hpp"
#include "campaignd/net.hpp"

namespace mts::campaignd {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& msg)
      : std::runtime_error("checkpoint: " + msg) {}
};

inline constexpr const char* kCheckpointMagic = "mts-campaignd-checkpoint";
inline constexpr int kCheckpointVersion = 2;

/// Extracts the record's run index (record.result.index); throws
/// CheckpointError on malformed records.
std::size_t record_run_index(const json::Value& record);

/// The checkpoint journal of one job: stages filed runs' records and
/// commits them in batches.
class CheckpointJournal {
 public:
  /// The journal at `path` of a `configs` x `reps` job whose job_digest()
  /// is `digest`. Touches no file.
  CheckpointJournal(std::string path, std::size_t configs, std::size_t reps,
                    std::string digest);

  /// Reads the journal at the path, passing its intact records to
  /// `on_record` in filing order, then truncates any torn tail and appends
  /// after the intact prefix. Returns whether the campaign had completed.
  /// A missing file, a foreign header (a version-1 whole-document
  /// checkpoint included), another job's digest or a record without a run
  /// index inside the matrix throws CheckpointError.
  bool resume(const std::function<void(json::Value&)>& on_record);

  /// Stages a filed run's record (a journal without a path stages none).
  void add(const json::Value& record);
  /// Records staged since the last commit.
  std::size_t staged() const noexcept { return staged_; }
  /// Makes the staged records durable, then the completion frame once when
  /// `complete`. Throws CheckpointError on I/O failure.
  void commit(bool complete);

 private:
  std::string path_;
  std::size_t configs_;
  std::size_t reps_;
  std::string digest_;
  Fd fd_;              ///< open once the file exists
  std::string batch_;  ///< staged frames
  std::size_t staged_ = 0;
  bool complete_ = false;
};

}  // namespace mts::campaignd
