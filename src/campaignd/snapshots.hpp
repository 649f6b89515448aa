// Lossless JSON snapshots of the campaign fold inputs.
//
// A campaignd worker executes a run and ships its sim::RunRecord -- the
// RunResult, per-run Report, the body's registry and coverage and the
// sampled timeline -- to the coordinator, which decodes the record into
// its slot of the job's sim::RunBook, the type the in-process engine folds
// through. The checkpoint journal stores the identical records. Both
// therefore need EXACT round-trips: a restored snapshot must
// merge and re-render byte-identically to the original object, which is
// what makes a resumed or multi-process campaign byte-identical to the
// sequential in-process run.
//
// These snapshots are deliberately separate from the repo's human-facing
// to_json() emitters: those are summaries (sparse histogram buckets, no
// exact sum, default float precision) and are NOT invertible. Snapshot
// doubles travel as %.17g (exact for binary64); uint64 seeds travel as
// integral tokens (json.hpp keeps them out of double entirely).
//
// Every from_* throws json::ProtocolError on malformed input -- snapshot
// consumers (wire handler, checkpoint loader) reject rather than guess.
#pragma once

#include <string>
#include <vector>

#include "campaignd/json.hpp"
#include "metrics/coverage.hpp"
#include "metrics/registry.hpp"
#include "metrics/timeseries.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"

namespace mts::campaignd {

// -- sim::Report ------------------------------------------------------------

json::Value report_to_json(const sim::Report& r);
/// Replaces `out`'s recorded state (Report::restore); the entry cap and
/// metrics binding are untouched.
void report_from_json(const json::Value& v, sim::Report& out);

// -- metrics::Registry ------------------------------------------------------

json::Value registry_to_json(const metrics::Registry& r);
/// Restores into `out` (merge-or-create per metric): counters add their
/// snapshot value onto a fresh registry's zeros, gauges set, histograms are
/// created with the snapshot's exact bucket layout and restored. Call on a
/// fresh (or cleared) registry for an exact copy.
void registry_from_json(const json::Value& v, metrics::Registry& out);

// -- metrics::Coverage ------------------------------------------------------

json::Value coverage_to_json(const metrics::Coverage& c);
/// Defines and hits `out`'s bins to mirror the snapshot (zero-hit bins stay
/// declared-but-missed). Call on a fresh object for an exact copy.
void coverage_from_json(const json::Value& v, metrics::Coverage& out);

// -- metrics::TimeSeriesStore -----------------------------------------------

json::Value timeline_to_json(const metrics::TimeSeriesStore& ts);
void timeline_from_json(const json::Value& v, metrics::TimeSeriesStore& out);

// -- sim::RunResult ---------------------------------------------------------

json::Value run_result_to_json(const sim::RunResult& r);
sim::RunResult run_result_from_json(const json::Value& v);

// -- sim::CampaignOptions (job shipping; process-local knobs excluded) ------

/// Serializes the run-visible options: seeds, retry/deadline/violation
/// knobs, telemetry and SLO configuration, the repro directory. The worker
/// count does not transit -- each process owns its own.
json::Value options_to_json(const sim::CampaignOptions& opt);
sim::CampaignOptions options_from_json(const json::Value& v);

// -- run records (wire run_done payload == checkpoint entry) ----------------

/// Packs one run into the canonical record the worker ships and the
/// checkpoint journal stores: {"result", "report", "registry",
/// "coverage"?, "timeline"?}; coverage and timeline only when non-empty.
json::Value make_run_record(const sim::RunRecord& rec);

/// The inverse: restores a record into a fresh `out` (absent members stay
/// empty).
void run_record_from_json(const json::Value& v, sim::RunRecord& out);

/// FNV-1a/64 of a canonical dump, as 16 hex digits: the checkpoint header's
/// job-compatibility digest (resuming under a different matrix, seed,
/// option set or run list must be rejected, not silently folded). `runs`
/// is sim::RunBook::runs(); the whole matrix (or empty) adds nothing.
std::string job_digest(std::size_t configs, std::size_t reps,
                       const sim::CampaignOptions& opt,
                       const std::string& workload,
                       const std::string& params_json,
                       const std::vector<std::size_t>& runs = {});

}  // namespace mts::campaignd
