// Named workload registry for campaignd.
//
// A distributed campaign cannot ship a std::function across processes, so
// jobs name their run body: the coordinator sends `{"workload": "...",
// "params": {...}}` and each worker instantiates the same registered
// factory. A Workload owns the per-worker state a Campaign::Body would
// capture; what a run leaves behind goes through its CampaignContext
// (scalars, ctx.metrics(), ctx.coverage()) into the run's sim::RunRecord.
//
// Built-ins:
//   fifo_soak   the representative mixed-clock FIFO soak (the scaling
//               benches run it too, bench/campaign_workload.hpp): capacity
//               cycles {4,8,16} with the config index, traffic rates from
//               the per-run seed, scoreboard + monitors; "coverage"
//               attaches metrics::cover_fifo to ctx.coverage().
//               params: {"cycles": N (default 40), "coverage": bool}
//   chaos_soak  fifo_soak plus deterministic failure injection for the
//               robustness suites. params add: {"fail_indices": [i, ...]
//               runs whose index is listed throw SimulationError;
//               "flaky": true makes them fail on attempt 1 only}
//
// register_workload() lets tests and tools add their own without touching
// this file. Unknown names or malformed params throw json::ProtocolError.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "campaignd/json.hpp"
#include "sim/campaign.hpp"

namespace mts::campaignd {

/// One worker's instantiation of a named workload: the run body and the
/// read-only state it captures. Lives for the worker's lifetime.
class Workload {
 public:
  virtual ~Workload() = default;

  /// The run body. Same contract as sim::Campaign::Body.
  virtual void run(sim::CampaignContext& ctx) = 0;

  /// Adapts this workload to the engine's body type (captures `this`).
  sim::Campaign::Body body() {
    return [this](sim::CampaignContext& ctx) { run(ctx); };
  }
};

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(const json::Value& params)>;

/// Registers (or replaces) a named workload factory.
void register_workload(const std::string& name, WorkloadFactory factory);

/// Instantiates a registered workload; throws json::ProtocolError on an
/// unknown name (listing the known ones) or malformed params.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const json::Value& params);

}  // namespace mts::campaignd
