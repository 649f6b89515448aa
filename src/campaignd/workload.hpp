// Named workload registry for campaignd.
//
// A distributed campaign cannot ship a std::function across processes, so
// jobs name their run body: the coordinator sends `{"workload": "...",
// "params": {...}}` and each worker instantiates the same registered
// factory. A Workload owns the per-worker state a Campaign::Body would
// capture -- most importantly the coverage sink, which campaignd resets
// before every run so each run's coverage DELTA can travel to the
// coordinator and fold additively (per-run deltas sum to exactly the
// worker-lifetime accumulation the in-process engine merges).
//
// Built-ins:
//   fifo_soak   the representative mixed-clock FIFO soak (the scaling
//               benches run it too, bench/campaign_workload.hpp): capacity
//               cycles {4,8,16} with the config index, traffic rates from
//               the per-run seed, scoreboard + monitors, standard coverage
//               bins.
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
#include "metrics/coverage.hpp"
#include "sim/campaign.hpp"

namespace mts::campaignd {

/// One worker's instantiation of a named workload: the run body plus the
/// per-run sinks it populates. Lives for the worker's lifetime; begin_run()
/// re-creates the sinks so each run leaves an isolated delta.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Called before every run (and before the body constructs components):
  /// re-creates per-run sinks so coverage() reflects only the coming run.
  virtual void begin_run() {}

  /// The run body. Same contract as sim::Campaign::Body.
  virtual void run(sim::CampaignContext& ctx) = 0;

  /// The finished run's coverage delta; nullptr when the workload records
  /// no coverage.
  virtual const metrics::Coverage* coverage() const { return nullptr; }

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
