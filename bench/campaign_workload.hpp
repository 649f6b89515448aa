// Shared campaign workload for the scaling benches: campaignd's fifo_soak
// workload (a representative mixed-clock FIFO soak; "coverage" off, so no
// bins are attached to ctx.coverage()), sized so
// one run is a few milliseconds of host time -- long enough that per-run
// campaign overhead (reset, dispatch, fold) is a rounding error, short
// enough that a scaling sweep over {1,2,4,8} workers finishes in seconds.
// Both bench_kernel_perf's campaign section and bench_campaign_scaling fan
// this body, and the multi-process section runs the same workload by name,
// so their runs/sec numbers are directly comparable.
#pragma once

#include <cstdint>
#include <memory>

#include "campaignd/json.hpp"
#include "campaignd/workload.hpp"
#include "sim/campaign.hpp"

namespace mts::benchwork {

/// campaignd::make_workload("fifo_soak", {"cycles": cycles, "coverage":
/// false}): capacity cycles through {4, 8, 16} with the config index,
/// traffic rates derive from the campaign-assigned per-run seed. Keep the
/// workload alive while a Campaign runs its body().
inline std::unique_ptr<campaignd::Workload> fifo_soak(unsigned cycles) {
  campaignd::json::Value params = campaignd::json::Value::object();
  params.set("cycles", campaignd::json::Value::number_u64(cycles));
  params.set("coverage", campaignd::json::Value(false));
  return campaignd::make_workload("fifo_soak", params);
}

/// Runs a `configs` x `reps` campaign of the fifo_soak workload at the
/// given worker count and returns the measured runs/sec.
inline double measure_campaign_runs_per_sec(unsigned workers,
                                            std::size_t configs,
                                            std::size_t reps,
                                            unsigned cycles) {
  sim::CampaignOptions opt;
  opt.workers = workers;
  opt.seed = 99;
  sim::Campaign campaign(configs, reps, opt);
  const std::unique_ptr<campaignd::Workload> wl = fifo_soak(cycles);
  campaign.run(wl->body());
  return campaign.runs_per_sec();
}

}  // namespace mts::benchwork
