// Kernel health counters, cheap enough to maintain unconditionally.
//
// Scheduler::stats() returns a snapshot; Simulation refreshes the copy held
// by sim::Report after every run()/run_until() so harnesses and reports can
// surface kernel behaviour without external profilers.
//
// When a KernelProfiler is armed (see sim/profiler.hpp) the snapshot also
// carries `hot_sites`: per-listener-site wall-time and event-count
// attribution, sorted hottest first -- the "where does simulation time go"
// table every perf PR cites. With no profiler armed the vector is empty and
// the kernel pays a single branch per event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mts::sim {

/// One row of the profiler's hottest-callbacks table.
struct KernelSiteStat {
  std::string label;            ///< registration label or file:line
  std::uint64_t events = 0;     ///< events attributed to this site
  std::uint64_t wall_ns = 0;    ///< host wall time spent in those events
};

struct KernelStats {
  /// Total events executed since construction.
  std::uint64_t events_executed = 0;
  /// Maximum number of simultaneously pending events (timing wheel +
  /// overflow heap).
  std::size_t peak_queue_depth = 0;
  /// Event storage ever allocated: callback-pool slots (whole chunks of
  /// 32, so at least 32) plus the overflow key heap's capacity. Constant
  /// once the workload reaches steady state; a thrown callback recycles
  /// its slot like one that returns.
  std::size_t pool_high_water = 0;
  /// Hottest callback sites (profiler armed only), sorted by wall time
  /// descending; at most KernelProfiler::kTopN rows.
  std::vector<KernelSiteStat> hot_sites;
};

/// Fixed-width text rendering of `hot_sites` ("top-N hottest callbacks");
/// empty string when no profile data is present.
std::string format_hot_sites(const KernelStats& stats);

}  // namespace mts::sim
