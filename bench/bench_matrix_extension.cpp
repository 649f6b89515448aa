// Extension bench: the full 2x2 interface matrix of Fig. 1, measured with
// the Table 1 methodology. The paper evaluates the sync-sync and
// async-sync designs; the sync-async design was "designed, to be described
// in a forthcoming technical report" and async-async was published
// separately ([4]). This bench completes the matrix.
//
// The 12 cells (3 capacities x 4 designs) run through a sim::Campaign
// worker pool; each experiment function owns its Simulations, so the
// campaign contributes distribution only. --jobs N sets the worker count
// (default: one per hardware thread). Row order is fixed by cell index,
// independent of worker count.
//
// Usage: bench_matrix_extension [--csv] [--jobs N]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "fifo/config.hpp"
#include "metrics/experiments.hpp"
#include "metrics/table.hpp"
#include "sim/campaign.hpp"

int main(int argc, char** argv) {
  using namespace mts;
  bool csv = false;
  unsigned jobs = 0;  // 0: one worker per hardware thread
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = cli::count_flag(
          argc, argv, i, 0, "usage: bench_matrix_extension [--csv] [--jobs N]");
    }
  }

  std::printf("Full interface matrix (8-bit items; sync rates in MHz, async "
              "rates in MegaOps/s; latency in ns through an empty FIFO)\n\n");

  const unsigned caps[] = {4, 8, 16};
  struct Column {
    const char* name;
    metrics::Design design;
    unsigned cycles;  ///< throughput window (async-async: handshake slots)
  };
  static constexpr Column kDesigns[] = {
      {"sync-sync", metrics::Design::kMixedClock, 800},
      {"async-sync", metrics::Design::kAsyncSync, 800},
      {"sync-async", metrics::Design::kSyncAsync, 800},
      {"async-async", metrics::Design::kAsyncAsync, 400},
  };
  // Cell index = cap_index * 4 + design_index, matching the historical row
  // order (capacity-major, then design).
  std::vector<std::vector<std::string>> rows(std::size(caps) *
                                             std::size(kDesigns));
  sim::CampaignOptions opt;
  opt.workers = jobs;
  opt.seed = 1;
  sim::Campaign campaign(rows.size(), 1, opt);
  campaign.run([&rows, &caps](sim::CampaignContext& ctx) {
    const std::size_t i = ctx.spec().index;
    const unsigned cap = caps[i / std::size(kDesigns)];
    const Column& col = kDesigns[i % std::size(kDesigns)];
    fifo::FifoConfig cfg;
    cfg.capacity = cap;
    cfg.width = 8;

    const auto tp = metrics::throughput(col.design, cfg, col.cycles);
    const auto lat = metrics::latency(col.design, cfg, 12);
    const bool none = lat.delivered == 0;
    rows[i] = {col.name,
               std::to_string(cap),
               metrics::fmt(tp.put, 0),
               metrics::fmt(tp.get, 0),
               none ? "not delivered" : metrics::fmt(lat.min_ns, 2),
               none ? "not delivered" : metrics::fmt(lat.max_ns, 2),
               tp.validated ? "yes" : "NO"};
  });
  metrics::Table t({"design", "places", "put", "get", "latency min",
                    "latency max", "ok"});
  for (const std::vector<std::string>& row : rows) t.add_row(row);
  std::fputs(csv ? t.to_csv().c_str() : t.to_string().c_str(), stdout);
  std::printf("\nExpected shape: fully synchronous interfaces fastest; each "
              "asynchronous interface trades throughput for clock-free "
              "operation; asynchronous receivers see lower latency (no "
              "synchronizer crossing on the read side).\n");
  std::printf("matrix campaign: %u workers, %.1f runs/sec\n",
              campaign.workers(), campaign.runs_per_sec());
  return 0;
}
