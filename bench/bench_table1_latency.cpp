// Reproduces Table 1 (latency section): Min/Max latency through an empty
// FIFO, 8-bit data items, {4, 8, 16}-place, all four designs.
//
// Experimental setup per Section 6: in an empty FIFO the get interface
// requests a data item; after the FIFO is stable the put interface places
// one; latency runs from put-data-valid to the CLK_get edge where the
// receiver retrieves the item. The put instant is swept across one CLK_get
// period, giving the Min and Max columns.
//
// `--hist-json FILE` additionally runs each configuration under saturated
// traffic with the metrics registry armed (sim/observe.hpp) and writes the
// per-instance forward-latency histograms (p50/p95/p99/max + sparse bucket
// counts) as one JSON document, printing a one-screen p50/p99 summary.
//
// The saturated-histogram sweep fans its 12 configurations (4 designs x
// {4,8,16} places) across a sim::Campaign worker pool; --jobs N sets the
// worker count (default: one per hardware thread).
//
// Usage: bench_table1_latency [--csv] [--phases N] [--hist-json FILE]
//                             [--jobs N]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bfm/bfm.hpp"
#include "cli/args.hpp"
#include "fifo/fifo.hpp"
#include "metrics/experiments.hpp"
#include "metrics/registry.hpp"
#include "metrics/table.hpp"
#include "sim/campaign.hpp"
#include "sim/observe.hpp"
#include "sync/clock.hpp"

namespace {

using mts::fifo::ControllerKind;
using mts::fifo::FifoConfig;
using mts::metrics::Design;

constexpr const char* kUsage =
    "usage: bench_table1_latency [--csv] [--phases N] [--hist-json FILE] "
    "[--jobs N]";

struct DesignRow {
  const char* name;
  Design design;
  ControllerKind controller;
};

constexpr DesignRow kDesigns[] = {
    {"Mixed-Clock", Design::kMixedClock, ControllerKind::kFifo},
    {"Async-Sync", Design::kAsyncSync, ControllerKind::kFifo},
    {"Mixed-Clock RS", Design::kMixedClock, ControllerKind::kRelayStation},
    {"Async-Sync RS", Design::kAsyncSync, ControllerKind::kRelayStation},
};

// Paper Table 1 latency (ns), 8-bit items: {4,8,16}-place Min/Max.
constexpr double kPaperMin[4][3] = {{5.43, 5.79, 6.14},
                                    {5.53, 6.13, 6.47},
                                    {5.48, 6.05, 6.23},
                                    {5.61, 6.18, 6.57}};
constexpr double kPaperMax[4][3] = {{6.34, 6.64, 7.17},
                                    {6.45, 7.17, 7.51},
                                    {6.41, 7.02, 7.28},
                                    {6.35, 7.13, 7.62}};

/// Saturated run of one Table-1 configuration with the metrics registry
/// armed; returns the registry's JSON (per-instance counters + histograms).
/// The forward-latency histogram of instance "dut" is the headline number.
std::string saturated_histograms(mts::sim::Simulation& s,
                                 const DesignRow& design, unsigned capacity,
                                 double* p50, double* p99) {
  namespace fifo = mts::fifo;
  namespace sim = mts::sim;
  namespace sync = mts::sync;
  namespace bfm = mts::bfm;

  FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = 8;
  cfg.controller = design.controller;

  // Every configuration reseeds identically (the historical standalone
  // seed); the campaign contributes arena reuse and placement only.
  s.reset(7);
  mts::metrics::Registry registry;
  sim::Observability obs;
  obs.metrics = &registry;
  obs.arm(s);

  const sim::Time gp = fifo::SyncGetSide::min_period(cfg) * 5 / 4;
  sync::Clock cg(s, "cg", {gp, 4 * gp, 0.5, 0});
  const unsigned cycles = 2000;
  if (design.design == Design::kAsyncSync) {
    fifo::AsyncSyncFifo dut(s, "dut", cfg, cg.out());
    bfm::AsyncPutDriver put(s, "put", dut.put_req(), dut.put_ack(),
                            dut.put_data(), cfg.dm, 0, 0xFF, nullptr);
    bfm::SyncGetDriver get(s, "get", cg.out(), dut.req_get(), cfg.dm,
                           {1.0, 1});
    s.run_until(4 * gp + cycles * gp);
  } else {
    const sim::Time pp = fifo::SyncPutSide::min_period(cfg) * 5 / 4;
    sync::Clock cp(s, "cp", {pp, 4 * pp, 0.5, 0});
    fifo::MixedClockFifo dut(s, "dut", cfg, cp.out(), cg.out());
    bfm::SyncPutDriver put(s, "put", cp.out(), dut.req_put(), dut.data_put(),
                           dut.full(), cfg.dm, {1.0, 1}, 0xFF);
    bfm::SyncGetDriver get(s, "get", cg.out(), dut.req_get(), cfg.dm,
                           {1.0, 1});
    s.run_until(4 * gp + cycles * gp);
  }

  *p50 = 0.0;
  *p99 = 0.0;
  if (const mts::metrics::Histogram* h =
          registry.find_histogram("dut", "latency_ps");
      h != nullptr && h->count() > 0) {
    *p50 = h->percentile(0.50);
    *p99 = h->percentile(0.99);
  }
  // The registry and observability bundle leave scope with this frame;
  // detach them so the (worker-lifetime) Simulation holds no dangling
  // pointers between campaign runs.
  s.set_observability(nullptr);
  s.sched().set_profiler(nullptr);
  return registry.to_json();
}

void write_hist_json(const std::string& path, unsigned jobs) {
  const unsigned caps[] = {4, 8, 16};
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_table1_latency: cannot write %s\n",
                 path.c_str());
    return;
  }

  // Fan the 12 saturated runs across the pool: config index maps row-major
  // onto (design, capacity). Output order is run-index order, so the JSON
  // document and the printed table are identical for any worker count.
  struct CellOut {
    double p50 = 0.0;
    double p99 = 0.0;
    std::string metrics_json;
  };
  std::vector<CellOut> cells(std::size(kDesigns) * std::size(caps));
  mts::sim::CampaignOptions opt;
  opt.workers = jobs;
  opt.seed = 7;
  mts::sim::Campaign campaign(cells.size(), 1, opt);
  campaign.run([&cells, &caps](mts::sim::CampaignContext& ctx) {
    const std::size_t i = ctx.spec().index;
    const DesignRow& design = kDesigns[i / std::size(caps)];
    const unsigned cap = caps[i % std::size(caps)];
    CellOut& cell = cells[i];
    cell.metrics_json =
        saturated_histograms(ctx.sim(), design, cap, &cell.p50, &cell.p99);
  });

  std::printf("\nsaturated forward latency (metrics registry, ns):\n");
  std::printf("  %-16s %6s %10s %10s\n", "Version", "places", "p50", "p99");
  out << "{\n  \"note\": \"per-instance metrics under saturated traffic, "
         "one entry per Table-1 configuration; latency_ps of instance 'dut' "
         "is the forward latency\",\n  \"configs\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DesignRow& design = kDesigns[i / std::size(caps)];
    const unsigned cap = caps[i % std::size(caps)];
    std::printf("  %-16s %6u %10.2f %10.2f\n", design.name, cap,
                cells[i].p50 / 1e3, cells[i].p99 / 1e3);
    if (!first) out << ",\n";
    first = false;
    out << "    {\"design\": \"" << design.name << "\", \"places\": " << cap
        << ", \"metrics\": " << cells[i].metrics_json << "}";
  }
  out << "\n  ]\n}\n";
  std::printf("wrote %s (campaign: %u workers, %.1f runs/sec)\n", path.c_str(),
              campaign.workers(), campaign.runs_per_sec());
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  unsigned phases = 24;
  unsigned jobs = 0;  // 0: one worker per hardware thread
  std::string hist_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--phases") == 0) {
      phases = mts::cli::count_flag(argc, argv, i, 1, kUsage);
    }
    if (std::strcmp(argv[i], "--hist-json") == 0 && i + 1 < argc) {
      hist_json = argv[++i];
    }
    if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = mts::cli::count_flag(argc, argv, i, 0, kUsage);
    }
  }

  std::printf("Table 1 (latency, ns): empty FIFO, single put, 8-bit items;\n");
  std::printf("put instant swept across %u CLK_get phases\n\n", phases);

  const unsigned caps[] = {4, 8, 16};
  mts::metrics::Table table({"Version", "places", "Min", "Max", "paper-Min",
                             "paper-Max"});
  for (unsigned d = 0; d < 4; ++d) {
    const DesignRow& design = kDesigns[d];
    for (unsigned c = 0; c < 3; ++c) {
      FifoConfig cfg;
      cfg.capacity = caps[c];
      cfg.width = 8;
      cfg.controller = design.controller;
      const mts::metrics::LatencyRow row =
          mts::metrics::latency(design.design, cfg, phases);
      const bool none = row.delivered == 0;
      table.add_row({design.name, std::to_string(caps[c]),
                     none ? "not delivered" : mts::metrics::fmt(row.min_ns, 2),
                     none ? "not delivered" : mts::metrics::fmt(row.max_ns, 2),
                     mts::metrics::fmt(kPaperMin[d][c], 2),
                     mts::metrics::fmt(kPaperMax[d][c], 2)});
    }
  }
  std::fputs(csv ? table.to_csv().c_str() : table.to_string().c_str(), stdout);
  if (!hist_json.empty()) write_hist_json(hist_json, jobs);
  return 0;
}
