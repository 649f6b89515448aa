// Design report ("datasheet") generator: for a chosen FIFO configuration,
// prints the critical-path breakdown behind each Table 1 throughput
// number, the synchronizer MTBF table, an occupancy profile under
// saturated traffic, and writes the asynchronous controller specifications
// (OPT, DV_as, DV_linear) as Graphviz .dot files.
//
//   $ ./example_design_report [capacity] [width]
//   $ dot -Tpng opt.dot -o opt.png        # render the controllers
//
// A capacity or width that is not a plain decimal count, or that the FIFO
// configuration rejects, prints the reason and exits with status 2.
#include <cstdio>
#include <fstream>
#include <string>

#include "bfm/bfm.hpp"
#include "cli/args.hpp"
#include "ctrl/dot.hpp"
#include "ctrl/specs.hpp"
#include "fifo/fifo.hpp"
#include "metrics/registry.hpp"
#include "metrics/stats.hpp"
#include "sim/error.hpp"
#include "sim/observe.hpp"
#include "sync/clock.hpp"
#include "sync/mtbf.hpp"

namespace {

using namespace mts;

void print_path(const char* title, const fifo::PathBreakdown& path) {
  std::printf("%s\n", title);
  for (const auto& e : path) {
    std::printf("  %-45s %6llu ps\n", e.name.c_str(),
                static_cast<unsigned long long>(e.delay));
  }
  const auto total = fifo::path_total(path);
  std::printf("  %-45s %6llu ps  (%.0f MHz)\n", "TOTAL",
              static_cast<unsigned long long>(total),
              sim::period_to_mhz(total));
}

}  // namespace

int main(int argc, char** argv) {
  fifo::FifoConfig cfg;
  cfg.capacity = 8;
  cfg.width = 8;
  const char* usage = "usage: example_design_report [capacity] [width]";
  if (argc > 1) {
    cfg.capacity = cli::count_arg(argv[0], "capacity", argv[1], 2, usage);
  }
  if (argc > 2) cfg.width = cli::count_arg(argv[0], "width", argv[2], 1, usage);
  try {
    cfg.validate();
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "example_design_report: %s\n%s\n", e.what(), usage);
    return 2;
  }

  std::printf("=== MTS design report: %u-place, %u-bit ===\n\n", cfg.capacity,
              cfg.width);

  print_path("put interface critical path (FIFO controllers):",
             fifo::SyncPutSide::describe_min_period(cfg));
  std::printf("\n");
  print_path("get interface critical path (FIFO controllers):",
             fifo::SyncGetSide::describe_min_period(cfg));
  std::printf("\n");

  fifo::FifoConfig rs = cfg;
  rs.controller = fifo::ControllerKind::kRelayStation;
  print_path("put interface critical path (relay-station controllers):",
             fifo::SyncPutSide::describe_min_period(rs));
  std::printf("\n");

  std::printf("synchronizer MTBF (100 MHz async toggle rate):\n");
  for (unsigned depth : {1u, 2u, 3u}) {
    sync::MtbfParams p;
    p.depth = depth;
    p.clock_period = fifo::SyncGetSide::min_period(cfg);
    p.data_rate_hz = 100e6;
    p.dm = cfg.dm;
    std::printf("  depth %u: %.3g seconds\n", depth, sync::mtbf_seconds(p));
  }

  // Occupancy profile under saturated traffic at a 25% timing margin, with
  // the observability stack armed: per-instance metrics and the kernel's
  // hottest-callbacks table land in design_report.json.
  {
    sim::Simulation sim(1);
    metrics::Registry registry;
    sim::KernelProfiler profiler;
    sim::Observability obs;
    obs.metrics = &registry;
    obs.profiler = &profiler;
    obs.arm(sim);
    registry.bind(sim.report());
    const sim::Time pp = fifo::SyncPutSide::min_period(cfg) * 5 / 4;
    const sim::Time gp = fifo::SyncGetSide::min_period(cfg) * 5 / 4;
    sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
    sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
    fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
    metrics::OccupancySampler occ(sim, cg.out(), cfg.capacity,
                                  [&dut] { return dut.occupancy(); });
    bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                           dut.full(), cfg.dm, {1.0, 1}, 0xFF);
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {1.0, 1});
    sim.run_until(4 * pp + 1000 * pp);

    std::printf("\noccupancy profile (saturated traffic, %llu samples, mean "
                "%.2f):\n",
                static_cast<unsigned long long>(occ.samples()), occ.mean());
    for (unsigned lvl = 0; lvl <= cfg.capacity; ++lvl) {
      const int bar = static_cast<int>(occ.fraction_at(lvl) * 50.0);
      std::printf("  %2u |%-50.*s| %4.1f%%\n", lvl, bar,
                  "##################################################",
                  occ.fraction_at(lvl) * 100.0);
    }

    const sim::KernelStats& ks = sim.report().kernel();
    std::printf("\nkernel (occupancy run): %llu events executed, "
                "peak queue depth %llu, pool high-water %llu slots\n",
                static_cast<unsigned long long>(ks.events_executed),
                static_cast<unsigned long long>(ks.peak_queue_depth),
                static_cast<unsigned long long>(ks.pool_high_water));
    const std::string hot = sim::format_hot_sites(ks);
    if (!hot.empty()) std::printf("%s", hot.c_str());

    if (const metrics::Histogram* lat =
            registry.find_histogram("dut", "latency_ps");
        lat != nullptr && lat->count() > 0) {
      std::printf("forward latency: p50 %.0f ps, p99 %.0f ps over %llu "
                  "items\n",
                  lat->percentile(0.50), lat->percentile(0.99),
                  static_cast<unsigned long long>(lat->count()));
    }
    std::ofstream("design_report.json") << sim.report().to_json();
    std::printf("wrote design_report.json (report + metrics + kernel "
                "profile)\n");
  }

  // Controller specifications as Graphviz.
  for (const auto& [path, dot] :
       {std::pair<const char*, std::string>{"opt.dot",
                                            ctrl::to_dot(ctrl::opt_spec())},
        {"dv_as.dot", ctrl::to_dot(ctrl::dv_as_net())},
        {"dv_linear.dot", ctrl::to_dot(ctrl::dv_linear_net())}}) {
    std::ofstream out(path);
    out << dot;
    std::printf("\nwrote %s", path);
  }
  std::printf("\n");
  return 0;
}
