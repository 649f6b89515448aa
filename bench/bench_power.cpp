// Low-power claim (Section 2): "the FIFOs offer the potential for low
// power: data items are immobile while in the FIFO."
//
// Quantified two ways under identical saturated workloads:
//   1. register-write events per delivered item (data movement): exactly 1
//      for the token-ring design, ~capacity for the shift baseline;
//   2. switching activity on the datapath-visible buses (ActivityMeter).
//
// Usage: bench_power [--csv]
#include <cstdio>
#include <cstring>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/baseline_shift_fifo.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "metrics/activity.hpp"
#include "metrics/table.hpp"
#include "sync/clock.hpp"

namespace {

using namespace mts;
using sim::Time;

struct PowerRow {
  double moves_per_item;
  double bus_toggles_per_item;
  std::uint64_t delivered;
};

template <typename Fifo>
PowerRow run(unsigned capacity) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "cg", {gp, 4 * pp + gp / 3, 0.5, 0});
  Fifo dut(sim, "dut", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::GetMonitor mon(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1});
  metrics::ActivityMeter meter;
  meter.watch(dut.data_get());  // the output bus both designs drive

  sim.run_until(4 * pp + 1200 * pp);
  PowerRow r{};
  r.delivered = mon.dequeued();
  if (r.delivered > 0) {
    r.moves_per_item = static_cast<double>(dut.data_moves()) /
                       static_cast<double>(r.delivered);
    r.bus_toggles_per_item = static_cast<double>(meter.transitions()) /
                             static_cast<double>(r.delivered);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
  }

  std::printf("Data-movement energy proxy under saturated traffic (8-bit "
              "items): register writes per delivered item\n\n");
  metrics::Table t({"places", "token-ring moves/item", "baseline moves/item",
                    "token-ring delivered", "baseline delivered"});
  for (unsigned cap : {4u, 8u, 16u}) {
    const PowerRow ours = run<fifo::MixedClockFifo>(cap);
    const PowerRow base = run<fifo::BaselineShiftFifo>(cap);
    t.add_row({std::to_string(cap), metrics::fmt(ours.moves_per_item, 2),
               metrics::fmt(base.moves_per_item, 2),
               std::to_string(ours.delivered), std::to_string(base.delivered)});
  }
  std::fputs(csv ? t.to_csv().c_str() : t.to_string().c_str(), stdout);
  std::printf("\nImmobile data costs exactly one register write per item at "
              "any capacity; a shift organization pays one write per stage "
              "traversed, so its data-movement energy grows linearly with "
              "capacity.\n");
  return 0;
}
