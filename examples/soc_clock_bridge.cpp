// SoC clock-domain bridge: a DMA engine on a 450 MHz core clock streams
// descriptors to a peripheral controller on a 166-ish MHz bus clock through
// a mixed-clock FIFO -- the paper's motivating "systems-on-a-chip involving
// many clock domains" scenario.
//
// Demonstrates:
//   - sustained streaming across a ~2.7:1 frequency ratio,
//   - back-pressure: the peripheral periodically blocks (e.g. bus arbitration)
//     and the DMA engine stalls cleanly on `full`,
//   - the conservative DV option, which this writer-much-faster-than-reader
//     operating point calls for (see DESIGN.md section 6).
//
//   $ ./example_soc_clock_bridge
#include <cstdio>

#include "bfm/bfm.hpp"
#include "fifo/fifo.hpp"
#include "sync/clock.hpp"

namespace {

using namespace mts;
using sim::Time;

/// Peripheral-side consumer: requests words except during periodic "bus
/// busy" windows, modelling arbitration stalls.
class BusPeripheral {
 public:
  BusPeripheral(sim::Simulation& sim, sim::Wire& clk,
                fifo::MixedClockFifo& fifo, bfm::Scoreboard& sb)
      : sim_(sim), fifo_(fifo), sb_(sb) {
    clk.on_rise([this] {
      sim_.sched().after(fifo_.config().dm.flop.clk_to_q + 1, [this] {
        // Busy for 8 cycles out of every 40.
        const bool busy = (cycle_ % 40) >= 32;
        ++cycle_;
        fifo_.req_get().set(!busy);
      });
    });
    clk.on_rise([this] {
      if (fifo_.valid_get().read()) {
        sb_.pop_check(fifo_.data_get().read());
        ++received_;
      }
    });
  }

  std::uint64_t received() const { return received_; }

 private:
  sim::Simulation& sim_;
  fifo::MixedClockFifo& fifo_;
  bfm::Scoreboard& sb_;
  std::uint64_t cycle_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace

int main() {
  sim::Simulation sim(7);

  fifo::FifoConfig cfg;
  cfg.capacity = 16;  // deep enough to ride out 8-cycle bus stalls
  cfg.width = 32;
  // The DMA clock runs ~2.7x faster than the bus clock; at the full
  // boundary that is outside the SR-latch DV's safe envelope, so use the
  // conservative controller (DESIGN.md section 6, EXPERIMENTS.md
  // "full-boundary hazard").
  cfg.dv_kind = fifo::DvKind::kConservative;

  // The core clock runs at a 12.5% margin over the bridge's put-side
  // critical path; the bus clock is ~2.7x slower.
  const Time core_period = fifo::SyncPutSide::min_period(cfg) * 9 / 8;
  const Time bus_period = core_period * 27 / 10;
  sync::Clock clk_core(sim, "clk_core", {core_period, 4 * bus_period, 0.5, 0});
  sync::Clock clk_bus(sim, "clk_bus", {bus_period, 4 * bus_period + 1111, 0.5, 0});

  fifo::MixedClockFifo bridge(sim, "bridge", cfg, clk_core.out(), clk_bus.out());

  bfm::Scoreboard sb(sim, "sb");
  bfm::PutMonitor put_mon(sim, clk_core.out(), bridge.en_put(),
                          bridge.req_put(), bridge.data_put(), sb);
  // The DMA engine always has a descriptor ready; `full` throttles it.
  bfm::SyncPutDriver dma(sim, "dma", clk_core.out(), bridge.req_put(),
                         bridge.data_put(), bridge.full(), cfg.dm,
                         {1.0, 0x1000}, 0xFFFFFFFF);
  BusPeripheral peripheral(sim, clk_bus.out(), bridge, sb);

  const Time horizon = 4 * bus_period + 2000 * bus_period;
  sim.run_until(horizon);

  const double util =
      static_cast<double>(peripheral.received()) / 2000.0 * 100.0;
  std::printf("SoC clock bridge: %.0f MHz DMA -> %.0f MHz bus peripheral\n",
              sim::period_to_mhz(core_period), sim::period_to_mhz(bus_period));
  std::printf("  descriptors delivered : %llu (%.1f%% of bus cycles)\n",
              static_cast<unsigned long long>(peripheral.received()), util);
  std::printf("  order violations      : %llu\n",
              static_cast<unsigned long long>(sb.errors()));
  std::printf("  overflows/underflows  : %llu/%llu\n",
              static_cast<unsigned long long>(bridge.overflow_count()),
              static_cast<unsigned long long>(bridge.underflow_count()));
  std::printf("  FIFO resident at end  : %u of %u\n", bridge.occupancy(),
              cfg.capacity);
  const bool ok = sb.errors() == 0 && bridge.overflow_count() == 0 &&
                  bridge.underflow_count() == 0 && peripheral.received() > 1000;
  std::printf("  %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
