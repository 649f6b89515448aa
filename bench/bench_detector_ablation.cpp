// Detector ablation bench (Section 3.2's design arguments, quantified):
//
//   1. empty side: oe-only underflows near empty; ne-only deadlocks on the
//      last item; the paper's bi-modal detector does neither;
//   2. full side: exact-full overflows near full; the anticipating
//      definition does not;
//   3. DV controller: the SR latch's slow-reader full-boundary hazard vs
//      the conservative serialized DV (library extension).
//
// Usage: bench_detector_ablation [--csv]
#include <cstdio>
#include <cstring>
#include <string>

#include "fifo/fifo.hpp"
#include "metrics/table.hpp"
#include "metrics/testbench.hpp"

namespace {

using namespace mts;
using sim::Time;

struct Outcome {
  std::uint64_t delivered = 0;
  std::uint64_t underflows = 0;
  std::uint64_t overflows = 0;
  std::uint64_t mismatches = 0;
  bool deadlocked = false;
};

/// Random traffic hovering near the empty or full boundary.
Outcome run_traffic(const fifo::FifoConfig& cfg, double put_rate,
                    double get_rate, double get_ratio, unsigned cycles) {
  sim::Simulation sim(7);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = static_cast<Time>(
      2 * get_ratio * static_cast<double>(fifo::SyncGetSide::min_period(cfg)));
  metrics::Testbench<fifo::MixedClockFifo> tb(
      sim, cfg, {pp, 4 * pp, put_rate}, {gp, 4 * pp + gp / 3, get_rate});
  sim.run_until(4 * pp + static_cast<Time>(cycles) * pp);
  return Outcome{tb.delivered(), tb.dut.underflow_count(),
                 tb.dut.overflow_count(), tb.sb.errors(), false};
}

/// One resident item, then the receiver starts requesting: a correct
/// detector delivers it; ne-only deadlocks.
Outcome run_last_item(const fifo::FifoConfig& cfg) {
  sim::Simulation sim(1);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  metrics::Testbench<fifo::MixedClockFifo> tb(
      sim, cfg, {pp, 4 * pp, 1.0, metrics::kManual},
      {gp, 4 * pp + gp / 3, 1.0, metrics::kManual});
  fifo::MixedClockFifo& dut = tb.dut;

  const Time react = cfg.dm.flop.clk_to_q + 1;
  const Time edge = 4 * pp + 8 * pp;
  sim.sched().at(edge + react, [&] {
    dut.data_put().set(0x3C);
    dut.req_put().set(true);
  });
  sim.sched().at(edge + pp + react, [&] { dut.req_put().set(false); });
  sim.sched().at(edge + 10 * gp, [&] { dut.req_get().set(true); });
  sim.run_until(edge + 80 * gp);

  Outcome o;
  o.delivered = tb.delivered();
  o.deadlocked = tb.delivered() == 0;
  o.mismatches = tb.sb.errors();
  return o;
}

std::string yn(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
  }
  const unsigned cycles = 1500;

  fifo::FifoConfig base;
  base.capacity = 4;
  base.width = 8;

  std::printf("Empty-detector ablation (4-place FIFO): near-empty workload "
              "(sparse puts, saturated gets) + last-item scenario\n\n");
  metrics::Table t1({"empty detector", "delivered", "underflows", "mismatches",
                     "last-item deadlock"});
  for (auto kind : {fifo::EmptyDetectorKind::kOeOnly,
                    fifo::EmptyDetectorKind::kNeOnly,
                    fifo::EmptyDetectorKind::kBimodal}) {
    fifo::FifoConfig cfg = base;
    cfg.empty_kind = kind;
    const Outcome traffic = run_traffic(cfg, 0.35, 1.0, 1.0, cycles);
    const Outcome last = run_last_item(cfg);
    const char* name = kind == fifo::EmptyDetectorKind::kOeOnly ? "oe only"
                       : kind == fifo::EmptyDetectorKind::kNeOnly
                           ? "ne only"
                           : "bi-modal (paper)";
    t1.add_row({name, std::to_string(traffic.delivered),
                std::to_string(traffic.underflows),
                std::to_string(traffic.mismatches), yn(last.deadlocked)});
  }
  std::fputs(csv ? t1.to_csv().c_str() : t1.to_string().c_str(), stdout);

  std::printf("\nFull-detector ablation: near-full workload (saturated puts, "
              "sparse gets)\n\n");
  metrics::Table t2({"full detector", "delivered", "overflows", "mismatches"});
  for (auto kind : {fifo::FullDetectorKind::kExact,
                    fifo::FullDetectorKind::kAnticipating}) {
    fifo::FifoConfig cfg = base;
    cfg.full_kind = kind;
    const Outcome traffic = run_traffic(cfg, 1.0, 0.3, 1.0, cycles);
    t2.add_row({kind == fifo::FullDetectorKind::kExact ? "exact"
                                                       : "anticipating (paper)",
                std::to_string(traffic.delivered),
                std::to_string(traffic.overflows),
                std::to_string(traffic.mismatches)});
  }
  std::fputs(csv ? t2.to_csv().c_str() : t2.to_string().c_str(), stdout);

  std::printf("\nDV-controller ablation: saturated writer, reader clock 2.7x "
              "slower (full-boundary hazard; see EXPERIMENTS.md)\n\n");
  metrics::Table t3({"DV controller", "delivered", "corruptions"});
  for (auto kind : {fifo::DvKind::kSrLatch, fifo::DvKind::kConservative}) {
    fifo::FifoConfig cfg = base;
    cfg.dv_kind = kind;
    const Outcome traffic = run_traffic(cfg, 1.0, 1.0, 2.7, cycles);
    t3.add_row({kind == fifo::DvKind::kSrLatch ? "SR latch (paper)"
                                               : "conservative (extension)",
                std::to_string(traffic.delivered),
                std::to_string(traffic.overflows + traffic.underflows +
                               traffic.mismatches)});
  }
  std::fputs(csv ? t3.to_csv().c_str() : t3.to_string().c_str(), stdout);
  return 0;
}
