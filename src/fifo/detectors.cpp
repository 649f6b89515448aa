#include "fifo/detectors.hpp"

#include <string>

#include "sim/error.hpp"

namespace mts::fifo {

namespace {

/// Rank of AND gates over `window` adjacent (ring-wrapped) cells.
std::vector<sim::Wire*> window_rank(gates::Netlist& nl, const std::string& name,
                                    const std::vector<sim::Wire*>& bits,
                                    const gates::DelayModel& dm,
                                    unsigned window) {
  MTS_ASSERT(bits.size() >= 2, "detector needs at least two cells");
  MTS_ASSERT(window >= 2 && window <= bits.size(),
             "detector window must be 2..capacity");
  std::vector<sim::Wire*> runs;
  runs.reserve(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    std::vector<sim::Wire*> group;
    for (unsigned k = 0; k < window; ++k) {
      group.push_back(bits[(i + k) % bits.size()]);
    }
    runs.push_back(&gates::make_gate(nl, name + ".run" + std::to_string(i),
                                     gates::GateOp::kAnd, std::move(group),
                                     dm));
  }
  return runs;
}

}  // namespace

unsigned anticipation_window(unsigned sync_depth) {
  // The flag crosses the synchronizer in `depth` receiver edges; the
  // opposite interface can complete depth - 1 further operations before the
  // stall lands, so the detector must announce the boundary depth - 1 items
  // early: window = depth, with the paper's two-latch case as the floor.
  return sync_depth < 2 ? 2 : sync_depth;
}

bool detector_asserted(const std::vector<bool>& bits, unsigned window) {
  MTS_ASSERT(window >= 1, "detector window must be >= 1");
  if (bits.empty()) return true;
  // Walk the ring twice so wrap-around runs are seen; a run can never need
  // more than one extra lap.
  unsigned run = 0;
  for (std::size_t i = 0; i < 2 * bits.size(); ++i) {
    if (bits[i % bits.size()]) {
      ++run;
      if (run >= window) return false;
    } else {
      run = 0;
    }
  }
  return true;
}

// Detector OR trees use 4-input gates (the paper's custom detectors are
// wide-NOR structures; 4-ary trees keep the depth growth gentle, matching
// the mild capacity degradation of Table 1).
constexpr unsigned kDetectorArity = 4;

sim::Wire& build_anticipating_full(gates::Netlist& nl, std::vector<sim::Wire*> e,
                                   const gates::DelayModel& dm,
                                   unsigned window) {
  auto runs = window_rank(nl, "fullDet", e, dm, window);
  sim::Wire& any2 = gates::make_tree(nl, "fullDet.or", gates::GateOp::kOr,
                                     runs, dm, kDetectorArity);
  return gates::make_gate(nl, "fullDet.full", gates::GateOp::kNot, {&any2}, dm);
}

sim::Wire& build_anticipating_empty(gates::Netlist& nl, std::vector<sim::Wire*> f,
                                    const gates::DelayModel& dm,
                                    unsigned window) {
  auto runs = window_rank(nl, "neDet", f, dm, window);
  sim::Wire& any2 = gates::make_tree(nl, "neDet.or", gates::GateOp::kOr,
                                     runs, dm, kDetectorArity);
  return gates::make_gate(nl, "neDet.ne", gates::GateOp::kNot, {&any2}, dm);
}

sim::Wire& build_true_empty(gates::Netlist& nl, std::vector<sim::Wire*> f,
                            const gates::DelayModel& dm) {
  sim::Wire& any = gates::make_tree(nl, "oeDet.or", gates::GateOp::kOr,
                                    std::move(f), dm, kDetectorArity);
  return gates::make_gate(nl, "oeDet.oe", gates::GateOp::kNot, {&any}, dm);
}

sim::Wire& build_exact_full(gates::Netlist& nl, std::vector<sim::Wire*> e,
                            const gates::DelayModel& dm) {
  sim::Wire& any_empty = gates::make_tree(nl, "exactFull.or", gates::GateOp::kOr,
                                          std::move(e), dm, kDetectorArity);
  return gates::make_gate(nl, "exactFull.full", gates::GateOp::kNot, {&any_empty},
                          dm);
}

sim::Time detector_delay(unsigned capacity, unsigned window,
                         const gates::DelayModel& dm) {
  sim::Time total = 0;
  if (window >= 2) total += dm.gate(window);
  total += gates::tree_depth(capacity, kDetectorArity) *
           dm.gate(kDetectorArity);
  total += dm.gate(1);  // output inverter
  return total;
}

}  // namespace mts::fifo
