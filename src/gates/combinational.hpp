// Combinational gate primitives.
//
// A Gate owns no wires; it watches its input wires and drives one output
// wire with an inertial delay (pulses shorter than the gate delay are
// filtered, as in a real gate). Factories cover the common shapes used by
// the FIFO netlists, including balanced trees for the wide detector
// functions whose depth grows with FIFO capacity.
#pragma once

#include <string>
#include <vector>

#include "gates/delay_model.hpp"
#include "gates/netlist.hpp"
#include "sim/signal.hpp"

namespace mts::gates {

/// Gate functions. kAndNotLast computes and(v0..vn-2) & !vn-1 and
/// kOrNotLast or(v0..vn-2) | !vn-1; kMux computes v0 ? v1 : v2; kAndNotRest
/// computes v0 & !v1 & !v2 & ...
enum class GateOp {
  kNot, kBuf, kAnd, kOr, kNand, kNor, kXor, kAndNotLast, kOrNotLast, kMux,
  kAndNotRest
};

/// Single-output combinational gate: `op` applied to `inputs`.
class Gate {
 public:
  /// `inputs` must stay alive as long as the gate; `delay` is inertial.
  /// The fan-in must suit `op` (kNot/kBuf: 1, kMux: 3, kAndNotLast/
  /// kOrNotLast/kAndNotRest: 2 or more, the others: 1 or more). The gate
  /// schedules an initial evaluation so outputs settle from the initial
  /// input values once the simulation starts.
  Gate(sim::Simulation& sim, std::string name, GateOp op,
       std::vector<sim::Wire*> inputs, sim::Wire& out, Time delay);

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  const std::string& name() const noexcept { return name_; }
  Time delay() const noexcept { return delay_; }

 private:
  void evaluate();

  std::string name_;
  GateOp op_;
  std::vector<sim::Wire*> inputs_;
  sim::Wire& out_;
  Time delay_;
};

/// Number of logic inputs `op` presents for delay purposes.
Time gate_delay(GateOp op, std::size_t fanin, const DelayModel& dm, unsigned fanout);

/// Builds a gate driving a fresh wire owned by `nl`; returns that wire.
sim::Wire& make_gate(Netlist& nl, const std::string& name, GateOp op,
                     std::vector<sim::Wire*> inputs, const DelayModel& dm,
                     unsigned fanout = 1);

/// Builds a gate driving caller-supplied wire `out` with explicit delay.
Gate& gate_into(Netlist& nl, const std::string& name, GateOp op,
                std::vector<sim::Wire*> inputs, sim::Wire& out, Time delay);

/// Pure delay element (buffer/wire segment) driving a fresh wire.
sim::Wire& make_delay(Netlist& nl, const std::string& name, sim::Wire& in, Time delay);

/// Balanced tree of `arity`-input `op` gates (kAnd or kOr); returns the
/// root wire. With a single input this is a buffer.
sim::Wire& make_tree(Netlist& nl, const std::string& name, GateOp op,
                     std::vector<sim::Wire*> inputs, const DelayModel& dm,
                     unsigned arity = 2);

/// Number of levels a balanced `arity`-ary tree over `leaves` inputs has.
unsigned tree_depth(unsigned leaves, unsigned arity);

/// Word-level 2:1 multiplexer: out follows `a` when sel is high, `b`
/// otherwise, with an inertial delay.
class WordMux {
 public:
  WordMux(sim::Simulation& sim, std::string name, sim::Wire& sel, sim::Word& a,
          sim::Word& b, sim::Word& out, Time delay);

  WordMux(const WordMux&) = delete;
  WordMux& operator=(const WordMux&) = delete;

 private:
  void evaluate();

  sim::Wire& sel_;
  sim::Word& a_;
  sim::Word& b_;
  sim::Word& out_;
  Time delay_;
};

/// Word-level buffer: forwards a word bus with an inertial delay (models a
/// wire segment / repeater on a datapath bus).
class WordBuf {
 public:
  WordBuf(sim::Simulation& sim, std::string name, sim::Word& in, sim::Word& out,
          Time delay);

  WordBuf(const WordBuf&) = delete;
  WordBuf& operator=(const WordBuf&) = delete;

 private:
  sim::Word& in_;
  sim::Word& out_;
  Time delay_;
};

}  // namespace mts::gates
