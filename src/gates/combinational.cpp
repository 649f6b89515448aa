#include "gates/combinational.hpp"

#include <algorithm>
#include <utility>

#include "sim/error.hpp"

namespace mts::gates {

namespace {

// The fan-in rule `op` breaks with `n` inputs, or nullptr when `n` fits.
const char* fanin_violation(GateOp op, std::size_t n) {
  switch (op) {
    case GateOp::kNot:
    case GateOp::kBuf:
      return n == 1 ? nullptr : "exactly 1";
    case GateOp::kMux:
      return n == 3 ? nullptr : "exactly 3";
    case GateOp::kAndNotLast:
    case GateOp::kOrNotLast:
    case GateOp::kAndNotRest:
      return n >= 2 ? nullptr : "at least 2";
    case GateOp::kAnd:
    case GateOp::kOr:
    case GateOp::kNand:
    case GateOp::kNor:
    case GateOp::kXor:
      return n >= 1 ? nullptr : "at least 1";
  }
  return "a known op";
}

bool high(const sim::Wire* w) { return w->read(); }

// The gate evaluator: `op` over the current levels of `in`.
bool gate_value(GateOp op, const std::vector<sim::Wire*>& in) {
  const auto first = in.cbegin();
  const auto last = in.cend();
  switch (op) {
    case GateOp::kNot: return !high(in[0]);
    case GateOp::kBuf: return high(in[0]);
    case GateOp::kAnd: return std::all_of(first, last, high);
    case GateOp::kOr: return std::any_of(first, last, high);
    case GateOp::kNand: return !std::all_of(first, last, high);
    case GateOp::kNor: return std::none_of(first, last, high);
    case GateOp::kXor: return std::count_if(first, last, high) % 2 != 0;
    case GateOp::kAndNotLast:
      return std::all_of(first, last - 1, high) && !high(in.back());
    case GateOp::kOrNotLast:
      return std::any_of(first, last - 1, high) || !high(in.back());
    case GateOp::kMux: return high(in[0]) ? high(in[1]) : high(in[2]);
    case GateOp::kAndNotRest:
      return high(in[0]) && std::none_of(first + 1, last, high);
  }
  return false;  // unreachable: the Gate constructor rejects unknown ops
}

}  // namespace

Gate::Gate(sim::Simulation& sim, std::string name, GateOp op,
           std::vector<sim::Wire*> inputs, sim::Wire& out, Time delay)
    : name_(std::move(name)),
      op_(op),
      inputs_(std::move(inputs)),
      out_(out),
      delay_(delay) {
  const char* rule = fanin_violation(op_, inputs_.size());
  MTS_ASSERT(rule == nullptr, "gate '" + name_ + "' has " +
                                  std::to_string(inputs_.size()) +
                                  " inputs; its op takes " + rule);
  for (sim::Wire* in : inputs_) {
    MTS_ASSERT(in != nullptr, "gate '" + name_ + "' has a null input");
    in->on_change([this](bool, bool) { evaluate(); });
  }
  sim.sched().after(0, [this] { evaluate(); });
}

void Gate::evaluate() {
  out_.write(gate_value(op_, inputs_), delay_, sim::DelayKind::kInertial);
}

Time gate_delay(GateOp op, std::size_t fanin, const DelayModel& dm, unsigned fanout) {
  // Inverting inputs (kAndNotLast/kOrNotLast) cost one extra input's slope.
  unsigned effective = static_cast<unsigned>(fanin);
  if (op == GateOp::kAndNotLast || op == GateOp::kOrNotLast) ++effective;
  return dm.gate(effective, fanout);
}

sim::Wire& make_gate(Netlist& nl, const std::string& name, GateOp op,
                     std::vector<sim::Wire*> inputs, const DelayModel& dm,
                     unsigned fanout) {
  sim::Wire& out = nl.wire(name);
  const Time delay = gate_delay(op, inputs.size(), dm, fanout);
  gate_into(nl, name, op, std::move(inputs), out, delay);
  return out;
}

Gate& gate_into(Netlist& nl, const std::string& name, GateOp op,
                std::vector<sim::Wire*> inputs, sim::Wire& out, Time delay) {
  return nl.add<Gate>(nl.sim(), nl.qualified(name), op, std::move(inputs), out,
                      delay);
}

sim::Wire& make_delay(Netlist& nl, const std::string& name, sim::Wire& in, Time delay) {
  sim::Wire& out = nl.wire(name);
  gate_into(nl, name, GateOp::kBuf, {&in}, out, delay);
  return out;
}

sim::Wire& make_tree(Netlist& nl, const std::string& name, GateOp op,
                     std::vector<sim::Wire*> inputs, const DelayModel& dm,
                     unsigned arity) {
  MTS_ASSERT(!inputs.empty(), "tree '" + name + "' has no inputs");
  MTS_ASSERT(arity >= 2, "tree '" + name + "' needs arity >= 2");
  unsigned level = 0;
  while (inputs.size() > 1) {
    std::vector<sim::Wire*> next;
    next.reserve((inputs.size() + arity - 1) / arity);
    for (std::size_t i = 0; i < inputs.size(); i += arity) {
      const std::size_t group = std::min<std::size_t>(arity, inputs.size() - i);
      if (group == 1) {
        next.push_back(inputs[i]);  // leftover passes through
        continue;
      }
      std::vector<sim::Wire*> node_inputs(inputs.begin() + static_cast<std::ptrdiff_t>(i),
                                          inputs.begin() + static_cast<std::ptrdiff_t>(i + group));
      const std::string node =
          name + ".l" + std::to_string(level) + "n" + std::to_string(i / arity);
      next.push_back(&make_gate(nl, node, op, std::move(node_inputs), dm));
    }
    inputs = std::move(next);
    ++level;
  }
  if (level == 0) {
    // Single input: still isolate through a buffer so the tree always owns
    // its root wire (callers may attach further logic or rename it).
    return make_delay(nl, name + ".root", *inputs[0], dm.gate(1));
  }
  return *inputs[0];
}

unsigned tree_depth(unsigned leaves, unsigned arity) {
  unsigned depth = 0;
  unsigned reach = 1;
  while (reach < leaves) {
    reach *= arity;
    ++depth;
  }
  return depth;
}

WordMux::WordMux(sim::Simulation& sim, std::string name, sim::Wire& sel,
                 sim::Word& a, sim::Word& b, sim::Word& out, Time delay)
    : sel_(sel), a_(a), b_(b), out_(out), delay_(delay) {
  (void)name;
  sel_.on_change([this](bool, bool) { evaluate(); });
  a_.on_change([this](std::uint64_t, std::uint64_t) { evaluate(); });
  b_.on_change([this](std::uint64_t, std::uint64_t) { evaluate(); });
  sim.sched().after(0, [this] { evaluate(); });
}

void WordMux::evaluate() {
  out_.write(sel_.read() ? a_.read() : b_.read(), delay_,
             sim::DelayKind::kInertial);
}

WordBuf::WordBuf(sim::Simulation& sim, std::string name, sim::Word& in,
                 sim::Word& out, Time delay)
    : in_(in), out_(out), delay_(delay) {
  (void)name;
  in_.on_change([this](std::uint64_t, std::uint64_t now) {
    out_.write(now, delay_, sim::DelayKind::kInertial);
  });
  sim.sched().after(0, [this] {
    out_.write(in_.read(), delay_, sim::DelayKind::kInertial);
  });
}

}  // namespace mts::gates
