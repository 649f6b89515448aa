// Kernel fuzz test: random combinational DAGs of gates are built, driven
// with random input vectors, and the settled simulation outputs are checked
// against a direct software evaluation of the same DAG. This exercises the
// event kernel, inertial-delay semantics and listener plumbing far beyond
// the hand-written cases.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "../gates/gate_reference.hpp"
#include "gates/combinational.hpp"
#include "gates/netlist.hpp"
#include "sim/simulation.hpp"

namespace mts {
namespace {

struct Node {
  gates::GateOp op;
  std::vector<std::size_t> inputs;  // indices into the value array
  sim::Wire* wire = nullptr;
};

class NetlistFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistFuzz, RandomDagSettlesToReferenceValues) {
  std::mt19937_64 rng(GetParam());
  sim::Simulation sim(GetParam());
  gates::Netlist nl(sim, "fuzz");
  const gates::DelayModel dm = gates::DelayModel::hp06();

  constexpr std::size_t kPrimary = 6;
  constexpr std::size_t kGates = 40;
  const gates::GateOp ops[] = {gates::GateOp::kNot,  gates::GateOp::kAnd,
                               gates::GateOp::kOr,   gates::GateOp::kNand,
                               gates::GateOp::kNor,  gates::GateOp::kXor,
                               gates::GateOp::kAndNotLast,
                               gates::GateOp::kOrNotLast,
                               gates::GateOp::kMux,
                               gates::GateOp::kAndNotRest};

  // Primary inputs.
  std::vector<sim::Wire*> primaries;
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < kPrimary; ++i) {
    primaries.push_back(&nl.wire("in" + std::to_string(i)));
  }

  // Random gates, each reading earlier signals only (a DAG by construction).
  for (std::size_t g = 0; g < kGates; ++g) {
    Node node;
    node.op = ops[rng() % std::size(ops)];
    const std::size_t fanin = node.op == gates::GateOp::kNot   ? 1
                              : node.op == gates::GateOp::kMux ? 3
                                                               : 2 + rng() % 2;
    const std::size_t available = kPrimary + g;
    std::vector<sim::Wire*> in_wires;
    for (std::size_t i = 0; i < fanin; ++i) {
      const std::size_t pick = rng() % available;
      node.inputs.push_back(pick);
      in_wires.push_back(pick < kPrimary ? primaries[pick]
                                         : nodes[pick - kPrimary].wire);
    }
    node.wire =
        &gates::make_gate(nl, "g" + std::to_string(g), node.op, in_wires, dm);
    nodes.push_back(node);
  }

  // Drive random vectors; after settling, every node must equal the
  // reference evaluation.
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<bool> values(kPrimary + kGates);
    for (std::size_t i = 0; i < kPrimary; ++i) {
      values[i] = (rng() & 1u) != 0;
      primaries[i]->set(values[i]);
    }
    sim.run_until(sim.now() + 200'000);  // deep DAG: generous settle

    for (std::size_t g = 0; g < kGates; ++g) {
      std::vector<bool> ins;
      for (std::size_t idx : nodes[g].inputs) ins.push_back(values[idx]);
      values[kPrimary + g] = gates::reference_gate(nodes[g].op, ins);
      EXPECT_EQ(nodes[g].wire->read(), values[kPrimary + g])
          << "seed " << GetParam() << " trial " << trial << " gate " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace mts
