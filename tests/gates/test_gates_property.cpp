// Property tests for the gate library: trees of any arity/size must equal
// the flat reduction of their inputs for random patterns, and every GateOp
// must match its reference function (gate_reference.hpp) on every input
// pattern.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "gate_reference.hpp"
#include "gates/combinational.hpp"
#include "gates/netlist.hpp"
#include "sim/simulation.hpp"

namespace mts::gates {
namespace {

struct TreeParam {
  unsigned leaves;
  unsigned arity;
  bool is_or;
};

class TreeProperty : public ::testing::TestWithParam<TreeParam> {};

TEST_P(TreeProperty, MatchesFlatReductionOnRandomPatterns) {
  const TreeParam p = GetParam();
  sim::Simulation sim(p.leaves * 31 + p.arity);
  Netlist nl(sim, "t");
  const DelayModel dm = DelayModel::hp06();

  std::vector<sim::Wire*> leaves;
  for (unsigned i = 0; i < p.leaves; ++i) {
    leaves.push_back(&nl.wire("l" + std::to_string(i)));
  }
  sim::Wire& root = make_tree(nl, "tree", p.is_or ? GateOp::kOr : GateOp::kAnd,
                              leaves, dm, p.arity);

  std::mt19937 rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    bool acc = !p.is_or;
    for (sim::Wire* leaf : leaves) {
      const bool v = (rng() & 1u) != 0;
      leaf->set(v);
      acc = p.is_or ? (acc || v) : (acc && v);
    }
    sim.run_until(sim.now() + 20'000);
    EXPECT_EQ(root.read(), acc) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeProperty,
    ::testing::Values(TreeParam{1, 2, true}, TreeParam{2, 2, true},
                      TreeParam{3, 2, true}, TreeParam{7, 2, true},
                      TreeParam{16, 2, true}, TreeParam{4, 4, true},
                      TreeParam{5, 4, true}, TreeParam{16, 4, true},
                      TreeParam{17, 4, true}, TreeParam{3, 2, false},
                      TreeParam{16, 4, false}, TreeParam{9, 3, false}),
    [](const ::testing::TestParamInfo<TreeParam>& info) {
      std::ostringstream os;
      os << (info.param.is_or ? "or" : "and") << info.param.leaves << "a"
         << info.param.arity;
      return os.str();
    });

TEST(TreeDepth, MatchesCeilLog) {
  EXPECT_EQ(tree_depth(1, 2), 0u);
  EXPECT_EQ(tree_depth(2, 2), 1u);
  EXPECT_EQ(tree_depth(3, 2), 2u);
  EXPECT_EQ(tree_depth(8, 2), 3u);
  EXPECT_EQ(tree_depth(9, 2), 4u);
  EXPECT_EQ(tree_depth(4, 4), 1u);
  EXPECT_EQ(tree_depth(5, 4), 2u);
  EXPECT_EQ(tree_depth(16, 4), 2u);
  EXPECT_EQ(tree_depth(17, 4), 3u);
}

class GateOpProperty : public ::testing::TestWithParam<GateOp> {};

TEST_P(GateOpProperty, SimulatedGateMatchesTruthFunction) {
  const GateOp op = GetParam();
  const unsigned fanin = (op == GateOp::kNot || op == GateOp::kBuf) ? 1 : 3;

  sim::Simulation sim(99);
  Netlist nl(sim, "t");
  const DelayModel dm = DelayModel::hp06();
  std::vector<sim::Wire*> ins;
  for (unsigned i = 0; i < fanin; ++i) {
    ins.push_back(&nl.wire("i" + std::to_string(i)));
  }
  sim::Wire& out = make_gate(nl, "g", op, ins, dm);

  for (unsigned pattern = 0; pattern < (1u << fanin); ++pattern) {
    std::vector<bool> values;
    for (unsigned i = 0; i < fanin; ++i) {
      const bool v = (pattern >> i & 1u) != 0;
      ins[i]->set(v);
      values.push_back(v);
    }
    sim.run_until(sim.now() + 10'000);
    EXPECT_EQ(out.read(), reference_gate(op, values)) << "pattern " << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, GateOpProperty,
    ::testing::Values(GateOp::kNot, GateOp::kBuf, GateOp::kAnd, GateOp::kOr,
                      GateOp::kNand, GateOp::kNor, GateOp::kXor,
                      GateOp::kAndNotLast, GateOp::kOrNotLast, GateOp::kMux,
                      GateOp::kAndNotRest),
    [](const ::testing::TestParamInfo<GateOp>& info) {
      switch (info.param) {
        case GateOp::kNot: return std::string("Not");
        case GateOp::kBuf: return std::string("Buf");
        case GateOp::kAnd: return std::string("And");
        case GateOp::kOr: return std::string("Or");
        case GateOp::kNand: return std::string("Nand");
        case GateOp::kNor: return std::string("Nor");
        case GateOp::kXor: return std::string("Xor");
        case GateOp::kAndNotLast: return std::string("AndNotLast");
        case GateOp::kOrNotLast: return std::string("OrNotLast");
        case GateOp::kMux: return std::string("Mux");
        case GateOp::kAndNotRest: return std::string("AndNotRest");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace mts::gates
