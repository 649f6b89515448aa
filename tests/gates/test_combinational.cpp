#include "gates/combinational.hpp"

#include <gtest/gtest.h>

#include "gate_reference.hpp"
#include "gates/netlist.hpp"
#include "sim/simulation.hpp"

namespace mts::gates {
namespace {

using sim::Simulation;
using sim::Wire;

struct Fixture {
  Simulation sim;
  Netlist nl{sim, "t"};
  DelayModel dm = DelayModel::hp06();
};

// Pins the test oracle (gate_reference.hpp) to hand-written rows; the
// GateOpProperty suite checks the simulated gates against that oracle.
TEST(GateFunc, TruthTables) {
  EXPECT_TRUE(reference_gate(GateOp::kNot, {false}));
  EXPECT_FALSE(reference_gate(GateOp::kNot, {true}));
  EXPECT_TRUE(reference_gate(GateOp::kBuf, {true}));
  EXPECT_TRUE(reference_gate(GateOp::kAnd, {true, true, true}));
  EXPECT_FALSE(reference_gate(GateOp::kAnd, {true, false, true}));
  EXPECT_TRUE(reference_gate(GateOp::kOr, {false, true}));
  EXPECT_FALSE(reference_gate(GateOp::kOr, {false, false}));
  EXPECT_TRUE(reference_gate(GateOp::kNand, {true, false}));
  EXPECT_FALSE(reference_gate(GateOp::kNand, {true, true}));
  EXPECT_TRUE(reference_gate(GateOp::kNor, {false, false}));
  EXPECT_FALSE(reference_gate(GateOp::kNor, {true, false}));
  EXPECT_TRUE(reference_gate(GateOp::kXor, {true, false, false}));
  EXPECT_FALSE(reference_gate(GateOp::kXor, {true, true}));
  // a & b & !c
  EXPECT_TRUE(reference_gate(GateOp::kAndNotLast, {true, true, false}));
  EXPECT_FALSE(reference_gate(GateOp::kAndNotLast, {true, true, true}));
  // a | b | !c
  EXPECT_TRUE(reference_gate(GateOp::kOrNotLast, {false, false, false}));
  EXPECT_FALSE(reference_gate(GateOp::kOrNotLast, {false, false, true}));
  // s ? a : b
  EXPECT_TRUE(reference_gate(GateOp::kMux, {true, true, false}));
  EXPECT_FALSE(reference_gate(GateOp::kMux, {true, false, true}));
  EXPECT_TRUE(reference_gate(GateOp::kMux, {false, false, true}));
  EXPECT_FALSE(reference_gate(GateOp::kMux, {false, true, false}));
  // a & !b & !c
  EXPECT_TRUE(reference_gate(GateOp::kAndNotRest, {true, false, false}));
  EXPECT_FALSE(reference_gate(GateOp::kAndNotRest, {true, false, true}));
  EXPECT_FALSE(reference_gate(GateOp::kAndNotRest, {false, false, false}));
}

TEST(Gate, EvaluatesAfterDelay) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& b = f.nl.wire("b");
  Wire& out = make_gate(f.nl, "and", GateOp::kAnd, {&a, &b}, f.dm);
  f.sim.run_until(1000);  // settle initial evaluation
  EXPECT_FALSE(out.read());

  a.set(true);
  b.set(true);
  const sim::Time d = f.dm.gate(2);
  f.sim.run_until(1000 + d - 1);
  EXPECT_FALSE(out.read());
  f.sim.run_until(1000 + d);
  EXPECT_TRUE(out.read());
}

TEST(Gate, InitialEvaluationPropagatesInitialInputs) {
  Fixture f;
  Wire& a = f.nl.wire("a", true);
  Wire& out = make_gate(f.nl, "inv", GateOp::kNot, {&a}, f.dm);
  EXPECT_FALSE(out.read());  // before settling
  f.sim.run_until(1000);
  EXPECT_FALSE(out.read());
  a.set(false);
  f.sim.run_until(2000);
  EXPECT_TRUE(out.read());
}

TEST(Gate, InertialFiltersGlitch) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& out = make_gate(f.nl, "buf", GateOp::kBuf, {&a}, f.dm);
  f.sim.run_until(1000);
  int changes = 0;
  out.on_change([&](bool, bool) { ++changes; });
  // Pulse much shorter than the gate delay: filtered.
  f.sim.sched().at(2000, [&] { a.set(true); });
  f.sim.sched().at(2010, [&] { a.set(false); });
  f.sim.run();
  EXPECT_EQ(changes, 0);
}

TEST(Gate, NoInputsRejected) {
  Fixture f;
  Wire& out = f.nl.wire("o");
  EXPECT_THROW(
      f.nl.add<Gate>(f.sim, "bad", GateOp::kAnd, std::vector<Wire*>{}, out, 10),
      AssertionError);
}

TEST(Gate, WrongFanInRejected) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& b = f.nl.wire("b");
  Wire& c = f.nl.wire("c");
  Wire& d = f.nl.wire("d");
  Wire& out = f.nl.wire("o");
  EXPECT_THROW(gate_into(f.nl, "not2", GateOp::kNot, {&a, &b}, out, 10),
               AssertionError);
  EXPECT_THROW(gate_into(f.nl, "buf2", GateOp::kBuf, {&a, &b}, out, 10),
               AssertionError);
  EXPECT_THROW(gate_into(f.nl, "mux2", GateOp::kMux, {&a, &b}, out, 10),
               AssertionError);
  EXPECT_THROW(gate_into(f.nl, "mux4", GateOp::kMux, {&a, &b, &c, &d}, out, 10),
               AssertionError);
  EXPECT_THROW(gate_into(f.nl, "anl1", GateOp::kAndNotLast, {&a}, out, 10),
               AssertionError);
  EXPECT_THROW(gate_into(f.nl, "onl1", GateOp::kOrNotLast, {&a}, out, 10),
               AssertionError);
  EXPECT_THROW(gate_into(f.nl, "anr1", GateOp::kAndNotRest, {&a}, out, 10),
               AssertionError);
  EXPECT_THROW(gate_into(f.nl, "xor0", GateOp::kXor, {}, out, 10),
               AssertionError);
}

TEST(OrTree, WideOrComputesAnyAndScalesDepth) {
  Fixture f;
  std::vector<Wire*> leaves;
  for (int i = 0; i < 16; ++i) leaves.push_back(&f.nl.wire("l" + std::to_string(i)));
  Wire& root = make_tree(f.nl, "or16", GateOp::kOr, leaves, f.dm);
  f.sim.run_until(5000);
  EXPECT_FALSE(root.read());
  leaves[11]->set(true);
  f.sim.run_until(10000);
  EXPECT_TRUE(root.read());
  leaves[11]->set(false);
  f.sim.run_until(15000);
  EXPECT_FALSE(root.read());
}

TEST(AndTree, SingleInputActsAsBuffer) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& root = make_tree(f.nl, "and1", GateOp::kAnd, {&a}, f.dm);
  f.sim.run_until(1000);
  a.set(true);
  f.sim.run_until(2000);
  EXPECT_TRUE(root.read());
}

TEST(AndTree, OddInputCount) {
  Fixture f;
  std::vector<Wire*> leaves;
  for (int i = 0; i < 5; ++i)
    leaves.push_back(&f.nl.wire("l" + std::to_string(i), true));
  Wire& root = make_tree(f.nl, "and5", GateOp::kAnd, leaves, f.dm);
  f.sim.run_until(5000);
  EXPECT_TRUE(root.read());
  leaves[4]->set(false);
  f.sim.run_until(10000);
  EXPECT_FALSE(root.read());
}

TEST(WordBuf, ForwardsWordsWithDelay) {
  Fixture f;
  sim::Word& in = f.nl.word("in", 3);
  sim::Word& out = f.nl.word("out");
  f.nl.add<WordBuf>(f.sim, "wb", in, out, 50);
  f.sim.run_until(100);
  EXPECT_EQ(out.read(), 3u);
  in.set(99);
  f.sim.run_until(149);
  EXPECT_EQ(out.read(), 3u);
  f.sim.run_until(200);
  EXPECT_EQ(out.read(), 99u);
}

TEST(MakeDelay, PureDelayLine) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& out = make_delay(f.nl, "d", a, 123);
  f.sim.run_until(500);
  a.set(true);
  f.sim.run_until(622);
  EXPECT_FALSE(out.read());
  f.sim.run_until(623);
  EXPECT_TRUE(out.read());
}

}  // namespace
}  // namespace mts::gates
