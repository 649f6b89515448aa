#include "ctrl/petri.hpp"

#include <gtest/gtest.h>

#include "ctrl/specs.hpp"
#include "sim/error.hpp"
#include "sim/simulation.hpp"

namespace mts::ctrl {
namespace {

// Simple net: place0 -[in a+]-> place1 -[out x+]-> place2 -[in a-]->
// place3 -[out x-]-> place0.
PetriNet ring_net() {
  PetriNet n;
  n.name = "ring";
  n.num_places = 4;
  n.initial_marking = {0};
  n.transitions = {
      {"a+", true, 0, true, {0}, {1}},
      {"x+", false, 0, true, {1}, {2}},
      {"a-", true, 0, false, {2}, {3}},
      {"x-", false, 0, false, {3}, {0}},
  };
  return n;
}

struct Fixture {
  sim::Simulation sim;
  sim::Wire a{sim, "a"};
  sim::Wire x{sim, "x"};
  void settle() { sim.run_until(sim.now() + 1000); }
};

TEST(Petri, InputEdgeFiresEnabledTransition) {
  Fixture f;
  const PetriNet net = ring_net();
  PetriEngine eng(f.sim, "eng", net, {&f.a}, {&f.x}, 25);
  EXPECT_TRUE(eng.marked(0));

  f.a.set(true);
  f.settle();
  EXPECT_TRUE(f.x.read());
  EXPECT_TRUE(eng.marked(2));

  f.a.set(false);
  f.settle();
  EXPECT_FALSE(f.x.read());
  EXPECT_TRUE(eng.marked(0));
  EXPECT_EQ(eng.firings(), 4u);
}

TEST(Petri, OutputTransitionsFireEagerlyAndCascade) {
  PetriNet n;
  n.name = "cascade";
  n.num_places = 3;
  n.initial_marking = {0};
  n.transitions = {
      {"x+", false, 0, true, {0}, {1}},
      {"y+", false, 1, true, {1}, {2}},
  };
  sim::Simulation sim;
  sim::Wire x(sim, "x");
  sim::Wire y(sim, "y");
  PetriEngine eng(sim, "eng", n, {}, {&x, &y}, 25);
  sim.run_until(1000);
  EXPECT_TRUE(x.read());
  EXPECT_TRUE(y.read());
  EXPECT_TRUE(eng.marked(2));
}

TEST(Petri, DvLinearNetStartsEmptyAndFillsOnWritePulse) {
  // A FIFO cell's DV controller as the cell array builds it: e_i starts
  // set, and a complete we pulse leaves the cell full.
  sim::Simulation sim;
  sim::Wire we(sim, "we");
  sim::Wire re(sim, "re");
  sim::Wire e(sim, "e", true);
  sim::Wire f(sim, "f");
  PetriEngine dv(sim, "dv", dv_linear_net(), {&we, &re}, {&e, &f}, 25);
  sim.run_until(1'000);
  EXPECT_TRUE(e.read());
  EXPECT_FALSE(f.read());

  we.set(true);
  sim.run_until(2'000);
  we.set(false);
  sim.run_until(3'000);
  EXPECT_FALSE(e.read());
  EXPECT_TRUE(f.read());
}

TEST(Petri, UnexpectedEdgeReported) {
  Fixture f;
  const PetriNet net = ring_net();
  PetriEngine eng(f.sim, "eng", net, {&f.a}, {&f.x}, 25);
  // a- while in place0: not enabled.
  f.a.set(true);
  f.settle();
  f.a.set(false);
  f.settle();
  f.a.set(false);  // no edge; set same value is ignored by Signal
  f.sim.report().clear();
  // Force an illegal edge: a- arrives when place2 is not marked.
  f.a.set(true);
  f.settle();
  f.a.set(false);
  f.settle();
  f.a.set(false);
  EXPECT_EQ(f.sim.report().count("pn-illegal-input"), 0u);  // legal so far
  // Now inject a- again without a+ first: need a rising edge in between to
  // make a falling edge; use a+ then a+... instead drive a second wire set:
  // simplest: a- with marking at place0 is impossible to produce via edges,
  // so validate the reporting path directly with a fresh engine:
  sim::Simulation sim2;
  sim::Wire b(sim2, "b", true);
  sim::Wire x2(sim2, "x2");
  const PetriNet net2 = ring_net();
  PetriEngine eng2(sim2, "eng2", net2, {&b}, {&x2}, 25);
  b.set(false);  // a- while place0 marked: illegal
  sim2.run_until(100);
  EXPECT_GE(sim2.report().count("pn-illegal-input"), 1u);
}

TEST(Petri, OneSafetyViolationThrows) {
  PetriNet n;
  n.name = "unsafe";
  n.num_places = 2;
  n.initial_marking = {0, 1};
  n.transitions = {
      {"x+", false, 0, true, {0}, {1}},  // place1 already marked
  };
  sim::Simulation sim;
  sim::Wire x(sim, "x");
  PetriEngine eng(sim, "eng", n, {}, {&x}, 25);
  EXPECT_THROW(sim.run(), SimulationError);
}

TEST(PetriValidate, RejectsMalformedNets) {
  PetriNet n = ring_net();
  n.transitions[0].pre = {9};
  EXPECT_THROW(n.validate(1, 1), ConfigError);

  PetriNet m = ring_net();
  m.initial_marking = {7};
  EXPECT_THROW(m.validate(1, 1), ConfigError);

  PetriNet k = ring_net();
  k.transitions[0].signal = 3;
  EXPECT_THROW(k.validate(1, 1), ConfigError);
}

}  // namespace
}  // namespace mts::ctrl
