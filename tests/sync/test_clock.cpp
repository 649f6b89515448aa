#include "sync/clock.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/error.hpp"

namespace mts::sync {
namespace {

using sim::Time;

TEST(Clock, RisesAtPhaseAndEveryPeriod) {
  sim::Simulation sim;
  Clock clk(sim, "clk", {1000, 500, 0.5, 0});
  std::vector<Time> rises;
  clk.out().on_rise([&] { rises.push_back(sim.now()); });
  sim.run_until(4600);
  ASSERT_EQ(rises.size(), 5u);
  EXPECT_EQ(rises[0], 500u);
  EXPECT_EQ(rises[1], 1500u);
  EXPECT_EQ(rises[4], 4500u);
  EXPECT_EQ(clk.edges(), 5u);
}

TEST(Clock, DutyCycleControlsHighTime) {
  sim::Simulation sim;
  Clock clk(sim, "clk", {1000, 0, 0.25, 0});
  std::vector<Time> falls;
  clk.out().on_fall([&] { falls.push_back(sim.now()); });
  sim.run_until(2100);
  ASSERT_GE(falls.size(), 2u);
  EXPECT_EQ(falls[0], 250u);
  EXPECT_EQ(falls[1], 1250u);
}

TEST(Clock, StopHaltsToggling) {
  sim::Simulation sim;
  Clock clk(sim, "clk", {1000, 0, 0.5, 0});
  sim.run_until(2100);
  clk.stop();
  const auto edges = clk.edges();
  sim.run_until(10000);
  EXPECT_EQ(clk.edges(), edges);
}

TEST(Clock, JitterPerturbsPeriodsWithinBound) {
  sim::Simulation sim(7);
  Clock clk(sim, "clk", {1000, 0, 0.5, 100});
  std::vector<Time> rises;
  clk.out().on_rise([&] { rises.push_back(sim.now()); });
  sim.run_until(50000);
  ASSERT_GE(rises.size(), 20u);
  bool any_jitter = false;
  for (std::size_t i = 1; i < rises.size(); ++i) {
    const Time delta = rises[i] - rises[i - 1];
    EXPECT_GE(delta, 900u);
    EXPECT_LE(delta, 1100u);
    any_jitter = any_jitter || delta != 1000u;
  }
  EXPECT_TRUE(any_jitter);
}

TEST(Clock, InvalidConfigRejected) {
  sim::Simulation sim;
  EXPECT_THROW(Clock(sim, "c", {0, 0, 0.5, 0}), ConfigError);
  EXPECT_THROW(Clock(sim, "c", {1000, 0, 0.0, 0}), ConfigError);
  EXPECT_THROW(Clock(sim, "c", {1000, 0, 1.0, 0}), ConfigError);
  EXPECT_THROW(Clock(sim, "c", {1000, 0, 0.5, 600}), ConfigError);
}

}  // namespace
}  // namespace mts::sync
