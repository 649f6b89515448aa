#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/signal.hpp"

namespace mts::sim {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class TraceTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the tests of this fixture in parallel.
  std::string path_ =
      ::testing::TempDir() + "mts_trace_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".vcd";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceTest, HeaderContainsDefinitionsAndInitialValues) {
  Simulation sim;
  Wire w(sim, "clk", true);
  Word d(sim, "bus", 5);
  {
    VcdWriter vcd(path_);
    vcd.watch(w);
    vcd.watch(d, 8, "data");
    vcd.start();
  }
  const std::string text = read_file(path_);
  EXPECT_NE(text.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 8 \" data $end"), std::string::npos);
  EXPECT_NE(text.find("1!"), std::string::npos);
  EXPECT_NE(text.find("b00000101 \""), std::string::npos);
}

TEST_F(TraceTest, RecordsChangesWithTimestamps) {
  Simulation sim;
  Wire w(sim, "w");
  VcdWriter vcd(path_);
  vcd.watch(w);
  vcd.start();
  sim.sched().at(100, [&] { w.set(true); });
  sim.sched().at(250, [&] { w.set(false); });
  sim.run();
  vcd.finish();
  const std::string text = read_file(path_);
  EXPECT_NE(text.find("#100\n1!"), std::string::npos);
  EXPECT_NE(text.find("#250\n0!"), std::string::npos);
}

TEST_F(TraceTest, WatchAfterStartThrows) {
  Simulation sim;
  Wire w(sim, "w");
  VcdWriter vcd(path_);
  vcd.start();
  EXPECT_THROW(vcd.watch(w), ConfigError);
}

TEST_F(TraceTest, BadWidthThrows) {
  Simulation sim;
  Word d(sim, "d");
  VcdWriter vcd(path_);
  EXPECT_THROW(vcd.watch(d, 0), ConfigError);
  EXPECT_THROW(vcd.watch(d, 65), ConfigError);
}

TEST(Trace, UnwritablePathThrows) {
  EXPECT_THROW(VcdWriter("/nonexistent_dir_xyz/out.vcd"), ConfigError);
}

TEST_F(TraceTest, DoubleFinishIsANoop) {
  Simulation sim;
  Wire w(sim, "w");
  VcdWriter vcd(path_);
  vcd.watch(w);
  vcd.start();
  sim.sched().at(100, [&] { w.set(true); });
  sim.run();
  vcd.finish();
  vcd.finish();  // second call must not throw or corrupt the file
  const std::string text = read_file(path_);
  EXPECT_NE(text.find("#100\n1!"), std::string::npos);
}

TEST_F(TraceTest, DestructAfterExplicitFinishIsSafe) {
  Simulation sim;
  Wire w(sim, "w");
  {
    VcdWriter vcd(path_);
    vcd.watch(w);
    vcd.start();
    vcd.finish();
    // ~VcdWriter calls finish() again on an already-closed stream.
  }
  EXPECT_NE(read_file(path_).find("$enddefinitions"), std::string::npos);
}

TEST_F(TraceTest, DestructAfterExceptionMidSetupIsSafe) {
  Simulation sim;
  Word d(sim, "d");
  Wire w(sim, "w");
  {
    VcdWriter vcd(path_);
    vcd.watch(w);
    EXPECT_THROW(vcd.watch(d, 0), ConfigError);
    // Writer destructs with the header never written; finish() in the
    // destructor must cope with the half-configured state.
  }
  SUCCEED();
}

TEST_F(TraceTest, StartAfterFinishIsANoop) {
  Simulation sim;
  Wire w(sim, "w");
  VcdWriter vcd(path_);
  vcd.watch(w);
  vcd.finish();
  vcd.start();  // stream already closed: must not write to a dead file
  EXPECT_TRUE(read_file(path_).empty());
}

TEST_F(TraceTest, TimeZeroChangesEmitSingleTimestamp) {
  Simulation sim;
  Wire a(sim, "a");
  Wire b(sim, "b");
  VcdWriter vcd(path_);
  vcd.watch(a);
  vcd.watch(b);
  vcd.start();
  sim.sched().at(0, [&] {
    a.set(true);
    b.set(true);
  });
  sim.run();
  vcd.finish();
  const std::string text = read_file(path_);
  std::size_t zero_marks = 0;
  for (std::size_t pos = 0; (pos = text.find("#0\n", pos)) != std::string::npos;
       pos += 3) {
    ++zero_marks;
  }
  EXPECT_EQ(zero_marks, 1u);  // one `#0`, not one per change
}

}  // namespace
}  // namespace mts::sim
