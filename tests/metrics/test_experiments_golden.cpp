// Golden values of every Section-6 experiment row: Table 1 throughput and
// latency (both designs x {FIFO, relay station} x {4, 8, 16} places x
// {8, 16} bits), the interface-matrix extension rows, and the saturated
// validation runs tests/fifo/test_timing.cpp checks. Doubles and counts
// compare exactly: a testbench refactor that reorders an event or draws
// the random stream differently shows up here first.
//
// The values were recorded from the experiment harness and must not be
// re-recorded to make a refactor pass; only an intended change to the
// models themselves may move them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fifo/interface_sides.hpp"
#include "metrics/experiments.hpp"

namespace mts::metrics {
namespace {

using enum Design;
enum Controller { kFifo, kRs };

const char* name_of(Design d) {
  switch (d) {
    case kMixedClock: return "mixed-clock";
    case kAsyncSync: return "async-sync";
    case kSyncAsync: return "sync-async";
    case kAsyncAsync: return "async-async";
  }
  return "?";
}

fifo::FifoConfig cfg_of(unsigned capacity, unsigned width,
                        Controller c = kFifo) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  if (c == kRs) cfg.controller = fifo::ControllerKind::kRelayStation;
  return cfg;
}

// bench_table1_throughput's rows (its default 1000 cycles).
struct ThroughputGold {
  Design design;
  Controller controller;
  unsigned width;
  unsigned capacity;
  double put;
  double get;
  bool validated;
};

constexpr ThroughputGold kTable1Throughput[] = {
    {kMixedClock, kFifo, 8, 4, 595.59261465157829, 580.04640371229698, true},
    {kMixedClock, kFifo, 8, 8, 504.28643469490669, 493.09664694280082, true},
    {kMixedClock, kFifo, 8, 16, 492.36829148202855, 481.6955684007707, true},
    {kMixedClock, kFifo, 16, 4, 529.94170641229459, 517.59834368530016, true},
    {kMixedClock, kFifo, 16, 8, 456.41259698767686, 447.2271914132379, true},
    {kMixedClock, kFifo, 16, 16, 446.62795891022779, 437.82837127845886, true},
    {kMixedClock, kRs, 8, 4, 621.50403977625854, 588.5815185403178, true},
    {kMixedClock, kRs, 8, 8, 522.73915316257182, 499.25112331502748, true},
    {kMixedClock, kRs, 8, 16, 509.94390617032127, 487.56704046806436, true},
    {kMixedClock, kRs, 16, 4, 550.35773252614194, 524.38384897745152, true},
    {kMixedClock, kRs, 16, 8, 471.47571900047149, 452.28403437358662, true},
    {kMixedClock, kRs, 16, 16, 461.04195481788844, 442.67374944665784, true},
    {kAsyncSync, kFifo, 8, 4, 427.49419953596288, 580.04640371229698, true},
    {kAsyncSync, kFifo, 8, 8, 356.50887573964496, 493.09664694280082, true},
    {kAsyncSync, kFifo, 8, 16, 312.62042389210018, 481.6955684007707, true},
    {kAsyncSync, kFifo, 16, 4, 363.35403726708074, 517.59834368530016, true},
    {kAsyncSync, kFifo, 16, 8, 310.37567084078711, 447.2271914132379, true},
    {kAsyncSync, kFifo, 16, 16, 276.707530647986, 437.82837127845886, true},
    {kAsyncSync, kRs, 8, 4, 427.31018246027077, 588.5815185403178, true},
    {kAsyncSync, kRs, 8, 8, 355.9660509236146, 499.25112331502748, true},
    {kAsyncSync, kRs, 8, 16, 312.04290589956116, 487.56704046806436, true},
    {kAsyncSync, kRs, 16, 4, 362.87362349239646, 524.38384897745152, true},
    {kAsyncSync, kRs, 16, 8, 310.2668475802804, 452.28403437358662, true},
    {kAsyncSync, kRs, 16, 16, 276.22841965471446, 442.67374944665784, true},
};

// bench_table1_latency's rows (its default 24 CLK_get phases), plus the
// same sweep at 16 bits.
struct LatencyGold {
  Design design;
  Controller controller;
  unsigned width;
  unsigned capacity;
  double min_ns;
  double max_ns;
};

constexpr LatencyGold kTable1Latency[] = {
    {kMixedClock, kFifo, 8, 4, 4.7599999999999998, 6.4130000000000003},
    {kMixedClock, kFifo, 8, 8, 5.6180000000000003, 7.5609999999999999},
    {kMixedClock, kFifo, 8, 16, 5.8280000000000003, 7.8179999999999996},
    {kMixedClock, kFifo, 16, 4, 5.3700000000000001, 7.2210000000000001},
    {kMixedClock, kFifo, 16, 8, 6.2480000000000002, 8.391},
    {kMixedClock, kFifo, 16, 16, 6.4690000000000003, 8.6579999999999995},
    {kMixedClock, kRs, 8, 4, 4.883, 6.5110000000000001},
    {kMixedClock, kRs, 8, 8, 6.9279999999999999, 8.8469999999999995},
    {kMixedClock, kRs, 8, 16, 7.0720000000000001, 9.0370000000000008},
    {kMixedClock, kRs, 16, 4, 5.5270000000000001, 7.3550000000000004},
    {kMixedClock, kRs, 16, 8, 7.5519999999999996, 9.6699999999999999},
    {kMixedClock, kRs, 16, 16, 7.6959999999999997, 9.8599999999999994},
    {kAsyncSync, kFifo, 8, 4, 4.7409999999999997, 6.3929999999999998},
    {kAsyncSync, kFifo, 8, 8, 5.577, 7.5199999999999996},
    {kAsyncSync, kFifo, 8, 16, 5.7949999999999999, 7.7850000000000001},
    {kAsyncSync, kFifo, 16, 4, 5.3929999999999998, 7.2450000000000001},
    {kAsyncSync, kFifo, 16, 8, 6.242, 8.3849999999999998},
    {kAsyncSync, kFifo, 16, 16, 6.3760000000000003, 8.5649999999999995},
    {kAsyncSync, kRs, 8, 4, 4.6719999999999997, 6.2999999999999998},
    {kAsyncSync, kRs, 8, 8, 5.508, 7.4269999999999996},
    {kAsyncSync, kRs, 8, 16, 5.7249999999999996, 7.6909999999999998},
    {kAsyncSync, kRs, 16, 4, 5.3230000000000004, 7.1509999999999998},
    {kAsyncSync, kRs, 16, 8, 6.1719999999999997, 8.2910000000000004},
    {kAsyncSync, kRs, 16, 16, 6.4000000000000004, 8.5649999999999995},
};

// bench_matrix_extension's rows: throughput at 800 cycles (400 handshakes
// for async-async), latency at 12 phases, 8-bit items.
struct MatrixGold {
  Design design;
  unsigned capacity;
  double put;
  double get;
  bool validated;
  double min_ns;
  double max_ns;
};

constexpr MatrixGold kMatrix[] = {
    {kMixedClock, 4, 595.59261465157829, 580.04640371229698, true,
     4.8319999999999999, 6.4130000000000003},
    {kAsyncSync, 4, 427.78422273781905, 580.04640371229698, true,
     4.7409999999999997, 6.3209999999999997},
    {kSyncAsync, 4, 595.59261465157829, 372.24538415723646, true,
     3.6240000000000001, 3.6240000000000001},
    {kAsyncAsync, 4, 404, 404, true, 2.9900000000000002, 2.9900000000000002},
    {kMixedClock, 8, 504.28643469490669, 493.09664694280082, true,
     5.6180000000000003, 7.4770000000000003},
    {kAsyncSync, 8, 356.26232741617355, 493.09664694280082, true, 5.577,
     7.4359999999999999},
    {kSyncAsync, 8, 504.28643469490669, 334.08976298537567, true,
     4.1859999999999999, 4.1859999999999999},
    {kAsyncAsync, 8, 336.5, 334, true, 3.4820000000000002, 3.4820000000000002},
    {kMixedClock, 16, 492.36829148202855, 481.6955684007707, true, 5.915,
     7.8179999999999996},
    {kAsyncSync, 16, 312.5, 481.6955684007707, true, 5.8819999999999997,
     7.7850000000000001},
    {kSyncAsync, 16, 492.36829148202855, 287.41999015263417, true,
     4.4800000000000004, 4.4800000000000004},
    {kAsyncAsync, 16, 293.5, 287, true, 3.9260000000000002, 3.9260000000000002},
};

TEST(ExperimentsGolden, Table1ThroughputRows) {
  for (const ThroughputGold& g : kTable1Throughput) {
    SCOPED_TRACE(std::string(name_of(g.design)) +
                 (g.controller == kRs ? " RS " : " ") +
                 std::to_string(g.width) + "-bit " +
                 std::to_string(g.capacity) + "-place");
    const ThroughputRow r = throughput(
        g.design, cfg_of(g.capacity, g.width, g.controller), 1000);
    EXPECT_EQ(r.put, g.put);
    EXPECT_EQ(r.get, g.get);
    EXPECT_EQ(r.validated, g.validated);
  }
}

TEST(ExperimentsGolden, Table1LatencyRows) {
  for (const LatencyGold& g : kTable1Latency) {
    SCOPED_TRACE(std::string(name_of(g.design)) +
                 (g.controller == kRs ? " RS " : " ") +
                 std::to_string(g.width) + "-bit " +
                 std::to_string(g.capacity) + "-place");
    const LatencyRow r =
        latency(g.design, cfg_of(g.capacity, g.width, g.controller), 24);
    EXPECT_EQ(r.min_ns, g.min_ns);
    EXPECT_EQ(r.max_ns, g.max_ns);
  }
}

TEST(ExperimentsGolden, MatrixExtensionRows) {
  for (const MatrixGold& g : kMatrix) {
    SCOPED_TRACE(std::string(name_of(g.design)) + " " +
                 std::to_string(g.capacity) + "-place");
    const fifo::FifoConfig cfg = cfg_of(g.capacity, 8);
    const ThroughputRow t =
        throughput(g.design, cfg, g.design == kAsyncAsync ? 400 : 800);
    EXPECT_EQ(t.put, g.put);
    EXPECT_EQ(t.get, g.get);
    EXPECT_EQ(t.validated, g.validated);
    const LatencyRow l = latency(g.design, cfg, 12);
    EXPECT_EQ(l.min_ns, g.min_ns);
    EXPECT_EQ(l.max_ns, g.max_ns);
  }
}

// The saturated validation runs of tests/fifo/test_timing.cpp, every field.
struct ValidationGold {
  std::uint64_t timing_violations;
  std::uint64_t overflows;
  std::uint64_t underflows;
  std::uint64_t scoreboard_errors;
  std::uint64_t enqueued;
  std::uint64_t dequeued;
};

void expect_validation(const ValidationResult& v, const ValidationGold& g) {
  EXPECT_EQ(v.timing_violations, g.timing_violations);
  EXPECT_EQ(v.overflows, g.overflows);
  EXPECT_EQ(v.underflows, g.underflows);
  EXPECT_EQ(v.scoreboard_errors, g.scoreboard_errors);
  EXPECT_EQ(v.enqueued, g.enqueued);
  EXPECT_EQ(v.dequeued, g.dequeued);
}

ValidationResult validate_mc(const fifo::FifoConfig& cfg, sim::Time put,
                             sim::Time get, unsigned cycles) {
  return validate(kMixedClock, cfg, put, get, cycles);
}

ValidationResult validate_as(const fifo::FifoConfig& cfg, sim::Time get,
                             unsigned cycles) {
  return validate(kAsyncSync, cfg, 0, get, cycles);
}

TEST(ExperimentsGolden, TimingValidationRuns) {
  using fifo::SyncGetSide;
  using fifo::SyncPutSide;
  {
    SCOPED_TRACE("mixed-clock 4x8 at the static minimum");
    const fifo::FifoConfig cfg = cfg_of(4, 8);
    expect_validation(validate_mc(cfg, SyncPutSide::min_period(cfg),
                                  SyncGetSide::min_period(cfg), 800),
                      {0, 0, 0, 0, 539, 537});
  }
  {
    SCOPED_TRACE("mixed-clock 16x16 at the static minimum");
    const fifo::FifoConfig cfg = cfg_of(16, 16);
    expect_validation(validate_mc(cfg, SyncPutSide::min_period(cfg),
                                  SyncGetSide::min_period(cfg), 600),
                      {0, 0, 0, 0, 600, 585});
  }
  {
    SCOPED_TRACE("mixed-clock 4x8, get clock 25% too fast");
    const fifo::FifoConfig cfg = cfg_of(4, 8);
    expect_validation(validate_mc(cfg, SyncPutSide::min_period(cfg),
                                  SyncGetSide::min_period(cfg) * 3 / 4, 800),
                      {0, 12, 119, 493, 575, 714});
  }
  {
    SCOPED_TRACE("mixed-clock 4x8, put clock 25% too fast");
    const fifo::FifoConfig cfg = cfg_of(4, 8);
    expect_validation(validate_mc(cfg, SyncPutSide::min_period(cfg) * 3 / 4,
                                  SyncGetSide::min_period(cfg) * 3, 800),
                      {0, 176, 0, 177, 430, 177});
  }
  {
    SCOPED_TRACE("async-sync 4x8 at the static minimum");
    const fifo::FifoConfig cfg = cfg_of(4, 8);
    expect_validation(validate_as(cfg, SyncGetSide::min_period(cfg), 800),
                      {0, 0, 0, 0, 592, 590});
  }
  {
    SCOPED_TRACE("MCRS 4x8 at the static minimum");
    const fifo::FifoConfig cfg = cfg_of(4, 8, kRs);
    expect_validation(validate_mc(cfg, SyncPutSide::min_period(cfg),
                                  SyncGetSide::min_period(cfg), 800),
                      {0, 0, 0, 0, 546, 545});
  }
  {
    SCOPED_TRACE("ASRS 4x8 at the static minimum");
    const fifo::FifoConfig cfg = cfg_of(4, 8, kRs);
    expect_validation(validate_as(cfg, SyncGetSide::min_period(cfg), 800),
                      {0, 0, 0, 0, 584, 582});
  }
  {
    SCOPED_TRACE("mixed-clock 4x8 in a 0.6x process");
    fifo::FifoConfig cfg = cfg_of(4, 8);
    cfg.dm = gates::DelayModel::hp06().scaled(0.6);
    expect_validation(validate_mc(cfg, SyncPutSide::min_period(cfg),
                                  SyncGetSide::min_period(cfg), 600),
                      {0, 0, 0, 0, 397, 396});
  }
}

}  // namespace
}  // namespace mts::metrics
