// Runtime protocol checkers: unit tests against raw wires, then closure
// tests proving each armed monitor catches the fault that breaks its
// invariant -- and stays silent on the same traffic without the fault.
#include <gtest/gtest.h>

#include <cstdint>

#include "bfm/bfm.hpp"
#include "fifo/async_timing.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sim/fault.hpp"
#include "sim/signal.hpp"
#include "sim/simulation.hpp"
#include "sync/clock.hpp"
#include "sync/mtbf.hpp"
#include "verify/checkers.hpp"

namespace mts::verify {
namespace {

using sim::Time;

// ---------------------------------------------------------------- units --

TEST(TokenRingMonitor, ExactlyOneTokenIsSilent) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire t0(sim, "t0", true), t1(sim, "t1", false), t2(sim, "t2", false);
  sim::Wire clk(sim, "clk", false);
  TokenRingMonitor mon(hub, sim, "ring", {&t0, &t1, &t2}, clk);
  clk.set(true);
  clk.set(false);
  clk.set(true);
  EXPECT_EQ(hub.total(), 0u);
}

TEST(TokenRingMonitor, DuplicatedAndLostTokensAreCaught) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire t0(sim, "t0", true), t1(sim, "t1", true);
  sim::Wire clk(sim, "clk", false);
  TokenRingMonitor mon(hub, sim, "ring", {&t0, &t1}, clk);
  clk.set(true);  // two tokens
  ASSERT_EQ(hub.count(Invariant::kTokenRing), 1u);
  EXPECT_NE(hub.violations()[0].observed.find("2 tokens"), std::string::npos);
  clk.set(false);
  t0.set(false);
  t1.set(false);
  clk.set(true);  // zero tokens
  EXPECT_EQ(hub.count(Invariant::kTokenRing), 2u);
}

TEST(DetectorMonitor, ConsistentDetectorIsSilent) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire s0(sim, "s0", false), s1(sim, "s1", false);
  sim::Wire raw(sim, "raw", true);  // window 1: asserted iff no cell set
  sim::Wire clk(sim, "clk", false);
  DetectorMonitor mon(hub, sim, "det", Invariant::kEmptyDetector, {&s0, &s1},
                      raw, 1, clk, 100);
  sim.sched().at(10, [&clk] { clk.set(true); });
  sim.run_until(500);
  EXPECT_EQ(hub.total(), 0u);
}

TEST(DetectorMonitor, PersistentMismatchIsReportedAfterSettle) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire s0(sim, "s0", false), s1(sim, "s1", false);
  sim::Wire raw(sim, "raw", false);  // wrong: nothing is set, raw must assert
  sim::Wire clk(sim, "clk", false);
  DetectorMonitor mon(hub, sim, "det", Invariant::kFullDetector, {&s0, &s1},
                      raw, 1, clk, 100);
  sim.sched().at(200, [&clk] { clk.set(true); });
  sim.run_until(1000);
  ASSERT_EQ(hub.count(Invariant::kFullDetector), 1u);
  EXPECT_NE(hub.violations()[0].expected.find("asserted"), std::string::npos);
}

TEST(DetectorMonitor, TransientMismatchThatSettlesIsForgiven) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire s0(sim, "s0", false), s1(sim, "s1", false);
  sim::Wire raw(sim, "raw", false);
  sim::Wire clk(sim, "clk", false);
  DetectorMonitor mon(hub, sim, "det", Invariant::kEmptyDetector, {&s0, &s1},
                      raw, 1, clk, 100);
  sim.sched().at(200, [&clk] { clk.set(true); });   // mismatch seen here
  sim.sched().at(250, [&raw] { raw.set(true); });   // tree catches up
  sim.run_until(1000);                              // re-check at 300 passes
  EXPECT_EQ(hub.total(), 0u);
}

TEST(DetectorMonitor, RecheckAbstainsWhileStateIsStillMoving) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire s0(sim, "s0", false), s1(sim, "s1", false);
  sim::Wire raw(sim, "raw", false);
  sim::Wire clk(sim, "clk", false);
  DetectorMonitor mon(hub, sim, "det", Invariant::kEmptyDetector, {&s0, &s1},
                      raw, 1, clk, 100);
  sim.sched().at(200, [&clk] { clk.set(true); });  // re-check lands at 300
  sim.sched().at(295, [&s0] { s0.set(true); });    // state churns inside it
  sim.run_until(1000);
  // With the state quiet for less than a settle window the monitor cannot
  // convict the detector -- the raw output may legitimately still be
  // catching up -- so it stays silent.
  EXPECT_EQ(hub.total(), 0u);
}

TEST(DetectorMonitor, WindowTwoPredicateWrapsAroundTheRing) {
  sim::Simulation sim(1);
  Hub hub;
  // Cells 3 and 0 asserted: a wrapping run of two.
  sim::Wire s0(sim, "s0", true), s1(sim, "s1", false);
  sim::Wire s2(sim, "s2", false), s3(sim, "s3", true);
  sim::Wire raw(sim, "raw", true);
  sim::Wire clk(sim, "clk", false);
  DetectorMonitor mon(hub, sim, "det", Invariant::kFullDetector,
                      {&s0, &s1, &s2, &s3}, raw, 2, clk, 10);
  EXPECT_FALSE(mon.expected());  // the wrapping run must deassert the raw
  sim::Wire raw2(sim, "raw2", true);
  sim::Wire clk2(sim, "clk2", false);
  sim::Wire s1b(sim, "s1b", false);
  DetectorMonitor mon2(hub, sim, "det2", Invariant::kFullDetector,
                       {&s0, &s1b}, raw2, 2, clk2, 10);
  EXPECT_TRUE(mon2.expected());  // one cleared cell breaks every run of 2
  sim::Wire raw3(sim, "raw3", true);
  sim::Wire clk3(sim, "clk3", false);
  DetectorMonitor mon3(hub, sim, "det3", Invariant::kFullDetector,
                       {&s0, &s3}, raw3, 3, clk3, 10);
  // An all-asserted ring wraps into an unbounded run: even a window wider
  // than the ring itself is met.
  EXPECT_FALSE(mon3.expected());
}

TEST(HandshakeMonitor, CleanFourPhaseCycleIsSilent) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire req(sim, "req", false), ack(sim, "ack", false);
  sim::Word data(sim, "data", 0);
  HandshakeMonitor mon(hub, sim, "put", req, ack, data, 50);
  sim.sched().at(10, [&data] { data.set(0xAB); });  // launch before req+
  sim.sched().at(20, [&req] { req.set(true); });
  sim.sched().at(40, [&ack] { ack.set(true); });
  sim.sched().at(60, [&req] { req.set(false); });
  sim.sched().at(80, [&ack] { ack.set(false); });
  sim.run_until(100);
  EXPECT_EQ(hub.total(), 0u);
  EXPECT_EQ(mon.handshakes(), 1u);
}

TEST(HandshakeMonitor, OutOfOrderEdgesAreCaught) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire req(sim, "req", false), ack(sim, "ack", false);
  sim::Word data(sim, "data", 0);
  HandshakeMonitor mon(hub, sim, "put", req, ack, data, 50);
  sim.sched().at(10, [&ack] { ack.set(true); });  // ack+ while idle
  sim.run_until(20);
  ASSERT_EQ(hub.count(Invariant::kHandshakeOrder), 1u);
  EXPECT_NE(hub.violations()[0].observed.find("ack+"), std::string::npos);
}

TEST(HandshakeMonitor, EarlyReqReleaseIsCaught) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire req(sim, "req", false), ack(sim, "ack", false);
  sim::Word data(sim, "data", 0);
  HandshakeMonitor mon(hub, sim, "put", req, ack, data, 50);
  sim.sched().at(10, [&req] { req.set(true); });
  sim.sched().at(20, [&req] { req.set(false); });  // before any ack+
  sim.run_until(30);
  EXPECT_EQ(hub.count(Invariant::kHandshakeOrder), 1u);
}

TEST(HandshakeMonitor, DataMovementIsJudgedAgainstTheSlack) {
  sim::Simulation sim(1);
  Hub hub;
  sim::Wire req(sim, "req", false), ack(sim, "ack", false);
  sim::Word data(sim, "data", 0);
  HandshakeMonitor mon(hub, sim, "put", req, ack, data, 50);
  sim.sched().at(100, [&req] { req.set(true); });
  sim.sched().at(140, [&data] { data.set(1); });  // lag 40 <= 50: absorbed
  sim.run_until(200);
  EXPECT_EQ(hub.total(), 0u);
  sim.sched().at(260, [&data] { data.set(2); });  // lag 160 > 50: violation
  sim.run_until(300);
  ASSERT_EQ(hub.count(Invariant::kBundledData), 1u);
  EXPECT_NE(hub.violations()[0].observed.find("0x2"), std::string::npos);
}

TEST(StreamMonitor, FifoOrderIsSilentMisorderLossAndSpuriousAreCaught) {
  sim::Simulation sim(1);
  Hub hub;
  StreamMonitor mon(hub, sim, "dut");
  mon.put(0x10, 1);
  mon.put(0x20, 2);
  EXPECT_EQ(mon.in_flight(), 2u);
  mon.get(0x10, 1);
  EXPECT_EQ(hub.total(), 0u);
  mon.get(0x99, 2);  // should have been 0x20
  ASSERT_EQ(hub.count(Invariant::kPacketOrder), 1u);
  EXPECT_NE(hub.violations()[0].expected.find("0x20"), std::string::npos);
  mon.get(0x30);  // nothing in flight
  EXPECT_EQ(hub.count(Invariant::kPacketSpurious), 1u);
  EXPECT_EQ(mon.in_flight(), 0u);
}

// -------------------------------------------------------------- closure --
//
// Each armed-component test injects the fault a monitor exists for and
// checks the violation is attributed to the right invariant -- plus the
// matching clean run staying at zero (no false positives).

fifo::FifoConfig small_cfg() {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  return cfg;
}

/// Mixed-clock harness with the hub armed BEFORE the dut is constructed
/// (the arming contract), clean saturated put / throttled get traffic.
struct ArmedMixed {
  fifo::FifoConfig cfg;
  sim::Simulation sim;
  Hub hub;
  Time pp;  // initializer arms the hub first: members init in decl order
  Time gp;
  sync::Clock cp;
  sync::Clock cg;
  fifo::MixedClockFifo dut;
  bfm::Scoreboard sb;
  bfm::PutMonitor pm;
  bfm::GetMonitor gm;

  explicit ArmedMixed(const fifo::FifoConfig& c, std::uint64_t seed = 1)
      : cfg(c),
        sim(seed),
        pp((hub.arm(sim), 2 * fifo::SyncPutSide::min_period(cfg))),
        gp(2 * fifo::SyncGetSide::min_period(cfg)),
        cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0}),
        cg(sim, "clk_get", {gp, 4 * pp + gp / 3, 0.5, 0}),
        dut(sim, "dut", cfg, cp.out(), cg.out()),
        sb(sim, "sb"),
        pm(sim, cp.out(), dut.en_put(), dut.req_put(), dut.data_put(), sb),
        gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb) {}
};

TEST(MonitorClosure, ArmedCleanMixedTrafficReportsNothing) {
  ArmedMixed h(small_cfg());
  bfm::SyncPutDriver put(h.sim, "put", h.cp.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm, {1.0, 1},
                         0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.cg.out(), h.dut.req_get(), h.cfg.dm,
                         {0.85, 1});
  h.sim.run_until(4 * h.pp + 400 * h.pp);
  EXPECT_GT(h.gm.dequeued(), 100u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.hub.total(), 0u) << h.hub.to_json();
}

TEST(MonitorClosure, InjectedSecondPutTokenTripsTheRingMonitor) {
  ArmedMixed h(small_cfg());
  // Quiet FIFO; cell 0 holds the put token. Force a duplicate into cell 1
  // through the verification hook and let the next CLK_put edge count it.
  h.sim.sched().at(20 * h.pp, [&h] { h.dut.put_token(1).set(true); });
  h.sim.run_until(30 * h.pp);
  EXPECT_GT(h.hub.count(Invariant::kTokenRing), 0u) << h.hub.to_json();
  EXPECT_EQ(h.hub.count(Invariant::kFullDetector), 0u);
}

TEST(MonitorClosure, CorruptedFullDetectorOutputIsConvicted) {
  ArmedMixed h(small_cfg());
  // Empty, quiet FIFO: every cell is empty, so the anticipating full
  // detector's raw output must be LOW. Forcing it high is a persistent
  // inconsistency (its driving gates only re-evaluate on input change, and
  // the cell state is quiet), which the deferred re-check convicts.
  h.sim.sched().at(20 * h.pp, [&h] { h.dut.full_raw().set(true); });
  h.sim.run_until(40 * h.pp);
  EXPECT_GT(h.hub.count(Invariant::kFullDetector), 0u) << h.hub.to_json();
}

TEST(MonitorClosure, ExactFullAblationOverflowsAreAttributed) {
  fifo::FifoConfig cfg = small_cfg();
  cfg.full_kind = fifo::FullDetectorKind::kExact;
  ArmedMixed h(cfg);
  bfm::SyncPutDriver put(h.sim, "put", h.cp.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm, {1.0, 1},
                         0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.cg.out(), h.dut.req_get(), h.cfg.dm,
                         {0.3, 1});
  h.sim.run_until(4 * h.pp + 600 * h.pp);
  ASSERT_GT(h.dut.overflow_count(), 0u);
  // One violation per counted overflow: the monitor is the counter's
  // structured twin.
  EXPECT_EQ(h.hub.count(Invariant::kOverflow), h.dut.overflow_count());
}

TEST(MonitorClosure, OeOnlyAblationUnderflowsAreAttributed) {
  fifo::FifoConfig cfg = small_cfg();
  cfg.empty_kind = fifo::EmptyDetectorKind::kOeOnly;
  ArmedMixed h(cfg);
  bfm::SyncPutDriver put(h.sim, "put", h.cp.out(), h.dut.req_put(),
                         h.dut.data_put(), h.dut.full(), h.cfg.dm, {0.35, 1},
                         0xFF);
  bfm::SyncGetDriver get(h.sim, "get", h.cg.out(), h.dut.req_get(), h.cfg.dm,
                         {1.0, 1});
  h.sim.run_until(4 * h.pp + 600 * h.pp);
  ASSERT_GT(h.dut.underflow_count(), 0u);
  EXPECT_EQ(h.hub.count(Invariant::kUnderflow), h.dut.underflow_count());
}

/// Async-sync harness (hub armed first), driver-paced clean traffic.
struct ArmedAsync {
  fifo::FifoConfig cfg;
  sim::Simulation sim;
  Hub hub;
  Time gp;
  sync::Clock cg;
  fifo::AsyncSyncFifo dut;
  bfm::Scoreboard sb;
  bfm::AsyncPutDriver put;
  bfm::SyncGetDriver get;
  bfm::GetMonitor gm;

  explicit ArmedAsync(std::uint64_t seed = 1)
      : cfg(small_cfg()),
        sim(seed),
        gp((hub.arm(sim), 2 * fifo::SyncGetSide::min_period(cfg))),
        cg(sim, "cg", {gp, 4 * gp, 0.5, 0}),
        dut(sim, "dut", cfg, cg.out()),
        sb(sim, "sb"),
        put(sim, "put", dut.put_req(), dut.put_ack(), dut.put_data(), cfg.dm,
            gp / 2, 0xFF, &sb),
        get(sim, "get", cg.out(), dut.req_get(), cfg.dm, {1.0, 1}),
        gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb) {}
};

TEST(MonitorClosure, ArmedCleanAsyncTrafficReportsNothing) {
  ArmedAsync h;
  h.sim.run_until(4 * h.gp + 200 * h.gp);
  EXPECT_GT(h.gm.dequeued(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.hub.total(), 0u) << h.hub.to_json();
}

TEST(MonitorClosure, BundlingLagPastMarginTripsTheHandshakeMonitor) {
  ArmedAsync h(0xB0D3);
  const Time margin = fifo::async_put_data_margin(h.cfg);
  sim::FaultPlan plan(0xB0D3);
  plan.inject_bundling("put", sim::BundlingFault{margin + 2 * h.cfg.dm.gate(1)});
  h.sim.arm_faults(&plan);
  h.sim.run_until(4 * h.gp + 200 * h.gp);
  ASSERT_GT(h.gm.dequeued(), 50u);
  EXPECT_GT(h.hub.count(Invariant::kBundledData), 0u) << h.hub.to_json();
  h.sim.arm_faults(nullptr);
}

TEST(MonitorClosure, BundlingLagWithinMarginStaysSilent) {
  ArmedAsync h(0xB0D1);
  const Time margin = fifo::async_put_data_margin(h.cfg);
  sim::FaultPlan plan(0xB0D1);
  plan.inject_bundling("put", sim::BundlingFault{margin / 2});
  h.sim.arm_faults(&plan);
  h.sim.run_until(4 * h.gp + 200 * h.gp);
  EXPECT_GT(h.gm.dequeued(), 50u);
  EXPECT_EQ(h.sb.errors(), 0u);
  EXPECT_EQ(h.hub.count(Invariant::kBundledData), 0u) << h.hub.to_json();
  h.sim.arm_faults(nullptr);
}

TEST(MonitorClosure, EarlyRequestReleaseOnTheFifoIsCaught) {
  // A buggy sender drops put_req before the FIFO acknowledges: the
  // FIFO-side handshake monitor flags the premature req- edge.
  fifo::FifoConfig cfg = small_cfg();
  sim::Simulation sim(1);
  Hub hub;
  hub.arm(sim);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
  sim.sched().at(8 * gp, [&dut] {
    dut.put_data().set(0x5A);
    dut.put_req().set(true);
  });
  sim.sched().at(8 * gp + 1, [&dut] { dut.put_req().set(false); });
  sim.run_until(12 * gp);
  EXPECT_GT(hub.count(Invariant::kHandshakeOrder), 0u) << hub.to_json();
  Hub::disarm(sim);
}

// Accelerated metastability (the fault suite's soak, shortened). The
// synchronizer reports kMetastabilityEscape on two distinct events: an
// injected resolution that blows the final stage's slack threshold (only
// possible when the faulted front stage IS the final stage, i.e. depth 1),
// and a late-settling front stage landing inside the rear stage's sampling
// window (the "escaped final stage" diagnostic; possible at any depth but
// far rarer than the depth-1 flood). The tests below pin both: depth 1's
// monitor count equals the plan's injected-escape count, depth 2 filters
// every injected escape and only the rare rear-stage window hits remain.
struct MetaSoak {
  std::uint64_t monitor_escapes = 0;   ///< hub count(kMetastabilityEscape)
  std::uint64_t injected_escapes = 0;  ///< plan count("meta.escape")
};

MetaSoak run_meta_soak(unsigned depth) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  cfg.sync.depth = depth;
  cfg.sync.mode = sync::MetaMode::kStochastic;
  sim::Simulation sim(0x1EAF);
  Hub hub;
  hub.set_policy(Policy::kCount);  // soak: bounded memory
  hub.arm(sim);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = pp * 107 / 97 + 3;
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
  sim::FaultPlan plan(0x1EAF);
  const sim::MetaFault front{4.0, 15.0, 0.5,
                             sync::stage_slack({1, pp, 0, cfg.dm})};
  sim::MetaFault front_get = front;
  front_get.escape_threshold = sync::stage_slack({1, gp, 0, cfg.dm});
  plan.inject_meta("fullSync.ff0", front);
  plan.inject_meta("Sync.ff0", front_get);
  sim.arm_faults(&plan);
  bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                         dut.full(), cfg.dm, {1.0, 1}, 0xFF);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {0.85, 1});
  sim.run_until(4 * pp + 6000 * pp);
  sim.arm_faults(nullptr);
  MetaSoak r;
  r.monitor_escapes = hub.count(Invariant::kMetastabilityEscape);
  r.injected_escapes = plan.count("meta.escape");
  Hub::disarm(sim);
  return r;
}

const MetaSoak& meta_soak(unsigned depth) {
  static const MetaSoak d1 = run_meta_soak(1);
  static const MetaSoak d2 = run_meta_soak(2);
  return depth == 1 ? d1 : d2;
}

TEST(MonitorClosure, DepthOneMetaEscapesBecomeViolations) {
  const MetaSoak& r = meta_soak(1);
  // Every injected threshold escape surfaces as a monitor violation, and at
  // depth 1 (front stage == final stage) there is no other escape source.
  EXPECT_GT(r.injected_escapes, 0u);
  EXPECT_EQ(r.monitor_escapes, r.injected_escapes);
}

TEST(MonitorClosure, DepthTwoFiltersTheInjectedEscapes) {
  const MetaSoak& r = meta_soak(2);
  // The rear stage runs at nominal tau and carries no fault: not one
  // injected threshold escape survives the extra stage.
  EXPECT_EQ(r.injected_escapes, 0u);
  // What the monitor still sees are the rare stretched-tau resolutions that
  // land inside the rear stage's own sampling window -- an order of
  // magnitude fewer findings than the depth-1 flood.
  EXPECT_LT(2 * r.monitor_escapes, meta_soak(1).monitor_escapes);
}

TEST(MonitorClosure, InjectedClockDriftTripsThePeriodMonitor) {
  sim::Simulation sim(1);
  Hub hub;
  hub.arm(sim);
  sim::FaultPlan plan(1);
  plan.inject_clock("clk", sim::ClockFault{0, 1.5});  // +50% drift
  sim.arm_faults(&plan);
  sync::Clock clk(sim, "clk", {1000, 0, 0.5, 0});
  sim.run_until(20'000);
  EXPECT_GT(hub.count(Invariant::kClockPeriod), 0u) << hub.to_json();
  sim.arm_faults(nullptr);
  Hub::disarm(sim);
}

TEST(MonitorClosure, ConfiguredJitterStaysInsideTheEnvelope) {
  sim::Simulation sim(1);
  Hub hub;
  hub.arm(sim);
  // Nominal jitter never leaves the configured band: the tolerance is
  // max(jitter, 1% of nominal), so an unfaulted jittery clock is silent.
  sync::Clock clk(sim, "clk", {1000, 0, 0.5, 100});
  sim.run_until(50'000);
  EXPECT_EQ(hub.count(Invariant::kClockPeriod), 0u) << hub.to_json();
  Hub::disarm(sim);
}

}  // namespace
}  // namespace mts::verify
