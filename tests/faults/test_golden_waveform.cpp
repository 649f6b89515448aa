// Golden-waveform regression for the Fig. 3 protocol traces.
//
// Reproduces the exact circuits bench_fig3_protocols builds, dumps their
// VCDs and compares an FNV-1a hash of the bytes against committed golden
// values. This pins two things at once:
//   1. the Fig. 3 protocol timing itself (any kernel or netlist change
//      that shifts an edge shows up here first), and
//   2. the fault subsystem's zero-cost-when-unarmed contract: a run with
//      an armed but *empty* FaultPlan must be bit-identical too, and
//   3. the monitor read-only contract: a run with an armed verify::Hub
//      (monitors attached, nothing violated) must be bit-identical as well.
//
// Two further traces pin the FIFO designs Fig. 3 does not draw: a
// sync-put/async-get exchange on SyncAsyncFifo and a fully self-timed
// exchange on AsyncAsyncFifo. Together the four traces cover every
// put-part x get-part combination of the shared cell array. Two more pin
// the relay-station controllers (Figs. 13 and 16): MixedClockFifo and
// AsyncSyncFifo in kRelayStation mode under stalling RsSource/RsSink
// traffic, with every interface wire in the trace.
//
// Regenerating the goldens after an INTENDED timing change:
//   ./tests/mts_test_faults --gtest_filter='GoldenWaveform.*' 2>&1 | \
//       grep 'fnv1a='
// then paste the printed hashes into the kGolden*Hash constants below
// (the failure message also prints each value).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

namespace mts {
namespace {

using sim::Time;

// Committed golden hashes of the two Fig. 3 VCD files (FNV-1a 64-bit).
constexpr std::uint64_t kGoldenSyncHash = 0xaf15d04f0b975cfeull;
constexpr std::uint64_t kGoldenAsyncHash = 0xae0703a3183d1ca9ull;
// Golden hashes of the sync-async and async-async traces (FNV-1a 64-bit).
constexpr std::uint64_t kGoldenSyncAsyncHash = 0xce6a5dfc4410d4e0ull;
constexpr std::uint64_t kGoldenAsyncAsyncHash = 0x96cd4bf1d5bede54ull;
// Golden hashes of the MCRS and ASRS traces (FNV-1a 64-bit).
constexpr std::uint64_t kGoldenMcrsHash = 0x22db37919bf14fddull;
constexpr std::uint64_t kGoldenAsrsHash = 0xc796bad858d6a043ull;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The bench's sync_protocols() circuit: two puts, then gets (Fig. 3a/3c).
std::uint64_t sync_vcd_hash(const std::string& path, sim::FaultPlan* plan,
                            verify::Hub* hub = nullptr) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  if (plan != nullptr) sim.arm_faults(plan);
  if (hub != nullptr) hub->arm(sim);  // before the DUT: monitors attach now
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get", {gp, 4 * pp + gp / 2, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "fifo", cfg, cp.out(), cg.out());

  sim::VcdWriter vcd(path);
  vcd.watch(cp.out(), "clk_put");
  vcd.watch(dut.req_put(), "req_put");
  vcd.watch(dut.data_put(), 8, "data_put");
  vcd.watch(dut.full(), "full");
  vcd.watch(cg.out(), "clk_get");
  vcd.watch(dut.req_get(), "req_get");
  vcd.watch(dut.data_get(), 8, "data_get");
  vcd.watch(dut.valid_get(), "valid_get");
  vcd.watch(dut.empty(), "empty");
  vcd.start();

  const Time react = cfg.dm.flop.clk_to_q + 1;
  const Time t0 = 4 * pp + 4 * pp;
  for (int k = 0; k < 2; ++k) {
    sim.sched().at(t0 + static_cast<Time>(k) * pp + react, [&dut, k] {
      dut.data_put().set(0x41 + static_cast<std::uint64_t>(k));
      dut.req_put().set(true);
    });
  }
  sim.sched().at(t0 + 2 * pp + react, [&dut] { dut.req_put().set(false); });
  sim.sched().at(t0 + 4 * pp, [&dut] { dut.req_get().set(true); });
  sim.run_until(t0 + 16 * pp);
  vcd.finish();
  return fnv1a(slurp(path));
}

/// The bench's async_protocol() circuit: 4-phase put handshakes (Fig. 3b).
std::uint64_t async_vcd_hash(const std::string& path, sim::FaultPlan* plan,
                             verify::Hub* hub = nullptr) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  if (plan != nullptr) sim.arm_faults(plan);
  if (hub != nullptr) hub->arm(sim);  // before the DUT: monitors attach now
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "clk_get", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo dut(sim, "fifo", cfg, cg.out());
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 2 * gp, 0xFF, nullptr);

  sim::VcdWriter vcd(path);
  vcd.watch(dut.put_req(), "put_req");
  vcd.watch(dut.put_ack(), "put_ack");
  vcd.watch(dut.put_data(), 8, "put_data");
  vcd.start();
  sim.run_until(10 * gp);
  vcd.finish();
  return fnv1a(slurp(path));
}

/// Sync put, async get: three clocked puts into a FIFO whose 4-phase reader
/// has been waiting on an empty FIFO since reset.
std::uint64_t sync_async_vcd_hash(const std::string& path,
                                  verify::Hub* hub = nullptr) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  if (hub != nullptr) hub->arm(sim);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  fifo::SyncAsyncFifo dut(sim, "fifo", cfg, cp.out());
  bfm::AsyncGetDriver get(sim, "get", dut.get_req(), dut.get_ack(),
                          dut.get_data(), cfg.dm, pp / 2, nullptr);

  sim::VcdWriter vcd(path);
  vcd.watch(cp.out(), "clk_put");
  vcd.watch(dut.req_put(), "req_put");
  vcd.watch(dut.data_put(), 8, "data_put");
  vcd.watch(dut.full(), "full");
  vcd.watch(dut.get_req(), "get_req");
  vcd.watch(dut.get_ack(), "get_ack");
  vcd.watch(dut.get_data(), 8, "get_data");
  vcd.start();

  const Time react = cfg.dm.flop.clk_to_q + 1;
  const Time t0 = 4 * pp + 4 * pp;
  for (int k = 0; k < 3; ++k) {
    sim.sched().at(t0 + static_cast<Time>(k) * pp + react, [&dut, k] {
      dut.data_put().set(0x51 + static_cast<std::uint64_t>(k));
      dut.req_put().set(true);
    });
  }
  sim.sched().at(t0 + 3 * pp + react, [&dut] { dut.req_put().set(false); });
  sim.run_until(t0 + 12 * pp);
  vcd.finish();
  return fnv1a(slurp(path));
}

/// Async put, async get: a paced writer and a slower reader exchanging
/// 4-phase handshakes through a self-timed FIFO.
std::uint64_t async_async_vcd_hash(const std::string& path,
                                   verify::Hub* hub = nullptr) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  if (hub != nullptr) hub->arm(sim);
  fifo::AsyncAsyncFifo dut(sim, "fifo", cfg);
  const Time gap = 4 * cfg.dm.gate(2);
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, gap, 0xFF, nullptr);
  bfm::AsyncGetDriver get(sim, "get", dut.get_req(), dut.get_ack(),
                          dut.get_data(), cfg.dm, 3 * gap, nullptr);

  sim::VcdWriter vcd(path);
  vcd.watch(dut.put_req(), "put_req");
  vcd.watch(dut.put_ack(), "put_ack");
  vcd.watch(dut.put_data(), 8, "put_data");
  vcd.watch(dut.get_req(), "get_req");
  vcd.watch(dut.get_ack(), "get_ack");
  vcd.watch(dut.get_data(), 8, "get_data");
  vcd.start();
  sim.run_until(40 * gap);
  vcd.finish();
  return fnv1a(slurp(path));
}

/// What a relay-station trace exercised, so a pin cannot pass on a trace
/// in which the stall paths never fired.
struct RelayTrace {
  std::uint64_t hash = 0;
  std::uint64_t delivered = 0;
  std::uint64_t errors = 0;
  unsigned stop_out_rises = 0;
  unsigned stop_in_rises = 0;
};

/// Relay-station config of the MCRS/ASRS traces.
fifo::FifoConfig relay_cfg() {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;
  return cfg;
}

/// MCRS (Fig. 12): a source offering a valid packet on 90% of CLK_put
/// cycles into a station whose reader, clocked half as fast again, raises
/// stopIn on 40% of CLK_get cycles -- so stopOut fires too.
RelayTrace mcrs_trace(const std::string& path) {
  const fifo::FifoConfig cfg = relay_cfg();
  sim::Simulation sim(7);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 3 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get", {gp, 4 * pp + gp / 3, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "fifo", cfg, cp.out(), cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::RsSource src(sim, "src", cp.out(), dut.data_put(), dut.req_put(),
                    dut.stop_out(), cfg.dm, 0.9, 0xFF, sb);
  bfm::RsSink sink(sim, "sink", cg.out(), dut.data_get(), dut.valid_get(),
                   dut.stop_in(), cfg.dm, 0.4, sb);
  RelayTrace r;
  dut.stop_out().on_rise([&r] { ++r.stop_out_rises; });
  dut.stop_in().on_rise([&r] { ++r.stop_in_rises; });

  sim::VcdWriter vcd(path);
  vcd.watch(cp.out(), "clk_put");
  vcd.watch(dut.req_put(), "req_put");
  vcd.watch(dut.data_put(), 8, "data_put");
  vcd.watch(dut.stop_out(), "stop_out");
  vcd.watch(cg.out(), "clk_get");
  vcd.watch(dut.req_get(), "req_get");
  vcd.watch(dut.data_get(), 8, "data_get");
  vcd.watch(dut.valid_get(), "valid_get");
  vcd.watch(dut.empty(), "empty");
  vcd.watch(dut.stop_in(), "stop_in");
  vcd.start();
  sim.run_until(4 * pp + 80 * pp);
  vcd.finish();
  r.hash = fnv1a(slurp(path));
  r.delivered = sink.received_valid();
  r.errors = sb.errors();
  return r;
}

/// ASRS (Fig. 15): a saturating 4-phase sender into a station whose reader
/// raises stopIn on 40% of CLK_get cycles.
RelayTrace asrs_trace(const std::string& path) {
  const fifo::FifoConfig cfg = relay_cfg();
  sim::Simulation sim(7);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "clk_get", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo dut(sim, "fifo", cfg, cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 0, 0xFF, &sb);
  bfm::RsSink sink(sim, "sink", cg.out(), dut.data_get(), dut.valid_get(),
                   dut.stop_in(), cfg.dm, 0.4, sb);
  RelayTrace r;
  dut.stop_in().on_rise([&r] { ++r.stop_in_rises; });

  sim::VcdWriter vcd(path);
  vcd.watch(dut.put_req(), "put_req");
  vcd.watch(dut.put_ack(), "put_ack");
  vcd.watch(dut.put_data(), 8, "put_data");
  vcd.watch(cg.out(), "clk_get");
  vcd.watch(dut.req_get(), "req_get");
  vcd.watch(dut.data_get(), 8, "data_get");
  vcd.watch(dut.valid_get(), "valid_get");
  vcd.watch(dut.empty(), "empty");
  vcd.watch(dut.stop_in(), "stop_in");
  vcd.start();
  sim.run_until(4 * gp + 60 * gp);
  vcd.finish();
  r.hash = fnv1a(slurp(path));
  r.delivered = sink.received_valid();
  r.errors = sb.errors();
  return r;
}

TEST(GoldenWaveform, Fig3SyncVcdMatchesGolden) {
  const std::uint64_t h = sync_vcd_hash("golden_fig3_sync.vcd", nullptr);
  std::cout << "fnv1a= sync 0x" << std::hex << h << std::dec << "\n";
  EXPECT_EQ(h, kGoldenSyncHash)
      << "fig3_sync.vcd changed: got 0x" << std::hex << h << ", golden 0x"
      << kGoldenSyncHash
      << ". If the timing change is intended, update kGoldenSyncHash (see "
         "the regeneration recipe in this file's header).";
}

TEST(GoldenWaveform, Fig3AsyncVcdMatchesGolden) {
  const std::uint64_t h = async_vcd_hash("golden_fig3_async.vcd", nullptr);
  std::cout << "fnv1a= async 0x" << std::hex << h << std::dec << "\n";
  EXPECT_EQ(h, kGoldenAsyncHash)
      << "fig3_async.vcd changed: got 0x" << std::hex << h << ", golden 0x"
      << kGoldenAsyncHash
      << ". If the timing change is intended, update kGoldenAsyncHash (see "
         "the regeneration recipe in this file's header).";
}

TEST(GoldenWaveform, SyncAsyncVcdMatchesGolden) {
  const std::uint64_t h = sync_async_vcd_hash("golden_sync_async.vcd");
  std::cout << "fnv1a= sync_async 0x" << std::hex << h << std::dec << "\n";
  EXPECT_EQ(h, kGoldenSyncAsyncHash)
      << "golden_sync_async.vcd changed: got 0x" << std::hex << h
      << ", golden 0x" << kGoldenSyncAsyncHash;
}

TEST(GoldenWaveform, AsyncAsyncVcdMatchesGolden) {
  const std::uint64_t h = async_async_vcd_hash("golden_async_async.vcd");
  std::cout << "fnv1a= async_async 0x" << std::hex << h << std::dec << "\n";
  EXPECT_EQ(h, kGoldenAsyncAsyncHash)
      << "golden_async_async.vcd changed: got 0x" << std::hex << h
      << ", golden 0x" << kGoldenAsyncAsyncHash;
}

TEST(GoldenWaveform, McrsVcdMatchesGolden) {
  const RelayTrace r = mcrs_trace("golden_mcrs.vcd");
  std::cout << "fnv1a= mcrs 0x" << std::hex << r.hash << std::dec << "\n";
  EXPECT_EQ(r.hash, kGoldenMcrsHash)
      << "golden_mcrs.vcd changed: got 0x" << std::hex << r.hash
      << ", golden 0x" << kGoldenMcrsHash;
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.delivered, 10u);
  EXPECT_GT(r.stop_out_rises, 0u);
  EXPECT_GT(r.stop_in_rises, 0u);
}

TEST(GoldenWaveform, AsrsVcdMatchesGolden) {
  const RelayTrace r = asrs_trace("golden_asrs.vcd");
  std::cout << "fnv1a= asrs 0x" << std::hex << r.hash << std::dec << "\n";
  EXPECT_EQ(r.hash, kGoldenAsrsHash)
      << "golden_asrs.vcd changed: got 0x" << std::hex << r.hash
      << ", golden 0x" << kGoldenAsrsHash;
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.delivered, 10u);
  EXPECT_GT(r.stop_in_rises, 0u);
}

TEST(GoldenWaveform, ArmedButEmptyPlanIsBitIdentical) {
  // The zero-cost contract: arming a plan with no registered faults must
  // not move a single edge in either trace.
  sim::FaultPlan empty_sync(999);
  sim::FaultPlan empty_async(999);
  EXPECT_EQ(sync_vcd_hash("golden_fig3_sync_armed.vcd", &empty_sync),
            kGoldenSyncHash);
  EXPECT_EQ(async_vcd_hash("golden_fig3_async_armed.vcd", &empty_async),
            kGoldenAsyncHash);
}

TEST(GoldenWaveform, ArmedUnmatchedSitesAreBitIdentical) {
  // Faults registered against sites that do not exist in the circuit must
  // also leave the trace untouched (site matching, not arming, gates every
  // effect). The plan's own RNG absorbs all fault draws, so even a matched
  // ClockFault with neutral parameters would not consume simulation
  // entropy -- but neutral-parameter identity is pinned by the unit tests;
  // here the sites simply never match.
  sim::FaultPlan plan(1234);
  plan.inject_meta("noSuchSync", sim::MetaFault{8.0, 8.0, 0.9, 10});
  plan.inject_clock("noSuchClock", sim::ClockFault{500, 1.5});
  plan.inject_bundling("noSuchDriver", sim::BundlingFault{99999});
  sim::FaultPlan plan2(1234);
  plan2.inject_bundling("noSuchDriver", sim::BundlingFault{99999});
  EXPECT_EQ(sync_vcd_hash("golden_fig3_sync_unmatched.vcd", &plan),
            kGoldenSyncHash);
  EXPECT_EQ(async_vcd_hash("golden_fig3_async_unmatched.vcd", &plan2),
            kGoldenAsyncHash);
}

TEST(GoldenWaveform, ArmedMonitorHubIsBitIdentical) {
  // The monitor read-only contract: a full set of attached protocol
  // monitors observing a clean run must not move a single edge. These are
  // the real Fig. 3 circuits with every FIFO-side checker live (token
  // rings, detectors, handshake and stream monitors, clock monitors).
  verify::Hub sync_hub;
  EXPECT_EQ(sync_vcd_hash("golden_fig3_sync_monitored.vcd", nullptr,
                          &sync_hub),
            kGoldenSyncHash);
  EXPECT_EQ(sync_hub.total(), 0u) << sync_hub.to_json();

  verify::Hub async_hub;
  EXPECT_EQ(async_vcd_hash("golden_fig3_async_monitored.vcd", nullptr,
                           &async_hub),
            kGoldenAsyncHash);
  EXPECT_EQ(async_hub.total(), 0u) << async_hub.to_json();

  verify::Hub sync_async_hub;
  EXPECT_EQ(sync_async_vcd_hash("golden_sync_async_monitored.vcd",
                                &sync_async_hub),
            kGoldenSyncAsyncHash);
  EXPECT_EQ(sync_async_hub.total(), 0u) << sync_async_hub.to_json();

  verify::Hub async_async_hub;
  EXPECT_EQ(async_async_vcd_hash("golden_async_async_monitored.vcd",
                                 &async_async_hub),
            kGoldenAsyncAsyncHash);
  EXPECT_EQ(async_async_hub.total(), 0u) << async_async_hub.to_json();
}

}  // namespace
}  // namespace mts
