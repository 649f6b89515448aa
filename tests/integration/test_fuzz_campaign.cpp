// Randomized configuration campaign: many FIFO configurations drawn from a
// seeded generator (capacity, width, clock ratio, traffic rates, sync
// depth), each run briefly and held to the core invariants. Complements
// the hand-picked parameter sweeps with breadth.
//
// Every trial's full parameter set (including its per-trial seed) is in the
// SCOPED_TRACE, so a failure message is its own repro recipe: rerun the
// printed gtest filter -- the campaign generators are seeded with the
// constants below and are fully deterministic.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <vector>

#include "bfm/bfm.hpp"
#include "fifo/fifo.hpp"
#include "lip/chain.hpp"
#include "metrics/cover.hpp"
#include "sim/campaign.hpp"
#include "sync/clock.hpp"

namespace mts {
namespace {

using sim::Time;

/// Worker count for the parallelized campaigns: MTS_CAMPAIGN_JOBS if set
/// (the determinism suite pins it), otherwise 4 -- enough to exercise the
/// pool even on small CI hosts, cheap enough to oversubscribe one core.
unsigned campaign_jobs() {
  if (const char* e = std::getenv("MTS_CAMPAIGN_JOBS")) {
    const unsigned long v = std::strtoul(e, nullptr, 10);
    if (v > 0 && v < 256) return static_cast<unsigned>(v);
  }
  return 4;
}

struct FuzzCase {
  unsigned capacity;
  unsigned width;
  double ratio;
  double put_rate;
  double get_rate;
  unsigned depth;
  std::uint64_t seed;
};

FuzzCase draw(std::mt19937_64& rng) {
  const unsigned caps[] = {2, 3, 4, 5, 6, 8, 12, 16, 24};
  const unsigned widths[] = {1, 4, 8, 13, 16, 32, 64};
  std::uniform_real_distribution<double> ratio_dist(0.9, 2.6);
  std::uniform_real_distribution<double> rate_dist(0.2, 1.0);
  FuzzCase c;
  c.capacity = caps[rng() % std::size(caps)];
  c.width = widths[rng() % std::size(widths)];
  c.ratio = ratio_dist(rng);
  c.put_rate = rate_dist(rng);
  c.get_rate = rate_dist(rng);
  // Deeper synchronizers need wider anticipation windows, which need
  // capacity headroom (FifoConfig::validate enforces this).
  c.depth = 2 + static_cast<unsigned>(rng() % 2);  // 2 or 3
  if (c.capacity <= c.depth) c.depth = 2;
  c.seed = rng();
  return c;
}

std::uint64_t mask_of(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

TEST(FuzzCampaign, FortyRandomMixedClockConfigsHoldInvariants) {
  std::mt19937_64 rng(20260707);
  for (int trial = 0; trial < 40; ++trial) {
    const FuzzCase c = draw(rng);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": cap=" << c.capacity
                 << " w=" << c.width << " ratio=" << c.ratio
                 << " p=" << c.put_rate << " g=" << c.get_rate
                 << " depth=" << c.depth << " seed=" << c.seed);

    fifo::FifoConfig cfg;
    cfg.capacity = c.capacity;
    cfg.width = c.width;
    cfg.sync.depth = c.depth;

    sim::Simulation sim(c.seed);
    const Time pp = fifo::SyncPutSide::min_period(cfg) * 5 / 4;
    const Time gp = static_cast<Time>(
        c.ratio * static_cast<double>(fifo::SyncGetSide::min_period(cfg)) *
        1.25);
    sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
    sync::Clock cg(sim, "cg", {gp, 4 * pp + (c.seed % gp), 0.5, 0});
    fifo::MixedClockFifo dut(sim, "dut", cfg, cp.out(), cg.out());
    bfm::Scoreboard sb(sim, "sb");
    bfm::PutMonitor pm(sim, cp.out(), dut.en_put(), dut.req_put(),
                       dut.data_put(), sb);
    bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
    bfm::SyncPutDriver put(sim, "put", cp.out(), dut.req_put(), dut.data_put(),
                           dut.full(), cfg.dm, {c.put_rate, 1},
                           mask_of(c.width));
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {c.get_rate, 1});

    sim.run_until(4 * pp + 250 * pp);
    EXPECT_EQ(sb.errors(), 0u);
    EXPECT_EQ(dut.overflow_count(), 0u);
    EXPECT_EQ(dut.underflow_count(), 0u);
    EXPECT_EQ(dut.put_domain().violations(), 0u);
    EXPECT_EQ(dut.get_domain().violations(), 0u);
    // Conservation with at most one get in flight at the snapshot instant
    // (its cell already reads empty but the pop lands at the next edge).
    EXPECT_GE(sb.pushed(), sb.popped() + dut.occupancy());
    EXPECT_LE(sb.pushed(), sb.popped() + dut.occupancy() + 1);
  }
}

struct RelayFuzzCase {
  unsigned capacity;
  unsigned left;   // SRS/ARS chain length on the producer side
  unsigned right;  // SRS chain length on the consumer side
  double ratio;
  double valid_rate;
  double stall_rate;  // the sink's random stop duty cycle
  bool pause;         // pause the source mid-run so the link drains
  std::uint64_t seed;
};

RelayFuzzCase draw_relay(std::mt19937_64& rng) {
  const unsigned caps[] = {4, 6, 8};
  std::uniform_real_distribution<double> ratio_dist(0.9, 1.6);
  std::uniform_real_distribution<double> valid_dist(0.4, 1.0);
  std::uniform_real_distribution<double> stall_dist(0.05, 0.7);
  RelayFuzzCase c;
  c.capacity = caps[rng() % std::size(caps)];
  c.left = static_cast<unsigned>(rng() % 5);
  c.right = static_cast<unsigned>(rng() % 5);
  c.ratio = ratio_dist(rng);
  c.valid_rate = valid_dist(rng);
  c.stall_rate = stall_dist(rng);
  c.pause = (rng() & 1) != 0;
  c.seed = rng();
  return c;
}

// One relay-chain fuzz trial: trials [0, kMcTrials) drive the mixed-clock
// link (Fig. 11a), the rest the async-sync link (Fig. 14). Coverage bins
// land in the run's ctx.coverage(); invariants are recorded
// as RunResult scalars and asserted by the caller after the campaign
// joins (gtest EXPECTs are not thread-safe inside pool bodies).
constexpr std::size_t kMcTrials = 12;
constexpr std::size_t kAsTrials = 8;

void run_relay_trial(sim::CampaignContext& ctx, const RelayFuzzCase& c) {
  metrics::Coverage& cov = ctx.coverage();
  fifo::FifoConfig cfg;
  cfg.capacity = c.capacity;
  cfg.width = 8;
  cfg.controller = fifo::ControllerKind::kRelayStation;

  // The trial's stochastic identity is its pre-drawn seed, not the
  // campaign-derived one: reseeding keeps every trial bit-identical to the
  // historical sequential loop while still reusing the worker's arenas.
  sim::Simulation& sim = ctx.sim();
  sim.reset(c.seed);

  if (ctx.spec().index < kMcTrials) {
    const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
    const Time gp = static_cast<Time>(
        c.ratio * 2.0 * static_cast<double>(fifo::SyncGetSide::min_period(cfg)));
    sync::Clock cp(sim, "cp", {pp, 4 * pp, 0.5, 0});
    sync::Clock cg(sim, "cg", {gp, 4 * pp + (c.seed % gp), 0.5, 0});
    lip::MixedClockLink link(sim, "link", cfg, cp.out(), cg.out(), c.left,
                             c.right);
    bfm::Scoreboard sb(sim, "sb");
    bfm::RsSource src(sim, "src", cp.out(), link.data_in(), link.valid_in(),
                      link.stop_out(), cfg.dm, c.valid_rate, 0xFF, sb);
    bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                     link.stop_in(), cfg.dm, c.stall_rate, sb);
    metrics::cover_stall_valid(cov, "mc", cg.out(), link.valid_out(),
                               link.stop_in());
    metrics::cover_fifo(cov, "mcrs", link.mcrs());
    if (c.pause) {
      sim.sched().at(4 * pp + 500 * pp, [&src] { src.set_enabled(false); });
      sim.sched().at(4 * pp + 700 * pp, [&src] { src.set_enabled(true); });
    }
    sim.run_until(4 * pp + 900 * pp);
    ctx.set("errors", static_cast<double>(sb.errors()));
    ctx.set("overflow", static_cast<double>(link.mcrs().overflow_count()));
    ctx.set("underflow",
            static_cast<double>(link.mcrs().underflow_count()));
    ctx.set("received", static_cast<double>(sink.received_valid()));
  } else {
    const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
    sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
    lip::AsyncSyncLink link(sim, "link", cfg, cg.out(), c.left % 4, c.right);
    bfm::Scoreboard sb(sim, "sb");
    // The put gap maps the valid rate onto the 4-phase handshake: rate 1.0
    // is back-to-back, lower rates open gaps so the link also drains (oe).
    const Time gap =
        static_cast<Time>((1.0 - c.valid_rate) * 4.0 * static_cast<double>(gp));
    bfm::AsyncPutDriver put(sim, "put", link.put_req(), link.put_ack(),
                            link.put_data(), cfg.dm, gap, 0xFF, &sb);
    bfm::RsSink sink(sim, "sink", cg.out(), link.data_out(), link.valid_out(),
                     link.stop_in(), cfg.dm, c.stall_rate, sb);
    metrics::cover_stall_valid(cov, "as", cg.out(), link.valid_out(),
                               link.stop_in());
    metrics::cover_fifo(cov, "asrs", link.asrs());
    sim.run_until(4 * gp + 900 * gp);
    ctx.set("errors", static_cast<double>(sb.errors()));
    ctx.set("overflow", 0.0);
    ctx.set("underflow", 0.0);
    ctx.set("received", static_cast<double>(sink.received_valid()));
  }
}

TEST(FuzzCampaign, RelayChainTopologiesHoldInvariantsAndCoverEveryBin) {
  // Fig. 11a / Fig. 14 topology mixes: SRS chains of random length on both
  // sides of the MCRS, and ARS chains feeding the ASRS, under random valid
  // rates and random stop duty cycles, fanned across a sim::Campaign
  // worker pool. The trials are pre-drawn from the historical RNG stream
  // on this thread, so the case list is byte-for-byte the old sequential
  // one regardless of worker count. Coverage from every trial folds into
  // merged_coverage() (shared bin prefixes); the campaign as a
  // whole must reach every detector transition, both token-ring wraps and
  // all four stall x valid combinations on both link flavours.
  std::mt19937_64 rng(20260806);
  std::vector<RelayFuzzCase> cases;
  for (std::size_t i = 0; i < kMcTrials + kAsTrials; ++i) {
    cases.push_back(draw_relay(rng));
  }

  sim::CampaignOptions opt;
  opt.workers = campaign_jobs();
  opt.seed = 20260806;
  sim::Campaign campaign(cases.size(), 1, opt);
  campaign.run([&](sim::CampaignContext& ctx) {
    run_relay_trial(ctx, cases[ctx.spec().index]);
  });
  const metrics::Coverage& cov = campaign.merged_coverage();

  ASSERT_EQ(campaign.failed(), 0u);
  for (const sim::RunResult& r : campaign.results()) {
    const RelayFuzzCase& c = cases[r.index];
    const bool mc = r.index < kMcTrials;
    SCOPED_TRACE(::testing::Message()
                 << (mc ? "mc" : "as") << " trial " << r.index
                 << ": cap=" << c.capacity << " left=" << c.left
                 << " right=" << c.right << " ratio=" << c.ratio
                 << " v=" << c.valid_rate << " st=" << c.stall_rate
                 << " pause=" << c.pause << " seed=" << c.seed);
    EXPECT_EQ(r.scalars.at("errors"), 0.0);
    EXPECT_EQ(r.scalars.at("overflow"), 0.0);
    EXPECT_EQ(r.scalars.at("underflow"), 0.0);
    EXPECT_GT(r.scalars.at("received"), mc ? 50.0 : 30.0);
  }

  EXPECT_TRUE(cov.all_hit()) << cov.summary();
  // The rings really cycled, on both link flavours.
  EXPECT_GT(cov.hits("mcrs.ptok.wrap"), 10u);
  EXPECT_GT(cov.hits("asrs.ptok.wrap"), 10u);
  EXPECT_GT(cov.hits("mc.sv.stall"), 10u);
  EXPECT_GT(cov.hits("as.sv.stall"), 10u);
}

TEST(FuzzCampaign, TwentyRandomAsyncSyncConfigsHoldInvariants) {
  std::mt19937_64 rng(19700101);
  for (int trial = 0; trial < 20; ++trial) {
    const FuzzCase c = draw(rng);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": cap=" << c.capacity
                 << " w=" << c.width << " g=" << c.get_rate
                 << " seed=" << c.seed);

    fifo::FifoConfig cfg;
    cfg.capacity = c.capacity;
    cfg.width = c.width;
    cfg.sync.depth = c.depth;

    sim::Simulation sim(c.seed);
    const Time gp = fifo::SyncGetSide::min_period(cfg) * 5 / 4;
    sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
    fifo::AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
    bfm::Scoreboard sb(sim, "sb");
    const Time gap =
        static_cast<Time>((1.0 - c.put_rate) * 2.0 * static_cast<double>(gp));
    bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                            dut.put_data(), cfg.dm, gap, mask_of(c.width),
                            &sb);
    bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                           {c.get_rate, 1});
    bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);

    sim.run_until(4 * gp + 250 * gp);
    EXPECT_EQ(sb.errors(), 0u);
    EXPECT_EQ(dut.overflow_count(), 0u);
    EXPECT_EQ(dut.underflow_count(), 0u);
    EXPECT_EQ(dut.get_domain().violations(), 0u);
  }
}

}  // namespace
}  // namespace mts
