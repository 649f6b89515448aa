// Golden equivalence: the elaborator's headline guarantee is that a
// declarative design is BIT-IDENTICAL to the same primitives hand-wired in
// the same order -- elaboration adds no events, draws no RNG, and renames
// nothing that matters.
//
// Three proofs, in increasing size:
//   1. the Fig. 3 protocol circuits, rebuilt through builder::Design, hash
//      to the SAME committed goldens as the hand-wired circuits in
//      tests/faults/test_golden_waveform.cpp;
//   2. the Fig. 14 SoC (async producer -> ASRS link -> repeater -> MCRS
//      link -> stalling sink) elaborated vs hand-wired, full-boundary VCD
//      hash equality on one Simulation seed;
//   3. a campaign sweeping an elaborated design is byte-identical between
//      1 and 4 workers, design-JSON artifacts included;
//   4. one design that generates every source and sink row of the endpoint
//      table hashes to a committed golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "builder/builder.hpp"
#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"
#include "lip/chain.hpp"
#include "sim/campaign.hpp"
#include "sim/trace.hpp"

namespace mts {
namespace {

using builder::Design;
using builder::DomainId;
using builder::EdgeId;
using builder::LinkOptions;
using builder::NodeId;
using sim::Time;

// The committed Fig. 3 goldens -- the SAME constants as
// tests/faults/test_golden_waveform.cpp pins for the hand-wired circuits.
constexpr std::uint64_t kGoldenSyncHash = 0xaf15d04f0b975cfeull;
constexpr std::uint64_t kGoldenAsyncHash = 0xae0703a3183d1ca9ull;

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

// ---------------------------------------------------------------------------
// 1. Fig. 3 circuits through the builder, against the committed goldens.
// ---------------------------------------------------------------------------

TEST(BuilderGolden, Fig3SyncElaboratesToGoldenWaveform) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);

  Design d("fig3_sync");
  const DomainId put_dom = d.domain("clk_put", {pp, 4 * pp, 0.5, 0});
  const DomainId get_dom = d.domain("clk_get", {gp, 4 * pp + gp / 2, 0.5, 0});
  const NodeId prod = d.external("prod", {Design::sync_out("out", put_dom, 8)});
  const NodeId cons = d.external("cons", {Design::sync_in("in", get_dom, 8)});
  LinkOptions opt;
  opt.capacity = 4;
  opt.controller = fifo::ControllerKind::kFifo;
  d.connect(prod, "out", cons, "in", opt, "fifo");
  auto elab = builder::elaborate(sim, d);

  const builder::SyncFifoPut put = elab->fifo_put(prod, "out");
  const builder::SyncFifoGet get = elab->fifo_get(cons, "in");

  sim::VcdWriter vcd("builder_fig3_sync.vcd");
  vcd.watch(elab->clock(put_dom).out(), "clk_put");
  vcd.watch(*put.req_put, "req_put");
  vcd.watch(*put.data_put, 8, "data_put");
  vcd.watch(*put.full, "full");
  vcd.watch(elab->clock(get_dom).out(), "clk_get");
  vcd.watch(*get.req_get, "req_get");
  vcd.watch(*get.data_get, 8, "data_get");
  vcd.watch(*get.valid_get, "valid_get");
  vcd.watch(*get.empty, "empty");
  vcd.start();

  const Time react = cfg.dm.flop.clk_to_q + 1;
  const Time t0 = 4 * pp + 4 * pp;
  for (int k = 0; k < 2; ++k) {
    sim.sched().at(t0 + static_cast<Time>(k) * pp + react, [put, k] {
      put.data_put->set(0x41 + static_cast<std::uint64_t>(k));
      put.req_put->set(true);
    });
  }
  sim.sched().at(t0 + 2 * pp + react, [put] { put.req_put->set(false); });
  sim.sched().at(t0 + 4 * pp, [get] { get.req_get->set(true); });
  sim.run_until(t0 + 16 * pp);
  vcd.finish();

  const std::uint64_t h = fnv1a(slurp("builder_fig3_sync.vcd"));
  EXPECT_EQ(h, kGoldenSyncHash)
      << "builder-elaborated Fig. 3 sync circuit diverged from the "
         "hand-wired golden: got 0x"
      << std::hex << h;
}

TEST(BuilderGolden, Fig3AsyncElaboratesToGoldenWaveform) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  sim::Simulation sim(1);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);

  // The generated async source IS the bench's AsyncPutDriver (same name,
  // same gap, same mask); its scoreboard records sends without touching
  // the event queue, so the trace must not move by one edge.
  Design d("fig3_async");
  const DomainId get_dom = d.domain("clk_get", {gp, 4 * gp, 0.5, 0});
  const NodeId put = d.source("put", Design::async_out("out", 8),
                              {1.0, /*gap=*/2 * gp, /*mask=*/0xFF});
  const NodeId cons = d.external("cons", {Design::sync_in("in", get_dom, 8)});
  LinkOptions opt;
  opt.capacity = 4;
  opt.controller = fifo::ControllerKind::kFifo;
  const EdgeId e = d.connect(put, "out", cons, "in", opt, "fifo");
  auto elab = builder::elaborate(sim, d);

  const builder::HandshakePort hs = elab->edge(e).head.hs;
  sim::VcdWriter vcd("builder_fig3_async.vcd");
  vcd.watch(*hs.req, "put_req");
  vcd.watch(*hs.ack, "put_ack");
  vcd.watch(*hs.data, 8, "put_data");
  vcd.start();
  sim.run_until(10 * gp);
  vcd.finish();

  const std::uint64_t h = fnv1a(slurp("builder_fig3_async.vcd"));
  EXPECT_EQ(h, kGoldenAsyncHash)
      << "builder-elaborated Fig. 3 async circuit diverged from the "
         "hand-wired golden: got 0x"
      << std::hex << h;
}

// ---------------------------------------------------------------------------
// 2. The Fig. 14 SoC: elaborated vs hand-wired, same seed, same watches.
// ---------------------------------------------------------------------------

struct SocSignals {
  sim::Wire* clk_bus;
  sim::Wire* clk_disp;
  builder::HandshakePort put;
  builder::LiPort bus_side;   // ASRS link output (bus domain)
  builder::LiPort disp_side;  // MCRS link output (display domain)
};

std::uint64_t soc_vcd_hash(const std::string& path, const SocSignals& s,
                           sim::Simulation& sim, Time bus_period) {
  sim::VcdWriter vcd(path);
  vcd.watch(*s.clk_bus, "clk_bus");
  vcd.watch(*s.clk_disp, "clk_display");
  vcd.watch(*s.put.req, "put_req");
  vcd.watch(*s.put.ack, "put_ack");
  vcd.watch(*s.put.data, 16, "put_data");
  vcd.watch(*s.bus_side.valid, "bus_valid");
  vcd.watch(*s.bus_side.stop, "bus_stop");
  vcd.watch(*s.disp_side.data, 16, "disp_data");
  vcd.watch(*s.disp_side.valid, "disp_valid");
  vcd.watch(*s.disp_side.stop, "disp_stop");
  vcd.start();
  sim.run_until(4 * bus_period + 400 * bus_period);
  vcd.finish();
  return fnv1a(slurp(path));
}

void soc_periods(Time& bus_period, Time& disp_period) {
  fifo::FifoConfig probe;
  probe.capacity = 8;
  probe.width = 16;
  const Time base = std::max(fifo::SyncGetSide::min_period(probe),
                             fifo::SyncPutSide::min_period(probe));
  bus_period = base * 5 / 4;
  disp_period = base * 7 / 4;
}

TEST(BuilderGolden, Fig14SocMatchesHandWiredBitForBit) {
  Time bus_period = 0, disp_period = 0;
  soc_periods(bus_period, disp_period);

  fifo::FifoConfig link_cfg;  // what edge_fifo_config() derives per edge
  link_cfg.capacity = 8;
  link_cfg.width = 16;
  link_cfg.controller = fifo::ControllerKind::kRelayStation;

  // --- builder version --------------------------------------------------
  std::uint64_t built_hash = 0;
  {
    sim::Simulation sim(11);
    Design d("soc");
    const DomainId bus_dom =
        d.domain("clk_bus", {bus_period, 4 * bus_period, 0.5, 0});
    const DomainId disp_dom =
        d.domain("clk_display", {disp_period, 4 * disp_period, 0.5, 0});
    const NodeId sensor =
        d.source("sensor", Design::async_out("out", 16), {1.0, 0, 0xFFFF});
    const NodeId glue = d.repeater("glue", bus_dom, 16);
    const NodeId display =
        d.sink("display", Design::sync_in("in", disp_dom, 16), {0.2});
    LinkOptions fuse_opt;
    fuse_opt.capacity = 8;
    fuse_opt.latency_left = 3;
    fuse_opt.latency_right = 3;
    const EdgeId fuse = d.connect(sensor, "out", glue, "in", fuse_opt, "fuse");
    LinkOptions cross_opt;
    cross_opt.capacity = 8;
    cross_opt.latency_left = 1;
    cross_opt.latency_right = 2;
    const EdgeId cross =
        d.connect(glue, "out", display, "in", cross_opt, "cross");
    auto elab = builder::elaborate(sim, d);

    SocSignals s;
    s.clk_bus = &elab->clock(bus_dom).out();
    s.clk_disp = &elab->clock(disp_dom).out();
    s.put = elab->edge(fuse).head.hs;
    s.bus_side = elab->edge(fuse).tail.li;
    s.disp_side = elab->edge(cross).tail.li;
    built_hash = soc_vcd_hash("builder_soc.vcd", s, sim, bus_period);
    EXPECT_EQ(elab->total_order_violations(), 0u);
    EXPECT_GT(elab->sink_received(display), 50u);
  }

  // --- hand-wired version, in the elaborator's construction order -------
  std::uint64_t hand_hash = 0;
  {
    sim::Simulation sim(11);
    sync::Clock clk_bus(sim, "clk_bus",
                        {bus_period, 4 * bus_period, 0.5, 0});
    sync::Clock clk_disp(sim, "clk_display",
                         {disp_period, 4 * disp_period, 0.5, 0});
    lip::AsyncSyncLink fuse(sim, "fuse", link_cfg, clk_bus.out(), 3, 3);
    lip::MixedClockLink cross(sim, "cross", link_cfg, clk_bus.out(),
                              clk_disp.out(), 1, 2);
    bfm::Scoreboard sb(sim, "sensor.sb");
    bfm::AsyncPutDriver sensor(sim, "sensor", fuse.put_req(), fuse.put_ack(),
                               fuse.put_data(), link_cfg.dm, 0, 0xFFFF, &sb);
    gates::Netlist nl(sim, "");
    const Time delay = link_cfg.dm.gate(1);
    nl.add<gates::WordBuf>(sim, "glue.d", fuse.data_out(), cross.data_in(),
                           delay);
    gates::gate_into(nl, "glue.v", gates::GateOp::kBuf, {&fuse.valid_out()},
                     cross.valid_in(), delay);
    gates::gate_into(nl, "glue.s", gates::GateOp::kBuf, {&cross.stop_out()},
                     fuse.stop_in(), delay);
    bfm::RsSink display(sim, "display", clk_disp.out(), cross.data_out(),
                        cross.valid_out(), cross.stop_in(), link_cfg.dm, 0.2,
                        sb);

    SocSignals s;
    s.clk_bus = &clk_bus.out();
    s.clk_disp = &clk_disp.out();
    s.put = {&fuse.put_req(), &fuse.put_ack(), &fuse.put_data()};
    s.bus_side = {&fuse.data_out(), &fuse.valid_out(), &fuse.stop_in()};
    s.disp_side = {&cross.data_out(), &cross.valid_out(), &cross.stop_in()};
    hand_hash = soc_vcd_hash("handwired_soc.vcd", s, sim, bus_period);
    EXPECT_EQ(sb.errors(), 0u);
  }

  EXPECT_EQ(built_hash, hand_hash)
      << "elaborate() is contracted to add no events and draw no RNG: the "
         "builder SoC and the hand-wired SoC must be bit-identical";
}

// ---------------------------------------------------------------------------
// 3. Elaborated designs under the campaign engine: worker-count invariant.
// ---------------------------------------------------------------------------

std::string run_builder_campaign(unsigned workers) {
  sim::CampaignOptions opt;
  opt.workers = workers;
  opt.seed = 0xB11D;
  sim::Campaign campaign(/*configs=*/2, /*reps=*/2, opt);

  campaign.run([](sim::CampaignContext& ctx) {
    fifo::FifoConfig probe;
    probe.capacity = 4;
    probe.width = 8;
    const Time p = 2 * std::max(fifo::SyncPutSide::min_period(probe),
                                fifo::SyncGetSide::min_period(probe));
    const double stall = 0.1 * static_cast<double>(ctx.spec().config);

    Design d("camp");
    const DomainId a = d.domain("fast", {p, 4 * p, 0.5, 0});
    const DomainId b = d.domain("slow", {p * 13 / 8, 4 * p + 89, 0.5, 0});
    const NodeId src = d.source("src", Design::sync_out("out", a, 8));
    const NodeId snk = d.sink("snk", Design::sync_in("in", b, 8), {stall});
    LinkOptions link;
    link.capacity = 4;
    link.latency_left = 1;
    d.connect(src, "out", snk, "in", link, "cdc");

    sim::Simulation& sim = ctx.sim();
    auto elab = builder::elaborate(sim, d);
    sim.run_until(4 * p + 500 * p);

    ctx.set("sent", static_cast<double>(elab->source_sent(src)));
    ctx.set("received", static_cast<double>(elab->sink_received(snk)));
    ctx.set("violations",
            static_cast<double>(elab->total_order_violations()));
    // The topology fingerprint rides in the repro artifact slot.
    ctx.result().artifact = elab->to_json();
  });

  EXPECT_EQ(campaign.failed(), 0u);
  for (const sim::RunResult& r : campaign.results()) {
    EXPECT_EQ(r.scalars.at("violations"), 0.0) << "run " << r.index;
    EXPECT_GT(r.scalars.at("received"), 100.0) << "run " << r.index;
    EXPECT_NE(r.artifact.find("\"inserted\""), std::string::npos);
  }
  return campaign.to_json(/*include_host_stats=*/false);
}

TEST(BuilderGolden, ElaboratedCampaignIsWorkerCountInvariant) {
  const std::string seq = run_builder_campaign(1);
  const std::string par = run_builder_campaign(4);
  EXPECT_EQ(seq, par);
}

// ---------------------------------------------------------------------------
// 4. Generated endpoints: every source and sink row of the endpoint table.
// ---------------------------------------------------------------------------

// Recorded on the design below; any change to which BFMs a generated node
// gets, how they are wired or the order they are built in moves it.
constexpr std::uint64_t kGoldenEndpointsHash = 0x1e9ae6b3c6e03cbbull;

// Registers every wire of one edge boundary under `name`.
void watch_endpoint(sim::VcdWriter& vcd, const builder::Endpoint& ep,
                    const std::string& name, unsigned width) {
  switch (ep.style) {
    case builder::EndpointStyle::kLi:
      vcd.watch(*ep.li.data, width, name + ".data");
      vcd.watch(*ep.li.valid, name + ".valid");
      vcd.watch(*ep.li.stop, name + ".stop");
      break;
    case builder::EndpointStyle::kHandshake:
      vcd.watch(*ep.hs.req, name + ".req");
      vcd.watch(*ep.hs.ack, name + ".ack");
      vcd.watch(*ep.hs.data, width, name + ".data");
      break;
    case builder::EndpointStyle::kFifoPut:
      vcd.watch(*ep.fput.req_put, name + ".req_put");
      vcd.watch(*ep.fput.data_put, width, name + ".data_put");
      vcd.watch(*ep.fput.full, name + ".full");
      vcd.watch(*ep.fput.en_put, name + ".en_put");
      break;
    case builder::EndpointStyle::kFifoGet:
      vcd.watch(*ep.fget.req_get, name + ".req_get");
      vcd.watch(*ep.fget.data_get, width, name + ".data_get");
      vcd.watch(*ep.fget.valid_get, name + ".valid_get");
      vcd.watch(*ep.fget.empty, name + ".empty");
      vcd.watch(*ep.fget.stop_in, name + ".stop_in");
      break;
  }
}

TEST(BuilderGolden, GeneratedEndpointsMatchGolden) {
  fifo::FifoConfig probe;
  probe.capacity = 4;
  probe.width = 8;
  const Time p = 2 * std::max(fifo::SyncPutSide::min_period(probe),
                              fifo::SyncGetSide::min_period(probe));

  sim::Simulation sim(5);
  Design d("endpoints");
  const DomainId a = d.domain("clk_a", {p, 4 * p, 0.5, 0});
  const DomainId b = d.domain("clk_b", {p * 13 / 8, 4 * p + 89, 0.5, 0});
  const DomainId c = d.domain("clk_c", {p * 7 / 5, 4 * p + 211, 0.5, 0});

  LinkOptions fifo_link;
  fifo_link.capacity = 4;
  fifo_link.controller = fifo::ControllerKind::kFifo;
  LinkOptions relay_link;
  relay_link.capacity = 4;
  relay_link.latency_left = 1;
  relay_link.latency_right = 2;

  // Sync rates and stalls are dyadic so that a rate and its complement
  // are both exact.
  const builder::SourceAttrs sync_src{0.75, 0, 0xFF};
  const builder::SinkAttrs sync_snk{0.25};
  std::vector<NodeId> sinks;
  std::vector<EdgeId> edges;
  const auto pair = [&](const std::string& name, const builder::PortDecl& out,
                        const builder::SourceAttrs& sa,
                        const builder::PortDecl& in,
                        const builder::SinkAttrs& ka, const LinkOptions& opt) {
    const NodeId src = d.source(name + "_src", out, sa);
    const NodeId snk = d.sink(name + "_snk", in, ka);
    edges.push_back(d.connect(src, "out", snk, "in", opt, name));
    sinks.push_back(snk);
  };
  // FIFO ports on both sides (PutMonitor/SyncPutDriver, GetMonitor/
  // SyncGetDriver).
  pair("mc", Design::sync_out("out", a, 8), sync_src,
       Design::sync_in("in", b, 8), sync_snk, fifo_link);
  // Handshake put (AsyncPutDriver) into a FIFO get port.
  pair("as", Design::async_out("out", 8), {1.0, 700, 0xFF},
       Design::sync_in("in", c, 8), sync_snk, fifo_link);
  // FIFO put port into a pull handshake (AsyncGetDriver).
  pair("sa", Design::sync_out("out", b, 8), sync_src,
       Design::async_in("in", 8), {0.0, 500}, fifo_link);
  // Handshakes on both sides of the token-ring FIFO.
  pair("aa", Design::async_out("out", 8), {1.0, 0, 0xFF},
       Design::async_in("in", 8), {0.0, 900}, fifo_link);
  // MCRS link with latency: RsSource into RsSink.
  pair("mcrs", Design::sync_out("out", a, 8), sync_src,
       Design::sync_in("in", c, 8), sync_snk, relay_link);
  // Micropipeline: its output is push-style (AsyncAckSink).
  pair("pipe", Design::async_out("out", 8), {1.0, 300, 0xFF},
       Design::async_in("in", 8), {0.0, 400}, relay_link);

  auto elab = builder::elaborate(sim, d);
  const std::vector<builder::Primitive> want = {
      builder::Primitive::kMixedClockFifo, builder::Primitive::kAsyncSyncFifo,
      builder::Primitive::kSyncAsyncFifo, builder::Primitive::kAsyncAsyncFifo,
      builder::Primitive::kMixedClockFifo, builder::Primitive::kMicropipeline};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(elab->edge(edges[i]).primitive, want[i]) << "edge " << i;
  }

  const std::string path = ::testing::TempDir() + "mts_builder_endpoints.vcd";
  std::string bytes;
  {
    sim::VcdWriter vcd(path);
    vcd.watch(elab->clock(a).out(), "clk_a");
    vcd.watch(elab->clock(b).out(), "clk_b");
    vcd.watch(elab->clock(c).out(), "clk_c");
    for (const EdgeId e : edges) {
      const std::string& name = d.edge(e).name;
      watch_endpoint(vcd, elab->edge(e).head, name + ".head", 8);
      watch_endpoint(vcd, elab->edge(e).tail, name + ".tail", 8);
    }
    vcd.start();
    sim.run_until(4 * p + 300 * p);
    vcd.finish();
    bytes = slurp(path);
  }
  std::remove(path.c_str());

  for (const NodeId snk : sinks) {
    EXPECT_GT(elab->sink_received(snk), 20u) << d.node(snk).name;
    bytes += d.node(snk).name + "=" +
             std::to_string(elab->sink_received(snk)) + "\n";
  }
  EXPECT_EQ(elab->total_order_violations(), 0u);
  const std::uint64_t h = fnv1a(bytes);
  EXPECT_EQ(h, kGoldenEndpointsHash)
      << "the generated sources and sinks diverged from the golden: got 0x"
      << std::hex << h;
}

}  // namespace
}  // namespace mts
