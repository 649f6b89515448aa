// Elaboration end to end: small declarative designs lowered onto a live
// Simulation and RUN, checking that the inserted mixed-timing machinery
// actually moves tokens, that the generated checkers share scoreboards
// correctly, and that the handle/counter/watchdog surface behaves.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "builder/builder.hpp"
#include "fifo/interface_sides.hpp"
#include "metrics/registry.hpp"
#include "sim/error.hpp"
#include "sim/observe.hpp"
#include "sim/watchdog.hpp"

namespace mts {
namespace {

using builder::Design;
using builder::DomainId;
using builder::EdgeId;
using builder::LinkOptions;
using builder::NodeId;
using builder::Primitive;
using sim::Time;

/// A safe clock period for links built from `capacity` x `width` FIFOs.
Time safe_period(unsigned capacity, unsigned width) {
  fifo::FifoConfig cfg;
  cfg.capacity = capacity;
  cfg.width = width;
  return 2 * std::max(fifo::SyncPutSide::min_period(cfg),
                      fifo::SyncGetSide::min_period(cfg));
}

TEST(BuilderElaborate, SameDomainRelayChainRunsClean) {
  sim::Simulation sim(7);
  const Time p = safe_period(8, 8);

  Design d("chain");
  const DomainId c = d.domain("clk", {p, 4 * p, 0.5, 0});
  const NodeId src = d.source("src", Design::sync_out("out", c, 8));
  const NodeId snk = d.sink("snk", Design::sync_in("in", c, 8));
  LinkOptions opt;
  opt.latency_left = 2;
  const EdgeId e = d.connect(src, "out", snk, "in", opt, "wire");
  auto elab = builder::elaborate(sim, d);

  ASSERT_NE(elab->edge(e).chain, nullptr);
  ASSERT_EQ(elab->edge(e).primitive, Primitive::kSrsChain);
  ASSERT_EQ(elab->inserted().size(), 1u);
  EXPECT_EQ(elab->inserted()[0].kind, Primitive::kSrsChain);
  EXPECT_EQ(elab->inserted()[0].instance, "wire");

  sim.run_until(4 * p + 400 * p);
  EXPECT_GT(elab->source_sent(src), 300u);
  EXPECT_EQ(elab->sink_received(snk), elab->total_received());
  EXPECT_GT(elab->sink_received(snk), 300u);
  // The sink checks the SOURCE's scoreboard: one shared expectation queue.
  EXPECT_EQ(&elab->scoreboard(src), &elab->scoreboard(snk));
  EXPECT_EQ(elab->total_order_violations(), 0u);
}

TEST(BuilderElaborate, CrossDomainEdgeInsertsMixedClockLink) {
  sim::Simulation sim(9);
  const Time p = safe_period(4, 8);

  Design d("cdc");
  const DomainId a = d.domain("fast", {p, 4 * p, 0.5, 0});
  const DomainId b = d.domain("slow", {p * 13 / 8, 4 * p + 137, 0.5, 0});
  const NodeId src = d.source("src", Design::sync_out("out", a, 8));
  const NodeId snk =
      d.sink("snk", Design::sync_in("in", b, 8), {/*stall_rate=*/0.1});
  LinkOptions opt;
  opt.capacity = 4;
  opt.latency_left = 1;
  opt.latency_right = 1;
  const EdgeId e = d.connect(src, "out", snk, "in", opt, "cdc0");
  auto elab = builder::elaborate(sim, d);

  ASSERT_NE(elab->edge(e).mc_link, nullptr);
  EXPECT_EQ(elab->edge(e).primitive, Primitive::kMixedClockFifo);

  sim.run_until(4 * p + 600 * p);
  EXPECT_GT(elab->sink_received(snk), 200u);
  EXPECT_EQ(elab->total_order_violations(), 0u);
  // Back-pressure, not loss: everything sent is delivered or in flight.
  EXPECT_LE(elab->sink_received(snk), elab->source_sent(src));
  EXPECT_LT(elab->source_sent(src) - elab->sink_received(snk), 16u);
}

TEST(BuilderElaborate, GearboxRoundTripPreservesWideValues) {
  sim::Simulation sim(5);
  const Time p = safe_period(8, 8);

  // 32-bit producer and consumer over an 8-bit link: the elaborator must
  // insert a 4:1 serializer and a 1:4 deserializer, and the scoreboard
  // proves every 32-bit value survives the trip bit-exactly.
  Design d("gear");
  const DomainId c = d.domain("clk", {p, 4 * p, 0.5, 0});
  const NodeId src = d.source(
      "src", Design::sync_out("out", c, 32),
      {/*rate=*/0.2, /*gap=*/0, /*mask=*/0xFFFFFFFFull});
  const NodeId snk = d.sink("snk", Design::sync_in("in", c, 32));
  LinkOptions opt;
  opt.link_width = 8;
  const EdgeId e = d.connect(src, "out", snk, "in", opt, "narrow");
  auto elab = builder::elaborate(sim, d);

  ASSERT_NE(elab->edge(e).ser, nullptr);
  ASSERT_NE(elab->edge(e).deser, nullptr);
  ASSERT_EQ(elab->inserted().size(), 3u);  // core + ser + deser
  EXPECT_EQ(elab->inserted()[1].instance, "narrow.ser");
  EXPECT_EQ(elab->inserted()[2].instance, "narrow.deser");

  sim.run_until(4 * p + 1200 * p);
  EXPECT_GT(elab->sink_received(snk), 100u);
  EXPECT_EQ(elab->total_order_violations(), 0u);
}

TEST(BuilderElaborate, AsyncEdgeBecomesMicropipeline) {
  sim::Simulation sim(3);

  Design d("pipe");
  const NodeId src = d.source("src", Design::async_out("out", 8),
                              {1.0, /*gap=*/2000, 0xFF});
  const NodeId snk =
      d.sink("snk", Design::async_in("in", 8), {0.0, /*gap=*/500});
  LinkOptions opt;
  opt.latency_left = 3;
  const EdgeId e = d.connect(src, "out", snk, "in", opt, "ars");
  auto elab = builder::elaborate(sim, d);

  ASSERT_NE(elab->edge(e).pipe, nullptr);
  EXPECT_EQ(elab->edge(e).primitive, Primitive::kMicropipeline);
  ASSERT_NE(elab->node(src).put_end, nullptr);
  ASSERT_NE(elab->node(snk).get_end, nullptr);
  // A micropipeline output is push-style: the sink answers the pipeline's
  // req rather than pulling like a FIFO get-port consumer (the end table
  // builds an AsyncAckSink there, tests/bfm/test_ends.cpp).
  EXPECT_EQ(elab->edge(e).head.style, builder::EndpointStyle::kHandshake);
  EXPECT_EQ(elab->edge(e).tail.style, builder::EndpointStyle::kHandshake);
  EXPECT_TRUE(elab->edge(e).tail.push);
  EXPECT_TRUE(elab->node(snk).get_end->async_ack);

  sim.run_until(800'000);
  EXPECT_GT(elab->sink_received(snk), 100u);
  EXPECT_EQ(elab->total_order_violations(), 0u);
}

TEST(BuilderElaborate, SyncToAsyncEdgeGluesThroughSyncAsyncFifo) {
  sim::Simulation sim(13);
  const Time p = safe_period(4, 8);

  Design d("s2a");
  const DomainId c = d.domain("clk", {p, 4 * p, 0.5, 0});
  const NodeId src =
      d.source("src", Design::sync_out("out", c, 8), {0.5, 0, 0xFF});
  const NodeId snk =
      d.sink("snk", Design::async_in("in", 8), {0.0, /*gap=*/p});
  LinkOptions opt;
  opt.capacity = 4;
  opt.latency_left = 1;  // an SRS segment feeding the FIFO's LI glue
  const EdgeId e = d.connect(src, "out", snk, "in", opt, "bridge");
  auto elab = builder::elaborate(sim, d);

  ASSERT_NE(elab->edge(e).sa_fifo, nullptr);
  ASSERT_NE(elab->edge(e).chain, nullptr);  // the latency_left segment
  EXPECT_EQ(elab->edge(e).primitive, Primitive::kSyncAsyncFifo);

  sim.run_until(4 * p + 900 * p);
  EXPECT_GT(elab->sink_received(snk), 150u);
  EXPECT_EQ(elab->total_order_violations(), 0u);
}

TEST(BuilderElaborate, ExternalHandlesMatchEndpointStyles) {
  sim::Simulation sim(1);
  const Time p = safe_period(4, 8);

  Design d("handles");
  const DomainId a = d.domain("put_clk", {p, 4 * p, 0.5, 0});
  const DomainId b = d.domain("get_clk", {p * 11 / 8, 4 * p, 0.5, 0});
  const NodeId prod = d.external("prod", {Design::sync_out("out", a, 8)});
  const NodeId cons = d.external("cons", {Design::sync_in("in", b, 8)});
  LinkOptions opt;
  opt.capacity = 4;
  opt.controller = fifo::ControllerKind::kFifo;
  const EdgeId e = d.connect(prod, "out", cons, "in", opt, "fifo");
  auto elab = builder::elaborate(sim, d);

  ASSERT_NE(elab->edge(e).mc_fifo, nullptr);
  const builder::SyncFifoPut put = elab->fifo_put(prod, "out");
  const builder::SyncFifoGet get = elab->fifo_get(cons, "in");
  EXPECT_EQ(put.req_put, &elab->edge(e).mc_fifo->req_put());
  EXPECT_EQ(get.valid_get, &elab->edge(e).mc_fifo->valid_get());

  // Style mismatches are named ConfigErrors, not null pointers.
  EXPECT_THROW((void)elab->li_port(prod, "out"), ConfigError);
  EXPECT_THROW((void)elab->handshake_port(cons, "in"), ConfigError);
  // Tagged-free generated traffic owns scoreboards; externals do not.
  EXPECT_THROW((void)elab->scoreboard(prod), ConfigError);
}

TEST(BuilderElaborate, ObservabilityGaugesAndWatchdogProbe) {
  sim::Simulation sim(17);
  metrics::Registry registry;
  sim::Observability obs;
  obs.metrics = &registry;
  obs.arm(sim);

  const Time p = safe_period(4, 8);
  Design d("watched");
  const DomainId a = d.domain("fast", {p, 4 * p, 0.5, 0});
  const DomainId b = d.domain("slow", {p * 13 / 8, 4 * p + 97, 0.5, 0});
  const NodeId src = d.source("src", Design::sync_out("out", a, 8));
  const NodeId snk = d.sink("snk", Design::sync_in("in", b, 8));
  LinkOptions opt;
  opt.capacity = 4;
  d.connect(src, "out", snk, "in", opt);
  auto elab = builder::elaborate(sim, d);

  const metrics::Gauge* nodes = registry.find_gauge("builder.watched", "nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->value(), 2.0);
  const metrics::Gauge* ins = registry.find_gauge("builder.watched", "inserted");
  ASSERT_NE(ins, nullptr);
  EXPECT_EQ(ins->value(), 1.0);

  // A healthy elaborated design never trips the end-to-end probe.
  sim::WatchdogConfig wcfg;
  wcfg.progress_window = 200 * p;
  wcfg.poll_interval_events = 512;
  sim::Watchdog wd(wcfg);
  elab->arm_watchdog(wd);
  wd.arm(sim);
  EXPECT_NO_THROW(sim.run_until(4 * p + 500 * p));
  EXPECT_GT(wd.polls(), 0u);
  sim::Watchdog::disarm(sim);

  EXPECT_EQ(elab->total_order_violations(), 0u);
  EXPECT_GT(elab->total_received(), 100u);

  // The elaborated fingerprint embeds the design netlist AND the inserted
  // primitive instances.
  const std::string js = elab->to_json();
  EXPECT_NE(js.find("\"inserted\""), std::string::npos);
  EXPECT_NE(js.find("mixed_clock_fifo"), std::string::npos);
  EXPECT_NE(js.find("\"watched\""), std::string::npos);
}

TEST(BuilderElaborate, RepeaterSharesScoreboardAcrossTwoEdges) {
  sim::Simulation sim(23);
  const Time p = safe_period(4, 8);

  Design d("two_hop");
  const DomainId a = d.domain("a_clk", {p, 4 * p, 0.5, 0});
  const DomainId b = d.domain("b_clk", {p * 13 / 8, 4 * p + 61, 0.5, 0});
  const NodeId src = d.source("src", Design::sync_out("out", a, 8));
  const NodeId mid = d.repeater("mid", b, 8);
  const NodeId snk = d.sink("snk", Design::sync_in("in", b, 8));
  LinkOptions cdc;
  cdc.capacity = 4;
  d.connect(src, "out", mid, "in", cdc, "hop1");
  LinkOptions tailopt;
  tailopt.latency_left = 1;
  d.connect(mid, "out", snk, "in", tailopt, "hop2");
  auto elab = builder::elaborate(sim, d);

  // upstream_source() walks THROUGH the repeater: the sink checks the
  // source's scoreboard even though two edges separate them.
  EXPECT_EQ(&elab->scoreboard(snk), &elab->scoreboard(src));

  sim.run_until(4 * p + 600 * p);
  EXPECT_GT(elab->sink_received(snk), 200u);
  EXPECT_EQ(elab->total_order_violations(), 0u);
}

}  // namespace
}  // namespace mts
