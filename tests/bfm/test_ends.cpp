// The endpoint table (bfm/ends.hpp), one case per row: which BFMs a put or
// get end builds on each endpoint style, manual mode included, and that the
// end's counters read the BFM that row built. Endpoints are bare wires; a
// case that needs traffic answers the end itself or pairs it with the
// opposite end on the same wires.
#include "bfm/ends.hpp"

#include <gtest/gtest.h>

#include "gates/netlist.hpp"
#include "sim/error.hpp"
#include "sync/clock.hpp"

namespace mts::bfm {
namespace {

class EndTable : public ::testing::Test {
 protected:
  Endpoint li() {
    Endpoint ep;
    ep.li = {&nl_.word("d"), &nl_.wire("v"), &nl_.wire("s")};
    return ep;
  }
  Endpoint handshake(bool push) {
    Endpoint ep;
    ep.style = EndpointStyle::kHandshake;
    ep.hs = {&nl_.wire("req"), &nl_.wire("ack"), &nl_.word("data")};
    ep.push = push;
    return ep;
  }
  Endpoint fifo_put() {
    Endpoint ep;
    ep.style = EndpointStyle::kFifoPut;
    ep.fput = {&nl_.wire("req_put"), &nl_.word("data_put"), &nl_.wire("full"),
               &nl_.wire("en_put")};
    return ep;
  }
  Endpoint fifo_get() {
    Endpoint ep;
    ep.style = EndpointStyle::kFifoGet;
    ep.fget = {&nl_.wire("req_get"), &nl_.word("data_get"),
               &nl_.wire("valid_get"), &nl_.wire("empty"),
               &nl_.wire("stop_in")};
    return ep;
  }
  PutEnd put(const Endpoint& ep, sim::Time gap = 0) {
    return PutEnd(sim_, "put", &clk_.out(), ep, dm_, 1.0, gap, 0xFF, sb_);
  }
  GetEnd get(const Endpoint& ep, sim::Time gap = 0) {
    return GetEnd(sim_, "get", &clk_.out(), ep, dm_, 0.0, gap, sb_);
  }

  sim::Simulation sim_{1};
  gates::DelayModel dm_ = gates::DelayModel::hp06();
  sync::Clock clk_{sim_, "clk", {2000, 1000, 0.5, 0}};
  gates::Netlist nl_{sim_, "t"};
  Scoreboard sb_{sim_, "sb"};
};

TEST_F(EndTable, PutFifoPortGetsMonitorAndDriver) {
  const Endpoint ep = fifo_put();
  ep.fput.en_put->set(true);
  PutEnd end = put(ep);
  EXPECT_TRUE(end.monitor && end.driver);
  EXPECT_FALSE(end.rs_source || end.async_put);
  sim_.run_until(40'000);
  EXPECT_GT(end.sent(), 10u);
  EXPECT_EQ(end.sent(), end.monitor->enqueued());
  EXPECT_EQ(sb_.pushed(), end.sent());
}

TEST_F(EndTable, PutLiPortGetsRsSource) {
  PutEnd end = put(li());
  EXPECT_TRUE(end.rs_source);
  EXPECT_FALSE(end.monitor || end.driver || end.async_put);
}

TEST_F(EndTable, PutHandshakeGetsAsyncPutDriver) {
  PutEnd end = put(handshake(false));
  EXPECT_TRUE(end.async_put);
  EXPECT_FALSE(end.monitor || end.driver || end.rs_source);
}

TEST_F(EndTable, ManualClockedPutEndsKeepOnlyTheirMonitor) {
  PutEnd fifo_port = put(fifo_put(), kManual);
  EXPECT_TRUE(fifo_port.monitor);
  EXPECT_FALSE(fifo_port.driver || fifo_port.rs_source || fifo_port.async_put);
  // A latency-insensitive end over a FIFO port watches the port under it.
  Endpoint relay = fifo_put();
  relay.style = EndpointStyle::kLi;
  relay.li = {relay.fput.data_put, relay.fput.req_put, relay.fput.full};
  PutEnd li_port = put(relay, kManual);
  EXPECT_TRUE(li_port.monitor);
  EXPECT_FALSE(li_port.driver || li_port.rs_source || li_port.async_put);
}

TEST_F(EndTable, ManualHandshakePutEndWaitsForIssueOne) {
  const Endpoint ep = handshake(false);
  PutEnd end = put(ep, kManual);
  ASSERT_TRUE(end.async_put);
  ep.hs.req->on_change([&](bool, bool now) {
    ep.hs.ack->write(now, 200, sim::DelayKind::kTransport);
  });
  sim_.run_until(100'000);
  EXPECT_EQ(end.async_put->completed(), 0u);  // waits for issue_one()
  end.async_put->issue_one();
  sim_.run_until(200'000);
  EXPECT_EQ(end.sent(), 1u);
}

TEST_F(EndTable, GetFifoPortGetsMonitorAndDriver) {
  const Endpoint ep = fifo_get();
  GetEnd end = get(ep);
  EXPECT_TRUE(end.monitor && end.driver);
  EXPECT_FALSE(end.rs_sink || end.async_get || end.async_ack);
  ep.fget.valid_get->set(true);
  sim_.run_until(40'000);
  EXPECT_TRUE(ep.fget.req_get->read());  // stall 0: requests every cycle
  EXPECT_GT(end.delivered(), 10u);
  EXPECT_EQ(end.delivered(), end.monitor->dequeued());
  EXPECT_EQ(end.last_delivery(), end.monitor->last_dequeue_time());
}

TEST_F(EndTable, GetLiPortGetsRsSink) {
  const Endpoint ep = li();
  PutEnd src = put(ep);
  GetEnd end = get(ep);
  EXPECT_TRUE(end.rs_sink);
  EXPECT_FALSE(end.monitor || end.driver || end.async_get || end.async_ack);
  sim_.run_until(200'000);
  EXPECT_GT(end.delivered(), 50u);
  EXPECT_EQ(end.delivered(), end.rs_sink->received_valid());
  EXPECT_EQ(end.last_delivery(), end.rs_sink->last_receive_time());
  EXPECT_EQ(src.sent(), src.rs_source->sent_valid());
  EXPECT_EQ(sb_.errors(), 0u);
}

TEST_F(EndTable, PullHandshakeGetsAsyncGetDriver) {
  const Endpoint ep = handshake(false);
  GetEnd end = get(ep, 500);
  EXPECT_TRUE(end.async_get);
  EXPECT_FALSE(end.monitor || end.driver || end.rs_sink || end.async_ack);
  // A FIFO get port answers the consumer's request.
  ep.hs.req->on_change([&](bool, bool now) {
    ep.hs.ack->write(now, 200, sim::DelayKind::kTransport);
  });
  sim_.run_until(100'000);
  EXPECT_GT(end.delivered(), 20u);
  EXPECT_EQ(end.delivered(), end.async_get->completed());
  EXPECT_EQ(end.last_delivery(), end.async_get->last_ack_time());
}

TEST_F(EndTable, PushHandshakeGetsAsyncAckSink) {
  const Endpoint ep = handshake(true);
  PutEnd src = put(ep, 500);
  GetEnd end = get(ep, 300);
  // The producer drives req: the sink answers instead of pulling.
  EXPECT_TRUE(end.async_ack);
  EXPECT_FALSE(end.async_get || end.monitor || end.driver || end.rs_sink);
  sim_.run_until(100'000);
  EXPECT_GT(end.delivered(), 20u);
  EXPECT_EQ(end.delivered(), end.async_ack->completed());
  EXPECT_EQ(end.last_delivery(), end.async_ack->last_req_time());
  EXPECT_EQ(src.sent(), src.async_put->completed());
  EXPECT_EQ(sb_.errors(), 0u);
}

TEST_F(EndTable, ManualClockedGetEndsKeepOnlyTheirMonitor) {
  GetEnd fifo_port = get(fifo_get(), kManual);
  EXPECT_TRUE(fifo_port.monitor);
  EXPECT_FALSE(fifo_port.driver || fifo_port.rs_sink || fifo_port.async_get ||
               fifo_port.async_ack);
  Endpoint relay = fifo_get();
  relay.style = EndpointStyle::kLi;
  relay.li = {relay.fget.data_get, relay.fget.valid_get, relay.fget.stop_in};
  GetEnd li_port = get(relay, kManual);
  EXPECT_TRUE(li_port.monitor);
  EXPECT_FALSE(li_port.driver || li_port.rs_sink || li_port.async_get ||
               li_port.async_ack);
}

TEST_F(EndTable, ManualHandshakeGetEndIsAConfigError) {
  const std::size_t pending = sim_.sched().pending();
  EXPECT_THROW(get(handshake(false), kManual), ConfigError);
  EXPECT_THROW(get(handshake(true), kManual), ConfigError);
  EXPECT_EQ(sim_.sched().pending(), pending);  // nothing was built
}

}  // namespace
}  // namespace mts::bfm
