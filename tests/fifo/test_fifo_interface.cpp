// Compile-time pin of each FIFO design's interface: a synchronous side
// exposes the clocked request/data/flag wires and its timing hooks, an
// asynchronous side the 4-phase req/ack/data wires, and no design exposes
// an accessor of the side kind it does not have (e.g. AsyncSyncFifo has
// put_ack() but no full(); SyncAsyncFifo has get_ack() but no valid_get()
// or stop_in()). Each design takes one clock per synchronous side, put
// side first.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "fifo/fifo.hpp"
#include "sync/clock.hpp"

namespace mts::fifo {
namespace {

// has_<name><F>: F has a member function <name>() callable without
// arguments.
#define MTS_HAS(name) \
  template <class F>  \
  concept has_##name = requires(F& f) { f.name(); };

// Synchronous put side.
MTS_HAS(req_put)
MTS_HAS(data_put)
MTS_HAS(full)
MTS_HAS(full_raw)
MTS_HAS(en_put)
MTS_HAS(put_domain)
MTS_HAS(put_min_period)
// Relay-capable synchronous put side (stopOut, Fig. 12).
MTS_HAS(stop_out)
// Asynchronous put side.
MTS_HAS(put_req)
MTS_HAS(put_data)
MTS_HAS(put_ack)
// Synchronous get side.
MTS_HAS(req_get)
MTS_HAS(data_get)
MTS_HAS(valid_get)
MTS_HAS(empty)
MTS_HAS(stop_in)
MTS_HAS(ne_raw)
MTS_HAS(oe_raw)
MTS_HAS(en_get)
MTS_HAS(get_domain)
MTS_HAS(get_min_period)
// Asynchronous get side.
MTS_HAS(get_req)
MTS_HAS(get_ack)
MTS_HAS(get_data)
// Diagnostics every design shares.
MTS_HAS(overflow_count)
MTS_HAS(underflow_count)
MTS_HAS(occupancy)
MTS_HAS(config)

#undef MTS_HAS

template <class F>
constexpr bool sync_put =
    has_req_put<F> && has_data_put<F> && has_full<F> && has_en_put<F> &&
    has_put_domain<F> && has_put_min_period<F>;
template <class F>
constexpr bool no_sync_put = !has_req_put<F> && !has_data_put<F> &&
                             !has_full<F> && !has_full_raw<F> &&
                             !has_en_put<F> && !has_put_domain<F> &&
                             !has_put_min_period<F> && !has_stop_out<F>;
template <class F>
constexpr bool async_put = has_put_req<F> && has_put_data<F> && has_put_ack<F>;
template <class F>
constexpr bool no_async_put =
    !has_put_req<F> && !has_put_data<F> && !has_put_ack<F>;
template <class F>
constexpr bool sync_get = has_req_get<F> && has_data_get<F> &&
                          has_valid_get<F> && has_empty<F> && has_stop_in<F> &&
                          has_ne_raw<F> && has_oe_raw<F> && has_en_get<F> &&
                          has_get_domain<F> && has_get_min_period<F>;
template <class F>
constexpr bool no_sync_get =
    !has_req_get<F> && !has_data_get<F> && !has_valid_get<F> &&
    !has_empty<F> && !has_stop_in<F> && !has_ne_raw<F> && !has_oe_raw<F> &&
    !has_en_get<F> && !has_get_domain<F> && !has_get_min_period<F>;
template <class F>
constexpr bool async_get = has_get_req<F> && has_get_ack<F> && has_get_data<F>;
template <class F>
constexpr bool no_async_get =
    !has_get_req<F> && !has_get_ack<F> && !has_get_data<F>;
template <class F>
constexpr bool diagnostics = has_overflow_count<F> && has_underflow_count<F> &&
                             has_occupancy<F> && has_config<F>;

// Mixed-clock: sync put x sync get, and the relay station's stopOut.
static_assert(sync_put<MixedClockFifo> && has_full_raw<MixedClockFifo> &&
              has_stop_out<MixedClockFifo> && no_async_put<MixedClockFifo>);
static_assert(sync_get<MixedClockFifo> && no_async_get<MixedClockFifo>);
static_assert(diagnostics<MixedClockFifo>);

// Async-sync: async put x sync get.
static_assert(async_put<AsyncSyncFifo> && no_sync_put<AsyncSyncFifo>);
static_assert(sync_get<AsyncSyncFifo> && no_async_get<AsyncSyncFifo>);
static_assert(diagnostics<AsyncSyncFifo>);

// Sync-async: sync put x async get, no relay-station variant (no stopOut).
static_assert(sync_put<SyncAsyncFifo> && !has_stop_out<SyncAsyncFifo> &&
              no_async_put<SyncAsyncFifo>);
static_assert(async_get<SyncAsyncFifo> && no_sync_get<SyncAsyncFifo>);
static_assert(diagnostics<SyncAsyncFifo>);

// Async-async: async put x async get.
static_assert(async_put<AsyncAsyncFifo> && no_sync_put<AsyncAsyncFifo>);
static_assert(async_get<AsyncAsyncFifo> && no_sync_get<AsyncAsyncFifo>);
static_assert(diagnostics<AsyncAsyncFifo>);

// One clock per synchronous side, put side first.
template <class F, class... Clocks>
constexpr bool builds_from =
    std::is_constructible_v<F, sim::Simulation&, const std::string&,
                            const FifoConfig&, Clocks...>;
static_assert(builds_from<MixedClockFifo, sim::Wire&, sim::Wire&> &&
              !builds_from<MixedClockFifo, sim::Wire&> &&
              !builds_from<MixedClockFifo>);
static_assert(builds_from<AsyncSyncFifo, sim::Wire&> &&
              !builds_from<AsyncSyncFifo, sim::Wire&, sim::Wire&> &&
              !builds_from<AsyncSyncFifo>);
static_assert(builds_from<SyncAsyncFifo, sim::Wire&> &&
              !builds_from<SyncAsyncFifo, sim::Wire&, sim::Wire&> &&
              !builds_from<SyncAsyncFifo>);
static_assert(builds_from<AsyncAsyncFifo> &&
              !builds_from<AsyncAsyncFifo, sim::Wire&>);

// The designs own netlists and hook listeners: never copied.
static_assert(!std::is_copy_constructible_v<MixedClockFifo> &&
              !std::is_copy_constructible_v<AsyncSyncFifo> &&
              !std::is_copy_constructible_v<SyncAsyncFifo> &&
              !std::is_copy_constructible_v<AsyncAsyncFifo>);

// The static_asserts above pin which accessors exist; this pins the
// netlist names behind them (VCD scopes, fault sites and reports use them).
TEST(FifoInterface, InterfaceWiresKeepTheirNetlistNames) {
  sim::Simulation sim;
  sync::Clock cp(sim, "cp", {3000, 0, 0.5, 0});
  sync::Clock cg(sim, "cg", {3000, 0, 0.5, 0});
  FifoConfig cfg;
  cfg.capacity = 4;

  MixedClockFifo mc(sim, "mc", cfg, cp.out(), cg.out());
  EXPECT_EQ(mc.req_put().name(), "mc.req_put");
  EXPECT_EQ(mc.data_put().name(), "mc.data_put");
  EXPECT_EQ(mc.req_get().name(), "mc.req_get");
  EXPECT_EQ(mc.stop_in().name(), "mc.stop_in");
  EXPECT_EQ(mc.data_get().name(), "mc.data_get");
  EXPECT_EQ(mc.valid_get().name(), "mc.valid_get");
  EXPECT_EQ(mc.empty().name(), "mc.empty");
  EXPECT_EQ(&mc.full(), &mc.stop_out());

  AsyncSyncFifo as(sim, "as", cfg, cg.out());
  EXPECT_EQ(as.put_req().name(), "as.put_req");
  EXPECT_EQ(as.put_data().name(), "as.put_data");
  EXPECT_EQ(as.put_ack().name(), "as.put_ack");
  EXPECT_EQ(as.valid_get().name(), "as.valid_get");

  SyncAsyncFifo sa(sim, "sa", cfg, cp.out());
  EXPECT_EQ(sa.req_put().name(), "sa.req_put");
  EXPECT_EQ(sa.get_req().name(), "sa.get_req");
  EXPECT_EQ(sa.get_data().name(), "sa.get_data");
  EXPECT_EQ(sa.get_ack().name(), "sa.get_ack");

  AsyncAsyncFifo aa(sim, "aa", cfg);
  EXPECT_EQ(aa.put_ack().name(), "aa.put_ack");
  EXPECT_EQ(aa.get_ack().name(), "aa.get_ack");
}

}  // namespace
}  // namespace mts::fifo
