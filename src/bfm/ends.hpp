// The endpoint table: the bus-functional models that drive one side of an
// interface, by the endpoint's protocol. metrics::Testbench and the
// builder's generated sources and sinks both attach through it.
//
//   end  endpoint                 BFMs, in construction order
//   put  on-demand FIFO port      PutMonitor, SyncPutDriver
//   put  latency-insensitive      RsSource
//   put  4-phase handshake        AsyncPutDriver
//   get  on-demand FIFO port      GetMonitor, SyncGetDriver
//   get  latency-insensitive      RsSink
//   get  4-phase handshake, pull  AsyncGetDriver
//   get  4-phase handshake, push  AsyncAckSink
//
// gap == kManual leaves an end's requests to the caller: a clocked end
// keeps only its monitor (on the FIFO port bundle, which a relay-station
// FIFO fills under its latency-insensitive one), a handshake put end gets a
// manual AsyncPutDriver (issue_one()); a handshake get end has no manual
// mode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "bfm/async_drivers.hpp"
#include "bfm/rs_drivers.hpp"
#include "bfm/scoreboard.hpp"
#include "bfm/sync_drivers.hpp"
#include "gates/delay_model.hpp"
#include "sim/signal.hpp"
#include "sim/simulation.hpp"

namespace mts::bfm {

/// Latency-insensitive endpoint: {data, valid} forward, stop backward.
struct LiPort {
  sim::Word* data = nullptr;
  sim::Wire* valid = nullptr;
  sim::Wire* stop = nullptr;
};

/// 4-phase bundled-data endpoint (put- or get-flavoured).
struct HandshakePort {
  sim::Wire* req = nullptr;
  sim::Wire* ack = nullptr;
  sim::Word* data = nullptr;
};

/// On-demand synchronous FIFO put interface.
struct SyncFifoPut {
  sim::Wire* req_put = nullptr;
  sim::Word* data_put = nullptr;
  sim::Wire* full = nullptr;
  sim::Wire* en_put = nullptr;
};

/// On-demand synchronous FIFO get interface.
struct SyncFifoGet {
  sim::Wire* req_get = nullptr;
  sim::Word* data_get = nullptr;
  sim::Wire* valid_get = nullptr;
  sim::Wire* empty = nullptr;
  sim::Wire* stop_in = nullptr;
};

enum class EndpointStyle { kLi, kHandshake, kFifoPut, kFifoGet };

/// One side of an interface: the signals an end attached there sees. The
/// bundle `style` names is filled.
struct Endpoint {
  EndpointStyle style = EndpointStyle::kLi;
  LiPort li{};
  HandshakePort hs{};
  SyncFifoPut fput{};
  SyncFifoGet fget{};
  /// Handshake get side: the producer drives req (a micropipeline output,
  /// a bare bundled-data channel), not the consumer (a FIFO get port).
  bool push = false;
  /// Boundary trace-stream instance for cross-edge linking ("" when the
  /// boundary component is untraced, e.g. behind a gearbox).
  std::string traced{};
};

/// gap value: the caller drives this end's requests itself.
inline constexpr sim::Time kManual = AsyncPutDriver::kManual;

/// The stimulus of one put side. `clk` clocks a clocked endpoint (nullptr
/// for a handshake); `rate` is the offered items per cycle, `gap` the idle
/// time between handshakes. Entered items are pushed to `sb`; payloads
/// count up from 1 under `mask`.
class PutEnd {
 public:
  PutEnd(sim::Simulation& sim, std::string name, sim::Wire* clk,
         const Endpoint& ep, const gates::DelayModel& dm, double rate,
         sim::Time gap, std::uint64_t mask, Scoreboard& sb);

  std::uint64_t sent() const noexcept;  ///< items that provably entered

  std::optional<PutMonitor> monitor;
  std::optional<SyncPutDriver> driver;
  std::optional<RsSource> rs_source;
  std::optional<AsyncPutDriver> async_put;
};

/// The consumer of one get side. `stall` is the share of cycles a clocked
/// end takes nothing (an RsSink raises stop, a SyncGetDriver requests with
/// 1 - stall); `gap` is the handshake gap. Taken items are checked by `sb`.
class GetEnd {
 public:
  /// Throws ConfigError for a manual handshake end; the constructor runs
  /// it before building anything.
  static void check(EndpointStyle style, sim::Time gap);

  GetEnd(sim::Simulation& sim, std::string name, sim::Wire* clk,
         const Endpoint& ep, const gates::DelayModel& dm, double stall,
         sim::Time gap, Scoreboard& sb);

  /// Items taken out, and the time the last one was.
  std::uint64_t delivered() const noexcept;
  sim::Time last_delivery() const noexcept;

  std::optional<GetMonitor> monitor;
  std::optional<SyncGetDriver> driver;
  std::optional<RsSink> rs_sink;
  std::optional<AsyncGetDriver> async_get;
  std::optional<AsyncAckSink> async_ack;
};

}  // namespace mts::bfm
