// One FIFO testbench for every design of the interface matrix (Fig. 1).
//
// The testbench side mirrors fifo::CellArray's device side: one put end and
// one get end (bfm/ends.hpp, the endpoint table) on the endpoints the FIFO
// presents (put_endpoint() / get_endpoint() below, which the builder's
// FIFO edges use too). Side::gap == kManual leaves a side's requests to the
// caller, as bfm::kManual does for an end.
//
// Construction only, in one fixed order: a sync::Clock per synchronous
// side (put, then get), the FIFO, the scoreboard, the put end, the get end.
// Every ConfigError is raised before the first clock is built. The caller
// runs the simulation and enables the FIFO's timing domains.
#pragma once

#include <cstdint>
#include <optional>

#include "bfm/ends.hpp"
#include "bfm/scoreboard.hpp"
#include "fifo/fifo.hpp"
#include "sim/simulation.hpp"
#include "sync/clock.hpp"

namespace mts::metrics {

/// What one side's stimulus runs at. A synchronous side reads period,
/// phase and rate; an asynchronous side reads gap.
struct Side {
  sim::Time period = 0;  ///< clock period
  sim::Time phase = 0;   ///< first rising clock edge
  double rate = 1.0;     ///< offered items per cycle; 1.0 saturates
  sim::Time gap = 0;     ///< idle time between handshakes (0 saturates)
};

/// Side::gap value: the caller drives this side's requests itself.
inline constexpr sim::Time kManual = bfm::kManual;

/// The data bits of a `width`-bit FIFO.
inline std::uint64_t width_mask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

/// The endpoints a FIFO presents to its ends: a synchronous side is an
/// on-demand FIFO port, or in relay-station mode a latency-insensitive port
/// over the same wires; an asynchronous side is a handshake, pulled on the
/// get side.
template <class Fifo>
bfm::Endpoint put_endpoint(Fifo& f) {
  using enum bfm::EndpointStyle;
  if constexpr (Fifo::put_sync) {
    const bool relay =
        f.config().controller == fifo::ControllerKind::kRelayStation;
    return {.style = relay ? kLi : kFifoPut,
            .li = {&f.data_put(), &f.req_put(), &f.full()},
            .fput = {&f.req_put(), &f.data_put(), &f.full(), &f.en_put()}};
  } else {
    return {.style = kHandshake,
            .hs = {&f.put_req(), &f.put_ack(), &f.put_data()}};
  }
}

template <class Fifo>
bfm::Endpoint get_endpoint(Fifo& f) {
  using enum bfm::EndpointStyle;
  if constexpr (Fifo::get_sync) {
    const bool relay =
        f.config().controller == fifo::ControllerKind::kRelayStation;
    return {.style = relay ? kLi : kFifoGet,
            .li = {&f.data_get(), &f.valid_get(), &f.stop_in()},
            .fget = {&f.req_get(), &f.data_get(), &f.valid_get(), &f.empty(),
                     &f.stop_in()}};
  } else {
    return {.style = kHandshake,
            .hs = {&f.get_req(), &f.get_ack(), &f.get_data()}};
  }
}

template <class Fifo>
class Testbench {
 public:
  /// Throws ConfigError, before building anything, for a cfg the FIFO
  /// rejects and for a manual asynchronous get side.
  Testbench(sim::Simulation& sim, const fifo::FifoConfig& cfg,
            const Side& put, const Side& get);

  Testbench(const Testbench&) = delete;
  Testbench& operator=(const Testbench&) = delete;

  /// Items the get side has taken out, and the time it took the last one.
  std::uint64_t delivered() const noexcept { return get_end.delivered(); }
  sim::Time last_delivery() const noexcept {
    return get_end.last_delivery();
  }

  std::optional<sync::Clock> clk_put;
  std::optional<sync::Clock> clk_get;
  Fifo dut;
  bfm::Scoreboard sb;
  bfm::PutEnd put_end;
  bfm::GetEnd get_end;
};

extern template class Testbench<fifo::MixedClockFifo>;
extern template class Testbench<fifo::AsyncSyncFifo>;
extern template class Testbench<fifo::SyncAsyncFifo>;
extern template class Testbench<fifo::AsyncAsyncFifo>;

}  // namespace mts::metrics
