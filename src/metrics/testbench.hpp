// One FIFO testbench for every design of the interface matrix (Fig. 1).
//
// The testbench side mirrors fifo::CellArray's device side: its parts are
// chosen by the design's put side x get side and by cfg.controller.
//
//   side        kind   controller  stimulus
//   put         sync   FIFO        PutMonitor + SyncPutDriver
//   put         sync   RS          RsSource
//   put         async  either      AsyncPutDriver
//   get         sync   FIFO        GetMonitor + SyncGetDriver
//   get         sync   RS          RsSink
//   get         async  either      AsyncGetDriver
//
// Side::gap == kManual leaves a side's requests to the caller: a
// synchronous side then gets only its monitor, an asynchronous put side a
// manual AsyncPutDriver (issue_one()).
//
// Construction only, in one fixed order: a sync::Clock per synchronous
// side (put, then get), the FIFO, the scoreboard, the put-side stimulus,
// the get-side stimulus. The caller runs the simulation and enables the
// FIFO's timing domains.
#pragma once

#include <cstdint>
#include <optional>

#include "bfm/bfm.hpp"
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
inline constexpr sim::Time kManual = bfm::AsyncPutDriver::kManual;

/// The data bits of a `width`-bit FIFO.
inline std::uint64_t width_mask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

template <class Fifo>
class Testbench {
 public:
  /// Throws ConfigError for a manual asynchronous get side (the
  /// AsyncGetDriver has no manual mode).
  Testbench(sim::Simulation& sim, const fifo::FifoConfig& cfg,
            const Side& put, const Side& get);

  Testbench(const Testbench&) = delete;
  Testbench& operator=(const Testbench&) = delete;

  /// Items the get side has taken out, and the time it took the last one.
  std::uint64_t delivered() const noexcept;
  sim::Time last_delivery() const noexcept;

  std::optional<sync::Clock> clk_put;
  std::optional<sync::Clock> clk_get;
  Fifo dut;
  bfm::Scoreboard sb;
  std::optional<bfm::PutMonitor> put_mon;
  std::optional<bfm::SyncPutDriver> put_drv;
  std::optional<bfm::RsSource> rs_source;
  std::optional<bfm::AsyncPutDriver> async_put;
  std::optional<bfm::GetMonitor> get_mon;
  std::optional<bfm::SyncGetDriver> get_drv;
  std::optional<bfm::RsSink> rs_sink;
  std::optional<bfm::AsyncGetDriver> async_get;
};

extern template class Testbench<fifo::MixedClockFifo>;
extern template class Testbench<fifo::AsyncSyncFifo>;
extern template class Testbench<fifo::SyncAsyncFifo>;
extern template class Testbench<fifo::AsyncAsyncFifo>;

}  // namespace mts::metrics
