// Async-async FIFO: the token-ring asynchronous FIFO of Chelcea & Nowick,
// ASYNC'00 [4] -- the substrate design whose put half the paper reuses.
//
// Both interfaces are 4-phase single-rail bundled data. Cells are
// AsyncPutPart + AsyncGetPart glued by the serialized DV net. There are no
// clocks, detectors or synchronizers: a full FIFO withholds put_ack, an
// empty FIFO withholds get_ack.
//
// Armed runs get the same per-cell hooks and observer/monitor wiring as the
// other three designs (fifo::CellArray): a handshake monitor on the put
// interface and the stream scoreboard.
#pragma once

#include <cstdint>
#include <string>

#include "fifo/cell_parts.hpp"
#include "fifo/config.hpp"
#include "gates/netlist.hpp"
#include "sim/signal.hpp"
#include "sim/simulation.hpp"

namespace mts::fifo {

class AsyncAsyncFifo {
 public:
  AsyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                 const FifoConfig& cfg);

  AsyncAsyncFifo(const AsyncAsyncFifo&) = delete;
  AsyncAsyncFifo& operator=(const AsyncAsyncFifo&) = delete;

  // --- put interface (asynchronous) ---
  sim::Wire& put_req() noexcept { return *put_req_; }
  sim::Word& put_data() noexcept { return *put_data_; }
  sim::Wire& put_ack() noexcept { return *put_ack_; }

  // --- get interface (asynchronous) ---
  sim::Wire& get_req() noexcept { return *get_req_; }
  sim::Wire& get_ack() noexcept { return *get_ack_; }
  sim::Word& get_data() noexcept { return *get_data_; }

  // --- diagnostics ---
  std::uint64_t overflow_count() const noexcept {
    return cells_->overflow_count();
  }
  std::uint64_t underflow_count() const noexcept {
    return cells_->underflow_count();
  }
  unsigned occupancy() const { return cells_->occupancy(); }

  const FifoConfig& config() const noexcept { return cfg_; }

 private:
  FifoConfig cfg_;
  gates::Netlist nl_;

  sim::Wire* put_req_ = nullptr;
  sim::Word* put_data_ = nullptr;
  sim::Wire* put_ack_ = nullptr;
  sim::Wire* get_req_ = nullptr;
  sim::Wire* get_ack_ = nullptr;
  sim::Word* get_data_ = nullptr;
  CellArray* cells_ = nullptr;
};

}  // namespace mts::fifo
