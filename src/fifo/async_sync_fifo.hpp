// Async-sync FIFO (Section 4) and the async-sync relay station (Section
// 5.3), selected by FifoConfig::controller.
//
// The put interface is asynchronous: 4-phase, single-rail bundled data. The
// sender places put_data, raises put_req; the FIFO latches the item in the
// token-holding cell and acknowledges on put_ack; the wires then reset
// (req- then ack-). When the FIFO is full, the acknowledgment is simply
// withheld until space frees -- no full detector or put synchronizer exists.
//
// The get interface, detectors, synchronizers and get controller are
// exactly the mixed-clock design's (the paper's reuse claim: "the external
// get controller and empty detector are unchanged; the only components that
// change are portions of the FIFO cells").
//
// Relay-station (ASRS) differences (Fig. 16): the async side is unchanged;
// the get controller becomes en_get = !stopIn & !empty with
// valid_get = !(stopIn | empty) -- a data item leaves on every CLK_get
// cycle, valid unless the station is empty or stopped.
#pragma once

#include <cstdint>
#include <string>

#include "fifo/cell_parts.hpp"
#include "fifo/config.hpp"
#include "gates/netlist.hpp"
#include "gates/timing.hpp"
#include "sim/signal.hpp"
#include "sim/simulation.hpp"

namespace mts::fifo {

class AsyncSyncFifo {
 public:
  AsyncSyncFifo(sim::Simulation& sim, const std::string& name,
                const FifoConfig& cfg, sim::Wire& clk_get);

  AsyncSyncFifo(const AsyncSyncFifo&) = delete;
  AsyncSyncFifo& operator=(const AsyncSyncFifo&) = delete;

  // --- put interface (asynchronous, 4-phase bundled data) ---
  sim::Wire& put_req() noexcept { return *put_req_; }
  sim::Word& put_data() noexcept { return *put_data_; }
  sim::Wire& put_ack() noexcept { return *put_ack_; }

  // --- get interface (synchronous, CLK_get) ---
  sim::Wire& req_get() noexcept { return *req_get_; }
  sim::Word& data_get() noexcept { return *data_get_; }
  sim::Wire& valid_get() noexcept { return *valid_ext_; }
  sim::Wire& empty() noexcept { return *empty_w_; }
  sim::Wire& stop_in() noexcept { return *stop_in_; }

  // --- diagnostics / verification hooks ---
  gates::TimingDomain& get_domain() noexcept { return get_dom_; }
  std::uint64_t overflow_count() const noexcept {
    return cells_->overflow_count();
  }
  std::uint64_t underflow_count() const noexcept {
    return cells_->underflow_count();
  }
  unsigned occupancy() const { return cells_->occupancy(); }
  sim::Wire& cell_f(unsigned i) { return *cells_->f().at(i); }
  sim::Wire& cell_e(unsigned i) { return *cells_->e().at(i); }
  sim::Wire& ne_raw() noexcept { return *ne_raw_; }
  sim::Wire& oe_raw() noexcept { return *oe_raw_; }
  sim::Wire& en_get() noexcept { return cells_->get_enable(); }

  /// Minimum CLK_get period (same structure as the mixed-clock design).
  sim::Time get_min_period() const;

  const FifoConfig& config() const noexcept { return cfg_; }

 private:
  FifoConfig cfg_;
  gates::Netlist nl_;
  gates::TimingDomain get_dom_;

  sim::Wire* put_req_ = nullptr;
  sim::Word* put_data_ = nullptr;
  sim::Wire* put_ack_ = nullptr;
  sim::Wire* req_get_ = nullptr;
  sim::Wire* stop_in_ = nullptr;
  sim::Word* data_get_ = nullptr;
  sim::Wire* valid_ext_ = nullptr;
  sim::Wire* empty_w_ = nullptr;
  sim::Wire* ne_raw_ = nullptr;
  sim::Wire* oe_raw_ = nullptr;
  CellArray* cells_ = nullptr;
};

}  // namespace mts::fifo
