// Mixed-clock (sync-sync) FIFO -- the paper's Section 3 design -- and its
// relay-station variant (Section 5.2), selected by FifoConfig::controller.
//
// Architecture (Fig. 2a): a circular array of identical cells with immobile
// data, a put-token ring clocked by CLK_put and a get-token ring clocked by
// CLK_get, tri-state output buses, anticipating full/empty detectors, a
// bi-modal empty detector, and two-flop synchronizers on the global state
// signals.
//
// Protocol (Fig. 3): the sender asserts req_put with data after a CLK_put
// edge; the item is enqueued at the next edge unless `full`. The receiver
// asserts req_get after a CLK_get edge; by the end of the cycle data_get
// and valid_get are driven unless `empty`.
//
// Relay-station mode (Fig. 13): req_put becomes the packet validity bit and
// every cycle enqueues (en_put = !full, an inverter); full doubles as
// stopOut. The get side dequeues every cycle unless empty or stop_in, and
// valid_get = cell validity & !empty & !stop_in.
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

class MixedClockFifo {
 public:
  MixedClockFifo(sim::Simulation& sim, const std::string& name,
                 const FifoConfig& cfg, sim::Wire& clk_put, sim::Wire& clk_get);

  MixedClockFifo(const MixedClockFifo&) = delete;
  MixedClockFifo& operator=(const MixedClockFifo&) = delete;

  // --- put interface (synchronous, CLK_put) ---
  sim::Wire& req_put() noexcept { return *req_put_; }
  sim::Word& data_put() noexcept { return *data_put_; }
  /// Synchronized full flag (relay-station mode: stopOut).
  sim::Wire& full() noexcept { return *full_ext_; }
  sim::Wire& stop_out() noexcept { return *full_ext_; }

  // --- get interface (synchronous, CLK_get) ---
  sim::Wire& req_get() noexcept { return *req_get_; }
  sim::Word& data_get() noexcept { return *data_get_; }
  sim::Wire& valid_get() noexcept { return *valid_ext_; }
  sim::Wire& empty() noexcept { return *empty_w_; }
  /// Relay-station back-pressure input from the right neighbour.
  sim::Wire& stop_in() noexcept { return *stop_in_; }

  // --- diagnostics / verification hooks ---
  gates::TimingDomain& put_domain() noexcept { return put_dom_; }
  gates::TimingDomain& get_domain() noexcept { return get_dom_; }
  std::uint64_t overflow_count() const noexcept {
    return cells_->overflow_count();
  }
  std::uint64_t underflow_count() const noexcept {
    return cells_->underflow_count();
  }
  /// Register-write events (cell enqueues): with immobile data this is
  /// exactly one per item -- the paper's low-power argument (Section 2).
  std::uint64_t data_moves() const noexcept { return cells_->data_moves(); }
  /// Number of cells currently holding a data item (f_i set).
  unsigned occupancy() const { return cells_->occupancy(); }
  sim::Wire& cell_f(unsigned i) { return *cells_->f().at(i); }
  sim::Wire& cell_e(unsigned i) { return *cells_->e().at(i); }
  /// Token-ring state, for verification harnesses (fault injection into a
  /// ring is how the token-ring monitor's positive path is exercised).
  sim::Wire& put_token(unsigned i) { return *cells_->put_ring().at(i); }
  sim::Wire& get_token(unsigned i) { return *cells_->get_ring().at(i); }
  sim::Wire& full_raw() noexcept { return *full_raw_; }
  sim::Wire& ne_raw() noexcept { return *ne_raw_; }
  sim::Wire& oe_raw() noexcept { return *oe_raw_; }
  sim::Wire& en_put() noexcept { return cells_->put_enable(); }
  sim::Wire& en_get() noexcept { return cells_->get_enable(); }

  // --- static timing (DESIGN.md section 7; validated by simulation) ---
  /// Minimum CLK_put period: the cycle-limiting path
  /// full-sync Q -> put controller -> en_put broadcast -> we_i -> DV set ->
  /// full detector -> full-sync D setup.
  sim::Time put_min_period() const;
  /// Minimum CLK_get period: max of the empty-detector loop (through the
  /// bi-modal ne/oe trees and the oe OR gate) and the tri-state read path
  /// to the receiver's sampling flop.
  sim::Time get_min_period() const;

  const FifoConfig& config() const noexcept { return cfg_; }

 private:
  FifoConfig cfg_;
  gates::Netlist nl_;
  gates::TimingDomain put_dom_;
  gates::TimingDomain get_dom_;

  sim::Wire* req_put_ = nullptr;
  sim::Word* data_put_ = nullptr;
  sim::Wire* req_get_ = nullptr;
  sim::Wire* stop_in_ = nullptr;
  sim::Word* data_get_ = nullptr;
  sim::Wire* valid_ext_ = nullptr;
  sim::Wire* empty_w_ = nullptr;
  sim::Wire* full_ext_ = nullptr;
  sim::Wire* full_raw_ = nullptr;
  sim::Wire* ne_raw_ = nullptr;
  sim::Wire* oe_raw_ = nullptr;
  CellArray* cells_ = nullptr;
};

}  // namespace mts::fifo
