// Sync-async FIFO: synchronous put interface, asynchronous get interface.
//
// The paper states (Section 2) that this fourth combination "has also been
// designed, and will be described in a forthcoming technical report"; we
// assemble it from the same parts, following the composition rules the
// paper establishes:
//
//   - put side: the mixed-clock design's put half verbatim (SyncPutPart
//     cells + full detector + synchronizer + put controller);
//   - get side: the token-ring asynchronous get half of [4] (ObtainGetToken
//     machine + asymmetric C-element), 4-phase bundled data;
//   - DV: the serialized net (dv_linear_net) -- f_i may only rise once the
//     data is provably latched (we-), because an asynchronous reader reacts
//     to f_i immediately rather than a synchronizer-delayed cycle later.
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

class SyncAsyncFifo {
 public:
  SyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                const FifoConfig& cfg, sim::Wire& clk_put);

  SyncAsyncFifo(const SyncAsyncFifo&) = delete;
  SyncAsyncFifo& operator=(const SyncAsyncFifo&) = delete;

  // --- put interface (synchronous, CLK_put) ---
  sim::Wire& req_put() noexcept { return *req_put_; }
  sim::Word& data_put() noexcept { return *data_put_; }
  sim::Wire& full() noexcept { return *full_ext_; }

  // --- get interface (asynchronous, 4-phase bundled data) ---
  sim::Wire& get_req() noexcept { return *get_req_; }
  sim::Wire& get_ack() noexcept { return *get_ack_; }
  sim::Word& get_data() noexcept { return *get_data_; }

  // --- diagnostics / verification hooks ---
  gates::TimingDomain& put_domain() noexcept { return put_dom_; }
  std::uint64_t overflow_count() const noexcept {
    return cells_->overflow_count();
  }
  std::uint64_t underflow_count() const noexcept {
    return cells_->underflow_count();
  }
  unsigned occupancy() const { return cells_->occupancy(); }
  sim::Wire& cell_f(unsigned i) { return *cells_->f().at(i); }
  sim::Wire& cell_e(unsigned i) { return *cells_->e().at(i); }
  sim::Wire& en_put() noexcept { return cells_->put_enable(); }

  /// Minimum CLK_put period (same structure as the mixed-clock design).
  sim::Time put_min_period() const;

  const FifoConfig& config() const noexcept { return cfg_; }

 private:
  FifoConfig cfg_;
  gates::Netlist nl_;
  gates::TimingDomain put_dom_;

  sim::Wire* req_put_ = nullptr;
  sim::Word* data_put_ = nullptr;
  sim::Wire* full_ext_ = nullptr;
  sim::Wire* get_req_ = nullptr;
  sim::Wire* get_ack_ = nullptr;
  sim::Word* get_data_ = nullptr;
  CellArray* cells_ = nullptr;
};

}  // namespace mts::fifo
