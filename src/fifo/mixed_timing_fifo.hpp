// The four mixed-timing FIFOs of the interface matrix (Fig. 1) as one class
// template, Fifo<put, get>: each side synchronous (clocked) or asynchronous
// (4-phase, single-rail bundled data).
//
//   alias            put    get    source
//   MixedClockFifo   sync   sync   Section 3; relay station MCRS, 5.2
//   AsyncSyncFifo    async  sync   Section 4; relay station ASRS, 5.3
//   SyncAsyncFifo    sync   async  Section 2 (designed, report deferred)
//   AsyncAsyncFifo   async  async  the token-ring FIFO of [4]
//
// Architecture (Fig. 2a): a circular array of cells with immobile data
// (CellArray: put-token ring, get-token ring, tri-state output buses). A
// sync put side adds the anticipating full detector, its synchronizer and
// the put controller (SyncPutSide); a sync get side the bi-modal empty
// detector, its synchronizers and the get controller (SyncGetSide). The
// designs share these blocks verbatim ("the external get controller and
// empty detector are unchanged"). An async side has no detector or
// synchronizer: an OR tree merges the cells' we (put) or re (get) wires
// into its ack, so a full FIFO withholds put_ack and an empty one get_ack.
//
// Protocol (Fig. 3): a sync sender asserts req_put with data after a
// CLK_put edge; the item is enqueued at the next edge unless `full`. A sync
// receiver asserts req_get after a CLK_get edge; by the end of the cycle
// data_get and valid_get are driven unless `empty`. An async side runs
// req+ ack+ req- ack- with data bundled to req (put) or ack (get).
//
// Relay-station mode (Figs. 13, 16; cfg.controller == kRelayStation):
// req_put is the packet validity bit and every cycle enqueues (en_put =
// !full); full doubles as stopOut. The get side dequeues every cycle unless
// empty or stop_in; valid_get = cell validity & !empty & !stop_in. An async
// put side is unchanged. An async get side has no relay variant and throws
// ConfigError (relay chains end in a synchronous domain; asynchronous ones
// use lip::Micropipeline).
//
// Sync put with async get follows the paper's composition rules: the
// mixed-clock put half, the get half of [4], and the serialized DV net,
// because an async reader reacts to f_i at once, so f_i may rise only once
// the data is latched (we-).
//
// Construction order fixes the netlist and hence the event order, so it is
// behaviour: (1) put-side interface wires; (2) get-side interface wires;
// (3) the CellArray; (4) the async ack OR trees, put then get ("ackTree"
// with one async side, "putAckTree"/"getAckTree" with two); (5) the sync
// sides, SyncPutSide then SyncGetSide; (6) CellArray::finish(taps).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>

#include "fifo/cell_parts.hpp"
#include "fifo/config.hpp"
#include "fifo/interface_sides.hpp"
#include "gates/netlist.hpp"
#include "gates/timing.hpp"
#include "sim/signal.hpp"
#include "sim/simulation.hpp"

namespace mts::fifo {

/// How one interface of a FIFO is timed.
enum class Timing { kSync, kAsync };

template <Timing Put, Timing Get>
class Fifo {
 public:
  static constexpr bool put_sync = Put == Timing::kSync;
  static constexpr bool get_sync = Get == Timing::kSync;

  /// Builds any design: MixedClockFifo(sim, name, cfg, clk_put, clk_get),
  /// AsyncSyncFifo(..., clk_get), SyncAsyncFifo(..., clk_put),
  /// AsyncAsyncFifo(sim, name, cfg). Throws ConfigError on an invalid cfg.
  template <std::same_as<sim::Wire>... Clk>
    requires(sizeof...(Clk) == put_sync + get_sync)
  Fifo(sim::Simulation& sim, const std::string& name, const FifoConfig& cfg,
       Clk&... clk)
      : Fifo(sim, name, cfg, Clocks{&clk...}) {}
  /// Any design from one clock pointer per side (nullptr if asynchronous).
  Fifo(sim::Simulation& sim, const std::string& name, const FifoConfig& cfg,
       sim::Wire* clk_put, sim::Wire* clk_get)
      : Fifo(sim, name, cfg, clocks_of(clk_put, clk_get)) {}

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  /// Throws ConfigError unless `cfg` builds this design; the constructor
  /// runs it before it builds anything.
  static void check(const FifoConfig& cfg);

  // --- synchronous put interface (CLK_put) ---
  sim::Wire& req_put() noexcept requires put_sync { return *put_req_; }
  sim::Word& data_put() noexcept requires put_sync { return *put_data_; }
  /// Synchronized full flag (relay-station mode: stopOut).
  sim::Wire& full() noexcept requires put_sync { return *full_ext_; }
  /// stopOut of a relay station; only a sync get side has that mode.
  sim::Wire& stop_out() noexcept requires(put_sync && get_sync) {
    return *full_ext_;
  }

  // --- asynchronous put interface ---
  sim::Wire& put_req() noexcept requires(!put_sync) { return *put_req_; }
  sim::Word& put_data() noexcept requires(!put_sync) { return *put_data_; }
  sim::Wire& put_ack() noexcept requires(!put_sync) { return *put_ack_; }

  // --- synchronous get interface (CLK_get) ---
  sim::Wire& req_get() noexcept requires get_sync { return *get_req_; }
  sim::Word& data_get() noexcept requires get_sync { return *get_data_; }
  sim::Wire& valid_get() noexcept requires get_sync { return *valid_ext_; }
  sim::Wire& empty() noexcept requires get_sync { return *empty_w_; }
  /// Relay-station back-pressure input from the right neighbour.
  sim::Wire& stop_in() noexcept requires get_sync { return *stop_in_; }

  // --- asynchronous get interface ---
  sim::Wire& get_req() noexcept requires(!get_sync) { return *get_req_; }
  sim::Wire& get_ack() noexcept requires(!get_sync) { return *get_ack_; }
  sim::Word& get_data() noexcept requires(!get_sync) { return *get_data_; }

  // --- synchronous-side hooks: timing, detectors, enables, token rings ---
  gates::TimingDomain& put_domain() noexcept requires put_sync {
    return *put_dom_;
  }
  gates::TimingDomain& get_domain() noexcept requires get_sync {
    return *get_dom_;
  }
  sim::Wire& full_raw() noexcept requires put_sync { return *full_raw_; }
  sim::Wire& ne_raw() noexcept requires get_sync { return *ne_raw_; }
  sim::Wire& oe_raw() noexcept requires get_sync { return *oe_raw_; }
  sim::Wire& en_put() noexcept requires put_sync {
    return cells_->put_enable();
  }
  sim::Wire& en_get() noexcept requires get_sync {
    return cells_->get_enable();
  }
  /// Token-ring state, for verification harnesses (fault injection into a
  /// ring is how the token-ring monitor's positive path is exercised).
  sim::Wire& put_token(unsigned i) requires put_sync {
    return *cells_->put_ring().at(i);
  }
  sim::Wire& get_token(unsigned i) requires get_sync {
    return *cells_->get_ring().at(i);
  }
  /// Minimum CLK_put period (DESIGN.md section 7; validated by simulation).
  sim::Time put_min_period() const requires put_sync {
    return SyncPutSide::min_period(cfg_);
  }
  /// Minimum CLK_get period: max of the empty-detector loop and the
  /// tri-state read path to the receiver's sampling flop.
  sim::Time get_min_period() const requires get_sync {
    return SyncGetSide::min_period(cfg_);
  }

  // --- diagnostics, every design ---
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

  const FifoConfig& config() const noexcept { return cfg_; }

 private:
  /// One clock per synchronous side, put side first.
  using Clocks = std::array<sim::Wire*, put_sync + get_sync>;

  Fifo(sim::Simulation& sim, const std::string& name, const FifoConfig& cfg,
       const Clocks& clk);
  static Clocks clocks_of(sim::Wire* put, sim::Wire* get) {
    if constexpr (put_sync && get_sync) return {put, get};
    else if constexpr (put_sync || get_sync) return {put_sync ? put : get};
    else return {};
  }

  FifoConfig cfg_;
  gates::Netlist nl_;
  std::optional<gates::TimingDomain> put_dom_;
  std::optional<gates::TimingDomain> get_dom_;

  sim::Wire* put_req_ = nullptr;   ///< req_put (sync) or put_req (async)
  sim::Word* put_data_ = nullptr;  ///< data_put (sync) or put_data (async)
  sim::Wire* put_ack_ = nullptr;   ///< async put
  sim::Wire* full_ext_ = nullptr;  ///< sync put
  sim::Wire* full_raw_ = nullptr;  ///< sync put
  sim::Wire* get_req_ = nullptr;   ///< req_get (sync) or get_req (async)
  sim::Word* get_data_ = nullptr;  ///< data_get (sync) or get_data (async)
  sim::Wire* get_ack_ = nullptr;   ///< async get
  sim::Wire* stop_in_ = nullptr;   ///< sync get
  sim::Wire* valid_ext_ = nullptr;  ///< sync get
  sim::Wire* empty_w_ = nullptr;    ///< sync get
  sim::Wire* ne_raw_ = nullptr;     ///< sync get
  sim::Wire* oe_raw_ = nullptr;     ///< sync get
  CellArray* cells_ = nullptr;
};

using MixedClockFifo = Fifo<Timing::kSync, Timing::kSync>;
using AsyncSyncFifo = Fifo<Timing::kAsync, Timing::kSync>;
using SyncAsyncFifo = Fifo<Timing::kSync, Timing::kAsync>;
using AsyncAsyncFifo = Fifo<Timing::kAsync, Timing::kAsync>;

extern template class Fifo<Timing::kSync, Timing::kSync>;
extern template class Fifo<Timing::kAsync, Timing::kSync>;
extern template class Fifo<Timing::kSync, Timing::kAsync>;
extern template class Fifo<Timing::kAsync, Timing::kAsync>;

}  // namespace mts::fifo
