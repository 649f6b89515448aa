// Reusable FIFO cell parts (Section 4: "Each cell can be divided into 3
// distinct parts: a put part..., a get part..., and a data validity
// controller (DV)... these parts can be glued together ... to obtain a cell
// implementation.").
//
// One CellArray glues them into the circular cell array of every FIFO
// design; its put and get kinds select the parts:
//
//   put, get      design       parts
//   sync, sync    mixed-clock  SyncPutPart  + SyncGetPart  + SR-latch DV
//   async, sync   async-sync   AsyncPutPart + SyncGetPart  + DV_as net
//   sync, async   sync-async   SyncPutPart  + AsyncGetPart + DV_linear net
//   async, async  async-async  AsyncPutPart + AsyncGetPart + DV_linear ([4])
//
// (DvKind::kConservative swaps the mixed-clock SR latch for DV_linear.)
// fifo::Fifo adds only what lies outside the cells: the external wires and
// the SyncPutSide/SyncGetSide or ack OR trees (fifo/mixed_timing_fifo.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ctrl/burst_mode.hpp"
#include "fifo/config.hpp"
#include "gates/flops.hpp"
#include "gates/netlist.hpp"
#include "gates/timing.hpp"
#include "sim/observe.hpp"
#include "sim/signal.hpp"
#include "verify/checkers.hpp"

namespace mts::fifo {

/// One-sided timing constraint of the token-ring cell (present in the real
/// design and made explicit here): after a clock edge, a cell's freshly
/// arrived token must not reach the we_i/re_i AND gate before the enable
/// broadcast has had time to deassert, or the new token holder would see a
/// spurious enable pulse and corrupt its DV latch. The token flop's output
/// buffering is therefore matched to the controller-response path
/// (environment reaction + controller gate + broadcast network, plus one
/// gate of margin). These return that matched delay for each side.
sim::Time put_token_match_delay(const FifoConfig& cfg);
sim::Time get_token_match_delay(const FifoConfig& cfg);

/// Synchronous put part (Fig. 5, upper half): put-token ETDFF, the we_i
/// enable (ptok & en_put), the REG write port and the validity flop.
/// Data and tokens latch on the CLK_put edge that ends an enabled cycle.
class SyncPutPart {
 public:
  /// `tok_in`/`tok_out` are this cell's slice of the put-token ring;
  /// `en_broadcast` is the buffered global en_put.
  SyncPutPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
              sim::Wire& en_broadcast, sim::Wire& tok_in, sim::Wire& tok_out,
              sim::Word& data_put, sim::Wire& req_put, const FifoConfig& cfg,
              gates::TimingDomain* domain, bool initial_token);

  /// ptok_i & en_put: REG write enable and the DV "put is happening" input.
  sim::Wire& we() const noexcept { return *we_; }
  sim::Word& reg_q() const noexcept { return *reg_q_; }
  sim::Wire& v_q() const noexcept { return *v_q_; }

 private:
  sim::Wire* we_ = nullptr;
  sim::Word* reg_q_ = nullptr;
  sim::Wire* v_q_ = nullptr;
};

/// Synchronous get part (Fig. 5, lower half): get-token ETDFF and the re_i
/// enable (gtok & en_get) that drives the tri-state buses and the DV reset.
class SyncGetPart {
 public:
  SyncGetPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
              sim::Wire& en_broadcast, sim::Wire& tok_in, sim::Wire& tok_out,
              const FifoConfig& cfg, gates::TimingDomain* domain,
              bool initial_token);

  sim::Wire& re() const noexcept { return *re_; }

 private:
  sim::Wire* re_ = nullptr;
};

/// Asynchronous put part ([4], reused in Section 4): ObtainPutToken
/// burst-mode machine, asymmetric C-element gating we, and a transparent
/// word latch as the REG write port. we_i doubles as the cell's
/// acknowledgment (merged into put_ack by an OR tree) and as the token
/// pulse we1 for the next cell.
class AsyncPutPart {
 public:
  /// `req_broadcast` is the buffered global put_req; `we1` is the previous
  /// cell's we; `e_i` is the DV empty state (C-element guard); `we_out` is
  /// the caller-owned wire this part drives (the cells' we wires form a
  /// ring, so they must pre-exist).
  AsyncPutPart(gates::Netlist& nl, unsigned index, sim::Wire& req_broadcast,
               sim::Word& put_data, sim::Wire& we1, sim::Wire& e_i,
               sim::Wire& we_out, const FifoConfig& cfg, bool initial_token);

  sim::Wire& we() const noexcept { return *we_; }
  sim::Wire& ptok() const noexcept { return *ptok_; }
  sim::Word& reg_q() const noexcept { return *reg_q_; }

 private:
  sim::Wire* we_ = nullptr;
  sim::Wire* ptok_ = nullptr;
  sim::Word* reg_q_ = nullptr;
};

/// Asynchronous get part ([4]): ObtainGetToken machine (same burst-mode
/// spec as OPT) and an asymmetric C-element gating re. re_i enables this
/// cell's tri-state driver and is merged into get_ack.
class AsyncGetPart {
 public:
  AsyncGetPart(gates::Netlist& nl, unsigned index, sim::Wire& req_broadcast,
               sim::Wire& re1, sim::Wire& f_i, sim::Wire& re_out,
               const FifoConfig& cfg, bool initial_token);

  sim::Wire& re() const noexcept { return *re_; }
  sim::Wire& gtok() const noexcept { return *gtok_; }

 private:
  sim::Wire* re_ = nullptr;
  sim::Wire* gtok_ = nullptr;
};

/// One interface of a cell array. A synchronous side names its clock and
/// timing domain; an asynchronous (4-phase bundled-data) side leaves both
/// null.
struct CellPort {
  sim::Wire* clk = nullptr;
  gates::TimingDomain* domain = nullptr;
  /// Put: req_put (sync; also the item's validity bit) or put_req (async).
  /// Get: get_req (async); a sync get side's req_get feeds SyncGetSide.
  sim::Wire* req = nullptr;
  /// Put: the data input. Get: the word the tri-state data bus drives.
  sim::Word* data = nullptr;

  bool sync() const noexcept { return clk != nullptr; }
};

/// Wires of the interface sides (SyncPutSide, SyncGetSide, ack OR trees)
/// that the cell array's observer and monitors read. Each side sets the
/// fields of its kind; the rest stay null.
struct SideTaps {
  sim::Wire* full_raw = nullptr;  ///< sync put: unsynchronized full
  sim::Wire* ne_raw = nullptr;    ///< sync get: anticipating empty
  sim::Wire* oe_raw = nullptr;    ///< sync get: true empty
  sim::Wire* empty = nullptr;     ///< sync get: synchronized empty
  sim::Wire* stop_in = nullptr;   ///< sync get: relay back-pressure input
  sim::Wire* put_ack = nullptr;   ///< async put: the acknowledgment
};

/// The circular cell array shared by all four FIFO designs (Section 4):
/// the put-part and get-part rings, each cell's data-validity controller,
/// the tri-state output buses, and the per-cell hooks that count data
/// moves, flag over/underflow and feed the observer and the monitors.
///
/// A put is a transaction when its validity bit is set: req_put on a sync
/// put side, always on an async one. A get is a transaction when the
/// departing cell's validity is set: its v flop behind a sync put part,
/// always behind an async one.
class CellArray {
 public:
  /// Builds the cells. The FIFO then builds its interface sides from
  /// e()/f(), the rings and the enables, and calls finish() once. `cfg`
  /// must outlive the array (the owning FIFO's validated copy).
  CellArray(gates::Netlist& nl, const FifoConfig& cfg, const CellPort& put,
            const CellPort& get);

  CellArray(const CellArray&) = delete;
  CellArray& operator=(const CellArray&) = delete;

  /// Attaches the observer's side listeners and, with a verify::Hub armed,
  /// the monitor set: per sync put the ptok ring and full detector, per
  /// sync get the gtok ring and ne/oe detectors, per async put the
  /// handshake, and for every design the stream scoreboard.
  void finish(const SideTaps& taps);

  /// Sync side: the enable broadcast its SyncPutSide/SyncGetSide drives.
  /// Async side: the buffered request broadcast to every C-element.
  sim::Wire& put_enable() const noexcept { return *put_enable_; }
  sim::Wire& get_enable() const noexcept { return *get_enable_; }
  /// The cells' validity bus (sync get side only).
  sim::Wire& valid_bus() const noexcept { return *valid_bus_; }

  /// Per-cell DV state, in ring order.
  const std::vector<sim::Wire*>& e() const noexcept { return e_; }
  const std::vector<sim::Wire*>& f() const noexcept { return f_; }
  /// Token rings: ptok (sync put) or we (async put); gtok (sync get) or re
  /// (async get). The async rings' wires are also the acknowledgments.
  const std::vector<sim::Wire*>& put_ring() const noexcept { return put_ring_; }
  const std::vector<sim::Wire*>& get_ring() const noexcept { return get_ring_; }

  /// Number of cells currently holding a data item (f_i set).
  unsigned occupancy() const;
  std::uint64_t overflow_count() const noexcept { return overflows_; }
  std::uint64_t underflow_count() const noexcept { return underflows_; }
  /// Register-write events (cell enqueues): with immobile data this is
  /// exactly one per item -- the paper's low-power argument (Section 2).
  std::uint64_t data_moves() const noexcept { return data_moves_; }

 private:
  struct Cell {
    sim::Wire* valid;  ///< v flop (sync put) or vcc (async put)
    sim::Word* reg;    ///< the cell's data register
  };

  void on_put(unsigned i);
  void on_get(unsigned i);
  void protocol_error(verify::Invariant invariant);

  gates::Netlist& nl_;
  const FifoConfig& cfg_;
  CellPort put_;
  CellPort get_;
  sim::Wire* put_enable_ = nullptr;
  sim::Wire* get_enable_ = nullptr;
  sim::Wire* put_valid_ = nullptr;
  sim::Wire* valid_bus_ = nullptr;
  std::vector<sim::Wire*> put_ring_;
  std::vector<sim::Wire*> get_ring_;
  std::vector<sim::Wire*> e_;
  std::vector<sim::Wire*> f_;
  std::vector<Cell> cells_;
  std::uint64_t overflows_ = 0;
  std::uint64_t underflows_ = 0;
  std::uint64_t data_moves_ = 0;
  /// Non-null only when the Simulation had observability armed at
  /// construction time (sim/observe.hpp); the seed path keeps a nullptr.
  std::unique_ptr<sim::TransitObserver> obs_;
  /// Non-null only when a verify::Hub was armed at finish() time.
  std::unique_ptr<verify::MonitorSet> mon_;
};

}  // namespace mts::fifo
