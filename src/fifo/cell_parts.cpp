#include "fifo/cell_parts.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ctrl/petri.hpp"
#include "ctrl/specs.hpp"
#include "fifo/async_timing.hpp"
#include "fifo/detectors.hpp"
#include "gates/celement.hpp"
#include "gates/combinational.hpp"
#include "gates/latch.hpp"
#include "gates/tristate.hpp"

namespace mts::fifo {

namespace {
std::string cell_name(unsigned index, const char* leaf) {
  return "c" + std::to_string(index) + "." + leaf;
}
}  // namespace

// The environment's req_put/req_get are registered outputs: they settle
// clk-to-q after the edge (the BFM drivers honour this). The matched token
// delay therefore only needs to cover the controller gate + broadcast
// response, plus one gate of margin. Residual overlaps narrower than the
// we/re AND-gate delay are absorbed by its inertial behaviour.
sim::Time put_token_match_delay(const FifoConfig& cfg) {
  const gates::DelayModel& dm = cfg.dm;
  const sim::Time bcast = dm.broadcast(cfg.capacity, cfg.width + 2);
  if (cfg.controller == ControllerKind::kFifo) {
    return dm.gate(3) + bcast + dm.gate(1);
  }
  // Relay station: req_put is not a control input; the enable only follows
  // full_s through the inverter and broadcast.
  return dm.gate(1) + bcast + dm.gate(1);
}

sim::Time get_token_match_delay(const FifoConfig& cfg) {
  const gates::DelayModel& dm = cfg.dm;
  const sim::Time bcast = dm.broadcast(cfg.capacity, cfg.width + 2);
  if (cfg.controller == ControllerKind::kFifo) {
    return dm.gate(3) + bcast + dm.gate(1);
  }
  // Relay station: stopIn responses go through the NOR controller.
  return dm.gate(2, 2) + bcast + dm.gate(1);
}

SyncPutPart::SyncPutPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
                         sim::Wire& en_broadcast, sim::Wire& tok_in,
                         sim::Wire& tok_out, sim::Word& data_put,
                         sim::Wire& req_put, const FifoConfig& cfg,
                         gates::TimingDomain* domain, bool initial_token) {
  // Put-token ring stage: shifts on every enabled CLK_put edge.
  nl.add<gates::Etdff>(nl.sim(), nl.qualified(cell_name(index, "ptokff")), clk,
                       tok_in, &en_broadcast, tok_out, cfg.dm.flop, domain,
                       initial_token);

  // Token output buffering matched to the enable network (see
  // put_token_match_delay): the freshly arrived token must not outrun the
  // enable's deassertion after the edge.
  sim::Wire& tok_matched = gates::make_delay(
      nl, cell_name(index, "ptokm"), tok_out, put_token_match_delay(cfg));

  // we_i = ptok_i & en_put; drives REG enable, the v flop enable and the DV
  // set input (fanout 3).
  we_ = &gates::make_gate(nl, cell_name(index, "we"), gates::GateOp::kAnd,
                          {&tok_matched, &en_broadcast}, cfg.dm, 3);

  reg_q_ = &nl.word(cell_name(index, "reg"));
  nl.add<gates::WordRegister>(nl.sim(), nl.qualified(cell_name(index, "regff")),
                              clk, data_put, we_, *reg_q_, cfg.dm.flop, domain);

  // Validity bit: latches req_put alongside the data (Section 3.1: "latch
  // the data item and also the data validity bit (which is req_put)").
  v_q_ = &nl.wire(cell_name(index, "v"));
  nl.add<gates::Etdff>(nl.sim(), nl.qualified(cell_name(index, "vff")), clk,
                       req_put, we_, *v_q_, cfg.dm.flop, domain);
}

SyncGetPart::SyncGetPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
                         sim::Wire& en_broadcast, sim::Wire& tok_in,
                         sim::Wire& tok_out, const FifoConfig& cfg,
                         gates::TimingDomain* domain, bool initial_token) {
  nl.add<gates::Etdff>(nl.sim(), nl.qualified(cell_name(index, "gtokff")), clk,
                       tok_in, &en_broadcast, tok_out, cfg.dm.flop, domain,
                       initial_token);
  // Matched token buffering, as on the put side.
  sim::Wire& tok_matched = gates::make_delay(
      nl, cell_name(index, "gtokm"), tok_out, get_token_match_delay(cfg));
  // re_i = gtok_i & en_get; drives the data/valid tri-state enables and the
  // DV reset input (fanout 3).
  re_ = &gates::make_gate(nl, cell_name(index, "re"), gates::GateOp::kAnd,
                          {&tok_matched, &en_broadcast}, cfg.dm, 3);
}

AsyncPutPart::AsyncPutPart(gates::Netlist& nl, unsigned index,
                           sim::Wire& req_broadcast, sim::Word& put_data,
                           sim::Wire& we1, sim::Wire& e_i, sim::Wire& we_out,
                           const FifoConfig& cfg, bool initial_token) {
  ptok_ = &nl.wire(cell_name(index, "ptok"), initial_token);

  // Asymmetric C-element (paper footnote 1): we+ requires put_req & ptok &
  // e_i; we- requires only put_req-.
  sim::Wire& we_raw = nl.wire(cell_name(index, "we_raw"));
  nl.add<gates::CElement>(nl.sim(), nl.qualified(cell_name(index, "weC")),
                          std::vector<sim::Wire*>{&req_broadcast},
                          std::vector<sim::Wire*>{ptok_, &e_i}, we_raw,
                          cfg.dm.celement(3), false);

  // we drives a W-bit latch enable, the DV, the ack tree and the next
  // cell's we1: model the load as an intra-cell broadcast.
  gates::gate_into(nl, cell_name(index, "weBuf"), gates::GateOp::kBuf, {&we_raw},
                   we_out, cfg.dm.broadcast(1, cfg.width));
  we_ = &we_out;

  // REG write port: transparent while we is high; the bundled-data
  // constraint guarantees put_data is stable for that whole interval.
  reg_q_ = &nl.word(cell_name(index, "reg"));
  nl.add<gates::WordLatch>(nl.sim(), nl.qualified(cell_name(index, "reglat")),
                           put_data, *we_, *reg_q_, cfg.dm);

  // ObtainPutToken burst-mode machine (Fig. 10a).
  nl.add<ctrl::BurstModeMachine>(
      nl.sim(), nl.qualified(cell_name(index, "opt")), ctrl::opt_spec(),
      std::vector<sim::Wire*>{&we1, we_}, std::vector<sim::Wire*>{ptok_},
      cfg.dm.gate(2),
      initial_token ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
}

AsyncGetPart::AsyncGetPart(gates::Netlist& nl, unsigned index,
                           sim::Wire& req_broadcast, sim::Wire& re1,
                           sim::Wire& f_i, sim::Wire& re_out,
                           const FifoConfig& cfg, bool initial_token) {
  gtok_ = &nl.wire(cell_name(index, "gtok"), initial_token);

  sim::Wire& re_raw = nl.wire(cell_name(index, "re_raw"));
  nl.add<gates::CElement>(nl.sim(), nl.qualified(cell_name(index, "reC")),
                          std::vector<sim::Wire*>{&req_broadcast},
                          std::vector<sim::Wire*>{gtok_, &f_i}, re_raw,
                          cfg.dm.celement(3), false);

  // re drives the W-bit tri-state driver enable, the DV, the ack tree and
  // the next cell's re1.
  gates::gate_into(nl, cell_name(index, "reBuf"), gates::GateOp::kBuf, {&re_raw},
                   re_out, cfg.dm.broadcast(1, cfg.width));
  re_ = &re_out;

  nl.add<ctrl::BurstModeMachine>(
      nl.sim(), nl.qualified(cell_name(index, "ogt")), ctrl::opt_spec(),
      std::vector<sim::Wire*>{&re1, re_}, std::vector<sim::Wire*>{gtok_},
      cfg.dm.gate(2),
      initial_token ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
}

CellArray::CellArray(gates::Netlist& nl, const FifoConfig& cfg,
                     const CellPort& put, const CellPort& get)
    : nl_(nl), cfg_(cfg), put_(put), get_(get) {
  sim::Simulation& sim = nl.sim();
  const unsigned n = cfg.capacity;
  const gates::DelayModel& dm = cfg.dm;

  if (sim::Observability* o = sim.observability()) {
    // A clockless side's trace track is its async handshake.
    obs_ = std::make_unique<sim::TransitObserver>(
        *o, sim, nl.prefix(), put.sync() ? put.clk->name() : "async",
        get.sync() ? get.clk->name() : "async", n);
  }

  // --- enables: a sync side's controller drives a broadcast wire; an async
  // side's request is broadcast to every cell's C-element ---
  put_enable_ = put.sync() ? &nl.wire("en_put_b")
                           : &gates::make_delay(nl, "put_req_b", *put.req,
                                                dm.broadcast(n, 1));
  get_enable_ = get.sync() ? &nl.wire("en_get_b")
                           : &gates::make_delay(nl, "get_req_b", *get.req,
                                                dm.broadcast(n, 1));
  // Validity on an asynchronous put interface is implicit in the handshake:
  // every enqueued item is valid. A sync put's req_put is its validity bit.
  put_valid_ = put.sync() ? put.req : &nl.wire("vcc", true);

  // --- token rings ---
  put_ring_.resize(n);
  get_ring_.resize(n);
  for (unsigned i = 0; i < n; ++i) {
    const std::string ci = "c" + std::to_string(i);
    put_ring_[i] = put.sync() ? &nl.wire(ci + ".ptok", i == 0)
                              : &nl.wire(ci + ".we");
    get_ring_[i] = get.sync() ? &nl.wire(ci + ".gtok", i == 0)
                              : &nl.wire(ci + ".re");
  }

  // --- shared output buses ---
  auto& data_bus = nl.add<gates::TristateBus<std::uint64_t>>(
      sim, nl.qualified("get_data_bus"), *get.data,
      dm.tristate_bus(n, cfg.width));
  gates::TristateBus<bool>* valid_tbus = nullptr;
  if (get.sync()) {
    valid_bus_ = &nl.wire("valid_bus");
    valid_tbus = &nl.add<gates::TristateBus<bool>>(
        sim, nl.qualified("valid_bus_ts"), *valid_bus_, dm.tristate_bus(n, 1));
  }

  // --- cells: put part + get part + DV (Figs. 5, 9) ---
  e_.resize(n);
  f_.resize(n);
  cells_.resize(n);
  for (unsigned i = 0; i < n; ++i) {
    const std::string ci = "c" + std::to_string(i);
    e_[i] = &nl.wire(ci + ".e", true);
    f_[i] = &nl.wire(ci + ".f", false);
    const unsigned prev = (i + n - 1) % n;

    sim::Wire* we = nullptr;
    if (put.sync()) {
      auto& part = nl.add<SyncPutPart>(nl, i, *put.clk, *put_enable_,
                                       *put_ring_[prev], *put_ring_[i],
                                       *put.data, *put.req, cfg, put.domain,
                                       i == 0);
      we = &part.we();
      cells_[i] = Cell{&part.v_q(), &part.reg_q()};
    } else {
      auto& part = nl.add<AsyncPutPart>(nl, i, *put_enable_, *put.data,
                                        *put_ring_[prev], *e_[i],
                                        *put_ring_[i], cfg, i == 0);
      we = &part.we();
      cells_[i] = Cell{put_valid_, &part.reg_q()};
    }
    sim::Wire* re = nullptr;
    if (get.sync()) {
      re = &nl.add<SyncGetPart>(nl, i, *get.clk, *get_enable_,
                                *get_ring_[prev], *get_ring_[i], cfg,
                                get.domain, i == 0)
                .re();
    } else {
      re = &nl.add<AsyncGetPart>(nl, i, *get_enable_, *get_ring_[prev], *f_[i],
                                 *get_ring_[i], cfg, i == 0)
                .re();
    }

    // Data-validity controller. Sync/sync: the paper's SR latch (set on
    // put, reset on get, both asynchronous to the opposite clock -- Section
    // 3.1 actions (b)), unless DvKind asks for the serialized net. Async
    // put + sync get: DV_as (Fig. 10b). An async get reacts to f_i at
    // once, so f_i may only rise once the data is provably latched (we-):
    // the serialized DV_linear net. Every DV's output latency matches the
    // SR latch, so all designs present identical f_i timing to a shared
    // empty detector (Table 1 shows identical get columns).
    if (put.sync() && get.sync() && cfg.dv_kind == DvKind::kSrLatch) {
      nl.add<gates::SrLatch>(sim, nl.qualified(ci + ".dv"), *we, *re, *f_[i],
                             *e_[i], dm.sr_latch, false);
    } else {
      nl.add<ctrl::PetriEngine>(
          sim, nl.qualified(ci + ".dv"),
          !put.sync() && get.sync() ? ctrl::dv_as_net() : ctrl::dv_linear_net(),
          std::vector<sim::Wire*>{we, re},
          std::vector<sim::Wire*>{e_[i], f_[i]}, dm.sr_latch);
    }

    data_bus.attach_driver(*re, *cells_[i].reg);
    if (valid_tbus != nullptr) valid_tbus->attach_driver(*re, *cells_[i].valid);

    we->on_rise([this, i] { on_put(i); });
    re->on_rise([this, i] { on_get(i); });
  }
}

void CellArray::finish(const SideTaps& taps) {
  sim::Simulation& sim = nl_.sim();
  if (obs_ != nullptr && get_.sync()) {
    // The synchronized empty flag falling is the moment the oldest item
    // becomes visible to the get clock domain -- the sync-crossing span.
    taps.empty->on_fall([this] { obs_->sync_crossed(); });
    if (cfg_.controller == ControllerKind::kRelayStation) {
      // Relay-station mode: a cycle where stopIn holds back a resident item
      // is a back-pressure stall (the chain stall spans of Section 5.2).
      get_.clk->on_rise([this, stop_in = taps.stop_in, empty = taps.empty] {
        if (stop_in->read() && !empty->read()) obs_->stalled_by_stop_in();
      });
    }
  }

  // --- protocol-invariant monitors (armed runs only) ---
  // Built last so every checked wire already exists. Every checker is
  // read-only and draws from no RNG: an armed run's waveforms match the
  // unarmed run.
  verify::Hub* hub = sim.monitors();
  if (hub == nullptr) return;
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;
  const std::string& site = nl_.prefix();
  mon_ = std::make_unique<verify::MonitorSet>();
  mon_->hub = hub;
  const unsigned full_win = cfg_.full_kind == FullDetectorKind::kAnticipating
                                ? anticipation_window(cfg_.sync.depth)
                                : 1;
  const unsigned ne_win = anticipation_window(cfg_.sync.depth);
  // Worst-case detector tree latency after a DV commit, plus one 2-input
  // gate of margin: a mismatch older than this is a real fault.
  unsigned widest = 1;
  if (put_.sync()) widest = std::max(widest, full_win);
  if (get_.sync()) widest = std::max(widest, ne_win);
  const sim::Time settle =
      dm.sr_latch + detector_delay(n, widest, dm) + dm.gate(2);

  if (put_.sync()) {
    mon_->rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        *hub, sim, site + ".ptok", put_ring_, *put_.clk));
  } else {
    // Bundled-data slack measured from req+ as seen at the FIFO boundary:
    // the environment's nominal launch leads req+ by one gate (the matched
    // delay in bfm::AsyncPutDriver), so the capture margin from req+ is the
    // full transparency window minus that lead.
    const sim::Time margin = async_put_data_margin(cfg_);
    const sim::Time lead = dm.gate(1);
    mon_->handshake = std::make_unique<verify::HandshakeMonitor>(
        *hub, sim, site + ".put", *put_.req, *taps.put_ack, *put_.data,
        margin > lead ? margin - lead : 0);
  }
  if (get_.sync()) {
    mon_->rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        *hub, sim, site + ".gtok", get_ring_, *get_.clk));
  }
  if (put_.sync()) {
    mon_->detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        *hub, sim, site + ".full", verify::Invariant::kFullDetector, e_,
        *taps.full_raw, full_win, *put_.clk, settle));
  }
  if (get_.sync()) {
    mon_->detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        *hub, sim, site + ".ne", verify::Invariant::kEmptyDetector, f_,
        *taps.ne_raw, ne_win, *get_.clk, settle));
    mon_->detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        *hub, sim, site + ".oe", verify::Invariant::kEmptyDetector, f_,
        *taps.oe_raw, 1, *get_.clk, settle));
  }
  mon_->stream = std::make_unique<verify::StreamMonitor>(*hub, sim, site);
}

unsigned CellArray::occupancy() const {
  unsigned count = 0;
  for (const sim::Wire* f : f_) count += f->read() ? 1u : 0u;
  return count;
}

void CellArray::on_put(unsigned i) {
  ++data_moves_;  // one register write per enqueue; data never moves again
  // An enabled put on a full cell or an enabled get on an empty cell is a
  // protocol failure (the max-frequency search and the detector ablations
  // count these).
  if (f_[i]->read()) protocol_error(verify::Invariant::kOverflow);
  // we rises before the item latches: a sync put's data_put/req_put still
  // carry the committing item mid-cycle, and an async put's bundled data is
  // stable (bundling constraint). Relay mode enqueues void packets every
  // cycle; only valid ones become transactions.
  if (!put_valid_->read()) return;
  const std::uint64_t data = put_.data->read();
  std::uint64_t txn = 0;
  if (obs_ != nullptr) txn = obs_->put_committed(data, occupancy() + 1);
  if (mon_ != nullptr) mon_->stream->put(data, txn);
}

void CellArray::on_get(unsigned i) {
  if (!f_[i]->read()) protocol_error(verify::Invariant::kUnderflow);
  // At re-rise the cell's registered outputs hold the departing item.
  const Cell& cell = cells_[i];
  if (!cell.valid->read()) return;
  const std::uint64_t data = cell.reg->read();
  std::uint64_t txn = 0;
  if (obs_ != nullptr) {
    const unsigned occ = occupancy();
    txn = obs_->get_observed(data, occ > 0 ? occ - 1 : 0);
  }
  if (mon_ != nullptr) mon_->stream->get(data, txn);
}

void CellArray::protocol_error(verify::Invariant invariant) {
  const bool overflow = invariant == verify::Invariant::kOverflow;
  ++(overflow ? overflows_ : underflows_);
  const char* observed =
      overflow ? "put into a full cell" : "get from an empty cell";
  nl_.sim().report().add(nl_.sim().now(), sim::Severity::kError,
                         overflow ? "overflow" : "underflow",
                         nl_.prefix() + ": " + observed);
  if (mon_ == nullptr) return;
  verify::Violation v;
  v.time = nl_.sim().now();
  v.invariant = invariant;
  v.site = nl_.prefix();
  v.observed = observed;
  v.expected = overflow ? "puts only while a cell is empty"
                        : "gets only while an item is resident";
  mon_->hub->report(std::move(v));
}

}  // namespace mts::fifo
