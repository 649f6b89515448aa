#include "fifo/async_sync_fifo.hpp"

#include "ctrl/specs.hpp"
#include "fifo/async_timing.hpp"
#include "fifo/detectors.hpp"
#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"
#include "gates/tristate.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

AsyncSyncFifo::AsyncSyncFifo(sim::Simulation& sim, const std::string& name,
                             const FifoConfig& cfg, sim::Wire& clk_get)
    : sim_(sim), cfg_(cfg), nl_(sim, name), get_dom_(sim, name + ".get") {
  cfg_.validate();
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;

  if (sim::Observability* o = sim.observability()) {
    // The put side is clockless: its trace track is the async handshake.
    obs_ = std::make_unique<sim::TransitObserver>(*o, sim, name, "async",
                                                  clk_get.name(), n);
  }

  // --- external interface wires ---
  put_req_ = &nl_.wire("put_req");
  put_data_ = &nl_.word("put_data");
  req_get_ = &nl_.wire("req_get");
  stop_in_ = &nl_.wire("stop_in");
  data_get_ = &nl_.word("data_get");
  valid_bus_ = &nl_.wire("valid_bus");
  valid_ext_ = &nl_.wire("valid_get");
  empty_w_ = &nl_.wire("empty", true);
  en_get_b_ = &nl_.wire("en_get_b");

  // put_req is broadcast to every cell's C-element.
  sim::Wire& req_b =
      gates::make_delay(nl_, "put_req_b", *put_req_, dm.broadcast(n, 1));

  // Validity on the asynchronous interface is implicit in the handshake;
  // enqueued items are always valid.
  sim::Wire& vcc = nl_.wire("vcc", true);

  // --- token rings ---
  std::vector<sim::Wire*> we(n);
  std::vector<sim::Wire*> gtok(n);
  for (unsigned i = 0; i < n; ++i) {
    we[i] = &nl_.wire("c" + std::to_string(i) + ".we");
    gtok[i] = &nl_.wire("c" + std::to_string(i) + ".gtok", i == 0);
  }

  auto& data_bus = nl_.add<gates::TristateBus<std::uint64_t>>(
      sim, nl_.qualified("get_data_bus"), *data_get_,
      dm.tristate_bus(n, cfg_.width));
  auto& valid_tbus = nl_.add<gates::TristateBus<bool>>(
      sim, nl_.qualified("valid_bus_ts"), *valid_bus_, dm.tristate_bus(n, 1));

  // --- cells: async put part + sync get part + DV_as (Fig. 9) ---
  e_.resize(n);
  f_.resize(n);
  std::vector<sim::Wire*> ack_terms;
  ack_terms.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    const std::string ci = "c" + std::to_string(i);
    e_[i] = &nl_.wire(ci + ".e", true);
    f_[i] = &nl_.wire(ci + ".f", false);

    auto& put_part = nl_.add<AsyncPutPart>(nl_, i, req_b, *put_data_,
                                           *we[(i + n - 1) % n], *e_[i], *we[i],
                                           cfg_, i == 0);
    auto& get_part = nl_.add<SyncGetPart>(nl_, i, clk_get, *en_get_b_,
                                          *gtok[(i + n - 1) % n], *gtok[i], cfg_,
                                          &get_dom_, i == 0);

    // DV_as (Fig. 10b): the Petri-net data-validity controller. Output
    // latency matched to the mixed-clock SR latch so both designs present
    // identical f_i timing to the shared empty detector (Table 1 shows
    // identical get columns for both).
    nl_.add<ctrl::PetriEngine>(nl_.sim(), nl_.qualified(ci + ".dv"),
                               ctrl::dv_as_net(),
                               std::vector<sim::Wire*>{we[i], &get_part.re()},
                               std::vector<sim::Wire*>{e_[i], f_[i]},
                               dm.sr_latch);

    data_bus.attach_driver(get_part.re(), put_part.reg_q());
    valid_tbus.attach_driver(get_part.re(), vcc);
    ack_terms.push_back(we[i]);

    sim::Wire* fw = f_[i];
    we[i]->on_rise([this, fw] {
      if (fw->read()) {
        ++overflows_;
        sim_.report().add(sim_.now(), sim::Severity::kError, "overflow",
                          nl_.prefix() + ": put into a full cell");
        if (mon_ != nullptr) {
          verify::Violation v;
          v.time = sim_.now();
          v.invariant = verify::Invariant::kOverflow;
          v.site = nl_.prefix();
          v.observed = "put into a full cell";
          v.expected = "puts only while a cell is empty";
          mon_->hub->report(std::move(v));
        }
      }
      // At we-rise the bundled data is stable (bundling constraint) and the
      // transparent latch is capturing it; every async put is a valid item.
      std::uint64_t txn = 0;
      if (obs_ != nullptr) {
        txn = obs_->put_committed(put_data_->read(), occupancy() + 1);
      }
      if (mon_ != nullptr) mon_->stream->put(put_data_->read(), txn);
    });
    sim::Word* rq = &put_part.reg_q();
    get_part.re().on_rise([this, fw, rq] {
      if (!fw->read()) {
        ++underflows_;
        sim_.report().add(sim_.now(), sim::Severity::kError, "underflow",
                          nl_.prefix() + ": get from an empty cell");
        if (mon_ != nullptr) {
          verify::Violation v;
          v.time = sim_.now();
          v.invariant = verify::Invariant::kUnderflow;
          v.site = nl_.prefix();
          v.observed = "get from an empty cell";
          v.expected = "gets only while an item is resident";
          mon_->hub->report(std::move(v));
        }
      }
      std::uint64_t txn = 0;
      if (obs_ != nullptr) {
        const unsigned occ = occupancy();
        txn = obs_->get_observed(rq->read(), occ > 0 ? occ - 1 : 0);
      }
      if (mon_ != nullptr) mon_->stream->get(rq->read(), txn);
    });
  }

  // put_ack: a tree of OR gates merges the per-cell acknowledgments
  // (Section 6 experimental setup), driving the global ack wire back to
  // the sender.
  sim::Wire& ack_tree =
      gates::make_tree(nl_, "ackTree", gates::GateOp::kOr, ack_terms, dm);
  put_ack_ = &gates::make_delay(nl_, "put_ack", ack_tree, dm.gate(2, 4));

  // --- get side: identical block to the mixed-clock design ---
  auto& get_side = nl_.add<SyncGetSide>(nl_, clk_get, cfg_, get_dom_, f_,
                                        *req_get_, *stop_in_, *valid_bus_,
                                        *valid_ext_, *empty_w_, *en_get_b_);
  ne_raw_ = &get_side.ne_raw();
  oe_raw_ = &get_side.oe_raw();

  if (obs_ != nullptr) {
    // empty falling = the oldest async put is now visible to CLK_get.
    empty_w_->on_fall([this] { obs_->sync_crossed(); });
    if (cfg_.controller == ControllerKind::kRelayStation) {
      clk_get.on_rise([this] {
        if (stop_in_->read() && !empty_w_->read()) obs_->stalled_by_stop_in();
      });
    }
  }

  // --- protocol-invariant monitors (armed runs only) ---
  if (verify::Hub* hub = sim.monitors()) {
    mon_ = std::make_unique<verify::MonitorSet>();
    mon_->hub = hub;
    const unsigned ne_win = anticipation_window(cfg_.sync.depth);
    const sim::Time settle =
        dm.sr_latch + detector_delay(n, ne_win, dm) + dm.gate(2);
    // Bundled-data slack measured from req+ as seen at the FIFO boundary:
    // the environment's nominal launch leads req+ by one gate (the matched
    // delay in bfm::AsyncPutDriver), so the capture margin from req+ is the
    // full transparency window minus that lead.
    const sim::Time margin = async_put_data_margin(cfg_);
    const sim::Time lead = dm.gate(1);
    mon_->handshake = std::make_unique<verify::HandshakeMonitor>(
        *hub, sim, nl_.prefix() + ".put", *put_req_, *put_ack_, *put_data_,
        margin > lead ? margin - lead : 0);
    mon_->rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        *hub, sim, nl_.prefix() + ".gtok", gtok, clk_get));
    mon_->detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        *hub, sim, nl_.prefix() + ".ne", verify::Invariant::kEmptyDetector,
        f_, *ne_raw_, ne_win, clk_get, settle));
    mon_->detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        *hub, sim, nl_.prefix() + ".oe", verify::Invariant::kEmptyDetector,
        f_, *oe_raw_, 1, clk_get, settle));
    mon_->stream = std::make_unique<verify::StreamMonitor>(*hub, sim,
                                                           nl_.prefix());
  }
}

unsigned AsyncSyncFifo::occupancy() const {
  unsigned count = 0;
  for (const sim::Wire* f : f_) count += f->read() ? 1u : 0u;
  return count;
}

sim::Time AsyncSyncFifo::get_min_period() const {
  return SyncGetSide::min_period(cfg_);
}

}  // namespace mts::fifo
