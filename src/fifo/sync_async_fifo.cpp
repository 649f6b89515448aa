#include "fifo/sync_async_fifo.hpp"

#include "ctrl/specs.hpp"
#include "fifo/detectors.hpp"
#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"
#include "gates/tristate.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

SyncAsyncFifo::SyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                             const FifoConfig& cfg, sim::Wire& clk_put)
    : sim_(sim), cfg_(cfg), nl_(sim, name), put_dom_(sim, name + ".put") {
  cfg_.validate();
  if (cfg_.controller != ControllerKind::kFifo) {
    throw ConfigError("SyncAsyncFifo: no relay-station variant is defined "
                      "(the paper's relay chains terminate in a synchronous "
                      "domain)");
  }
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;

  if (sim::Observability* o = sim.observability()) {
    obs_ = std::make_unique<sim::TransitObserver>(*o, sim, name,
                                                  clk_put.name(), "async", n);
  }

  req_put_ = &nl_.wire("req_put");
  data_put_ = &nl_.word("data_put");
  get_req_ = &nl_.wire("get_req");
  get_data_ = &nl_.word("get_data");
  en_put_b_ = &nl_.wire("en_put_b");

  sim::Wire& req_b =
      gates::make_delay(nl_, "get_req_b", *get_req_, dm.broadcast(n, 1));

  // --- token rings ---
  std::vector<sim::Wire*> ptok(n);
  std::vector<sim::Wire*> re(n);
  for (unsigned i = 0; i < n; ++i) {
    ptok[i] = &nl_.wire("c" + std::to_string(i) + ".ptok", i == 0);
    re[i] = &nl_.wire("c" + std::to_string(i) + ".re");
  }

  auto& data_bus = nl_.add<gates::TristateBus<std::uint64_t>>(
      sim, nl_.qualified("get_data_bus"), *get_data_,
      dm.tristate_bus(n, cfg_.width));

  // --- cells: sync put part + async get part + serialized DV ---
  e_.resize(n);
  f_.resize(n);
  std::vector<sim::Wire*> ack_terms;
  ack_terms.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    const std::string ci = "c" + std::to_string(i);
    e_[i] = &nl_.wire(ci + ".e", true);
    f_[i] = &nl_.wire(ci + ".f", false);

    auto& put_part = nl_.add<SyncPutPart>(nl_, i, clk_put, *en_put_b_,
                                          *ptok[(i + n - 1) % n], *ptok[i],
                                          *data_put_, *req_put_, cfg_, &put_dom_,
                                          i == 0);
    nl_.add<AsyncGetPart>(nl_, i, req_b, *re[(i + n - 1) % n], *f_[i], *re[i],
                          cfg_, i == 0);

    nl_.add<ctrl::PetriEngine>(nl_.sim(), nl_.qualified(ci + ".dv"),
                               ctrl::dv_linear_net(),
                               std::vector<sim::Wire*>{&put_part.we(), re[i]},
                               std::vector<sim::Wire*>{e_[i], f_[i]},
                               dm.sr_latch);

    data_bus.attach_driver(*re[i], put_part.reg_q());
    ack_terms.push_back(re[i]);

    sim::Wire* fw = f_[i];
    put_part.we().on_rise([this, fw] {
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
      if (req_put_->read()) {
        std::uint64_t txn = 0;
        if (obs_ != nullptr) {
          txn = obs_->put_committed(data_put_->read(), occupancy() + 1);
        }
        if (mon_ != nullptr) mon_->stream->put(data_put_->read(), txn);
      }
    });
    sim::Word* rq = &put_part.reg_q();
    re[i]->on_rise([this, fw, rq] {
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

  // get_ack: OR tree over the per-cell re signals, padded by a matched
  // delay covering the tri-state bus (single-rail bundling constraint: data
  // must be valid when ack rises).
  sim::Wire& ack_tree =
      gates::make_tree(nl_, "ackTree", gates::GateOp::kOr, ack_terms, dm);
  get_ack_ = &gates::make_delay(nl_, "get_ack", ack_tree,
                                dm.tristate_bus(n, cfg_.width));

  // --- put side: identical block to the mixed-clock design ---
  auto& put_side = nl_.add<SyncPutSide>(nl_, clk_put, cfg_, put_dom_, e_,
                                        *req_put_, *en_put_b_);
  full_ext_ = &put_side.full_ext();

  // --- protocol-invariant monitors (armed runs only) ---
  if (verify::Hub* hub = sim.monitors()) {
    mon_ = std::make_unique<verify::MonitorSet>();
    mon_->hub = hub;
    const unsigned full_win = cfg_.full_kind == FullDetectorKind::kAnticipating
                                  ? anticipation_window(cfg_.sync.depth)
                                  : 1;
    const sim::Time settle = dm.sr_latch +
                             detector_delay(n, full_win, dm) + dm.gate(2);
    mon_->rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        *hub, sim, nl_.prefix() + ".ptok", ptok, clk_put));
    mon_->detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        *hub, sim, nl_.prefix() + ".full", verify::Invariant::kFullDetector,
        e_, put_side.full_raw(), full_win, clk_put, settle));
    mon_->stream = std::make_unique<verify::StreamMonitor>(*hub, sim,
                                                           nl_.prefix());
  }
}

unsigned SyncAsyncFifo::occupancy() const {
  unsigned count = 0;
  for (const sim::Wire* f : f_) count += f->read() ? 1u : 0u;
  return count;
}

sim::Time SyncAsyncFifo::put_min_period() const {
  return SyncPutSide::min_period(cfg_);
}

}  // namespace mts::fifo
