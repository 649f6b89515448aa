#include "fifo/mixed_timing_fifo.hpp"

#include "gates/combinational.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

template <Timing Put, Timing Get>
void Fifo<Put, Get>::check(const FifoConfig& cfg) {
  cfg.validate();
  if (!get_sync && cfg.controller != ControllerKind::kFifo) {
    throw ConfigError("Fifo: an asynchronous get side has no relay-station "
                      "variant (relay chains terminate in a synchronous "
                      "domain; asynchronous chains use lip::Micropipeline)");
  }
}

template <Timing Put, Timing Get>
Fifo<Put, Get>::Fifo(sim::Simulation& sim, const std::string& name,
                     const FifoConfig& cfg, const Clocks& clk)
    : cfg_(cfg), nl_(sim, name) {
  check(cfg_);
  const gates::DelayModel& dm = cfg_.dm;
  sim::Wire* clk_put = nullptr;
  sim::Wire* clk_get = nullptr;
  gates::TimingDomain* put_dom = nullptr;
  gates::TimingDomain* get_dom = nullptr;
  if constexpr (put_sync) {
    clk_put = clk.front();
    put_dom = &put_dom_.emplace(sim, name + ".put");
  }
  if constexpr (get_sync) {
    clk_get = clk.back();
    get_dom = &get_dom_.emplace(sim, name + ".get");
  }

  // 1-2. interface wires, put side then get side
  put_req_ = &nl_.wire(put_sync ? "req_put" : "put_req");
  put_data_ = &nl_.word(put_sync ? "data_put" : "put_data");
  get_req_ = &nl_.wire(get_sync ? "req_get" : "get_req");
  if constexpr (get_sync) stop_in_ = &nl_.wire("stop_in");
  get_data_ = &nl_.word(get_sync ? "data_get" : "get_data");
  if constexpr (get_sync) {
    valid_ext_ = &nl_.wire("valid_get");
    empty_w_ = &nl_.wire("empty", true);
  }

  // 3. cells: the put part x get part and DV net the side kinds select
  cells_ = &nl_.add<CellArray>(
      nl_, cfg_, CellPort{clk_put, put_dom, put_req_, put_data_},
      CellPort{clk_get, get_dom, get_sync ? nullptr : get_req_, get_data_});

  // 4. asynchronous acks: OR trees over the cells' we (put) / re (get)
  // wires; get_ack is padded by a matched delay covering the tri-state bus
  // (single-rail bundling: data must be valid when ack rises).
  const bool both_async = !put_sync && !get_sync;
  if constexpr (!put_sync) {
    sim::Wire& tree =
        gates::make_tree(nl_, both_async ? "putAckTree" : "ackTree",
                         gates::GateOp::kOr, cells_->put_ring(), dm);
    put_ack_ = &gates::make_delay(nl_, "put_ack", tree, dm.gate(2, 4));
  }
  if constexpr (!get_sync) {
    sim::Wire& tree =
        gates::make_tree(nl_, both_async ? "getAckTree" : "ackTree",
                         gates::GateOp::kOr, cells_->get_ring(), dm);
    get_ack_ = &gates::make_delay(nl_, "get_ack", tree,
                                  dm.tristate_bus(cfg_.capacity, cfg_.width));
  }

  // 5. synchronous sides: detectors, synchronizers, controllers
  if constexpr (put_sync) {
    auto& side = nl_.add<SyncPutSide>(nl_, *clk_put, cfg_, *put_dom,
                                      cells_->e(), *put_req_,
                                      cells_->put_enable());
    full_raw_ = &side.full_raw();
    full_ext_ = &side.full_ext();
  }
  if constexpr (get_sync) {
    auto& side = nl_.add<SyncGetSide>(
        nl_, *clk_get, cfg_, *get_dom, cells_->f(), *get_req_, *stop_in_,
        cells_->valid_bus(), *valid_ext_, *empty_w_, cells_->get_enable());
    ne_raw_ = &side.ne_raw();
    oe_raw_ = &side.oe_raw();
  }

  // 6. observer listeners and, when armed, the monitor set
  cells_->finish(SideTaps{.full_raw = full_raw_,
                          .ne_raw = ne_raw_,
                          .oe_raw = oe_raw_,
                          .empty = empty_w_,
                          .stop_in = stop_in_,
                          .put_ack = put_ack_});
}

template class Fifo<Timing::kSync, Timing::kSync>;
template class Fifo<Timing::kAsync, Timing::kSync>;
template class Fifo<Timing::kSync, Timing::kAsync>;
template class Fifo<Timing::kAsync, Timing::kAsync>;

}  // namespace mts::fifo
