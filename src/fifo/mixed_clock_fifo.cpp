#include "fifo/mixed_clock_fifo.hpp"

#include "fifo/interface_sides.hpp"

namespace mts::fifo {

MixedClockFifo::MixedClockFifo(sim::Simulation& sim, const std::string& name,
                               const FifoConfig& cfg, sim::Wire& clk_put,
                               sim::Wire& clk_get)
    : cfg_(cfg),
      nl_(sim, name),
      put_dom_(sim, name + ".put"),
      get_dom_(sim, name + ".get") {
  cfg_.validate();

  // --- external interface wires ---
  req_put_ = &nl_.wire("req_put");
  data_put_ = &nl_.word("data_put");
  req_get_ = &nl_.wire("req_get");
  stop_in_ = &nl_.wire("stop_in");
  data_get_ = &nl_.word("data_get");
  valid_ext_ = &nl_.wire("valid_get");
  empty_w_ = &nl_.wire("empty", true);

  // --- cells: sync put part + sync get part + SR-latch DV (Fig. 5) ---
  cells_ = &nl_.add<CellArray>(
      nl_, cfg_, CellPort{&clk_put, &put_dom_, req_put_, data_put_},
      CellPort{&clk_get, &get_dom_, nullptr, data_get_});

  // --- interface sides: detectors, synchronizers, controllers ---
  auto& put_side = nl_.add<SyncPutSide>(nl_, clk_put, cfg_, put_dom_,
                                        cells_->e(), *req_put_,
                                        cells_->put_enable());
  full_raw_ = &put_side.full_raw();
  full_ext_ = &put_side.full_ext();

  auto& get_side = nl_.add<SyncGetSide>(
      nl_, clk_get, cfg_, get_dom_, cells_->f(), *req_get_, *stop_in_,
      cells_->valid_bus(), *valid_ext_, *empty_w_, cells_->get_enable());
  ne_raw_ = &get_side.ne_raw();
  oe_raw_ = &get_side.oe_raw();

  cells_->finish(SideTaps{.full_raw = full_raw_,
                          .ne_raw = ne_raw_,
                          .oe_raw = oe_raw_,
                          .empty = empty_w_,
                          .stop_in = stop_in_});
}

sim::Time MixedClockFifo::put_min_period() const {
  return SyncPutSide::min_period(cfg_);
}

sim::Time MixedClockFifo::get_min_period() const {
  return SyncGetSide::min_period(cfg_);
}

}  // namespace mts::fifo
