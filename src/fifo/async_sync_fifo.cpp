#include "fifo/async_sync_fifo.hpp"

#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"

namespace mts::fifo {

AsyncSyncFifo::AsyncSyncFifo(sim::Simulation& sim, const std::string& name,
                             const FifoConfig& cfg, sim::Wire& clk_get)
    : cfg_(cfg), nl_(sim, name), get_dom_(sim, name + ".get") {
  cfg_.validate();
  const gates::DelayModel& dm = cfg_.dm;

  // --- external interface wires ---
  put_req_ = &nl_.wire("put_req");
  put_data_ = &nl_.word("put_data");
  req_get_ = &nl_.wire("req_get");
  stop_in_ = &nl_.wire("stop_in");
  data_get_ = &nl_.word("data_get");
  valid_ext_ = &nl_.wire("valid_get");
  empty_w_ = &nl_.wire("empty", true);

  // --- cells: async put part + sync get part + DV_as (Fig. 9) ---
  cells_ = &nl_.add<CellArray>(
      nl_, cfg_, CellPort{nullptr, nullptr, put_req_, put_data_},
      CellPort{&clk_get, &get_dom_, nullptr, data_get_});

  // put_ack: a tree of OR gates merges the per-cell acknowledgments (the
  // cells' we wires; Section 6 experimental setup), driving the global ack
  // wire back to the sender.
  sim::Wire& ack_tree = gates::make_tree(nl_, "ackTree", gates::GateOp::kOr,
                                         cells_->put_ring(), dm);
  put_ack_ = &gates::make_delay(nl_, "put_ack", ack_tree, dm.gate(2, 4));

  // --- get side: identical block to the mixed-clock design ---
  auto& get_side = nl_.add<SyncGetSide>(
      nl_, clk_get, cfg_, get_dom_, cells_->f(), *req_get_, *stop_in_,
      cells_->valid_bus(), *valid_ext_, *empty_w_, cells_->get_enable());
  ne_raw_ = &get_side.ne_raw();
  oe_raw_ = &get_side.oe_raw();

  cells_->finish(SideTaps{.ne_raw = ne_raw_,
                          .oe_raw = oe_raw_,
                          .empty = empty_w_,
                          .stop_in = stop_in_,
                          .put_ack = put_ack_});
}

sim::Time AsyncSyncFifo::get_min_period() const {
  return SyncGetSide::min_period(cfg_);
}

}  // namespace mts::fifo
