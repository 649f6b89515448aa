#include "fifo/sync_async_fifo.hpp"

#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

SyncAsyncFifo::SyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                             const FifoConfig& cfg, sim::Wire& clk_put)
    : cfg_(cfg), nl_(sim, name), put_dom_(sim, name + ".put") {
  cfg_.validate();
  if (cfg_.controller != ControllerKind::kFifo) {
    throw ConfigError("SyncAsyncFifo: no relay-station variant is defined "
                      "(the paper's relay chains terminate in a synchronous "
                      "domain)");
  }
  const gates::DelayModel& dm = cfg_.dm;

  req_put_ = &nl_.wire("req_put");
  data_put_ = &nl_.word("data_put");
  get_req_ = &nl_.wire("get_req");
  get_data_ = &nl_.word("get_data");

  // --- cells: sync put part + async get part + serialized DV ---
  cells_ = &nl_.add<CellArray>(
      nl_, cfg_, CellPort{&clk_put, &put_dom_, req_put_, data_put_},
      CellPort{nullptr, nullptr, get_req_, get_data_});

  // get_ack: OR tree over the per-cell re signals, padded by a matched
  // delay covering the tri-state bus (single-rail bundling constraint: data
  // must be valid when ack rises).
  sim::Wire& ack_tree = gates::make_tree(nl_, "ackTree", gates::GateOp::kOr,
                                         cells_->get_ring(), dm);
  get_ack_ = &gates::make_delay(nl_, "get_ack", ack_tree,
                                dm.tristate_bus(cfg_.capacity, cfg_.width));

  // --- put side: identical block to the mixed-clock design ---
  auto& put_side = nl_.add<SyncPutSide>(nl_, clk_put, cfg_, put_dom_,
                                        cells_->e(), *req_put_,
                                        cells_->put_enable());
  full_ext_ = &put_side.full_ext();

  cells_->finish(SideTaps{.full_raw = &put_side.full_raw()});
}

sim::Time SyncAsyncFifo::put_min_period() const {
  return SyncPutSide::min_period(cfg_);
}

}  // namespace mts::fifo
