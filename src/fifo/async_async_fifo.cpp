#include "fifo/async_async_fifo.hpp"

#include "gates/combinational.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

AsyncAsyncFifo::AsyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                               const FifoConfig& cfg)
    : cfg_(cfg), nl_(sim, name) {
  cfg_.validate();
  if (cfg_.controller != ControllerKind::kFifo) {
    throw ConfigError("AsyncAsyncFifo: asynchronous relay chains use "
                      "micropipelines (lip::Micropipeline), not this FIFO");
  }
  const gates::DelayModel& dm = cfg_.dm;

  put_req_ = &nl_.wire("put_req");
  put_data_ = &nl_.word("put_data");
  get_req_ = &nl_.wire("get_req");
  get_data_ = &nl_.word("get_data");

  cells_ = &nl_.add<CellArray>(nl_, cfg_,
                               CellPort{nullptr, nullptr, put_req_, put_data_},
                               CellPort{nullptr, nullptr, get_req_, get_data_});

  sim::Wire& put_ack_tree = gates::make_tree(
      nl_, "putAckTree", gates::GateOp::kOr, cells_->put_ring(), dm);
  put_ack_ = &gates::make_delay(nl_, "put_ack", put_ack_tree, dm.gate(2, 4));
  sim::Wire& get_ack_tree = gates::make_tree(
      nl_, "getAckTree", gates::GateOp::kOr, cells_->get_ring(), dm);
  get_ack_ = &gates::make_delay(nl_, "get_ack", get_ack_tree,
                                dm.tristate_bus(cfg_.capacity, cfg_.width));

  cells_->finish(SideTaps{.put_ack = put_ack_});
}

}  // namespace mts::fifo
