#include "fifo/async_async_fifo.hpp"

#include "ctrl/specs.hpp"
#include "gates/combinational.hpp"
#include "gates/tristate.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

AsyncAsyncFifo::AsyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                               const FifoConfig& cfg)
    : sim_(sim), cfg_(cfg), nl_(sim, name) {
  cfg_.validate();
  if (cfg_.controller != ControllerKind::kFifo) {
    throw ConfigError("AsyncAsyncFifo: asynchronous relay chains use "
                      "micropipelines (lip::Micropipeline), not this FIFO");
  }
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;

  put_req_ = &nl_.wire("put_req");
  put_data_ = &nl_.word("put_data");
  get_req_ = &nl_.wire("get_req");
  get_data_ = &nl_.word("get_data");

  sim::Wire& put_req_b =
      gates::make_delay(nl_, "put_req_b", *put_req_, dm.broadcast(n, 1));
  sim::Wire& get_req_b =
      gates::make_delay(nl_, "get_req_b", *get_req_, dm.broadcast(n, 1));

  std::vector<sim::Wire*> we(n);
  std::vector<sim::Wire*> re(n);
  for (unsigned i = 0; i < n; ++i) {
    we[i] = &nl_.wire("c" + std::to_string(i) + ".we");
    re[i] = &nl_.wire("c" + std::to_string(i) + ".re");
  }

  auto& data_bus = nl_.add<gates::TristateBus<std::uint64_t>>(
      sim, nl_.qualified("get_data_bus"), *get_data_,
      dm.tristate_bus(n, cfg_.width));

  e_.resize(n);
  f_.resize(n);
  std::vector<sim::Wire*> put_acks;
  std::vector<sim::Wire*> get_acks;
  for (unsigned i = 0; i < n; ++i) {
    const std::string ci = "c" + std::to_string(i);
    e_[i] = &nl_.wire(ci + ".e", true);
    f_[i] = &nl_.wire(ci + ".f", false);

    auto& put_part = nl_.add<AsyncPutPart>(nl_, i, put_req_b, *put_data_,
                                           *we[(i + n - 1) % n], *e_[i], *we[i],
                                           cfg_, i == 0);
    nl_.add<AsyncGetPart>(nl_, i, get_req_b, *re[(i + n - 1) % n], *f_[i],
                          *re[i], cfg_, i == 0);

    nl_.add<ctrl::PetriEngine>(nl_.sim(), nl_.qualified(ci + ".dv"),
                               ctrl::dv_linear_net(),
                               std::vector<sim::Wire*>{we[i], re[i]},
                               std::vector<sim::Wire*>{e_[i], f_[i]},
                               dm.sr_latch);

    data_bus.attach_driver(*re[i], put_part.reg_q());
    put_acks.push_back(we[i]);
    get_acks.push_back(re[i]);

    sim::Wire* fw = f_[i];
    we[i]->on_rise([this, fw] {
      if (fw->read()) {
        ++overflows_;
        sim_.report().add(sim_.now(), sim::Severity::kError, "overflow",
                          nl_.prefix() + ": put into a full cell");
      }
    });
    re[i]->on_rise([this, fw] {
      if (!fw->read()) {
        ++underflows_;
        sim_.report().add(sim_.now(), sim::Severity::kError, "underflow",
                          nl_.prefix() + ": get from an empty cell");
      }
    });
  }

  sim::Wire& put_ack_tree =
      gates::make_tree(nl_, "putAckTree", gates::GateOp::kOr, put_acks, dm);
  put_ack_ = &gates::make_delay(nl_, "put_ack", put_ack_tree, dm.gate(2, 4));
  sim::Wire& get_ack_tree =
      gates::make_tree(nl_, "getAckTree", gates::GateOp::kOr, get_acks, dm);
  get_ack_ = &gates::make_delay(nl_, "get_ack", get_ack_tree,
                                dm.tristate_bus(n, cfg_.width));
}

unsigned AsyncAsyncFifo::occupancy() const {
  unsigned count = 0;
  for (const sim::Wire* f : f_) count += f->read() ? 1u : 0u;
  return count;
}

}  // namespace mts::fifo
