#include "lip/chain.hpp"

#include "gates/combinational.hpp"

namespace mts::lip {

namespace {

/// A relay station is its FIFO counterpart with only the put and get
/// controllers changed (Section 5).
fifo::FifoConfig relay(fifo::FifoConfig cfg) {
  cfg.controller = fifo::ControllerKind::kRelayStation;
  return cfg;
}

}  // namespace

SyncRelayChain::SyncRelayChain(sim::Simulation& sim, const std::string& name,
                               sim::Wire& clk, unsigned length,
                               const gates::DelayModel& dm, sim::Word& in_data,
                               sim::Wire& in_valid, sim::Wire& stop_out,
                               sim::Word& out_data, sim::Wire& out_valid,
                               sim::Wire& stop_in)
    : nl_(sim, name), length_(length) {
  if (length == 0) {
    // Degenerate chain: a short wire. Forward data/valid, return stop.
    nl_.add<gates::WordBuf>(sim, nl_.qualified("dwire"), in_data, out_data,
                            dm.gate(1));
    gates::gate_into(nl_, "vwire", gates::GateOp::kBuf, {&in_valid}, out_valid,
                     dm.gate(1));
    gates::gate_into(nl_, "swire", gates::GateOp::kBuf, {&stop_in}, stop_out,
                     dm.gate(1));
    return;
  }

  sim::Word* d = &in_data;
  sim::Wire* v = &in_valid;
  sim::Wire* s = &stop_out;
  for (unsigned i = 0; i < length; ++i) {
    const bool last = i + 1 == length;
    const std::string li = "l" + std::to_string(i);
    sim::Word& next_d = last ? out_data : nl_.word(li + ".data");
    sim::Wire& next_v = last ? out_valid : nl_.wire(li + ".valid");
    sim::Wire& next_s = last ? stop_in : nl_.wire(li + ".stop");
    stations_.push_back(&nl_.add<RelayStation>(
        sim, nl_.qualified("rs" + std::to_string(i)), clk, *d, *v, *s, next_d,
        next_v, next_s, dm));
    d = &next_d;
    v = &next_v;
    s = &next_s;
  }

  // The stations registered trace streams in their constructors; chain
  // them so one transaction id rides the packet hop to hop.
  first_station_ = nl_.qualified("rs0");
  last_station_ = nl_.qualified("rs" + std::to_string(length - 1));
  sim::Observability* o = sim.observability();
  if (o != nullptr && o->trace != nullptr) {
    for (unsigned i = 1; i < length; ++i) {
      o->trace->link(nl_.qualified("rs" + std::to_string(i - 1)),
                     nl_.qualified("rs" + std::to_string(i)));
    }
  }
}

unsigned SyncRelayChain::buffered_valid() const {
  unsigned count = 0;
  for (const RelayStation* rs : stations_) count += rs->buffered_valid();
  return count;
}

MixedClockLink::MixedClockLink(sim::Simulation& sim, const std::string& name,
                               const fifo::FifoConfig& cfg, sim::Wire& clk_left,
                               sim::Wire& clk_right, unsigned left_length,
                               unsigned right_length)
    : nl_(sim, name) {
  data_in_ = &nl_.word("data_in");
  valid_in_ = &nl_.wire("valid_in");
  stop_out_ = &nl_.wire("stop_out");
  data_out_ = &nl_.word("data_out");
  valid_out_ = &nl_.wire("valid_out");
  stop_in_ = &nl_.wire("stop_in");

  mcrs_ = &nl_.add<fifo::MixedClockFifo>(sim, nl_.qualified("mcrs"),
                                         relay(cfg), clk_left, clk_right);

  auto& left = nl_.add<SyncRelayChain>(
      sim, nl_.qualified("left"), clk_left, left_length, cfg.dm, *data_in_,
      *valid_in_, *stop_out_, mcrs_->data_put(), mcrs_->req_put(),
      mcrs_->stop_out());

  auto& right = nl_.add<SyncRelayChain>(
      sim, nl_.qualified("right"), clk_right, right_length, cfg.dm,
      mcrs_->data_get(), mcrs_->valid_get(), mcrs_->stop_in(),
      *data_out_, *valid_out_, *stop_in_);

  // Trace-stream topology: left chain -> MCRS -> right chain, so one
  // transaction id survives the clock-domain crossing.
  first_traced_ = left.first_station_instance().empty()
                      ? nl_.qualified("mcrs")
                      : left.first_station_instance();
  last_traced_ = right.last_station_instance().empty()
                     ? nl_.qualified("mcrs")
                     : right.last_station_instance();
  sim::Observability* o = sim.observability();
  if (o != nullptr && o->trace != nullptr) {
    if (!left.last_station_instance().empty()) {
      o->trace->link(left.last_station_instance(), nl_.qualified("mcrs"));
    }
    if (!right.first_station_instance().empty()) {
      o->trace->link(nl_.qualified("mcrs"), right.first_station_instance());
    }
  }
}

AsyncSyncLink::AsyncSyncLink(sim::Simulation& sim, const std::string& name,
                             const fifo::FifoConfig& cfg, sim::Wire& clk_right,
                             unsigned ars_length, unsigned srs_length)
    : nl_(sim, name) {
  put_req_ = &nl_.wire("put_req");
  put_ack_ = &nl_.wire("put_ack");
  put_data_ = &nl_.word("put_data");
  data_out_ = &nl_.word("data_out");
  valid_out_ = &nl_.wire("valid_out");
  stop_in_ = &nl_.wire("stop_in");

  asrs_ = &nl_.add<fifo::AsyncSyncFifo>(sim, nl_.qualified("asrs"),
                                        relay(cfg), clk_right);

  if (ars_length == 0) {
    // Direct asynchronous connection: "in principle, no relay stations need
    // to be inserted in the asynchronous communication channels".
    gates::gate_into(nl_, "reqwire", gates::GateOp::kBuf, {put_req_},
                     asrs_->put_req(), cfg.dm.gate(1));
    gates::gate_into(nl_, "ackwire", gates::GateOp::kBuf, {&asrs_->put_ack()},
                     *put_ack_, cfg.dm.gate(1));
    nl_.add<gates::WordBuf>(sim, nl_.qualified("dwire"), *put_data_,
                            asrs_->put_data(), cfg.dm.gate(1));
  } else {
    nl_.add<Micropipeline>(sim, nl_.qualified("ars"), ars_length, *put_req_,
                           *put_ack_, *put_data_, asrs_->put_req(),
                           asrs_->put_ack(), asrs_->put_data(), cfg.dm);
  }

  auto& srs = nl_.add<SyncRelayChain>(
      sim, nl_.qualified("srs"), clk_right, srs_length, cfg.dm,
      asrs_->data_get(), asrs_->valid_get(), asrs_->stop_in(),
      *data_out_, *valid_out_, *stop_in_);

  // Trace-stream topology: ASRS -> SRS chain (the micropipeline ARS hop is
  // untraced; ids are minted at the ASRS put).
  first_traced_ = nl_.qualified("asrs");
  last_traced_ = srs.last_station_instance().empty()
                     ? nl_.qualified("asrs")
                     : srs.last_station_instance();
  sim::Observability* o = sim.observability();
  if (o != nullptr && o->trace != nullptr &&
      !srs.first_station_instance().empty()) {
    o->trace->link(nl_.qualified("asrs"), srs.first_station_instance());
  }
}

}  // namespace mts::lip
