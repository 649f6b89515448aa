#include "lip/relay_station_structural.hpp"

#include "gates/combinational.hpp"
#include "gates/flops.hpp"

namespace mts::lip {

StructuralRelayStation::StructuralRelayStation(
    sim::Simulation& sim, const std::string& name, sim::Wire& clk,
    sim::Word& in_data, sim::Wire& in_valid, sim::Wire& stop_out,
    sim::Word& out_data, sim::Wire& out_valid, sim::Wire& stop_in,
    const gates::DelayModel& dm, gates::TimingDomain* domain)
    : nl_(sim, name) {
  // Control state: AUX occupancy simply tracks stopIn (see header).
  aux_occ_ = &nl_.wire("aux_occ");
  nl_.add<gates::Etdff>(sim, nl_.qualified("auxOccFf"), clk, stop_in, nullptr,
                        *aux_occ_, dm.flop, domain, false);
  gates::gate_into(nl_, "stopOutBuf", gates::GateOp::kBuf, {aux_occ_}, stop_out,
                   dm.gate(1));

  sim::Wire& not_stop = gates::make_gate(nl_, "notStop", gates::GateOp::kNot,
                                         {&stop_in}, dm, 3);
  // AUX captures the in-flight packet at the stall onset.
  sim::Wire& aux_cap =
      gates::make_gate(nl_, "auxCap", gates::GateOp::kAndNotLast,
                       {&stop_in, aux_occ_}, dm, 2);

  sim::Word& aux_q = nl_.word("aux");
  sim::Wire& aux_v = nl_.wire("aux_v");
  nl_.add<gates::WordRegister>(sim, nl_.qualified("auxReg"), clk, in_data,
                               &aux_cap, aux_q, dm.flop, domain);
  nl_.add<gates::Etdff>(sim, nl_.qualified("auxVFf"), clk, in_valid, &aux_cap,
                        aux_v, dm.flop, domain, false);

  // MR refills from AUX while draining a stall, from the input otherwise.
  sim::Word& mr_d = nl_.word("mr_d");
  nl_.add<gates::WordMux>(sim, nl_.qualified("mrMux"), *aux_occ_, aux_q,
                          in_data, mr_d, dm.gate(2));
  sim::Wire& mr_v_d = nl_.wire("mr_v_d");
  gates::gate_into(nl_, "mrVMux", gates::GateOp::kMux,
                   {aux_occ_, &aux_v, &in_valid}, mr_v_d, dm.gate(3));

  sim::Word& mr_q = nl_.word("mr");
  sim::Wire& mr_v = nl_.wire("mr_v");
  nl_.add<gates::WordRegister>(sim, nl_.qualified("mrReg"), clk, mr_d,
                               &not_stop, mr_q, dm.flop, domain);
  nl_.add<gates::Etdff>(sim, nl_.qualified("mrVFf"), clk, mr_v_d, &not_stop,
                        mr_v, dm.flop, domain, false);

  // Registered output stage.
  nl_.add<gates::WordRegister>(sim, nl_.qualified("outReg"), clk, mr_q,
                               &not_stop, out_data, dm.flop, domain);
  nl_.add<gates::Etdff>(sim, nl_.qualified("outVFf"), clk, mr_v, &not_stop,
                        out_valid, dm.flop, domain, false);
}

}  // namespace mts::lip
