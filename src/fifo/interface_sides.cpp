#include "fifo/interface_sides.hpp"

#include "fifo/cell_parts.hpp"
#include "fifo/detectors.hpp"
#include "gates/combinational.hpp"
#include "sync/synchronizer.hpp"

namespace mts::fifo {

sim::Time path_total(const PathBreakdown& path) {
  sim::Time total = 0;
  for (const PathElement& e : path) total += e.delay;
  return total;
}

SyncPutSide::SyncPutSide(gates::Netlist& nl, sim::Wire& clk_put,
                         const FifoConfig& cfg, gates::TimingDomain& domain,
                         const std::vector<sim::Wire*>& e, sim::Wire& req_put,
                         sim::Wire& en_put_b) {
  const gates::DelayModel& dm = cfg.dm;
  full_raw_ = cfg.full_kind == FullDetectorKind::kAnticipating
                  ? &build_anticipating_full(nl, e, dm,
                                             anticipation_window(cfg.sync.depth))
                  : &build_exact_full(nl, e, dm);

  auto& full_sync =
      nl.add<sync::Synchronizer>(nl.sim(), nl.qualified("fullSync"), clk_put,
                                 *full_raw_, dm, cfg.sync, &domain, false);
  full_ext_ = &full_sync.out();

  sim::Wire& en_put_raw = nl.wire("en_put_raw");
  if (cfg.controller == ControllerKind::kFifo) {
    // en_put = req_put & !full (Fig. 7a).
    gates::gate_into(nl, "putCtrl", gates::GateOp::kAndNotLast,
                     {&req_put, full_ext_}, en_put_raw, dm.gate(3));
  } else {
    // Relay station (Fig. 13a): the put controller is an inverter; req_put
    // is part of the packet, not a control signal.
    gates::gate_into(nl, "putCtrl", gates::GateOp::kNot, {full_ext_},
                     en_put_raw, dm.gate(1));
  }
  gates::gate_into(nl, "enPutBcast", gates::GateOp::kBuf, {&en_put_raw},
                   en_put_b, dm.broadcast(cfg.capacity, cfg.width + 2));
}

PathBreakdown SyncPutSide::describe_min_period(const FifoConfig& cfg) {
  const gates::DelayModel& dm = cfg.dm;
  // Cycle-limiting loop: the slower of (a) the controller leg -- full-sync
  // Q -> controller -> en_put broadcast -- and (b) the matched token leg;
  // then we_i AND -> DV set -> full detector -> synchronizer front-flop
  // setup. The token leg exceeds the controller leg by one gate of margin
  // by construction.
  const sim::Time ctrl_leg =
      (cfg.controller == ControllerKind::kFifo ? dm.gate(3) : dm.gate(1)) +
      dm.broadcast(cfg.capacity, cfg.width + 2);
  const sim::Time token_leg = put_token_match_delay(cfg);
  PathBreakdown path;
  path.push_back({"token flop clk-to-q", dm.flop.clk_to_q});
  if (ctrl_leg > token_leg) {
    path.push_back({"put controller + en_put broadcast", ctrl_leg});
  } else {
    path.push_back({"matched token buffering", token_leg});
  }
  path.push_back({"we_i AND", dm.gate(2, 3)});
  path.push_back({"DV set", dm.sr_latch});
  path.push_back(
      {"full detector",
       detector_delay(cfg.capacity,
                      cfg.full_kind == FullDetectorKind::kAnticipating
                          ? anticipation_window(cfg.sync.depth)
                          : 0,
                      dm)});
  path.push_back({"full-sync front-flop setup", dm.flop.setup});
  return path;
}

sim::Time SyncPutSide::min_period(const FifoConfig& cfg) {
  return path_total(describe_min_period(cfg));
}

SyncGetSide::SyncGetSide(gates::Netlist& nl, sim::Wire& clk_get,
                         const FifoConfig& cfg, gates::TimingDomain& domain,
                         const std::vector<sim::Wire*>& f, sim::Wire& req_get,
                         sim::Wire& stop_in, sim::Wire& valid_bus,
                         sim::Wire& valid_ext, sim::Wire& empty_w,
                         sim::Wire& en_get_b) {
  const gates::DelayModel& dm = cfg.dm;
  sim::Simulation& sim = nl.sim();

  ne_raw_ = &build_anticipating_empty(nl, f, dm,
                                      anticipation_window(cfg.sync.depth));
  oe_raw_ = &build_true_empty(nl, f, dm);

  sim::Wire& en_get_raw = nl.wire("en_get_raw");
  sim::Wire* ne_s = nullptr;
  sim::Wire* oe_s = nullptr;
  if (cfg.empty_kind != EmptyDetectorKind::kOeOnly) {
    ne_s = &nl.add<sync::Synchronizer>(sim, nl.qualified("neSync"), clk_get,
                                       *ne_raw_, dm, cfg.sync, &domain, true)
                .out();
  }
  if (cfg.empty_kind != EmptyDetectorKind::kNeOnly) {
    // The OR gate of Fig. 7b rides inside the oe synchronizer (after its
    // front latch): one cycle after a get, oe is forced to the neutral
    // "empty" state so ne takes precedence.
    sim::Wire* veto =
        cfg.empty_kind == EmptyDetectorKind::kBimodal ? &en_get_raw : nullptr;
    oe_s = &nl.add<sync::Synchronizer>(sim, nl.qualified("oeSync"), clk_get,
                                       *oe_raw_, dm, cfg.sync, &domain, true,
                                       veto)
                .out();
  }

  switch (cfg.empty_kind) {
    case EmptyDetectorKind::kBimodal:
      gates::gate_into(nl, "emptyAnd", gates::GateOp::kAnd, {ne_s, oe_s},
                       empty_w, dm.gate(2, 2));
      break;
    case EmptyDetectorKind::kNeOnly:
      gates::gate_into(nl, "emptyBuf", gates::GateOp::kBuf, {ne_s}, empty_w,
                       dm.gate(1));
      break;
    case EmptyDetectorKind::kOeOnly:
      gates::gate_into(nl, "emptyBuf", gates::GateOp::kBuf, {oe_s}, empty_w,
                       dm.gate(1));
      break;
  }

  if (cfg.controller == ControllerKind::kFifo) {
    // en_get = req_get & !empty (Fig. 7b).
    gates::gate_into(nl, "getCtrl", gates::GateOp::kAndNotLast,
                     {&req_get, &empty_w}, en_get_raw, dm.gate(3));
    // External validity: the valid bus is only meaningful during an enabled
    // get cycle.
    gates::gate_into(nl, "validGate", gates::GateOp::kAnd,
                     {&valid_bus, &en_get_b}, valid_ext, dm.gate(2));
  } else {
    // Relay station (Figs. 13b / 16): dequeue continuously unless empty or
    // stopped; validity gates on the same condition.
    gates::gate_into(nl, "getCtrl", gates::GateOp::kNor, {&empty_w, &stop_in},
                     en_get_raw, dm.gate(2, 2));
    gates::gate_into(nl, "validGate", gates::GateOp::kAndNotRest,
                     {&valid_bus, &empty_w, &stop_in}, valid_ext, dm.gate(3));
  }

  gates::gate_into(nl, "enGetBcast", gates::GateOp::kBuf, {&en_get_raw},
                   en_get_b, dm.broadcast(cfg.capacity, cfg.width + 2));
}

PathBreakdown SyncGetSide::describe_min_period(const FifoConfig& cfg) {
  const gates::DelayModel& dm = cfg.dm;
  // Controller leg: empty-sync Q -> empty AND (bimodal) -> controller ->
  // en_get broadcast. This is what makes the get interface slower than the
  // put interface in Table 1 ("because of the complexity of the empty
  // detector").
  sim::Time ctrl_leg = dm.broadcast(cfg.capacity, cfg.width + 2);
  switch (cfg.empty_kind) {
    case EmptyDetectorKind::kBimodal:
      ctrl_leg += dm.gate(2, 2);
      break;
    case EmptyDetectorKind::kNeOnly:
    case EmptyDetectorKind::kOeOnly:
      ctrl_leg += dm.gate(1);
      break;
  }
  ctrl_leg += cfg.controller == ControllerKind::kFifo ? dm.gate(3)
                                                      : dm.gate(2, 2);
  const sim::Time token_leg = get_token_match_delay(cfg);

  PathBreakdown common;
  common.push_back({"token flop clk-to-q", dm.flop.clk_to_q});
  if (ctrl_leg > token_leg) {
    common.push_back({"empty AND + get controller + en_get broadcast",
                      ctrl_leg});
  } else {
    common.push_back({"matched token buffering", token_leg});
  }
  common.push_back({"re_i AND", dm.gate(2, 3)});

  // Empty-detector loop: re_i -> DV reset -> ne tree (always deeper than
  // the oe tree; Fig. 7b's OR gate sits between synchronizer stages and is
  // not on this path) -> synchronizer front-flop setup.
  PathBreakdown det_path = common;
  det_path.push_back({"DV reset", dm.sr_latch});
  det_path.push_back(
      {"ne detector",
       detector_delay(cfg.capacity, anticipation_window(cfg.sync.depth), dm)});
  det_path.push_back({"ne-sync front-flop setup", dm.flop.setup});

  // Read path: re_i -> tri-state bus -> receiver sampling flop.
  PathBreakdown read_path = common;
  read_path.push_back({"get_data tri-state bus",
                       dm.tristate_bus(cfg.capacity, cfg.width)});
  read_path.push_back({"receiver flop setup", dm.flop.setup});

  return path_total(det_path) > path_total(read_path) ? det_path : read_path;
}

sim::Time SyncGetSide::min_period(const FifoConfig& cfg) {
  return path_total(describe_min_period(cfg));
}

}  // namespace mts::fifo
