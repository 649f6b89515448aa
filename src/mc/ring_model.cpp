#include "mc/ring_model.hpp"

#include <algorithm>
#include <utility>

#include "ctrl/specs.hpp"
#include "fifo/detectors.hpp"
#include "sim/error.hpp"

namespace mts::mc {

namespace {

std::string cell_site(unsigned cell, const char* leaf) {
  return "mc.c" + std::to_string(cell) + "." + leaf;
}

bool needs_progress(const ctrl::BmSpec& spec) {
  for (const ctrl::BmTransition& t : spec.transitions) {
    if (t.in_burst.size() > 1) return true;
  }
  return false;
}

}  // namespace

const char* action_name(ActionKind a) noexcept {
  switch (a) {
    case ActionKind::kCommit: return "commit";
    case ActionKind::kPutReqUp: return "put_req+";
    case ActionKind::kPutReqDown: return "put_req-";
    case ActionKind::kGetReqUp: return "get_req+";
    case ActionKind::kGetReqDown: return "get_req-";
  }
  return "?";
}

RingConfig default_ring(unsigned capacity) {
  RingConfig cfg;
  cfg.name = "opt-ring-" + std::to_string(capacity);
  cfg.capacity = capacity;
  cfg.opt = ctrl::opt_spec();
  cfg.ogt = ctrl::opt_spec();
  cfg.dv = ctrl::dv_linear_net();
  return cfg;
}

RingModel::RingModel(RingConfig cfg) : cfg_(std::move(cfg)) {
  MTS_ASSERT(cfg_.capacity >= 2, "RingModel: capacity must be >= 2");
  cfg_.opt.validate();
  cfg_.ogt.validate();
  cfg_.dv.validate(2, 2);
  opt_needs_progress_ = needs_progress(cfg_.opt);
  ogt_needs_progress_ = needs_progress(cfg_.ogt);
  if (opt_needs_progress_ || ogt_needs_progress_) {
    for (const ctrl::BmTransition& t : cfg_.opt.transitions) {
      MTS_ASSERT(t.in_burst.size() <= 8, "RingModel: burst too wide to pack");
    }
    for (const ctrl::BmTransition& t : cfg_.ogt.transitions) {
      MTS_ASSERT(t.in_burst.size() <= 8, "RingModel: burst too wide to pack");
    }
  }
  ref_window_ = fifo::anticipation_window(cfg_.sync_depth);

  // Per-wire listener table, in the exact construction/registration order of
  // the replay harness (mc/replay.cpp): per cell -- put C-element (common
  // then plus inputs), OPT (we1 then we), get C-element, OGT, DV (we then
  // re). The ring-wrap asymmetry falls out naturally: cell 0's OPT
  // subscribes to we_{N-1} before cell N-1's own components do.
  const unsigned n = cfg_.capacity;
  listeners_.assign(num_wires(), {});
  using K = ListenerRef::Kind;
  for (unsigned k = 0; k < n; ++k) {
    const unsigned prev = (k + n - 1) % n;
    listeners_[kReqPut].push_back({K::kPutC, k, 0});
    listeners_[ptok_index(k)].push_back({K::kPutC, k, 1});
    if (!cfg_.drop_put_guard) listeners_[e_index(k)].push_back({K::kPutC, k, 2});
    listeners_[we_index(prev)].push_back({K::kOpt, k, 0});
    listeners_[we_index(k)].push_back({K::kOpt, k, 1});
    listeners_[kReqGet].push_back({K::kGetC, k, 0});
    listeners_[gtok_index(k)].push_back({K::kGetC, k, 1});
    if (!cfg_.drop_get_guard) listeners_[f_index(k)].push_back({K::kGetC, k, 2});
    listeners_[re_index(prev)].push_back({K::kOgt, k, 0});
    listeners_[re_index(k)].push_back({K::kOgt, k, 1});
    listeners_[we_index(k)].push_back({K::kDv, k, 0});
    listeners_[re_index(k)].push_back({K::kDv, k, 1});
  }

  const std::size_t wire_bytes = (num_wires() + 7) / 8;
  const std::size_t bm_bytes = n;  // put nibble | get nibble per cell
  std::size_t progress_bytes = 0;
  if (opt_needs_progress_) progress_bytes += n * cfg_.opt.transitions.size();
  if (ogt_needs_progress_) progress_bytes += n * cfg_.ogt.transitions.size();
  const std::size_t dv_bytes = n * ((cfg_.dv.num_places + 7) / 8);
  record_size_ = wire_bytes + bm_bytes + progress_bytes + dv_bytes + 1 + kMaxQueue;
}

std::string RingModel::wire_name(unsigned wire) const {
  if (wire == kReqPut) return "put_req";
  if (wire == kReqGet) return "get_req";
  const unsigned cell = (wire - 2) / 6;
  static const char* kLeaf[6] = {"ptok", "we", "e", "f", "gtok", "re"};
  return "c" + std::to_string(cell) + "." + kLeaf[(wire - 2) % 6];
}

RingState RingModel::initial() const {
  const unsigned n = cfg_.capacity;
  RingState s;
  s.wires.assign(num_wires(), false);
  for (unsigned k = 0; k < n; ++k) {
    s.wires[e_index(k)] = true;  // every cell starts empty
    s.opt.emplace_back(cfg_.opt,
                       k == 0 ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
    s.ogt.emplace_back(cfg_.ogt,
                       k == 0 ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
    s.dv.push_back(ctrl::pn_initial_marking(cfg_.dv));
  }
  s.wires[ptok_index(0)] = true;
  s.wires[gtok_index(0)] = true;
  return s;
}

bool RingModel::put_ack(const RingState& s) const {
  for (unsigned k = 0; k < cfg_.capacity; ++k) {
    if (s.wires[we_index(k)]) return true;
  }
  return false;
}

bool RingModel::get_ack(const RingState& s) const {
  for (unsigned k = 0; k < cfg_.capacity; ++k) {
    if (s.wires[re_index(k)]) return true;
  }
  return false;
}

std::vector<ActionKind> RingModel::enabled_actions(const RingState& s,
                                                   bool macro_only) const {
  std::vector<ActionKind> out;
  if (!s.queue.empty()) {
    out.push_back(ActionKind::kCommit);
    if (macro_only) return out;  // deterministic drain between env steps
  }
  const bool pa = put_ack(s);
  const bool ga = get_ack(s);
  if (!s.wires[kReqPut] && !pa) out.push_back(ActionKind::kPutReqUp);
  if (s.wires[kReqPut] && pa) out.push_back(ActionKind::kPutReqDown);
  if (!s.wires[kReqGet] && !ga) out.push_back(ActionKind::kGetReqUp);
  if (s.wires[kReqGet] && ga) out.push_back(ActionKind::kGetReqDown);
  return out;
}

bool RingModel::effective_level(const RingState& s, unsigned wire) const {
  // At most one pending flip per wire (inertial single-driver discipline),
  // and a pending flip always targets the complement of the committed level.
  for (std::uint8_t w : s.queue) {
    if (w == wire) return !s.wires[wire];
  }
  return s.wires[wire];
}

void RingModel::schedule_level(RingState& s, unsigned wire, bool target,
                               StepResult& r) const {
  // Mirror of sim::Signal inertial writes: a new write cancels the pending
  // one; a commit that would not change the level is a silent no-op, so it
  // never enters the queue.
  auto it = std::find(s.queue.begin(), s.queue.end(),
                      static_cast<std::uint8_t>(wire));
  if (it != s.queue.end()) s.queue.erase(it);
  if (target == s.wires[wire]) return;
  if (s.queue.size() >= kMaxQueue) {
    r.violations.push_back({Property::kQueueBound, "mc.queue",
                            "pending-event queue exceeded " +
                                std::to_string(kMaxQueue) + " flips"});
    return;
  }
  s.queue.push_back(static_cast<std::uint8_t>(wire));
}

void RingModel::eval_celement(RingState& s, unsigned cell, bool put_side,
                              StepResult& r) const {
  // gates::CElement::evaluate over committed wire levels. The element's
  // internal state_ needs no extra state bits: every evaluate() re-writes
  // the output, so state_ always equals the output's effective (pending or
  // committed) level.
  const unsigned req = put_side ? kReqPut : kReqGet;
  const unsigned tok = put_side ? ptok_index(cell) : gtok_index(cell);
  const unsigned guard = put_side ? e_index(cell) : f_index(cell);
  const bool drop_guard = put_side ? cfg_.drop_put_guard : cfg_.drop_get_guard;
  const unsigned out = put_side ? we_index(cell) : re_index(cell);

  const bool all_one =
      s.wires[req] && s.wires[tok] && (drop_guard || s.wires[guard]);
  const bool common_all_zero = !s.wires[req];
  bool state = effective_level(s, out);
  if (all_one) {
    state = true;
  } else if (common_all_zero) {
    state = false;
  }
  schedule_level(s, out, state, r);
}

void RingModel::step_machine(RingState& s, unsigned cell, bool put_side,
                             unsigned input, bool rising, StepResult& r) const {
  const ctrl::BmSpec& spec = put_side ? cfg_.opt : cfg_.ogt;
  ctrl::BmCore& core = put_side ? s.opt[cell] : s.ogt[cell];
  const unsigned prior_state = core.state;
  const ctrl::BmStep step = ctrl::bm_step(spec, core, input, rising);
  if (step.fired) {
    for (const ctrl::BmEdge& out : spec.transitions[step.transition].out_burst) {
      // The machines drive a single output: the token grant wire.
      MTS_ASSERT(out.signal == 0, "RingModel: unexpected machine output");
      schedule_level(s, put_side ? ptok_index(cell) : gtok_index(cell),
                     out.rising, r);
    }
    return;
  }
  if (!step.matched) {
    r.violations.push_back(
        {Property::kHandshakeOrder, cell_site(cell, put_side ? "opt" : "ogt"),
         "bm-illegal-input: unexpected edge on " + spec.input_names[input] +
             (rising ? "+" : "-") + " in state " + std::to_string(prior_state)});
  }
}

void RingModel::step_dv(RingState& s, unsigned cell, unsigned input,
                        bool rising, StepResult& r) const {
  const ctrl::PnStep step =
      ctrl::pn_input_step(cfg_.dv, s.dv[cell], input, rising);
  if (!step.fired) {
    r.violations.push_back(
        {Property::kHandshakeOrder, cell_site(cell, "dv"),
         "pn-illegal-input: unexpected edge on input " + std::to_string(input) +
             (rising ? "+" : "-")});
    return;
  }
  if (!step.safe) {
    r.violations.push_back(
        {Property::kOneSafety, cell_site(cell, "dv"),
         "firing '" + cfg_.dv.transitions[step.transition].label +
             "' violates 1-safety at place " + std::to_string(step.bad_place)});
    return;
  }
  ctrl::PnSweep sweep;
  ctrl::pn_run_outputs(cfg_.dv, s.dv[cell], sweep);
  for (std::size_t ti : sweep.fired) {
    const ctrl::PnTransition& t = cfg_.dv.transitions[ti];
    schedule_level(s, t.signal == 0 ? e_index(cell) : f_index(cell), t.rising,
                   r);
  }
  if (!sweep.safe) {
    r.violations.push_back(
        {Property::kOneSafety, cell_site(cell, "dv"),
         "firing '" + cfg_.dv.transitions[sweep.bad_transition].label +
             "' violates 1-safety at place " +
             std::to_string(sweep.bad_place)});
  }
}

void RingModel::commit_level(RingState& s, unsigned wire, bool level,
                             StepResult& r) const {
  s.wires[wire] = level;
  for (const ListenerRef& ref : listeners_[wire]) {
    switch (ref.kind) {
      case ListenerRef::Kind::kPutC: eval_celement(s, ref.cell, true, r); break;
      case ListenerRef::Kind::kGetC: eval_celement(s, ref.cell, false, r); break;
      case ListenerRef::Kind::kOpt:
        step_machine(s, ref.cell, true, ref.input, level, r);
        break;
      case ListenerRef::Kind::kOgt:
        step_machine(s, ref.cell, false, ref.input, level, r);
        break;
      case ListenerRef::Kind::kDv:
        step_dv(s, ref.cell, ref.input, level, r);
        break;
    }
  }
}

void RingModel::check_state_invariants(const RingState& s, StepResult& r) const {
  const unsigned n = cfg_.capacity;
  unsigned ptoks = 0;
  unsigned gtoks = 0;
  for (unsigned k = 0; k < n; ++k) {
    ptoks += s.wires[ptok_index(k)] ? 1u : 0u;
    gtoks += s.wires[gtok_index(k)] ? 1u : 0u;
  }
  if (ptoks > 1) {
    r.violations.push_back({Property::kTokenRing, "mc.put-ring",
                            std::to_string(ptoks) +
                                " tokens high simultaneously"});
  }
  if (gtoks > 1) {
    r.violations.push_back({Property::kTokenRing, "mc.get-ring",
                            std::to_string(gtoks) +
                                " tokens high simultaneously"});
  }
  if (!s.queue.empty()) return;  // the settled checks below need quiescence

  // One-hot is only demanded of a ring whose side is idle: mid-handshake the
  // token is legitimately in flight between an OPT release and the next
  // cell's grant (both zero-token and, at the wrap with equal delays,
  // never two-token -- the always-on checks above still catch that).
  if (!s.wires[kReqPut] && !put_ack(s) && ptoks != 1) {
    r.violations.push_back({Property::kTokenRing, "mc.put-ring",
                            std::to_string(ptoks) +
                                " tokens at put-idle quiescence, expected 1"});
  }
  if (!s.wires[kReqGet] && !get_ack(s) && gtoks != 1) {
    r.violations.push_back({Property::kTokenRing, "mc.get-ring",
                            std::to_string(gtoks) +
                                " tokens at get-idle quiescence, expected 1"});
  }

  // Detector re-derivation (Fig. 6), evaluated as the runtime
  // DetectorMonitor does once the tree has settled: the detector built with
  // the configured window must agree with the invariant's reference window
  // over the true cell state.
  std::vector<bool> e_bits(n);
  std::vector<bool> f_bits(n);
  for (unsigned k = 0; k < n; ++k) {
    e_bits[k] = s.wires[e_index(k)];
    f_bits[k] = s.wires[f_index(k)];
  }
  const bool built_full = fifo::detector_asserted(e_bits, cfg_.full_window);
  const bool want_full = fifo::detector_asserted(e_bits, ref_window_);
  if (built_full != want_full) {
    r.violations.push_back(
        {Property::kFullDetector, "mc.full-det",
         std::string("window-") + std::to_string(cfg_.full_window) +
             " detector " + (built_full ? "asserted" : "deasserted") +
             ", window-" + std::to_string(ref_window_) + " invariant says " +
             (want_full ? "asserted" : "deasserted")});
  }
  const bool built_ne = fifo::detector_asserted(f_bits, cfg_.ne_window);
  const bool want_ne = fifo::detector_asserted(f_bits, ref_window_);
  if (built_ne != want_ne) {
    r.violations.push_back(
        {Property::kEmptyDetector, "mc.ne-det",
         std::string("window-") + std::to_string(cfg_.ne_window) +
             " detector " + (built_ne ? "asserted" : "deasserted") +
             ", window-" + std::to_string(ref_window_) + " invariant says " +
             (want_ne ? "asserted" : "deasserted")});
  }
}

StepResult RingModel::apply(const RingState& s, ActionKind a,
                            RingState* next) const {
  *next = s;
  RingState& st = *next;
  StepResult r;
  const bool pa_before = put_ack(s);
  const bool ga_before = get_ack(s);

  switch (a) {
    case ActionKind::kCommit: {
      MTS_ASSERT(!st.queue.empty(), "RingModel: commit on empty queue");
      const unsigned wire = st.queue.front();
      st.queue.erase(st.queue.begin());
      const bool level = !st.wires[wire];
      r.label = wire_name(wire) + (level ? "+" : "-");
      // Edge-triggered boundary invariants, checked against the cell state
      // the edge finds (the DV listener below only schedules its updates).
      for (unsigned k = 0; k < cfg_.capacity; ++k) {
        if (wire == we_index(k) && level && !st.wires[e_index(k)]) {
          r.violations.push_back(
              {Property::kOverflow, cell_site(k, "we"),
               "we+ with e_i low: put into a full cell"});
        }
        if (wire == re_index(k) && level && !st.wires[f_index(k)]) {
          r.violations.push_back(
              {Property::kUnderflow, cell_site(k, "re"),
               "re+ with f_i low: get from an empty cell"});
        }
      }
      commit_level(st, wire, level, r);
      break;
    }
    case ActionKind::kPutReqUp:
    case ActionKind::kPutReqDown: {
      const bool level = a == ActionKind::kPutReqUp;
      r.label = action_name(a);
      commit_level(st, kReqPut, level, r);
      break;
    }
    case ActionKind::kGetReqUp:
    case ActionKind::kGetReqDown: {
      const bool level = a == ActionKind::kGetReqUp;
      r.label = action_name(a);
      commit_level(st, kReqGet, level, r);
      break;
    }
  }

  // Derived acknowledge edges: the 4-phase order seen by the environment.
  const bool pa_after = put_ack(st);
  const bool ga_after = get_ack(st);
  if (pa_after && !pa_before && !st.wires[kReqPut]) {
    r.violations.push_back({Property::kHandshakeOrder, "mc.put-hs",
                            "ack+ while put_req is low"});
  }
  if (!pa_after && pa_before) {
    if (st.wires[kReqPut]) {
      r.violations.push_back({Property::kHandshakeOrder, "mc.put-hs",
                              "ack- while put_req is still high"});
    }
    r.progress_put = true;
  }
  if (ga_after && !ga_before && !st.wires[kReqGet]) {
    r.violations.push_back({Property::kHandshakeOrder, "mc.get-hs",
                            "ack+ while get_req is low"});
  }
  if (!ga_after && ga_before) {
    if (st.wires[kReqGet]) {
      r.violations.push_back({Property::kHandshakeOrder, "mc.get-hs",
                              "ack- while get_req is still high"});
    }
    r.progress_get = true;
  }

  check_state_invariants(st, r);
  return r;
}

void RingModel::pack(const RingState& s, std::uint8_t* out) const {
  const unsigned n = cfg_.capacity;
  std::size_t at = 0;
  const std::size_t wire_bytes = (num_wires() + 7) / 8;
  for (std::size_t b = 0; b < wire_bytes; ++b) out[at + b] = 0;
  for (unsigned w = 0; w < num_wires(); ++w) {
    if (s.wires[w]) out[at + w / 8] |= static_cast<std::uint8_t>(1u << (w % 8));
  }
  at += wire_bytes;
  for (unsigned k = 0; k < n; ++k) {
    out[at++] = static_cast<std::uint8_t>((s.opt[k].state & 0xFu) |
                                          ((s.ogt[k].state & 0xFu) << 4));
  }
  if (opt_needs_progress_) {
    for (unsigned k = 0; k < n; ++k) {
      for (std::uint32_t p : s.opt[k].progress) {
        out[at++] = static_cast<std::uint8_t>(p & 0xFFu);
      }
    }
  }
  if (ogt_needs_progress_) {
    for (unsigned k = 0; k < n; ++k) {
      for (std::uint32_t p : s.ogt[k].progress) {
        out[at++] = static_cast<std::uint8_t>(p & 0xFFu);
      }
    }
  }
  const std::size_t place_bytes = (cfg_.dv.num_places + 7) / 8;
  for (unsigned k = 0; k < n; ++k) {
    for (std::size_t b = 0; b < place_bytes; ++b) out[at + b] = 0;
    for (unsigned p = 0; p < cfg_.dv.num_places; ++p) {
      if (s.dv[k][p]) {
        out[at + p / 8] |= static_cast<std::uint8_t>(1u << (p % 8));
      }
    }
    at += place_bytes;
  }
  out[at++] = static_cast<std::uint8_t>(s.queue.size());
  for (std::size_t i = 0; i < kMaxQueue; ++i) {
    out[at++] = i < s.queue.size() ? s.queue[i] : 0;
  }
  MTS_ASSERT(at == record_size_, "RingModel: pack size mismatch");
}

RingState RingModel::unpack(const std::uint8_t* rec) const {
  const unsigned n = cfg_.capacity;
  RingState s;
  std::size_t at = 0;
  const std::size_t wire_bytes = (num_wires() + 7) / 8;
  s.wires.assign(num_wires(), false);
  for (unsigned w = 0; w < num_wires(); ++w) {
    s.wires[w] = (rec[at + w / 8] >> (w % 8)) & 1u;
  }
  at += wire_bytes;
  for (unsigned k = 0; k < n; ++k) {
    ctrl::BmCore opt(cfg_.opt, rec[at] & 0xFu);
    ctrl::BmCore ogt(cfg_.ogt, (rec[at] >> 4) & 0xFu);
    ++at;
    s.opt.push_back(std::move(opt));
    s.ogt.push_back(std::move(ogt));
  }
  if (opt_needs_progress_) {
    for (unsigned k = 0; k < n; ++k) {
      for (std::uint32_t& p : s.opt[k].progress) p = rec[at++];
    }
  }
  if (ogt_needs_progress_) {
    for (unsigned k = 0; k < n; ++k) {
      for (std::uint32_t& p : s.ogt[k].progress) p = rec[at++];
    }
  }
  const std::size_t place_bytes = (cfg_.dv.num_places + 7) / 8;
  for (unsigned k = 0; k < n; ++k) {
    ctrl::PnMarking m(cfg_.dv.num_places, false);
    for (unsigned p = 0; p < cfg_.dv.num_places; ++p) {
      m[p] = (rec[at + p / 8] >> (p % 8)) & 1u;
    }
    at += place_bytes;
    s.dv.push_back(std::move(m));
  }
  const std::size_t qlen = rec[at++];
  for (std::size_t i = 0; i < qlen; ++i) s.queue.push_back(rec[at + i]);
  return s;
}

}  // namespace mts::mc
