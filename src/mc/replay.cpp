#include "mc/replay.hpp"

#include <memory>
#include <utility>

#include "ctrl/burst_mode.hpp"
#include "ctrl/petri.hpp"
#include "ctrl/specs.hpp"
#include "fifo/detectors.hpp"
#include "gates/celement.hpp"
#include "gates/combinational.hpp"
#include "gates/delay_model.hpp"
#include "gates/netlist.hpp"
#include "sim/simulation.hpp"
#include "sim/watchdog.hpp"
#include "verify/checkers.hpp"
#include "verify/hub.hpp"

namespace mts::mc {

namespace {

/// Uniform controller output delay: C-elements, OPT/OGT and DV all commit
/// this long after their triggering edge, which makes the concrete
/// scheduler's commit order identical to the model's pending-event queue.
constexpr sim::Time kDelay = 100;

/// The concrete ring plus its armed monitors.
struct Harness {
  const RingConfig& cfg;
  sim::Simulation sim{1};
  verify::Hub hub;
  sim::Watchdog wd;
  gates::Netlist nl{sim, "mc"};
  gates::DelayModel dm = gates::DelayModel::hp06();

  sim::Wire& put_req = nl.wire("put_req");
  sim::Wire& get_req = nl.wire("get_req");
  std::vector<sim::Wire*> ptok, we, e, f, gtok, re;
  sim::Wire* put_ack = nullptr;
  sim::Wire* get_ack = nullptr;
  sim::Wire* full_raw = nullptr;
  sim::Wire* ne_raw = nullptr;
  sim::Wire& put_chk = nl.wire("put_chk");
  sim::Wire& get_chk = nl.wire("get_chk");
  sim::Wire& det_chk = nl.wire("det_chk");
  sim::Word& put_data = nl.word("put_data");
  sim::Word& get_data = nl.word("get_data");

  std::unique_ptr<verify::TokenRingMonitor> put_ring, get_ring;
  std::unique_ptr<verify::DetectorMonitor> full_mon, ne_mon;
  std::unique_ptr<verify::HandshakeMonitor> put_hs, get_hs;
  sim::Time settle = 0;

  explicit Harness(const RingConfig& cfg_in) : cfg(cfg_in) {
    hub.set_policy(verify::Policy::kRecord);
    hub.arm(sim);
    const unsigned n = cfg.capacity;
    for (unsigned k = 0; k < n; ++k) {
      const std::string c = "c" + std::to_string(k);
      ptok.push_back(&nl.wire(c + ".ptok", k == 0));
      we.push_back(&nl.wire(c + ".we"));
      e.push_back(&nl.wire(c + ".e", true));
      f.push_back(&nl.wire(c + ".f"));
      gtok.push_back(&nl.wire(c + ".gtok", k == 0));
      re.push_back(&nl.wire(c + ".re"));
    }
    // Construction order per cell mirrors RingModel's listener table: put
    // C-element, OPT, get C-element, OGT, DV. Cell 0's OPT therefore
    // subscribes to we_{N-1} before cell N-1's own components -- the
    // ring-wrap dispatch asymmetry the model reproduces.
    for (unsigned k = 0; k < n; ++k) {
      const unsigned prev = (k + n - 1) % n;
      const std::string c = nl.qualified("c" + std::to_string(k));
      std::vector<sim::Wire*> pplus{ptok[k]};
      if (!cfg.drop_put_guard) pplus.push_back(e[k]);
      nl.add<gates::CElement>(sim, c + ".putc",
                              std::vector<sim::Wire*>{&put_req},
                              std::move(pplus), *we[k], kDelay, false);
      nl.add<ctrl::BurstModeMachine>(
          sim, c + ".opt", cfg.opt, std::vector<sim::Wire*>{we[prev], we[k]},
          std::vector<sim::Wire*>{ptok[k]}, kDelay,
          k == 0 ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
      std::vector<sim::Wire*> gplus{gtok[k]};
      if (!cfg.drop_get_guard) gplus.push_back(f[k]);
      nl.add<gates::CElement>(sim, c + ".getc",
                              std::vector<sim::Wire*>{&get_req},
                              std::move(gplus), *re[k], kDelay, false);
      nl.add<ctrl::BurstModeMachine>(
          sim, c + ".ogt", cfg.ogt, std::vector<sim::Wire*>{re[prev], re[k]},
          std::vector<sim::Wire*>{gtok[k]}, kDelay,
          k == 0 ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
      nl.add<ctrl::PetriEngine>(sim, c + ".dv", cfg.dv,
                                std::vector<sim::Wire*>{we[k], re[k]},
                                std::vector<sim::Wire*>{e[k], f[k]}, kDelay);
    }
    put_ack = &gates::make_tree(nl, "put_ack", gates::GateOp::kOr, we, dm);
    get_ack = &gates::make_tree(nl, "get_ack", gates::GateOp::kOr, re, dm);
    full_raw = &fifo::build_anticipating_full(nl, e, dm, cfg.full_window);
    ne_raw = &fifo::build_anticipating_empty(nl, f, dm, cfg.ne_window);

    const unsigned ref_window = fifo::anticipation_window(cfg.sync_depth);
    settle = fifo::detector_delay(
                 n, std::max(cfg.full_window, cfg.ne_window), dm) +
             50;
    put_ring = std::make_unique<verify::TokenRingMonitor>(
        hub, sim, "mc.put-ring", ptok, put_chk);
    get_ring = std::make_unique<verify::TokenRingMonitor>(
        hub, sim, "mc.get-ring", gtok, get_chk);
    full_mon = std::make_unique<verify::DetectorMonitor>(
        hub, sim, "mc.full-det", verify::Invariant::kFullDetector, e,
        *full_raw, ref_window, det_chk, settle);
    ne_mon = std::make_unique<verify::DetectorMonitor>(
        hub, sim, "mc.ne-det", verify::Invariant::kEmptyDetector, f, *ne_raw,
        ref_window, det_chk, settle);
    put_hs = std::make_unique<verify::HandshakeMonitor>(
        hub, sim, "mc.put-hs", put_req, *put_ack, put_data,
        sim::Time{1'000'000});
    get_hs = std::make_unique<verify::HandshakeMonitor>(
        hub, sim, "mc.get-hs", get_req, *get_ack, get_data,
        sim::Time{1'000'000});

    // Transient multi-token and boundary edge checks: the model flags >= 2
    // tokens and we+/re+ into a busy cell at the offending commit; these
    // listeners report the same invariants at the same instant.
    for (unsigned k = 0; k < n; ++k) {
      ptok[k]->on_rise([this] { count_tokens(true); });
      gtok[k]->on_rise([this] { count_tokens(false); });
      we[k]->on_rise([this, k] {
        if (e[k]->read()) return;
        report(verify::Invariant::kOverflow,
               "mc.c" + std::to_string(k) + ".we", "we+ with e_i low",
               "puts only into empty cells");
      });
      re[k]->on_rise([this, k] {
        if (f[k]->read()) return;
        report(verify::Invariant::kUnderflow,
               "mc.c" + std::to_string(k) + ".re", "re+ with f_i low",
               "gets only from full cells");
      });
    }

    // Deadlock probe: 1 only when BOTH interfaces are blocked mid-handshake
    // -- the state no internal event can ever unblock. One blocked side
    // alone is legal back-pressure (a full ring stalls puts until a get).
    wd.watch("mc.env", [this] {
      const bool put_blocked = put_req.read() != put_ack->read();
      const bool get_blocked = get_req.read() != get_ack->read();
      return (put_blocked && get_blocked) ? std::uint64_t{1} : 0;
    });
    wd.arm(sim);
    sim.run();  // settle initial gate evaluations
  }

  void count_tokens(bool put_side) {
    const std::vector<sim::Wire*>& ring = put_side ? ptok : gtok;
    unsigned count = 0;
    for (const sim::Wire* w : ring) count += w->read() ? 1u : 0u;
    if (count <= 1) return;
    report(verify::Invariant::kTokenRing,
           put_side ? "mc.put-ring" : "mc.get-ring",
           std::to_string(count) + " tokens", "at most 1 circulating token");
  }

  void report(verify::Invariant inv, std::string site, std::string observed,
              std::string expected) {
    verify::Violation v;
    v.time = sim.now();
    v.invariant = inv;
    v.site = std::move(site);
    v.observed = std::move(observed);
    v.expected = std::move(expected);
    hub.report(std::move(v));
  }

  /// Converts engine "bm-illegal-input" / "pn-illegal-input" report entries
  /// into the hub violation the model's kHandshakeOrder finding maps to.
  void lift_illegal_inputs(std::size_t from_entry) {
    const auto& entries = sim.report().entries();
    for (std::size_t i = from_entry; i < entries.size(); ++i) {
      const sim::ReportEntry& entry = entries[i];
      if (entry.category != "bm-illegal-input" &&
          entry.category != "pn-illegal-input") {
        continue;
      }
      const std::size_t colon = entry.message.find(':');
      report(verify::Invariant::kHandshakeOrder,
             colon == std::string::npos ? "mc"
                                        : entry.message.substr(0, colon),
             entry.category, "only specified edges reach the controllers");
    }
  }
};

}  // namespace

ReplayOutcome replay_ring(const RingConfig& cfg,
                          const std::vector<ActionKind>& env_actions) {
  Harness h(cfg);
  ReplayOutcome out;

  std::size_t env_step = 0;
  for (ActionKind a : env_actions) {
    if (a == ActionKind::kCommit) continue;
    ++env_step;
    const std::size_t seen_violations = h.hub.violations().size();
    const std::size_t seen_entries = h.sim.report().entries().size();
    bool deadlocked = false;
    std::string deadlock_what;
    try {
      switch (a) {
        case ActionKind::kPutReqUp: h.put_req.set(true); break;
        case ActionKind::kPutReqDown: h.put_req.set(false); break;
        case ActionKind::kGetReqUp: h.get_req.set(true); break;
        case ActionKind::kGetReqDown: h.get_req.set(false); break;
        case ActionKind::kCommit: break;
      }
      h.sim.run();
    } catch (const sim::DeadlockError& err) {
      deadlocked = true;
      deadlock_what = err.what();
    }
    h.lift_illegal_inputs(seen_entries);
    if (!deadlocked && h.hub.violations().size() == seen_violations) {
      // Quiescent and clean so far: pulse the settled-state monitors. Token
      // one-hot is only demanded of an idle side (mid-handshake the token
      // is legitimately in flight); the detector monitors defer their own
      // settle re-check.
      if (!h.put_req.read() && !h.put_ack->read()) {
        h.put_chk.set(true);
        h.put_chk.set(false);
      }
      if (!h.get_req.read() && !h.get_ack->read()) {
        h.get_chk.set(true);
        h.get_chk.set(false);
      }
      h.det_chk.set(true);
      h.det_chk.set(false);
      h.sim.run_until(h.sim.now() + h.settle + 10);
    }
    if (h.hub.violations().size() > seen_violations) {
      const verify::Violation& v = h.hub.violations()[seen_violations];
      out.violated = true;
      out.invariant = v.invariant;
      out.site = v.site;
      out.detail = v.to_string();
      out.env_step = env_step;
      break;
    }
    if (deadlocked) {
      out.violated = true;
      out.invariant = verify::Invariant::kDeadlock;
      out.site = "mc.env";
      out.detail = deadlock_what;
      out.env_step = env_step;
      break;
    }
  }

  out.put_handshakes = h.put_hs->handshakes();
  out.get_handshakes = h.get_hs->handshakes();
  return out;
}

CrossCheckResult cross_check(const RingConfig& cfg, const Counterexample& cex) {
  CrossCheckResult r;
  if (!cex.replayable) {
    r.message = "counterexample is not replayable (full-pass interleaving)";
    return r;
  }
  const std::optional<verify::Invariant> want = to_invariant(cex.property);
  if (!want) {
    r.message = std::string("property '") + property_name(cex.property) +
                "' has no runtime-monitor analog";
    return r;
  }
  r.outcome = replay_ring(cfg, cex.env_actions);
  if (!r.outcome.violated) {
    r.message = std::string("replay stayed clean; model reported ") +
                property_name(cex.property) + " at env step " +
                std::to_string(cex.env_step);
    return r;
  }
  if (*r.outcome.invariant != *want) {
    r.message = std::string("replay reported ") +
                verify::invariant_name(*r.outcome.invariant) + " @ " +
                r.outcome.site + ", model reported " +
                property_name(cex.property);
    return r;
  }
  if (r.outcome.env_step != cex.env_step) {
    r.message = "replay reported " + std::string(verify::invariant_name(*want)) +
                " at env step " + std::to_string(r.outcome.env_step) +
                ", model at step " + std::to_string(cex.env_step);
    return r;
  }
  r.ok = true;
  return r;
}

}  // namespace mts::mc
