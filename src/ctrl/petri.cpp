#include "ctrl/petri.hpp"

#include <utility>

#include "sim/error.hpp"

namespace mts::ctrl {

void PetriNet::validate(std::size_t num_inputs, std::size_t num_outputs) const {
  if (num_places == 0) throw ConfigError("PetriNet '" + name + "': no places");
  for (unsigned p : initial_marking) {
    if (p >= num_places) {
      throw ConfigError("PetriNet '" + name + "': initial marking out of range");
    }
  }
  for (const PnTransition& t : transitions) {
    const std::size_t limit = t.is_input ? num_inputs : num_outputs;
    if (t.signal >= limit) {
      throw ConfigError("PetriNet '" + name + "': transition '" + t.label +
                        "' signal index out of range");
    }
    for (unsigned p : t.pre) {
      if (p >= num_places) {
        throw ConfigError("PetriNet '" + name + "': pre-place out of range");
      }
    }
    for (unsigned p : t.post) {
      if (p >= num_places) {
        throw ConfigError("PetriNet '" + name + "': post-place out of range");
      }
    }
  }
}

PnMarking pn_initial_marking(const PetriNet& net) {
  PnMarking m(net.num_places, false);
  for (unsigned p : net.initial_marking) m[p] = true;
  return m;
}

bool pn_enabled(const PetriNet& net, const PnMarking& m, const PnTransition& t) {
  (void)net;
  for (unsigned p : t.pre) {
    if (!m[p]) return false;
  }
  return true;
}

PnFire pn_fire(const PetriNet& net, PnMarking& m, const PnTransition& t) {
  (void)net;
  PnFire r;
  for (unsigned p : t.pre) m[p] = false;
  for (unsigned p : t.post) {
    if (m[p]) {
      r.safe = false;
      r.bad_place = p;
      return r;
    }
    m[p] = true;
  }
  return r;
}

PnStep pn_input_step(const PetriNet& net, PnMarking& m, unsigned signal,
                     bool rising) {
  PnStep step;
  for (std::size_t ti = 0; ti < net.transitions.size(); ++ti) {
    const PnTransition& t = net.transitions[ti];
    if (t.is_input && t.signal == signal && t.rising == rising &&
        pn_enabled(net, m, t)) {
      const PnFire f = pn_fire(net, m, t);
      step.fired = true;
      step.transition = ti;
      step.safe = f.safe;
      step.bad_place = f.bad_place;
      return step;
    }
  }
  return step;
}

void pn_run_outputs(const PetriNet& net, PnMarking& m, PnSweep& sweep) {
  sweep.fired.clear();
  sweep.safe = true;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t ti = 0; ti < net.transitions.size(); ++ti) {
      const PnTransition& t = net.transitions[ti];
      if (!t.is_input && pn_enabled(net, m, t)) {
        const PnFire f = pn_fire(net, m, t);
        if (!f.safe) {
          sweep.safe = false;
          sweep.bad_transition = ti;
          sweep.bad_place = f.bad_place;
          return;
        }
        sweep.fired.push_back(ti);
        progressed = true;
      }
    }
  }
}

PetriEngine::PetriEngine(sim::Simulation& sim, std::string instance,
                         const PetriNet& net, std::vector<sim::Wire*> inputs,
                         std::vector<sim::Wire*> outputs, sim::Time output_delay)
    : sim_(sim),
      instance_(std::move(instance)),
      net_(net),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      output_delay_(output_delay) {
  net_.validate(inputs_.size(), outputs_.size());
  marking_ = pn_initial_marking(net_);
  for (unsigned i = 0; i < inputs_.size(); ++i) {
    MTS_ASSERT(inputs_[i] != nullptr, "null input wire");
    inputs_[i]->on_change([this, i](bool, bool now) { on_input_edge(i, now); });
  }
  sim_.sched().after(0, [this] { run_output_transitions(); });
}

void PetriEngine::throw_unsafe(const PnTransition& t, unsigned place) const {
  throw SimulationError("PetriEngine '" + instance_ + "': firing '" + t.label +
                        "' violates 1-safety at place " + std::to_string(place));
}

void PetriEngine::run_output_transitions() {
  pn_run_outputs(net_, marking_, sweep_);
  for (std::size_t ti : sweep_.fired) {
    const PnTransition& t = net_.transitions[ti];
    ++firings_;
    outputs_[t.signal]->write(t.rising, output_delay_, sim::DelayKind::kInertial);
  }
  if (!sweep_.safe) {
    throw_unsafe(net_.transitions[sweep_.bad_transition], sweep_.bad_place);
  }
}

void PetriEngine::on_input_edge(unsigned signal, bool rising) {
  const PnStep step = pn_input_step(net_, marking_, signal, rising);
  if (step.fired) {
    if (!step.safe) {
      throw_unsafe(net_.transitions[step.transition], step.bad_place);
    }
    ++firings_;
    run_output_transitions();
    return;
  }
  sim_.report().add(sim_.now(), sim::Severity::kError, "pn-illegal-input",
                    instance_ + ": unexpected edge on input " +
                        std::to_string(signal) + (rising ? "+" : "-"));
}

}  // namespace mts::ctrl
