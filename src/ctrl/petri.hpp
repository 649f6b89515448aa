// 1-safe Petri-net controller engine.
//
// The paper's DV_as data-validity controller is specified as a Petri net
// (Fig. 10b) and synthesized with Petrify. We execute the net directly:
//
//   - *input* transitions are labelled with an edge of an input wire; when
//     that edge arrives, the transition fires if enabled (all pre-places
//     marked); an arriving edge with no enabled transition is reported as
//     "pn-illegal-input";
//   - *output* transitions drive an edge on an output wire; they fire
//     eagerly (with the controller's output delay) whenever enabled.
//
// The engine enforces 1-safety: a firing that would place a second token in
// a place indicates a malformed net and throws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/signal.hpp"
#include "sim/simulation.hpp"

namespace mts::ctrl {

struct PnTransition {
  std::string label;            ///< diagnostics, e.g. "we+" or "e_i-"
  bool is_input = true;         ///< input (wire-edge triggered) vs output
  unsigned signal = 0;          ///< index into inputs or outputs
  bool rising = true;           ///< edge direction
  std::vector<unsigned> pre;    ///< consumed places
  std::vector<unsigned> post;   ///< produced places
};

struct PetriNet {
  std::string name;
  unsigned num_places = 0;
  std::vector<unsigned> initial_marking;  ///< place indices holding a token
  std::vector<PnTransition> transitions;

  void validate(std::size_t num_inputs, std::size_t num_outputs) const;
};

/// Marking as a place-indexed bit vector -- the engine's and the model
/// checker's shared state representation.
using PnMarking = std::vector<bool>;

PnMarking pn_initial_marking(const PetriNet& net);

/// True iff every pre-place of `t` is marked.
bool pn_enabled(const PetriNet& net, const PnMarking& m, const PnTransition& t);

/// Outcome of firing one transition.
struct PnFire {
  bool safe = true;        ///< false: a post-place was already marked
  unsigned bad_place = 0;  ///< the doubly-marked place when !safe
};

/// Fires `t` in place (no enabledness check). On a 1-safety violation the
/// pre-places are already consumed and the marking is only partially
/// produced; callers must treat !safe as fatal, exactly as PetriEngine
/// throws.
PnFire pn_fire(const PetriNet& net, PnMarking& m, const PnTransition& t);

/// Outcome of one input-wire edge.
struct PnStep {
  bool fired = false;          ///< an enabled matching transition fired
  std::size_t transition = 0;  ///< its index when fired
  bool safe = true;
  unsigned bad_place = 0;
};

/// Applies one input-wire edge: fires the first enabled input transition
/// matching (signal, rising) -- the rule PetriEngine applies. fired=false
/// means the edge was illegal in this marking ("pn-illegal-input").
PnStep pn_input_step(const PetriNet& net, PnMarking& m, unsigned signal,
                     bool rising);

/// Outcome of the eager output sweep.
struct PnSweep {
  std::vector<std::size_t> fired;  ///< output transitions in firing order
  bool safe = true;
  std::size_t bad_transition = 0;  ///< transition whose firing went unsafe
  unsigned bad_place = 0;
};

/// Eagerly fires enabled output transitions to quiescence, recording each
/// fired transition's index in firing order (the order the engine writes
/// its output wires). Stops at the first 1-safety violation. `sweep` is
/// cleared first; reusing one keeps its `fired` capacity across calls.
void pn_run_outputs(const PetriNet& net, PnMarking& m, PnSweep& sweep);

class PetriEngine {
 public:
  PetriEngine(sim::Simulation& sim, std::string instance, const PetriNet& net,
              std::vector<sim::Wire*> inputs, std::vector<sim::Wire*> outputs,
              sim::Time output_delay);

  PetriEngine(const PetriEngine&) = delete;
  PetriEngine& operator=(const PetriEngine&) = delete;

  bool marked(unsigned place) const { return marking_.at(place); }
  std::uint64_t firings() const noexcept { return firings_; }

 private:
  void on_input_edge(unsigned signal, bool rising);
  void run_output_transitions();
  [[noreturn]] void throw_unsafe(const PnTransition& t, unsigned place) const;

  sim::Simulation& sim_;
  std::string instance_;
  const PetriNet& net_;
  std::vector<sim::Wire*> inputs_;
  std::vector<sim::Wire*> outputs_;
  sim::Time output_delay_;
  PnMarking marking_;
  PnSweep sweep_;  ///< reused by every output sweep
  std::uint64_t firings_ = 0;
};

}  // namespace mts::ctrl
