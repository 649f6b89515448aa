// Protocol-state functional coverage for the mixed-timing interfaces.
//
// A Coverage object owns a set of named bins. Bins are declared up front
// (define) so a run that never exercises a state shows up as a MISSED bin
// rather than a silently absent one; hits are recorded either directly
// (hit) or by subscribing to signal edges via the kernel's typed
// Wire::on_rise / on_fall listeners, which cost nothing on wires nobody
// watches. The verification suites assert all_hit() after fuzz campaigns
// and surface the bin table through sim::Report so coverage travels with
// the run's other diagnostics.
//
// Every campaign run owns one (sim::RunRecord::coverage, ctx.coverage()),
// so the bin table compiles into mts_sim, as timeseries.cpp does; the
// attachers for the paper's DUTs (metrics/cover.hpp) stay in mts_metrics.
//
// Lifetime: listeners point at bin counters, which are map nodes: a move
// keeps them (copying is deleted). The bins must outlive every simulation
// run of the circuit they instrument.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/report.hpp"
#include "sim/signal.hpp"
#include "sim/time.hpp"

namespace mts::metrics {

class Coverage {
 public:
  explicit Coverage(std::string name = "coverage") : name_(std::move(name)) {}

  Coverage(const Coverage&) = delete;
  Coverage& operator=(const Coverage&) = delete;
  Coverage(Coverage&&) noexcept = default;
  Coverage& operator=(Coverage&&) noexcept = default;

  /// Declares `bin` with zero hits (idempotent: re-defining keeps counts).
  void define(const std::string& bin) { (void)counter(bin); }

  /// Records `n` hits, declaring the bin on first use.
  void hit(const std::string& bin, std::uint64_t n = 1) {
    *counter(bin) += n;
  }

  std::uint64_t hits(const std::string& bin) const;
  std::size_t size() const noexcept { return bins_.size(); }

  /// Bins defined but never hit, in lexicographic order.
  std::vector<std::string> missing() const;
  bool all_hit() const;

  /// Campaign reduction: folds `other`'s bins into this object -- hit
  /// counts add, bins defined only in `other` (hit or missed) appear here.
  /// Commutative and associative, so per-run coverage merged in any order
  /// yields identical bins; listener subscriptions are NOT copied (merge
  /// aggregates results, it does not re-instrument circuits).
  void merge(const Coverage& other);

  /// "name: 7/9 bins hit; missing: mcrs.full.rise, mcrs.occ.nearfull"
  std::string summary() const;

  /// Emits one kInfo entry per hit bin and one kWarning "coverage-miss"
  /// entry per missed bin, plus a kInfo summary line, all at time `t`.
  void report_into(sim::Report& r, sim::Time t) const;

  const std::map<std::string, std::uint64_t>& bins() const noexcept {
    return bins_;
  }

  // -- Edge subscriptions -------------------------------------------------
  // Each registers a listener on `w` that bumps `bin`. The nth_ variants
  // start counting at the nth edge (1-based): the wrap bins use n=2 because
  // the first set/clear of cell 0's flag is startup, not a ring wrap.

  void bin_rise(const std::string& bin, sim::Wire& w) {
    bin_nth_rise(bin, w, 1);
  }
  void bin_fall(const std::string& bin, sim::Wire& w) {
    bin_nth_fall(bin, w, 1);
  }
  void bin_nth_rise(const std::string& bin, sim::Wire& w, unsigned n);
  void bin_nth_fall(const std::string& bin, sim::Wire& w, unsigned n);

  /// Stable address of the bin's counter for hand-rolled listeners (map
  /// nodes never move); declares the bin on first use.
  std::uint64_t* counter(const std::string& bin) { return &bins_[bin]; }

 private:
  std::string name_;
  std::map<std::string, std::uint64_t> bins_;
};

}  // namespace mts::metrics
