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
// Attachers (cover_fifo, ...) wire up the standard bin set for the paper's
// DUTs: detector transitions (full / not-empty / or-empty, Figs. 5-6),
// put/get token ring wraps, relay-station stall x valid combinations
// (Fig. 12), and a coarse occupancy histogram.
//
// Lifetime: listeners registered by the attachers capture pointers into
// this object; the Coverage must outlive every simulation run of the
// circuit it instruments (it is non-copyable and non-movable for this
// reason).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fifo/mixed_timing_fifo.hpp"
#include "sim/report.hpp"
#include "sim/signal.hpp"
#include "sim/time.hpp"

namespace mts::metrics {

class Coverage {
 public:
  explicit Coverage(std::string name = "coverage") : name_(std::move(name)) {}

  Coverage(const Coverage&) = delete;
  Coverage& operator=(const Coverage&) = delete;

  /// Declares `bin` with zero hits (idempotent: re-defining keeps counts).
  void define(const std::string& bin) { (void)slot(bin); }

  /// Records `n` hits, declaring the bin on first use.
  void hit(const std::string& bin, std::uint64_t n = 1) { *slot(bin) += n; }

  std::uint64_t hits(const std::string& bin) const;
  std::size_t size() const noexcept { return bins_.size(); }

  /// Bins defined but never hit, in lexicographic order.
  std::vector<std::string> missing() const;
  bool all_hit() const;

  /// Campaign reduction: folds `other`'s bins into this object -- hit
  /// counts add, bins defined only in `other` (hit or missed) appear here.
  /// Commutative and associative, so per-worker coverage merged in any
  /// order yields identical bins; listener subscriptions are NOT copied
  /// (merge aggregates results, it does not re-instrument circuits).
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

  void bin_rise(const std::string& bin, sim::Wire& w);
  void bin_fall(const std::string& bin, sim::Wire& w);
  void bin_nth_rise(const std::string& bin, sim::Wire& w, unsigned n);
  void bin_nth_fall(const std::string& bin, sim::Wire& w, unsigned n);

  /// Stable address of the bin's counter for hand-rolled listeners (map
  /// nodes never move); declares the bin on first use.
  std::uint64_t* counter(const std::string& bin) { return slot(bin); }

 private:
  /// Stable address of the bin's counter (map nodes never move).
  std::uint64_t* slot(const std::string& bin) { return &bins_[bin]; }

  std::string name_;
  std::map<std::string, std::uint64_t> bins_;
};

// -- Standard bin sets ------------------------------------------------------

/// Detector transitions (full / ne / oe, raw pre-synchronizer wires), token
/// ring wraps, and a coarse occupancy histogram (empty / mid / nearfull) of
/// a FIFO with a synchronous get side. An asynchronous put side has no full
/// detector (it flow-controls through the handshake) and so no full bins.
/// Bins are prefixed "<prefix>.". Defined for MixedClockFifo and
/// AsyncSyncFifo.
template <fifo::Timing Put>
void cover_fifo(Coverage& cov, const std::string& prefix,
                fifo::Fifo<Put, fifo::Timing::kSync>& f);

/// Relay-station / LIP channel bins: the four stall x valid combinations
/// sampled at each rising edge of `clk` (Fig. 12's stop/valid protocol).
void cover_stall_valid(Coverage& cov, const std::string& prefix,
                       sim::Wire& clk, sim::Wire& valid, sim::Wire& stop);

/// Full per-slot occupancy histogram "<prefix>.occ.<k>" for k in
/// [0, capacity], sampled on every cell-flag change. Heavier than the
/// coarse buckets; used by the soak tests' failure diagnostics.
void cover_occupancy_histogram(Coverage& cov, const std::string& prefix,
                               fifo::MixedClockFifo& f);

}  // namespace mts::metrics
