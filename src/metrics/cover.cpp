#include "metrics/cover.hpp"

#include <cstdint>
#include <vector>

namespace mts::metrics {

namespace {

/// Shared occupancy-bucket listener body: recomputes occupancy on any cell
/// flag change and bumps the matching coarse bucket. `nearfull` means the
/// put side is one item (or less) from stalling, which for capacity 2
/// coincides with any non-empty state -- the campaign treats the buckets
/// as reachability classes, not a histogram.
///
/// Only meaningful for the FIFO controller: a relay-station put side
/// enqueues every cycle (void items carry v=0), so the cell-flag count
/// includes bubbles and never returns to zero once traffic starts. Relay
/// configurations cover the empty/full states through the oe/full detector
/// bins instead.
template <typename Fifo>
void attach_occ_buckets(Coverage& cov, const std::string& prefix, Fifo& f) {
  if (f.config().controller != fifo::ControllerKind::kFifo) return;
  cov.define(prefix + ".occ.empty");
  cov.define(prefix + ".occ.some");
  cov.define(prefix + ".occ.nearfull");
  struct Probe {
    Fifo* f;
    std::uint64_t* empty;
    std::uint64_t* some;
    std::uint64_t* nearfull;
    unsigned cap;
    void operator()() const {
      const unsigned occ = f->occupancy();
      if (occ == 0) ++*empty;
      if (occ >= 1) ++*some;
      if (occ + 1 >= cap) ++*nearfull;
    }
  };
  static_assert(sizeof(Probe) <= 40, "keep the probe within a listener cell");
  const Probe p{&f, cov.counter(prefix + ".occ.empty"),
                cov.counter(prefix + ".occ.some"),
                cov.counter(prefix + ".occ.nearfull"), f.config().capacity};
  for (unsigned i = 0; i < f.config().capacity; ++i) {
    f.cell_f(i).on_change([p](bool, bool) { p(); });
  }
}

}  // namespace

template <fifo::Timing Put>
void cover_fifo(Coverage& cov, const std::string& prefix,
                fifo::Fifo<Put, fifo::Timing::kSync>& f) {
  if constexpr (Put == fifo::Timing::kSync) {
    cov.bin_rise(prefix + ".full.rise", f.full_raw());
    cov.bin_fall(prefix + ".full.fall", f.full_raw());
  }
  cov.bin_rise(prefix + ".ne.rise", f.ne_raw());
  cov.bin_fall(prefix + ".ne.fall", f.ne_raw());
  cov.bin_rise(prefix + ".oe.rise", f.oe_raw());
  cov.bin_fall(prefix + ".oe.fall", f.oe_raw());
  // Ring wraps: the put (get) token is back at cell 0 when its full flag
  // sets (clears) for the second time -- the first set/clear is startup.
  cov.bin_nth_rise(prefix + ".ptok.wrap", f.cell_f(0), 2);
  cov.bin_nth_fall(prefix + ".gtok.wrap", f.cell_f(0), 2);
  attach_occ_buckets(cov, prefix, f);
}

template void cover_fifo(Coverage&, const std::string&, fifo::MixedClockFifo&);
template void cover_fifo(Coverage&, const std::string&, fifo::AsyncSyncFifo&);

void cover_stall_valid(Coverage& cov, const std::string& prefix,
                       sim::Wire& clk, sim::Wire& valid, sim::Wire& stop) {
  for (const char* bin :
       {".sv.idle", ".sv.flow", ".sv.backpressure", ".sv.stall"}) {
    cov.define(prefix + bin);
  }
  struct Probe {
    const sim::Wire* valid;
    const sim::Wire* stop;
    std::uint64_t* cells[4];  // [valid][stop]
    void operator()() const {
      const unsigned idx =
          (valid->read() ? 2u : 0u) + (stop->read() ? 1u : 0u);
      ++*cells[idx];
    }
  };
  Probe p{&valid, &stop,
          {cov.counter(prefix + ".sv.idle"),
           cov.counter(prefix + ".sv.backpressure"),
           cov.counter(prefix + ".sv.flow"),
           cov.counter(prefix + ".sv.stall")}};
  clk.on_rise([p] { p(); });
}

void cover_occupancy_histogram(Coverage& cov, const std::string& prefix,
                               fifo::MixedClockFifo& f) {
  if (f.config().controller != fifo::ControllerKind::kFifo) return;
  const unsigned cap = f.config().capacity;
  std::vector<std::uint64_t*> cells;
  cells.reserve(cap + 1);
  for (unsigned k = 0; k <= cap; ++k) {
    cells.push_back(cov.counter(prefix + ".occ." + std::to_string(k)));
  }
  struct Probe {
    fifo::MixedClockFifo* f;
    std::vector<std::uint64_t*> cells;
    void operator()() const { ++*cells.at(f->occupancy()); }
  };
  for (unsigned i = 0; i < cap; ++i) {
    f.cell_f(i).on_change([p = Probe{&f, cells}](bool, bool) { p(); });
  }
}

}  // namespace mts::metrics
