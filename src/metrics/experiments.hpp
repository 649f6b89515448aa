// Experiment harness reproducing the paper's evaluation (Section 6), one
// function per experiment over the four designs of the interface matrix.
// Every run is assembled by metrics::Testbench (metrics/testbench.hpp).
//
// Throughput of synchronous interfaces: the paper reports "the maximum
// clock frequency with which that interface can be clocked". We compute it
// from the design's critical-path analysis (SyncPutSide/SyncGetSide
// min_period, which mirror the constructed netlists) and then *validate*
// it by simulation: a long saturated run at exactly those periods must
// finish with zero setup/hold violations, zero over/underflow and a clean
// scoreboard. validate() exposes the same run at arbitrary periods so
// tests can show that faster clocks do fail.
//
// Throughput of asynchronous interfaces: measured directly, as in the
// paper, by saturating the 4-phase handshake and counting operations per
// second (MegaOps/s).
//
// Latency: the paper's setup -- empty FIFO, get side requesting, a single
// put -- swept across the CLK_get phase to produce the Min and Max columns.
//
// The paper evaluates mixed-clock and async-sync (each also as a relay
// station, per cfg.controller); it designed sync-async, deferring it to a
// technical report, and published async-async separately in [4]. The
// same functions complete the matrix with the same methodology.
#pragma once

#include <cstdint>

#include "fifo/config.hpp"
#include "sim/time.hpp"

namespace mts::metrics {

/// The four designs of the interface matrix, named put side first.
enum class Design { kMixedClock, kAsyncSync, kSyncAsync, kAsyncAsync };

/// Outcome of a saturated validation run at fixed clock periods.
struct ValidationResult {
  std::uint64_t timing_violations = 0;  ///< setup+hold in checked domains
  std::uint64_t overflows = 0;
  std::uint64_t underflows = 0;
  std::uint64_t scoreboard_errors = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;

  bool clean() const noexcept {
    return timing_violations == 0 && overflows == 0 && underflows == 0 &&
           scoreboard_errors == 0;
  }
};

/// Saturated run with both sides offering every cycle. `put` and `get`
/// are each side's clock period when it is synchronous and its idle gap
/// between handshakes when it is asynchronous. Runs `cycles` put-clock
/// cycles (get-clock cycles for an asynchronous put side, 5 ns handshake
/// slots when neither side has a clock).
ValidationResult validate(Design design, const fifo::FifoConfig& cfg,
                          sim::Time put, sim::Time get, unsigned cycles,
                          std::uint64_t seed = 1);

struct ThroughputRow {
  double put = 0;  ///< MHz (sync) or MegaOps/s (async)
  double get = 0;  ///< MHz (sync) or MegaOps/s (async)
  bool put_async = false;
  bool get_async = false;
  bool validated = false;  ///< the saturated run at these rates was clean
};

/// Table 1 throughput entry: a synchronous side from its critical path,
/// validated by a saturated run at those periods; an asynchronous side
/// measured from a saturated handshake run over `cycles` cycles of the
/// other side's clock (5 ns handshake slots when neither side has one).
ThroughputRow throughput(Design design, const fifo::FifoConfig& cfg,
                         unsigned cycles = 1500);

struct LatencyRow {
  double min_ns = 0;  ///< 0 when no run delivered
  double max_ns = 0;
  unsigned delivered = 0;  ///< runs whose item reached the receiver
};

/// Table 1 latency entry: empty FIFO, single put, CLK_get phase swept over
/// `phases` runs. An asynchronous receiver has no clock to sweep: one run,
/// so min == max.
LatencyRow latency(Design design, const fifo::FifoConfig& cfg,
                   unsigned phases = 24);

}  // namespace mts::metrics
