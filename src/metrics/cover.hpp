// Standard coverage bin sets for the paper's DUTs, attached to a bin
// table (metrics/coverage.hpp) such as a campaign run's ctx.coverage().
#pragma once

#include <string>

#include "fifo/mixed_timing_fifo.hpp"
#include "metrics/coverage.hpp"

namespace mts::metrics {

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
