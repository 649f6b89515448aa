// Latency-insensitive system topologies (Fig. 11a and Fig. 14).
//
// A SyncRelayChain strings relay stations along a long wire inside one
// clock domain. MixedClockLink and AsyncSyncLink assemble the paper's two
// full mixed-timing topologies:
//
//   Fig. 11a:  sender --SRS*(clk1)--> MCRS --SRS*(clk2)--> receiver
//   Fig. 14:   async sender --ARS*--> ASRS --SRS*(clk)--> receiver
#pragma once

#include <string>
#include <vector>

#include "fifo/config.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "gates/netlist.hpp"
#include "lip/micropipeline.hpp"
#include "lip/relay_station.hpp"
#include "sim/signal.hpp"
#include "sim/simulation.hpp"

namespace mts::lip {

/// A chain of `length` synchronous relay stations on one clock. Boundary
/// wires are caller-owned; with length 0 the chain degenerates to buffered
/// wires (no pipelining).
class SyncRelayChain {
 public:
  SyncRelayChain(sim::Simulation& sim, const std::string& name, sim::Wire& clk,
                 unsigned length, const gates::DelayModel& dm,
                 sim::Word& in_data, sim::Wire& in_valid, sim::Wire& stop_out,
                 sim::Word& out_data, sim::Wire& out_valid, sim::Wire& stop_in);

  SyncRelayChain(const SyncRelayChain&) = delete;
  SyncRelayChain& operator=(const SyncRelayChain&) = delete;

  unsigned length() const noexcept { return length_; }
  /// Valid packets currently in flight inside the chain, for tests.
  unsigned buffered_valid() const;

  /// Instance names of the boundary stations, for trace-stream linking by
  /// parent links ("" when the chain is empty).
  const std::string& first_station_instance() const { return first_station_; }
  const std::string& last_station_instance() const { return last_station_; }

 private:
  gates::Netlist nl_;
  unsigned length_;
  std::vector<RelayStation*> stations_;
  std::string first_station_;
  std::string last_station_;
};

/// Fig. 11a: two synchronous domains joined by a mixed-clock relay station,
/// each side reached through a chain of synchronous relay stations.
class MixedClockLink {
 public:
  MixedClockLink(sim::Simulation& sim, const std::string& name,
                 const fifo::FifoConfig& cfg, sim::Wire& clk_left,
                 sim::Wire& clk_right, unsigned left_length,
                 unsigned right_length);

  MixedClockLink(const MixedClockLink&) = delete;
  MixedClockLink& operator=(const MixedClockLink&) = delete;

  // Left interface (clk_left domain, producer side).
  sim::Word& data_in() noexcept { return *data_in_; }
  sim::Wire& valid_in() noexcept { return *valid_in_; }
  sim::Wire& stop_out() noexcept { return *stop_out_; }

  // Right interface (clk_right domain, consumer side).
  sim::Word& data_out() noexcept { return *data_out_; }
  sim::Wire& valid_out() noexcept { return *valid_out_; }
  sim::Wire& stop_in() noexcept { return *stop_in_; }

  /// The mixed-clock relay station (MCRS, Fig. 12): the mixed-clock FIFO
  /// with relay-station controllers, whatever cfg.controller says.
  fifo::MixedClockFifo& mcrs() noexcept { return *mcrs_; }

  /// Boundary instance names for trace-stream linking with neighbours
  /// (sim/trace_session.hpp): the first/last traced component of the link.
  const std::string& first_traced_instance() const { return first_traced_; }
  const std::string& last_traced_instance() const { return last_traced_; }

 private:
  gates::Netlist nl_;
  std::string first_traced_;
  std::string last_traced_;
  sim::Word* data_in_ = nullptr;
  sim::Wire* valid_in_ = nullptr;
  sim::Wire* stop_out_ = nullptr;
  sim::Word* data_out_ = nullptr;
  sim::Wire* valid_out_ = nullptr;
  sim::Wire* stop_in_ = nullptr;
  fifo::MixedClockFifo* mcrs_ = nullptr;
};

/// Fig. 14: an asynchronous sender reaches a synchronous domain through a
/// micropipeline ARS chain, the ASRS, and a synchronous SRS chain.
class AsyncSyncLink {
 public:
  AsyncSyncLink(sim::Simulation& sim, const std::string& name,
                const fifo::FifoConfig& cfg, sim::Wire& clk_right,
                unsigned ars_length, unsigned srs_length);

  AsyncSyncLink(const AsyncSyncLink&) = delete;
  AsyncSyncLink& operator=(const AsyncSyncLink&) = delete;

  // Left interface: asynchronous 4-phase bundled data (producer side).
  sim::Wire& put_req() noexcept { return *put_req_; }
  sim::Wire& put_ack() noexcept { return *put_ack_; }
  sim::Word& put_data() noexcept { return *put_data_; }

  // Right interface (clk_right domain, consumer side).
  sim::Word& data_out() noexcept { return *data_out_; }
  sim::Wire& valid_out() noexcept { return *valid_out_; }
  sim::Wire& stop_in() noexcept { return *stop_in_; }

  /// The async-sync relay station (ASRS, Fig. 15): the async-sync FIFO
  /// with relay-station controllers, whatever cfg.controller says.
  fifo::AsyncSyncFifo& asrs() noexcept { return *asrs_; }

  /// Boundary instance names for trace-stream linking with neighbours.
  const std::string& first_traced_instance() const { return first_traced_; }
  const std::string& last_traced_instance() const { return last_traced_; }

 private:
  gates::Netlist nl_;
  std::string first_traced_;
  std::string last_traced_;
  sim::Wire* put_req_ = nullptr;
  sim::Wire* put_ack_ = nullptr;
  sim::Word* put_data_ = nullptr;
  sim::Word* data_out_ = nullptr;
  sim::Wire* valid_out_ = nullptr;
  sim::Wire* stop_in_ = nullptr;
  fifo::AsyncSyncFifo* asrs_ = nullptr;
};

}  // namespace mts::lip
