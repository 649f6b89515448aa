// Elaboration: lowering a validated builder::Design onto a running
// sim::Simulation.
//
// elaborate() calls Design::check(), then constructs, in a deterministic
// order that campaigns and golden-waveform tests rely on:
//
//   1. one sync::Clock per declared domain, in declaration order;
//   2. every edge's mixed-timing machinery, in edge declaration order --
//      the CDC primitive first, then relay chains, then gearboxes;
//   3. every node's generated components (a source's bfm::PutEnd or a
//      sink's bfm::GetEnd from the endpoint table in bfm/ends.hpp, tagged
//      traffic, repeater buffers, routers, bus fabrics), in node
//      declaration order.
//
// Elaboration itself never draws from the simulation RNG and schedules no
// events of its own, so an elaborated design is bit-identical to the same
// components hand-wired in the same order. Observability, monitor hubs and
// fault plans armed on the Simulation *before* elaborate() apply to every
// inserted primitive automatically, and trace streams are linked across
// repeaters so one transaction id rides a packet across multiple edges.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bfm/ends.hpp"
#include "bfm/scoreboard.hpp"
#include "builder/bus.hpp"
#include "builder/design.hpp"
#include "builder/gearbox.hpp"
#include "builder/router.hpp"
#include "builder/traffic.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "gates/netlist.hpp"
#include "lip/chain.hpp"
#include "sim/simulation.hpp"
#include "sim/watchdog.hpp"
#include "sync/clock.hpp"

namespace mts::builder {

// The port bundles and endpoints live with the endpoint table in bfm; the
// builder keeps their names.
using bfm::Endpoint;
using bfm::EndpointStyle;
using bfm::HandshakePort;
using bfm::LiPort;
using bfm::SyncFifoGet;
using bfm::SyncFifoPut;

/// One primitive the elaborator inserted on an edge.
struct InsertedRecord {
  EdgeId edge = 0;
  Primitive kind = Primitive::kWire;
  std::string instance;
};

/// The elaborated edge machinery; exactly the pointers matching the
/// resolved primitive are non-null.
struct EdgeParts {
  Endpoint head;
  Endpoint tail;
  Primitive primitive = Primitive::kWire;
  lip::SyncRelayChain* chain = nullptr;
  lip::MixedClockLink* mc_link = nullptr;
  lip::AsyncSyncLink* as_link = nullptr;
  lip::Micropipeline* pipe = nullptr;
  fifo::MixedClockFifo* mc_fifo = nullptr;
  fifo::AsyncSyncFifo* as_fifo = nullptr;
  fifo::SyncAsyncFifo* sa_fifo = nullptr;
  fifo::AsyncAsyncFifo* aa_fifo = nullptr;
  Serializer* ser = nullptr;
  Deserializer* deser = nullptr;
};

/// The generated components of one node; null for kinds that do not apply.
/// An untagged source or sink is one end of the endpoint table
/// (bfm/ends.hpp), built on the endpoint its edge presents.
struct NodeParts {
  bfm::Scoreboard* sb = nullptr;        ///< owned (sources; external-fed sinks)
  bfm::Scoreboard* check_sb = nullptr;  ///< what a generated sink checks
  bfm::PutEnd* put_end = nullptr;
  TaggedSource* tagged_source = nullptr;
  bfm::GetEnd* get_end = nullptr;
  TaggedSink* tagged_sink = nullptr;
  MeshRouter* router = nullptr;
  BusFabric* bus = nullptr;
};

class Elaborated {
 public:
  /// Validates `d` (Design::check()) and builds it onto `sim`. Arm
  /// observability / monitors / faults on `sim` first.
  Elaborated(sim::Simulation& sim, const Design& d);

  Elaborated(const Elaborated&) = delete;
  Elaborated& operator=(const Elaborated&) = delete;

  const Design& design() const noexcept { return design_; }
  sim::Simulation& sim() const noexcept { return sim_; }

  sync::Clock& clock(DomainId d);

  const EdgeParts& edge(EdgeId e) const;
  const NodeParts& node(NodeId n) const;

  // --- external port handles (throw ConfigError on a style mismatch) ---
  LiPort li_port(NodeId n, const std::string& port) const;
  HandshakePort handshake_port(NodeId n, const std::string& port) const;
  SyncFifoPut fifo_put(NodeId n, const std::string& port) const;
  SyncFifoGet fifo_get(NodeId n, const std::string& port) const;

  /// The scoreboard a generated sink checks (shared with the upstream
  /// generated source, or owned by the sink when fed by an external node --
  /// external producers push their sent values into it). Throws ConfigError
  /// when the node has no scoreboard (tagged traffic checks itself).
  bfm::Scoreboard& scoreboard(NodeId n) const;

  // --- unified traffic counters ---
  /// Confirmed transfers a source node has injected.
  std::uint64_t source_sent(NodeId n) const;
  /// Packets a sink node has consumed.
  std::uint64_t sink_received(NodeId n) const;
  std::uint64_t total_sent() const;
  std::uint64_t total_received() const;
  /// Scoreboard errors plus tagged per-flow order violations plus router /
  /// bus misroutes.
  std::uint64_t total_order_violations() const;

  /// Primitives inserted per edge, in insertion order.
  const std::vector<InsertedRecord>& inserted() const noexcept {
    return inserted_;
  }

  /// One end-to-end probe: in-flight = sent - received, progress = received.
  void arm_watchdog(sim::Watchdog& wd);

  /// Design netlist plus the inserted-primitive list -- the topology
  /// fingerprint campaigns attach to repro bundles.
  std::string to_json() const;
  std::string to_dot() const { return design_.to_dot(); }

 private:
  void lower_edge(const Edge& e);
  /// Builds a FIFO named `name` on edge `e` and sets the edge's endpoints
  /// from it (metrics::put_endpoint / get_endpoint).
  template <class Fifo>
  Fifo& lower_fifo(const Edge& e, const std::string& name,
                   const fifo::FifoConfig& cfg);
  void lower_node(const Node& n);
  /// The clock of a synchronous port; nullptr for an asynchronous one.
  sim::Wire* port_clock(const PortDecl& p) const;
  LiPort li_wires(const std::string& base);
  HandshakePort hs_wires(const std::string& base);
  const Endpoint& endpoint_of(NodeId n, std::size_t port_idx) const;
  /// endpoint_of() by port name; ConfigError unless its style is `style`.
  const Endpoint& port_endpoint(NodeId n, const std::string& port,
                                EndpointStyle style, const char* what) const;
  /// Generated source feeding `sink` through repeaters only, or kNoNode.
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);
  NodeId upstream_source(NodeId sink) const;
  void link_traces(const std::string& up, const std::string& down);

  sim::Simulation& sim_;
  const Design& design_;
  gates::Netlist nl_;
  std::vector<sync::Clock*> clocks_;
  std::vector<EdgeParts> edges_;
  std::vector<NodeParts> nodes_;
  std::vector<InsertedRecord> inserted_;
};

/// Convenience wrapper: check + build, returning the handle bundle.
std::unique_ptr<Elaborated> elaborate(sim::Simulation& sim, const Design& d);

}  // namespace mts::builder
