// Declarative system builder: a design is a typed graph of module nodes
// whose ports carry clock-domain, timing-style and data-width annotations.
//
// The graph is pure data -- nothing is simulated until builder::elaborate()
// (elaborate.hpp) validates it and lowers every edge onto the correct
// mixed-timing primitive from the paper's toolbox:
//
//   producer style   consumer style   inserted primitive
//   --------------   --------------   -------------------------------------
//   sync, domain A   sync, domain A   SRS relay chain (latency stations)
//   sync, domain A   sync, domain B   SRS* + mixed-clock FIFO (MCRS) + SRS*
//   async            sync, domain B   ARS micropipeline + ASRS + SRS*
//   sync, domain A   sync->async      SRS* + sync-async FIFO
//   async            async            micropipeline (latency stages)
//
// (relay-station controller; with ControllerKind::kFifo the same domain
// pairs select the on-demand MixedClock/AsyncSync/SyncAsync/AsyncAsync
// FIFO instead, exposing req/full-style interfaces). Width mismatches are
// gearboxed: a wide producer bus is serialized down to the link width in
// the producer's domain and deserialized back up in the consumer's domain,
// provided the ratios are integral.
//
// Graph errors -- dangling ports, double-driven inputs, width mismatches
// with no integer gearbox ratio, same-domain edges forcing a CDC
// primitive -- are reported by check() as ConfigError naming the offending
// node and port, never as asserts or undefined behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fifo/config.hpp"
#include "sim/time.hpp"
#include "sync/clock.hpp"

namespace mts::builder {

using NodeId = std::size_t;
using EdgeId = std::size_t;
using DomainId = std::size_t;

/// Domain annotation of asynchronous (self-timed) ports.
inline constexpr DomainId kNoDomain = static_cast<DomainId>(-1);

enum class TimingStyle { kSync, kAsync };
enum class PortDir { kOut, kIn };

/// What a node is lowered to at elaboration time.
enum class NodeKind {
  kExternal,  ///< ports exposed as raw signals for caller-supplied logic
  kSource,    ///< generated traffic source (a bfm::PutEnd, or tagged)
  kSink,      ///< generated checking sink (a bfm::GetEnd, or tagged)
  kRepeater,  ///< same-domain pass-through junction (buffered wires)
  kRouter,    ///< 2D-mesh router with XY routing (router.hpp)
  kBus,       ///< multi-drop shared bus with round-robin arbitration (bus.hpp)
};

const char* to_string(TimingStyle s) noexcept;
const char* to_string(PortDir d) noexcept;
const char* to_string(NodeKind k) noexcept;

struct PortDecl {
  std::string name;
  PortDir dir = PortDir::kOut;
  TimingStyle style = TimingStyle::kSync;
  DomainId domain = kNoDomain;  ///< required for kSync, kNoDomain for kAsync
  unsigned width = 8;           ///< data bits, 1..64
};

/// Traffic attributes of kSource nodes. Sync sources emit one packet per
/// cycle with probability `rate`; async sources run 4-phase handshakes
/// separated by `gap`. Tagged sources emit builder packets (traffic.hpp)
/// carrying a destination address, a flow id and a per-flow sequence
/// number -- the self-checking format routers and buses switch on.
struct SourceAttrs {
  double rate = 1.0;
  sim::Time gap = 0;
  std::uint64_t mask = 0xFF;
  bool tagged = false;
  unsigned flow = 0;
  std::vector<unsigned> dests;  ///< tagged: destination addresses to cycle
};

/// Traffic attributes of kSink nodes. Sync sinks stall `stall_rate` of
/// cycles (back-pressure); tagged sinks check per-flow sequence order
/// instead of scoreboard FIFO order.
struct SinkAttrs {
  double stall_rate = 0.0;
  sim::Time gap = 0;  ///< async consumer handshake gap
  bool tagged = false;
};

/// Mesh coordinates and buffering of kRouter nodes.
struct RouterAttrs {
  unsigned x = 0;
  unsigned y = 0;
  unsigned queue = 4;  ///< per-input packet queue depth (>= 2)
};

/// Port counts of kBus nodes (in0..inN-1 / out0..outM-1 are auto-declared).
struct BusAttrs {
  unsigned inputs = 1;
  unsigned outputs = 1;
};

/// Per-edge primitive override; kAuto selects by the table above.
enum class Primitive {
  kAuto,
  kWire,            ///< buffered wires only (same domain, latency 0)
  kSrsChain,        ///< synchronous relay chain (same domain)
  kMixedClockFifo,  ///< MCRS / mixed-clock FIFO (requires distinct domains)
  kAsyncSyncFifo,   ///< ASRS / async-sync FIFO
  kSyncAsyncFifo,   ///< sync-async FIFO
  kAsyncAsyncFifo,  ///< fully asynchronous FIFO (kFifo controller)
  kMicropipeline,   ///< ARS chain (async both sides)
};

/// The primitive an edge resolves to under the selection table (kAuto
/// resolved; never returns kAuto). Pure function of the annotations.
Primitive resolve_primitive(TimingStyle from_style, DomainId from_domain,
                            TimingStyle to_style, DomainId to_domain,
                            fifo::ControllerKind controller, unsigned latency);

const char* to_string(Primitive p) noexcept;

/// Per-edge link annotations: CDC capacity, timing-style controller,
/// latency (relay stations inserted on each side of the crossing) and the
/// physical link width (0: the narrower endpoint; narrower than both
/// endpoints inserts a serializer/deserializer gearbox pair).
struct LinkOptions {
  unsigned capacity = 8;
  fifo::ControllerKind controller = fifo::ControllerKind::kRelayStation;
  unsigned latency_left = 0;   ///< producer-domain relay stations
  unsigned latency_right = 0;  ///< consumer-domain relay stations
  unsigned link_width = 0;     ///< 0: min(producer, consumer) port width
  Primitive primitive = Primitive::kAuto;
  /// Detector/synchronizer/delay-model template for inserted primitives;
  /// capacity, width and controller above override its fields. Unset (the
  /// default) uses Design::link_defaults().
  fifo::FifoConfig base{};
  bool base_set = false;
};

struct Node {
  NodeId id = 0;
  std::string name;
  NodeKind kind = NodeKind::kExternal;
  std::vector<PortDecl> ports;
  SourceAttrs source{};
  SinkAttrs sink{};
  RouterAttrs router{};
  BusAttrs bus{};
};

struct Edge {
  EdgeId id = 0;
  std::string name;
  NodeId from = 0;
  std::size_t from_port = 0;
  NodeId to = 0;
  std::size_t to_port = 0;
  LinkOptions opt{};
};

struct DomainDecl {
  std::string name;
  sync::ClockConfig clock{};
};

class Design {
 public:
  explicit Design(std::string name = "design") : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  // --- port declaration shorthands -------------------------------------
  static PortDecl sync_out(std::string name, DomainId d, unsigned width) {
    return {std::move(name), PortDir::kOut, TimingStyle::kSync, d, width};
  }
  static PortDecl sync_in(std::string name, DomainId d, unsigned width) {
    return {std::move(name), PortDir::kIn, TimingStyle::kSync, d, width};
  }
  static PortDecl async_out(std::string name, unsigned width) {
    return {std::move(name), PortDir::kOut, TimingStyle::kAsync, kNoDomain,
            width};
  }
  static PortDecl async_in(std::string name, unsigned width) {
    return {std::move(name), PortDir::kIn, TimingStyle::kAsync, kNoDomain,
            width};
  }

  // --- graph construction ----------------------------------------------
  /// Declares a clock domain; elaboration constructs one sync::Clock per
  /// domain, in declaration order.
  DomainId domain(const std::string& name, const sync::ClockConfig& clock);

  /// A node whose ports are exposed as raw signals after elaboration, for
  /// caller-supplied custom logic (a DSP, an accelerator, a testbench).
  NodeId external(const std::string& name, std::vector<PortDecl> ports);

  /// Generated traffic source with one out port.
  NodeId source(const std::string& name, PortDecl out, SourceAttrs a = {});

  /// Generated checking sink with one in port.
  NodeId sink(const std::string& name, PortDecl in, SinkAttrs a = {});

  /// Same-domain pass-through junction ("in"/"out" ports): the seam where
  /// two edges meet inside one domain (e.g. between two CDC links).
  NodeId repeater(const std::string& name, DomainId d, unsigned width);

  /// 2D-mesh router at (x, y); declare only the ports that exist with
  /// router_port() ("n_in"/"n_out"/.../"l_in"/"l_out").
  NodeId router(const std::string& name, DomainId d, unsigned width,
                RouterAttrs a, const std::vector<std::string>& ports);

  /// Multi-drop shared bus with ports in0../out0.. auto-declared.
  NodeId bus(const std::string& name, DomainId d, unsigned width, BusAttrs a);

  /// Connects `from_node.from_port` (a kOut port) to `to_node.to_port`
  /// (a kIn port). `edge_name` defaults to "e<index>" and prefixes the
  /// names of every primitive the edge inserts.
  EdgeId connect(NodeId from_node, const std::string& from_port,
                 NodeId to_node, const std::string& to_port,
                 LinkOptions opt = {}, std::string edge_name = {});

  /// Template FifoConfig for inserted primitives (detector kinds, sync
  /// depth, delay model); per-edge LinkOptions::base overrides it.
  fifo::FifoConfig& link_defaults() noexcept { return link_defaults_; }
  const fifo::FifoConfig& link_defaults() const noexcept {
    return link_defaults_;
  }

  // --- inspection -------------------------------------------------------
  const std::vector<DomainDecl>& domains() const noexcept { return domains_; }
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }
  const Node& node(NodeId id) const;
  const Edge& edge(EdgeId id) const;
  /// Port index by name; throws ConfigError naming the node when absent.
  std::size_t port_index(NodeId node, const std::string& port) const;
  const PortDecl& port(NodeId node, const std::string& name) const;

  /// Edge attached to `node.port`, or kNoEdge when dangling.
  static constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);
  EdgeId edge_at(NodeId node, std::size_t port) const;

  /// Validates the whole graph: every port connected exactly once, edge
  /// directions legal, widths gearboxable, domains consistent, forced
  /// primitives applicable. Throws ConfigError naming the offending node
  /// and port on the first failure. elaborate() calls this first.
  void check() const;

  /// The physical link width of an edge (LinkOptions::link_width or the
  /// narrower endpoint).
  unsigned link_width_of(const Edge& e) const;

  /// The FifoConfig an edge's inserted primitives are built from.
  fifo::FifoConfig edge_fifo_config(const Edge& e) const;

  /// Machine-readable netlist: domains, nodes with annotated ports, edges
  /// with link options. Elaborated::to_json() embeds this and adds the
  /// inserted-primitive list.
  std::string to_json() const;

  /// Graphviz dot: one record node per module, domains as fill colors,
  /// edges labelled with their link options.
  std::string to_dot() const;

 private:
  void check_edge(const Edge& e) const;
  std::string port_ref(NodeId n, std::size_t p) const;
  NodeId add_node(Node n);

  std::string name_;
  std::vector<DomainDecl> domains_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  fifo::FifoConfig link_defaults_{};
};

}  // namespace mts::builder
