#include "builder/elaborate.hpp"

#include <sstream>

#include "gates/combinational.hpp"
#include "metrics/testbench.hpp"
#include "sim/error.hpp"
#include "sim/observe.hpp"
#include "sim/report.hpp"

namespace mts::builder {

namespace {

RouterDir router_dir_of(const std::string& port) {
  switch (port.empty() ? '?' : port[0]) {
    case 'n': return RouterDir::kNorth;
    case 's': return RouterDir::kSouth;
    case 'e': return RouterDir::kEast;
    case 'w': return RouterDir::kWest;
    default: return RouterDir::kLocal;
  }
}

}  // namespace

Elaborated::Elaborated(sim::Simulation& sim, const Design& d)
    : sim_(sim), design_(d), nl_(sim, "") {
  design_.check();

  // 1. Clocks, in domain declaration order.
  clocks_.reserve(design_.domains().size());
  for (const DomainDecl& dom : design_.domains()) {
    clocks_.push_back(&nl_.add<sync::Clock>(sim_, dom.name, dom.clock));
  }

  // 2. Edge machinery, in edge declaration order.
  edges_.resize(design_.edges().size());
  for (const Edge& e : design_.edges()) lower_edge(e);

  // 2b. Scoreboards for every generated (untagged) source, before any node
  // component: a sink may be declared before the source it checks, and the
  // Scoreboard constructor is side-effect-free, so pre-creating them here
  // keeps handles simple without disturbing event order.
  nodes_.resize(design_.nodes().size());
  for (const Node& n : design_.nodes()) {
    if (n.kind == NodeKind::kSource && !n.source.tagged) {
      nodes_[n.id].sb = &nl_.add<bfm::Scoreboard>(sim_, n.name + ".sb");
    }
  }

  // 3. Node components, in node declaration order.
  for (const Node& n : design_.nodes()) lower_node(n);

  // 4. Announce the elaborated shape through the armed hubs.
  sim::Observability* obs = sim_.observability();
  if (obs != nullptr && obs->metrics != nullptr) {
    const std::string inst = "builder." + design_.name();
    obs->metrics->gauge(inst, "domains")
        .set(static_cast<double>(design_.domains().size()));
    obs->metrics->gauge(inst, "nodes")
        .set(static_cast<double>(design_.nodes().size()));
    obs->metrics->gauge(inst, "edges")
        .set(static_cast<double>(design_.edges().size()));
    obs->metrics->gauge(inst, "inserted")
        .set(static_cast<double>(inserted_.size()));
  }
  sim_.report().add(sim_.now(), sim::Severity::kInfo, "builder",
                    design_.name() + ": elaborated " +
                        std::to_string(design_.nodes().size()) + " nodes, " +
                        std::to_string(design_.edges().size()) + " edges, " +
                        std::to_string(inserted_.size()) +
                        " inserted primitives");
}

LiPort Elaborated::li_wires(const std::string& base) {
  LiPort p;
  p.data = &nl_.word(base + ".data");
  p.valid = &nl_.wire(base + ".valid");
  p.stop = &nl_.wire(base + ".stop");
  return p;
}

HandshakePort Elaborated::hs_wires(const std::string& base) {
  return {&nl_.wire(base + ".req"), &nl_.wire(base + ".ack"),
          &nl_.word(base + ".data")};
}

void Elaborated::link_traces(const std::string& up, const std::string& down) {
  sim::Observability* obs = sim_.observability();
  if (obs == nullptr || obs->trace == nullptr) return;
  if (up.empty() || down.empty()) return;
  obs->trace->link(up, down);
}

sim::Wire* Elaborated::port_clock(const PortDecl& p) const {
  return p.style == TimingStyle::kSync ? &clocks_[p.domain]->out() : nullptr;
}

template <class Fifo>
Fifo& Elaborated::lower_fifo(const Edge& e, const std::string& name,
                             const fifo::FifoConfig& cfg) {
  Fifo& f = nl_.add<Fifo>(sim_, name, cfg,
                          port_clock(design_.node(e.from).ports[e.from_port]),
                          port_clock(design_.node(e.to).ports[e.to_port]));
  EdgeParts& parts = edges_[e.id];
  parts.head = metrics::put_endpoint(f);
  parts.tail = metrics::get_endpoint(f);
  parts.head.traced = parts.tail.traced = name;
  inserted_.push_back({e.id, parts.primitive, name});
  return f;
}

void Elaborated::lower_edge(const Edge& e) {
  EdgeParts& parts = edges_[e.id];
  const PortDecl& pp = design_.node(e.from).ports[e.from_port];
  const PortDecl& pc = design_.node(e.to).ports[e.to_port];
  const unsigned lw = design_.link_width_of(e);
  fifo::FifoConfig cfg = design_.edge_fifo_config(e);
  const unsigned latency = e.opt.latency_left + e.opt.latency_right;
  parts.primitive =
      e.opt.primitive == Primitive::kAuto
          ? resolve_primitive(pp.style, pp.domain, pc.style, pc.domain,
                              e.opt.controller, latency)
          : e.opt.primitive;

  auto record = [&](Primitive kind, const std::string& instance) {
    inserted_.push_back({e.id, kind, instance});
  };

  // --- the edge core, at link width -------------------------------------
  switch (parts.primitive) {
    case Primitive::kWire:
    case Primitive::kSrsChain: {
      if (pp.style == TimingStyle::kAsync) {
        // Async-async, zero latency: one shared handshake channel.
        parts.head.style = parts.tail.style = EndpointStyle::kHandshake;
        parts.head.hs = parts.tail.hs = hs_wires(e.name);
        parts.tail.push = true;
        record(Primitive::kWire, e.name);
        break;
      }
      parts.head.li = li_wires(e.name + ".in");
      parts.tail.li = li_wires(e.name + ".out");
      parts.chain = &nl_.add<lip::SyncRelayChain>(
          sim_, e.name, clocks_[pp.domain]->out(), latency, cfg.dm,
          *parts.head.li.data, *parts.head.li.valid, *parts.head.li.stop,
          *parts.tail.li.data, *parts.tail.li.valid, *parts.tail.li.stop);
      parts.head.traced = parts.chain->first_station_instance();
      parts.tail.traced = parts.chain->last_station_instance();
      record(parts.primitive, e.name);
      break;
    }

    case Primitive::kMicropipeline: {
      const HandshakePort in = hs_wires(e.name + ".in");
      const HandshakePort out = hs_wires(e.name + ".out");
      parts.pipe = &nl_.add<lip::Micropipeline>(
          sim_, e.name, latency, *in.req, *in.ack, *in.data, *out.req,
          *out.ack, *out.data, cfg.dm);
      parts.head.style = parts.tail.style = EndpointStyle::kHandshake;
      parts.head.hs = in;
      parts.tail.hs = out;
      parts.tail.push = true;
      record(Primitive::kMicropipeline, e.name);
      break;
    }

    case Primitive::kMixedClockFifo: {
      if (e.opt.controller == fifo::ControllerKind::kRelayStation) {
        parts.mc_link = &nl_.add<lip::MixedClockLink>(
            sim_, e.name, cfg, clocks_[pp.domain]->out(),
            clocks_[pc.domain]->out(), e.opt.latency_left,
            e.opt.latency_right);
        parts.head.li = {&parts.mc_link->data_in(), &parts.mc_link->valid_in(),
                         &parts.mc_link->stop_out()};
        parts.tail.li = {&parts.mc_link->data_out(),
                         &parts.mc_link->valid_out(),
                         &parts.mc_link->stop_in()};
        parts.head.traced = parts.mc_link->first_traced_instance();
        parts.tail.traced = parts.mc_link->last_traced_instance();
        record(Primitive::kMixedClockFifo, e.name);
      } else {
        parts.mc_fifo = &lower_fifo<fifo::MixedClockFifo>(e, e.name, cfg);
      }
      break;
    }

    case Primitive::kAsyncSyncFifo: {
      if (e.opt.controller == fifo::ControllerKind::kRelayStation) {
        parts.as_link = &nl_.add<lip::AsyncSyncLink>(
            sim_, e.name, cfg, clocks_[pc.domain]->out(), e.opt.latency_left,
            e.opt.latency_right);
        parts.head.style = EndpointStyle::kHandshake;
        parts.head.hs = {&parts.as_link->put_req(), &parts.as_link->put_ack(),
                         &parts.as_link->put_data()};
        parts.tail.li = {&parts.as_link->data_out(),
                         &parts.as_link->valid_out(),
                         &parts.as_link->stop_in()};
        parts.head.traced = parts.as_link->first_traced_instance();
        parts.tail.traced = parts.as_link->last_traced_instance();
        record(Primitive::kAsyncSyncFifo, e.name);
      } else {
        parts.as_fifo = &lower_fifo<fifo::AsyncSyncFifo>(e, e.name, cfg);
      }
      break;
    }

    case Primitive::kSyncAsyncFifo: {
      if (e.opt.controller == fifo::ControllerKind::kRelayStation) {
        // No SARS primitive exists in the paper's toolbox: an LI producer
        // reaches the sync-async FIFO through valid->req_put / full->stop
        // glue, the FIFO itself running in on-demand mode. Back-pressure is
        // still lossless -- full gates the producer through the stop wire.
        const LiPort in = li_wires(e.name + ".in");
        LiPort mid = in;
        if (e.opt.latency_left > 0) {
          mid = li_wires(e.name + ".m");
          parts.chain = &nl_.add<lip::SyncRelayChain>(
              sim_, e.name + ".left", clocks_[pp.domain]->out(),
              e.opt.latency_left, cfg.dm, *in.data, *in.valid, *in.stop,
              *mid.data, *mid.valid, *mid.stop);
        }
        fifo::FifoConfig fc = cfg;
        fc.controller = fifo::ControllerKind::kFifo;
        parts.sa_fifo =
            &lower_fifo<fifo::SyncAsyncFifo>(e, e.name + ".fifo", fc);
        parts.head = {.li = in,
                      .traced = parts.chain != nullptr
                                    ? parts.chain->first_station_instance()
                                    : e.name + ".fifo"};
        gates::gate_into(nl_, e.name + ".vreq", gates::GateOp::kBuf,
                         {mid.valid}, parts.sa_fifo->req_put(), cfg.dm.gate(1));
        nl_.add<gates::WordBuf>(sim_, nl_.qualified(e.name + ".dwire"),
                                *mid.data, parts.sa_fifo->data_put(),
                                cfg.dm.gate(1));
        gates::gate_into(nl_, e.name + ".swire", gates::GateOp::kBuf,
                         {&parts.sa_fifo->full()}, *mid.stop, cfg.dm.gate(1));
      } else {
        parts.sa_fifo = &lower_fifo<fifo::SyncAsyncFifo>(e, e.name, cfg);
      }
      break;
    }

    case Primitive::kAsyncAsyncFifo:
      parts.aa_fifo = &lower_fifo<fifo::AsyncAsyncFifo>(e, e.name, cfg);
      break;

    case Primitive::kAuto:
      throw ConfigError("builder: edge '" + e.name +
                        "' resolved to kAuto (internal error)");
  }

  // --- gearboxes: serialize wide producers down, reassemble for wide
  // consumers (Design::check() guarantees sync endpoints, integral ratios
  // and LI cores on any gearboxed side) ----------------------------------
  if (pp.width != lw) {
    LiPort wide = li_wires(e.name + ".ser");
    parts.ser = &nl_.add<Serializer>(
        sim_, e.name + ".ser", clocks_[pp.domain]->out(), pp.width / lw, lw,
        *wide.data, *wide.valid, *wide.stop, *parts.head.li.data,
        *parts.head.li.valid, *parts.head.li.stop, cfg.dm);
    parts.head = {.li = wide};
    record(Primitive::kWire, e.name + ".ser");
  }
  if (pc.width != lw) {
    LiPort wide = li_wires(e.name + ".deser");
    parts.deser = &nl_.add<Deserializer>(
        sim_, e.name + ".deser", clocks_[pc.domain]->out(), pc.width / lw, lw,
        *parts.tail.li.data, *parts.tail.li.valid, *parts.tail.li.stop,
        *wide.data, *wide.valid, *wide.stop, cfg.dm);
    parts.tail = {.li = wide};
    record(Primitive::kWire, e.name + ".deser");
  }
}

void Elaborated::lower_node(const Node& n) {
  NodeParts& parts = nodes_[n.id];
  switch (n.kind) {
    case NodeKind::kExternal:
      break;  // ports exposed through the accessors; nothing generated

    case NodeKind::kSource: {
      const PortDecl& p = n.ports[0];
      const Edge& e = design_.edge(design_.edge_at(n.id, 0));
      const Endpoint& ep = edges_[e.id].head;
      const fifo::FifoConfig cfg = design_.edge_fifo_config(e);
      if (n.source.tagged) {
        parts.tagged_source = &nl_.add<TaggedSource>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.li.data, *ep.li.valid,
            *ep.li.stop, cfg.dm, n.source.rate, n.source.flow, n.source.dests,
            p.width);
      } else {
        parts.put_end = &nl_.add<bfm::PutEnd>(
            sim_, n.name, port_clock(p), ep, cfg.dm, n.source.rate,
            n.source.gap, n.source.mask, *parts.sb);
      }
      break;
    }

    case NodeKind::kSink: {
      const PortDecl& p = n.ports[0];
      const Edge& e = design_.edge(design_.edge_at(n.id, 0));
      const Endpoint& ep = edges_[e.id].tail;
      const fifo::FifoConfig cfg = design_.edge_fifo_config(e);
      if (n.sink.tagged) {
        parts.tagged_sink = &nl_.add<TaggedSink>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.li.data, *ep.li.valid,
            *ep.li.stop, cfg.dm, n.sink.stall_rate);
        break;
      }
      const NodeId src = upstream_source(n.id);
      if (src != kNoNode) {
        parts.check_sb = nodes_[src].sb;
      } else {
        // Fed by an external node: the sink owns the expectation queue and
        // the external producer pushes into it (Elaborated::scoreboard()).
        parts.sb = &nl_.add<bfm::Scoreboard>(sim_, n.name + ".sb");
        parts.check_sb = parts.sb;
      }
      parts.get_end = &nl_.add<bfm::GetEnd>(
          sim_, n.name, port_clock(p), ep, cfg.dm, n.sink.stall_rate,
          n.sink.gap, *parts.check_sb);
      break;
    }

    case NodeKind::kRepeater: {
      const Edge& ein = design_.edge(design_.edge_at(n.id, 0));
      const Edge& eout = design_.edge(design_.edge_at(n.id, 1));
      const Endpoint& ti = edges_[ein.id].tail;
      const Endpoint& ho = edges_[eout.id].head;
      const sim::Time delay = design_.edge_fifo_config(ein).dm.gate(1);
      nl_.add<gates::WordBuf>(sim_, nl_.qualified(n.name + ".d"), *ti.li.data,
                              *ho.li.data, delay);
      gates::gate_into(nl_, n.name + ".v", gates::GateOp::kBuf, {ti.li.valid},
                       *ho.li.valid, delay);
      gates::gate_into(nl_, n.name + ".s", gates::GateOp::kBuf, {ho.li.stop},
                       *ti.li.stop, delay);
      link_traces(ti.traced, ho.traced);
      break;
    }

    case NodeKind::kRouter: {
      std::vector<MeshRouter::InPort> ins;
      std::vector<MeshRouter::OutPort> outs;
      for (std::size_t i = 0; i < n.ports.size(); ++i) {
        const Endpoint& ep = endpoint_of(n.id, i);
        const RouterDir dir = router_dir_of(n.ports[i].name);
        if (n.ports[i].dir == PortDir::kIn) {
          ins.push_back({dir, ep.li.data, ep.li.valid, ep.li.stop});
        } else {
          outs.push_back({dir, ep.li.data, ep.li.valid, ep.li.stop});
        }
      }
      parts.router = &nl_.add<MeshRouter>(
          sim_, n.name, clocks_[n.ports[0].domain]->out(), n.router.x,
          n.router.y, n.router.queue, std::move(ins), std::move(outs),
          design_.link_defaults().dm);
      break;
    }

    case NodeKind::kBus: {
      std::vector<BusFabric::InPort> ins;
      std::vector<BusFabric::OutPort> outs;
      for (std::size_t i = 0; i < n.ports.size(); ++i) {
        const Endpoint& ep = endpoint_of(n.id, i);
        if (n.ports[i].dir == PortDir::kIn) {
          ins.push_back({ep.li.data, ep.li.valid, ep.li.stop});
        } else {
          outs.push_back({ep.li.data, ep.li.valid, ep.li.stop});
        }
      }
      parts.bus = &nl_.add<BusFabric>(
          sim_, n.name, clocks_[n.ports[0].domain]->out(), std::move(ins),
          std::move(outs), design_.link_defaults().dm);
      break;
    }
  }
}

NodeId Elaborated::upstream_source(NodeId sink) const {
  NodeId cur = sink;
  std::size_t port = 0;  // sink "in" / repeater "in" are both port 0
  for (;;) {
    const EdgeId eid = design_.edge_at(cur, port);
    if (eid == Design::kNoEdge) return kNoNode;
    const Edge& e = design_.edge(eid);
    const Node& from = design_.node(e.from);
    if (from.kind == NodeKind::kSource && !from.source.tagged) return from.id;
    if (from.kind != NodeKind::kRepeater) return kNoNode;
    cur = from.id;
    port = 0;
  }
}

const Endpoint& Elaborated::endpoint_of(NodeId n, std::size_t port_idx) const {
  const EdgeId eid = design_.edge_at(n, port_idx);
  if (eid == Design::kNoEdge) {
    throw ConfigError("builder: port '" + design_.node(n).name + "." +
                      design_.node(n).ports[port_idx].name +
                      "' is not connected");
  }
  const Edge& e = design_.edge(eid);
  const bool is_head = e.from == n && e.from_port == port_idx;
  return is_head ? edges_[eid].head : edges_[eid].tail;
}

sync::Clock& Elaborated::clock(DomainId d) {
  if (d >= clocks_.size()) {
    throw ConfigError("builder: unknown domain id " + std::to_string(d));
  }
  return *clocks_[d];
}

const EdgeParts& Elaborated::edge(EdgeId e) const {
  if (e >= edges_.size()) {
    throw ConfigError("builder: unknown edge id " + std::to_string(e));
  }
  return edges_[e];
}

const NodeParts& Elaborated::node(NodeId n) const {
  if (n >= nodes_.size()) {
    throw ConfigError("builder: unknown node id " + std::to_string(n));
  }
  return nodes_[n];
}

const Endpoint& Elaborated::port_endpoint(NodeId n, const std::string& port,
                                          EndpointStyle style,
                                          const char* what) const {
  const Endpoint& ep = endpoint_of(n, design_.port_index(n, port));
  if (ep.style != style) {
    throw ConfigError("builder: port '" + design_.node(n).name + "." + port +
                      "' is not " + what);
  }
  return ep;
}

LiPort Elaborated::li_port(NodeId n, const std::string& port) const {
  return port_endpoint(n, port, EndpointStyle::kLi,
                       "a latency-insensitive endpoint").li;
}

HandshakePort Elaborated::handshake_port(NodeId n,
                                         const std::string& port) const {
  return port_endpoint(n, port, EndpointStyle::kHandshake,
                       "a 4-phase handshake endpoint").hs;
}

SyncFifoPut Elaborated::fifo_put(NodeId n, const std::string& port) const {
  return port_endpoint(n, port, EndpointStyle::kFifoPut,
                       "an on-demand FIFO put endpoint").fput;
}

SyncFifoGet Elaborated::fifo_get(NodeId n, const std::string& port) const {
  return port_endpoint(n, port, EndpointStyle::kFifoGet,
                       "an on-demand FIFO get endpoint").fget;
}

bfm::Scoreboard& Elaborated::scoreboard(NodeId n) const {
  const NodeParts& parts = node(n);
  bfm::Scoreboard* sb =
      parts.check_sb != nullptr ? parts.check_sb : parts.sb;
  if (sb == nullptr) {
    throw ConfigError("builder: node '" + design_.node(n).name +
                      "' has no scoreboard (tagged traffic checks itself)");
  }
  return *sb;
}

std::uint64_t Elaborated::source_sent(NodeId n) const {
  const NodeParts& p = node(n);
  if (p.tagged_source != nullptr) return p.tagged_source->sent();
  return p.put_end != nullptr ? p.put_end->sent() : 0;
}

std::uint64_t Elaborated::sink_received(NodeId n) const {
  const NodeParts& p = node(n);
  if (p.tagged_sink != nullptr) return p.tagged_sink->received();
  return p.get_end != nullptr ? p.get_end->delivered() : 0;
}

std::uint64_t Elaborated::total_sent() const {
  std::uint64_t n = 0;
  for (const Node& node : design_.nodes()) {
    if (node.kind == NodeKind::kSource) n += source_sent(node.id);
  }
  return n;
}

std::uint64_t Elaborated::total_received() const {
  std::uint64_t n = 0;
  for (const Node& node : design_.nodes()) {
    if (node.kind == NodeKind::kSink) n += sink_received(node.id);
  }
  return n;
}

std::uint64_t Elaborated::total_order_violations() const {
  std::uint64_t n = 0;
  for (const NodeParts& p : nodes_) {
    if (p.sb != nullptr) n += p.sb->errors();
    if (p.tagged_sink != nullptr) n += p.tagged_sink->violations();
    if (p.router != nullptr) n += p.router->misroutes();
    if (p.bus != nullptr) n += p.bus->misroutes();
  }
  return n;
}

void Elaborated::arm_watchdog(sim::Watchdog& wd) {
  wd.watch(
      "builder." + design_.name(),
      [this] {
        const std::uint64_t sent = total_sent();
        const std::uint64_t recv = total_received();
        return sent > recv ? sent - recv : 0;
      },
      [this] { return total_received(); });
}

std::string Elaborated::to_json() const {
  std::ostringstream os;
  os << "{\"design\":" << design_.to_json() << ",\"inserted\":[";
  for (std::size_t i = 0; i < inserted_.size(); ++i) {
    const InsertedRecord& r = inserted_[i];
    if (i != 0) os << ',';
    os << "{\"edge\":\"" << sim::json_escape(design_.edge(r.edge).name)
       << "\",\"primitive\":\"" << to_string(r.kind) << "\",\"instance\":\""
       << sim::json_escape(r.instance) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::unique_ptr<Elaborated> elaborate(sim::Simulation& sim, const Design& d) {
  return std::make_unique<Elaborated>(sim, d);
}

}  // namespace mts::builder
