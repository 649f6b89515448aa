// Multi-domain SoC pipeline -- the library's components composed end to
// end across THREE timing domains:
//
//   CPU domain (fast clock)
//     -> MixedClockLink (SRS chain + MCRS + SRS chain)      [Fig. 11a]
//   memory domain (medium clock)
//     -> sync-async FIFO -> self-timed accelerator           [matrix ext.]
//     -> async-sync FIFO                                     [Section 4]
//   back into the memory domain, where results are checked.
//
// The topology is declared as a builder::Design: a generated CPU source, a
// repeater junction in the memory domain, an external node for the
// clockless accelerator, and a generated checking sink. elaborate()
// chooses every crossing from the port annotations -- the CPU edge becomes
// the Fig. 11a mixed-clock link, the accelerator edges become the
// sync-async and async-sync FIFOs -- and only the accelerator behaviour is
// hand-written, against the handshake ports the elaborator exposes.
//
//   $ ./example_multi_domain_pipeline
#include <cstdio>

#include "builder/builder.hpp"
#include "fifo/fifo.hpp"

namespace {

using namespace mts;
using sim::Time;

constexpr std::uint64_t transform(std::uint64_t x) {
  return (3 * x + 1) & 0xFFFF;
}

/// Clockless accelerator: 4-phase pull on one side, 4-phase push on the
/// other, with a data-dependent compute delay in between.
class Accelerator {
 public:
  Accelerator(sim::Simulation& sim, builder::HandshakePort in,
              builder::HandshakePort out)
      : sim_(sim), in_(in), out_(out) {
    in_.ack->on_change([this](bool, bool now) {
      if (now) {
        operand_ = in_.data->read();
        in_.req->write(false, 150, sim::DelayKind::kTransport);
      } else {
        // Compute: longer for larger operands (data-dependent timing --
        // the reason this block is self-timed).
        const Time compute = 800 + 40 * (operand_ % 32);
        sim_.sched().after(compute, [this] { push_result(); });
      }
    });
    out_.ack->on_change([this](bool, bool now) {
      if (now) {
        out_.req->write(false, 150, sim::DelayKind::kTransport);
      } else {
        ++completed_;
        pull_next();
      }
    });
    sim_.sched().after(1000, [this] { pull_next(); });
  }

  std::uint64_t completed() const { return completed_; }

 private:
  void pull_next() { in_.req->write(true, 150, sim::DelayKind::kTransport); }
  void push_result() {
    out_.data->set(transform(operand_));
    out_.req->write(true, 150, sim::DelayKind::kTransport);
  }

  sim::Simulation& sim_;
  builder::HandshakePort in_;
  builder::HandshakePort out_;
  std::uint64_t operand_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace

int main() {
  sim::Simulation sim(21);

  fifo::FifoConfig probe;
  probe.capacity = 8;
  probe.width = 16;

  // Clocks: CPU fast, memory domain ~1.6x slower.
  const Time mem_p = std::max(fifo::SyncPutSide::min_period(probe) * 5 / 4,
                              fifo::SyncGetSide::min_period(probe) * 5 / 4);
  const Time cpu_p = std::max(fifo::SyncPutSide::min_period(probe) * 9 / 8,
                              mem_p * 5 / 8);

  builder::Design d("multi_domain_pipeline");
  const builder::DomainId cpu_dom =
      d.domain("clk_cpu", {cpu_p, 4 * mem_p, 0.5, 0});
  const builder::DomainId mem_dom =
      d.domain("clk_mem", {mem_p, 4 * mem_p + 431, 0.5, 0});

  const builder::NodeId cpu =
      d.source("cpu", builder::Design::sync_out("out", cpu_dom, 16),
               {/*rate=*/0.7, /*gap=*/0, /*mask=*/0xFFFF});
  const builder::NodeId mem_j = d.repeater("mem_j", mem_dom, 16);
  const builder::NodeId acc =
      d.external("acc", {builder::Design::async_in("operand", 16),
                         builder::Design::async_out("result", 16)});
  const builder::NodeId sink =
      d.sink("sink", builder::Design::sync_in("in", mem_dom, 16));

  // Stage 1: CPU -> memory domain over a latency-insensitive link
  // (elaborates to the Fig. 11a SRS + MCRS + SRS chain).
  builder::LinkOptions li;
  li.capacity = 8;
  li.latency_left = 2;
  li.latency_right = 2;
  d.connect(cpu, "out", mem_j, "in", li, "link");

  // Stage 2: memory domain -> accelerator (sync-async FIFO + LI glue).
  builder::LinkOptions push;
  push.capacity = 8;
  d.connect(mem_j, "out", acc, "operand", push, "to_acc");

  // Stage 3: accelerator -> memory domain (async-sync FIFO, on demand).
  builder::LinkOptions pull;
  pull.capacity = 8;
  pull.controller = fifo::ControllerKind::kFifo;
  d.connect(acc, "result", sink, "in", pull, "from_acc");

  auto elab = builder::elaborate(sim, d);
  Accelerator core(sim, elab->handshake_port(acc, "operand"),
                   elab->handshake_port(acc, "result"));

  // End-to-end checking: expectations carry the accelerator's transform,
  // mirrored in lockstep with the CPU's confirmed sends.
  bfm::Scoreboard& end_sb = elab->scoreboard(sink);
  std::uint64_t mirrored = 0;
  elab->clock(cpu_dom).out().on_rise([&] {
    while (mirrored < elab->source_sent(cpu)) {
      ++mirrored;
      end_sb.push(transform(mirrored & 0xFFFF));
    }
  });

  const Time horizon = 4 * mem_p + 4000 * mem_p;
  sim.run_until(horizon);

  std::printf("multi-domain pipeline: CPU @%.0f MHz -> LI link -> mem "
              "@%.0f MHz -> async accelerator -> mem domain\n",
              sim::period_to_mhz(cpu_p), sim::period_to_mhz(mem_p));
  std::printf("  operands sent       : %llu\n",
              static_cast<unsigned long long>(elab->source_sent(cpu)));
  std::printf("  results computed    : %llu\n",
              static_cast<unsigned long long>(core.completed()));
  std::printf("  results delivered   : %llu\n",
              static_cast<unsigned long long>(elab->sink_received(sink)));
  std::printf("  end-to-end mismatches: %llu\n",
              static_cast<unsigned long long>(end_sb.errors()));
  const bool ok = end_sb.errors() == 0 && elab->sink_received(sink) > 500;
  std::printf("  %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
