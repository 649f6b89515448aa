// Asynchronous FIFO comparison: the token-ring async-async FIFO ([4], the
// substrate this paper reuses for its async interfaces) vs a micropipeline
// of the same capacity (Sutherland [15], the paper's ARS implementation).
//
// [4]'s headline claim, reproduced here: with immobile data, the
// token-ring FIFO's empty-FIFO latency is nearly independent of capacity,
// while a micropipeline's grows with the number of stages a datum must
// traverse.
//
// Usage: bench_async_fifo_comparison [--csv]
#include <cstdio>
#include <cstring>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "gates/netlist.hpp"
#include "lip/micropipeline.hpp"
#include "metrics/experiments.hpp"
#include "metrics/table.hpp"

namespace {

using namespace mts;
using sim::Time;

struct AsyncResult {
  double latency_ns;
  double throughput_mops;
};

AsyncResult run_micropipeline(unsigned stages) {
  const gates::DelayModel dm = gates::DelayModel::hp06();
  AsyncResult r{};
  {  // latency: single item through an empty pipeline, eager consumer
    sim::Simulation sim(1);
    gates::Netlist nl(sim, "t");
    sim::Wire& in_req = nl.wire("in_req");
    sim::Wire& in_ack = nl.wire("in_ack");
    sim::Word& in_data = nl.word("in_data");
    sim::Wire& out_req = nl.wire("out_req");
    sim::Wire& out_ack = nl.wire("out_ack");
    sim::Word& out_data = nl.word("out_data");
    lip::Micropipeline mp(sim, "mp", stages, in_req, in_ack, in_data, out_req,
                          out_ack, out_data, dm);
    bfm::Scoreboard sb(sim, "sb");
    bfm::AsyncPutDriver put(sim, "put", in_req, in_ack, in_data, dm,
                            bfm::AsyncPutDriver::kManual, 0xFF, &sb);
    Time arrived = 0;
    out_req.on_change([&](bool, bool now) {
      if (now && arrived == 0) arrived = sim.now();
      out_ack.write(now, 100, sim::DelayKind::kTransport);
    });
    const Time t0 = 10'000;
    sim.sched().at(t0, [&] { put.issue_one(); });
    sim.run_until(t0 + 500'000);
    r.latency_ns = arrived > t0 ? static_cast<double>(arrived - t0) / 1e3 : -1;
  }
  {  // throughput: saturated producer, eager consumer
    sim::Simulation sim(1);
    gates::Netlist nl(sim, "t");
    sim::Wire& in_req = nl.wire("in_req");
    sim::Wire& in_ack = nl.wire("in_ack");
    sim::Word& in_data = nl.word("in_data");
    sim::Wire& out_req = nl.wire("out_req");
    sim::Wire& out_ack = nl.wire("out_ack");
    sim::Word& out_data = nl.word("out_data");
    lip::Micropipeline mp(sim, "mp", stages, in_req, in_ack, in_data, out_req,
                          out_ack, out_data, dm);
    bfm::Scoreboard sb(sim, "sb");
    bfm::AsyncPutDriver put(sim, "put", in_req, in_ack, in_data, dm, 0, 0xFF,
                            &sb);
    std::uint64_t received = 0;
    out_req.on_change([&](bool, bool now) {
      if (now) ++received;
      out_ack.write(now, 100, sim::DelayKind::kTransport);
    });
    sim.run_until(200'000);
    const std::uint64_t r0 = received;
    const Time t0 = sim.now();
    sim.run_until(t0 + 2'000'000);
    r.throughput_mops = static_cast<double>(received - r0) * 1e6 /
                        static_cast<double>(sim.now() - t0);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
  }

  std::printf("Token-ring async-async FIFO ([4]) vs micropipeline ([15]) of "
              "equal capacity; 8-bit items\n\n");
  metrics::Table t({"capacity", "ring latency (ns)", "pipe latency (ns)",
                    "ring tput (MOps)", "pipe tput (MOps)"});
  for (unsigned cap : {2u, 4u, 8u, 16u}) {
    fifo::FifoConfig cfg;
    cfg.capacity = cap;
    cfg.width = 8;
    const auto ring_lat = metrics::latency(metrics::Design::kAsyncAsync, cfg);
    const auto ring_tput =
        metrics::throughput(metrics::Design::kAsyncAsync, cfg, 300);
    const AsyncResult pipe = run_micropipeline(cap);
    t.add_row({std::to_string(cap), metrics::fmt(ring_lat.min_ns, 2),
               metrics::fmt(pipe.latency_ns, 2),
               metrics::fmt(ring_tput.put, 0),
               metrics::fmt(pipe.throughput_mops, 0)});
  }
  std::fputs(csv ? t.to_csv().c_str() : t.to_string().c_str(), stdout);
  std::printf("\nShape check ([4]'s claim, reused by this paper): the "
              "micropipeline's latency grows linearly with its stage count "
              "(every datum ripples through every stage) while the token "
              "ring's stays nearly flat (immobile data; only the global "
              "req/ack buses grow). The curves cross around 16 stages in "
              "this calibration -- deeper FIFOs increasingly favour the "
              "token ring.\n");
  return 0;
}
