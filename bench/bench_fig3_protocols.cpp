// Regenerates the Fig. 3 protocol waveforms: a synchronous put, a
// synchronous get (with its three outcome cases), and an asynchronous
// 4-phase put handshake -- rendered as ASCII waveforms and dumped as VCD
// files (fig3_sync.vcd / fig3_async.vcd) for GTKWave.
#include <cstdio>
#include <string>

#include "bfm/bfm.hpp"
#include "fifo/interface_sides.hpp"
#include "fifo/mixed_timing_fifo.hpp"
#include "metrics/waveform.hpp"
#include "sim/trace.hpp"
#include "sync/clock.hpp"

namespace {

using namespace mts;
using metrics::AsciiWave;
using sim::Time;

void sync_protocols() {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;

  sim::Simulation sim(1);
  const Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cp(sim, "clk_put", {pp, 4 * pp, 0.5, 0});
  sync::Clock cg(sim, "clk_get", {gp, 4 * pp + gp / 2, 0.5, 0});
  fifo::MixedClockFifo dut(sim, "fifo", cfg, cp.out(), cg.out());

  sim::VcdWriter vcd("fig3_sync.vcd");
  vcd.watch(cp.out(), "clk_put");
  vcd.watch(dut.req_put(), "req_put");
  vcd.watch(dut.data_put(), 8, "data_put");
  vcd.watch(dut.full(), "full");
  vcd.watch(cg.out(), "clk_get");
  vcd.watch(dut.req_get(), "req_get");
  vcd.watch(dut.data_get(), 8, "data_get");
  vcd.watch(dut.valid_get(), "valid_get");
  vcd.watch(dut.empty(), "empty");
  vcd.start();

  const Time react = cfg.dm.flop.clk_to_q + 1;
  const Time t0 = 4 * pp + 4 * pp;
  // Two puts back to back (Fig. 3a), then the receiver requests three
  // times: outcome (a) item + more available is impossible with 2 items
  // and the anticipating detector, so we see (b) item + empty and (c) no
  // item (Fig. 3c cases).
  for (int k = 0; k < 2; ++k) {
    sim.sched().at(t0 + static_cast<Time>(k) * pp + react, [&dut, k] {
      dut.data_put().set(0x41 + static_cast<std::uint64_t>(k));
      dut.req_put().set(true);
    });
  }
  sim.sched().at(t0 + 2 * pp + react, [&dut] { dut.req_put().set(false); });
  sim.sched().at(t0 + 4 * pp, [&dut] { dut.req_get().set(true); });

  AsciiWave wave(sim, t0 - pp, pp / 8, 120);
  wave.watch("clk_put", cp.out());
  wave.watch("req_put", dut.req_put());
  wave.watch("full", dut.full());
  wave.watch("clk_get", cg.out());
  wave.watch("req_get", dut.req_get());
  wave.watch("valid_get", dut.valid_get());
  wave.watch("empty", dut.empty());
  wave.arm();

  sim.run_until(t0 + 16 * pp);
  std::printf("Fig. 3a/3c -- synchronous put and get protocols "
              "(mixed-clock FIFO, %llu ps/char; VCD: fig3_sync.vcd)\n",
              static_cast<unsigned long long>(pp / 8));
  std::fputs(wave.render().c_str(), stdout);
  std::printf("\n");
}

void async_protocol() {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;

  sim::Simulation sim(1);
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "clk_get", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo dut(sim, "fifo", cfg, cg.out());
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, 2 * gp, 0xFF, nullptr);

  sim::VcdWriter vcd("fig3_async.vcd");
  vcd.watch(dut.put_req(), "put_req");
  vcd.watch(dut.put_ack(), "put_ack");
  vcd.watch(dut.put_data(), 8, "put_data");
  vcd.start();

  AsciiWave wave(sim, 1, gp / 16, 120);
  wave.watch("put_req", dut.put_req());
  wave.watch("put_ack", dut.put_ack());
  wave.arm();

  sim.run_until(10 * gp);
  std::printf("Fig. 3b -- asynchronous 4-phase bundled-data put protocol "
              "(req+/ack+ ... req-/ack-; VCD: fig3_async.vcd)\n");
  std::fputs(wave.render().c_str(), stdout);
}

}  // namespace

int main() {
  sync_protocols();
  async_protocol();
  return 0;
}
