#include "metrics/experiments.hpp"

#include <algorithm>

#include "metrics/testbench.hpp"
#include "sim/simulation.hpp"

namespace mts::metrics {

namespace {

/// Measurement slot of a design with no clock: a handshake is a few ns.
constexpr sim::Time kHandshakeSlot = 5'000;

/// Runs `body.template operator()<Fifo>()` with the design's FIFO class.
template <class Body>
auto with_fifo(Design design, Body&& body) {
  switch (design) {
    case Design::kMixedClock:
      return body.template operator()<fifo::MixedClockFifo>();
    case Design::kAsyncSync:
      return body.template operator()<fifo::AsyncSyncFifo>();
    case Design::kSyncAsync:
      return body.template operator()<fifo::SyncAsyncFifo>();
    case Design::kAsyncAsync:
      break;
  }
  return body.template operator()<fifo::AsyncAsyncFifo>();
}

template <class Fifo>
sim::Time put_min_period(const fifo::FifoConfig& cfg) {
  return Fifo::put_sync ? fifo::SyncPutSide::min_period(cfg) : 0;
}

template <class Fifo>
sim::Time get_min_period(const fifo::FifoConfig& cfg) {
  return Fifo::get_sync ? fifo::SyncGetSide::min_period(cfg) : 0;
}

template <class Fifo>
void set_timing_checks(Fifo& dut, bool on) {
  if constexpr (Fifo::put_sync) dut.put_domain().set_enabled(on);
  if constexpr (Fifo::get_sync) dut.get_domain().set_enabled(on);
}

template <class Fifo>
std::uint64_t timing_violations(Fifo& dut) {
  std::uint64_t n = 0;
  if constexpr (Fifo::put_sync) n += dut.put_domain().violations();
  if constexpr (Fifo::get_sync) n += dut.get_domain().violations();
  return n;
}

template <class Fifo>
ValidationResult validate_run(const fifo::FifoConfig& cfg, sim::Time put,
                              sim::Time get, unsigned cycles,
                              std::uint64_t seed) {
  const sim::Time put_p = Fifo::put_sync ? put : 0;
  const sim::Time get_p = Fifo::get_sync ? get : 0;
  const sim::Time settle = 4 * std::max(put_p, get_p);
  // With both clocks present, CLK_get lags CLK_put by a third of a period.
  const sim::Time get_lag = Fifo::put_sync ? get_p / 3 : 0;

  sim::Simulation sim(seed);
  Testbench<Fifo> tb(sim, cfg, {put_p, settle, 1.0, Fifo::put_sync ? 0 : put},
                     {get_p, settle + get_lag, 1.0, Fifo::get_sync ? 0 : get});

  // Settle phase: initial gate evaluations propagate; no checks yet.
  if (settle > 0) {
    set_timing_checks(tb.dut, false);
    sim.run_until(settle - 1);
    set_timing_checks(tb.dut, true);
  }
  const sim::Time step = Fifo::put_sync   ? put_p
                         : Fifo::get_sync ? get_p
                                          : kHandshakeSlot;
  sim.run_until(settle + static_cast<sim::Time>(cycles) * step);

  ValidationResult r;
  r.timing_violations = timing_violations(tb.dut);
  r.overflows = tb.dut.overflow_count();
  r.underflows = tb.dut.underflow_count();
  r.scoreboard_errors = tb.sb.errors();
  r.enqueued = tb.sb.pushed();
  r.dequeued = tb.sb.popped();
  return r;
}

template <class Fifo>
ThroughputRow throughput_run(const fifo::FifoConfig& cfg, unsigned cycles) {
  const sim::Time put_p = put_min_period<Fifo>(cfg);
  const sim::Time get_p = get_min_period<Fifo>(cfg);
  ThroughputRow row;
  row.put_async = !Fifo::put_sync;
  row.get_async = !Fifo::get_sync;
  if (Fifo::put_sync) row.put = sim::period_to_mhz(put_p);
  if (Fifo::get_sync) row.get = sim::period_to_mhz(get_p);

  if constexpr (Fifo::put_sync && Fifo::get_sync) {
    const ValidationResult v =
        validate_run<Fifo>(cfg, put_p, get_p, cycles, 1);
    row.validated =
        v.clean() && v.enqueued > cycles / 4 && v.dequeued > cycles / 4;
  } else {
    // Saturate both sides, warm up with the timing checks off, then count
    // the asynchronous handshakes over a window of the clock (if any).
    const sim::Time clk = std::max(put_p, get_p);
    const sim::Time settle = 4 * clk;
    sim::Simulation sim(1);
    Testbench<Fifo> tb(sim, cfg, {put_p, settle}, {get_p, settle});
    set_timing_checks(tb.dut, false);
    const sim::Time warmup = clk > 0 ? settle + 60 * clk : 100'000;
    sim.run_until(warmup);
    set_timing_checks(tb.dut, true);
    const std::uint64_t puts0 = tb.put_end.sent();
    const std::uint64_t gets0 = tb.delivered();
    const sim::Time window =
        static_cast<sim::Time>(cycles) * (clk > 0 ? clk : kHandshakeSlot);
    sim.run_until(warmup + window);

    bool busy = true;
    const auto mops = [&](std::uint64_t ops) {
      busy = busy && ops > cycles / 8;
      return static_cast<double>(ops) * 1e6 / static_cast<double>(window);
    };
    if (!Fifo::put_sync) row.put = mops(tb.put_end.sent() - puts0);
    if (!Fifo::get_sync) row.get = mops(tb.delivered() - gets0);
    row.validated = timing_violations(tb.dut) == 0 &&
                    tb.dut.overflow_count() == 0 &&
                    tb.dut.underflow_count() == 0 && tb.sb.errors() == 0 &&
                    busy;
  }
  return row;
}

template <class Fifo>
LatencyRow latency_run(const fifo::FifoConfig& cfg, unsigned phases) {
  const sim::Time put_p = put_min_period<Fifo>(cfg);
  const sim::Time get_p = get_min_period<Fifo>(cfg);
  const sim::Time base = 4 * std::max(put_p, get_p);
  const unsigned runs = Fifo::get_sync ? phases : 1;

  LatencyRow row;
  for (unsigned i = 0; i < runs; ++i) {
    sim::Simulation sim(1);
    // The receiver requests from the start; the put side waits for the
    // single put below.
    Testbench<Fifo> tb(
        sim, cfg, {put_p, base, 1.0, kManual},
        {get_p, base + get_p * i / std::max(1u, phases), 1.0, 0});

    // The put lands well after the detectors and synchronizers have
    // settled into the empty state: a data item aligned to a CLK_put edge,
    // or one asynchronous handshake.
    sim::Time t_start = 0;
    sim::Time end = 0;
    if constexpr (Fifo::put_sync) {
      const sim::Time react = cfg.dm.flop.clk_to_q + 1;
      const sim::Time edge = base + 12 * put_p;
      t_start = edge + react;
      sim.sched().at(t_start, [&] {
        tb.dut.data_put().set(0x2A & width_mask(cfg.width));
        tb.dut.req_put().set(true);
      });
      sim.sched().at(edge + put_p + react,
                     [&] { tb.dut.req_put().set(false); });
      end = edge + 60 * std::max(put_p, get_p);
    } else {
      t_start = Fifo::get_sync ? base + 12 * get_p : 50'000;
      sim.sched().at(t_start, [&] { tb.put_end.async_put->issue_one(); });
      end = t_start + (Fifo::get_sync ? 60 * get_p : 500'000);
    }

    sim.run_until(end);
    if (tb.delivered() >= 1) {
      const double lat =
          static_cast<double>(tb.last_delivery() - t_start) / 1e3;
      row.min_ns = row.delivered == 0 ? lat : std::min(row.min_ns, lat);
      row.max_ns = std::max(row.max_ns, lat);
      ++row.delivered;
    }
  }
  return row;
}

}  // namespace

ValidationResult validate(Design design, const fifo::FifoConfig& cfg,
                          sim::Time put, sim::Time get, unsigned cycles,
                          std::uint64_t seed) {
  return with_fifo(design, [&]<class Fifo>() {
    return validate_run<Fifo>(cfg, put, get, cycles, seed);
  });
}

ThroughputRow throughput(Design design, const fifo::FifoConfig& cfg,
                         unsigned cycles) {
  return with_fifo(design, [&]<class Fifo>() {
    return throughput_run<Fifo>(cfg, cycles);
  });
}

LatencyRow latency(Design design, const fifo::FifoConfig& cfg,
                   unsigned phases) {
  return with_fifo(design, [&]<class Fifo>() {
    return latency_run<Fifo>(cfg, phases);
  });
}

}  // namespace mts::metrics
