#include "metrics/testbench.hpp"

namespace mts::metrics {

namespace {

/// Raises every ConfigError the testbench can raise before its first part
/// exists: the clocks and the FIFO schedule events as they are built.
template <class Fifo>
const Side& checked(const fifo::FifoConfig& cfg, const Side& put,
                    const Side& get) {
  Fifo::check(cfg);
  bfm::GetEnd::check(Fifo::get_sync ? bfm::EndpointStyle::kFifoGet
                                    : bfm::EndpointStyle::kHandshake,
                     get.gap);
  return put;
}

std::optional<sync::Clock> make_clock(sim::Simulation& sim, bool present,
                                      const char* name, const Side& side) {
  if (!present) return std::nullopt;
  return std::optional<sync::Clock>(
      std::in_place, sim, name,
      sync::ClockConfig{side.period, side.phase, 0.5, 0});
}

sim::Wire* out_of(std::optional<sync::Clock>& clk) {
  return clk ? &clk->out() : nullptr;
}

}  // namespace

template <class Fifo>
Testbench<Fifo>::Testbench(sim::Simulation& sim, const fifo::FifoConfig& cfg,
                           const Side& put, const Side& get)
    : clk_put(make_clock(sim, Fifo::put_sync, "clk_put",
                         checked<Fifo>(cfg, put, get))),
      clk_get(make_clock(sim, Fifo::get_sync, "clk_get", get)),
      dut(sim, "dut", cfg, out_of(clk_put), out_of(clk_get)),
      sb(sim, "sb"),
      put_end(sim, "put", out_of(clk_put), put_endpoint(dut), cfg.dm,
              put.rate, put.gap, width_mask(cfg.width), sb),
      get_end(sim, "get", out_of(clk_get), get_endpoint(dut), cfg.dm,
              1.0 - get.rate, get.gap, sb) {}

template class Testbench<fifo::MixedClockFifo>;
template class Testbench<fifo::AsyncSyncFifo>;
template class Testbench<fifo::SyncAsyncFifo>;
template class Testbench<fifo::AsyncAsyncFifo>;

}  // namespace mts::metrics
