#include "metrics/testbench.hpp"

#include "sim/error.hpp"

namespace mts::metrics {

namespace {

std::optional<sync::Clock> make_clock(sim::Simulation& sim, bool present,
                                      const char* name, const Side& side) {
  if (!present) return std::nullopt;
  return std::optional<sync::Clock>(
      std::in_place, sim, name,
      sync::ClockConfig{side.period, side.phase, 0.5, 0});
}

template <class Fifo>
Fifo make_fifo(sim::Simulation& sim, const fifo::FifoConfig& cfg,
               std::optional<sync::Clock>& clk_put,
               std::optional<sync::Clock>& clk_get) {
  if constexpr (Fifo::put_sync && Fifo::get_sync) {
    return Fifo(sim, "dut", cfg, clk_put->out(), clk_get->out());
  } else if constexpr (Fifo::put_sync) {
    return Fifo(sim, "dut", cfg, clk_put->out());
  } else if constexpr (Fifo::get_sync) {
    return Fifo(sim, "dut", cfg, clk_get->out());
  } else {
    return Fifo(sim, "dut", cfg);
  }
}

}  // namespace

template <class Fifo>
Testbench<Fifo>::Testbench(sim::Simulation& sim, const fifo::FifoConfig& cfg,
                           const Side& put, const Side& get)
    : clk_put(make_clock(sim, Fifo::put_sync, "clk_put", put)),
      clk_get(make_clock(sim, Fifo::get_sync, "clk_get", get)),
      dut(make_fifo<Fifo>(sim, cfg, clk_put, clk_get)),
      sb(sim, "sb") {
  const std::uint64_t mask = width_mask(cfg.width);
  const bool relay = cfg.controller == fifo::ControllerKind::kRelayStation;

  if constexpr (Fifo::put_sync) {
    const bool manual = put.gap == kManual;
    if (relay && !manual) {
      rs_source.emplace(sim, "src", clk_put->out(), dut.data_put(),
                        dut.req_put(), dut.full(), cfg.dm, put.rate, mask,
                        sb);
    } else {
      put_mon.emplace(sim, clk_put->out(), dut.en_put(), dut.req_put(),
                      dut.data_put(), sb);
      if (!manual) {
        put_drv.emplace(sim, "put", clk_put->out(), dut.req_put(),
                        dut.data_put(), dut.full(), cfg.dm,
                        bfm::RateConfig{put.rate, 1}, mask);
      }
    }
  } else {
    async_put.emplace(sim, "put", dut.put_req(), dut.put_ack(),
                      dut.put_data(), cfg.dm, put.gap, mask, &sb);
  }

  if constexpr (Fifo::get_sync) {
    const bool manual = get.gap == kManual;
    if (relay && !manual) {
      rs_sink.emplace(sim, "sink", clk_get->out(), dut.data_get(),
                      dut.valid_get(), dut.stop_in(), cfg.dm, 1.0 - get.rate,
                      sb);
    } else {
      get_mon.emplace(sim, clk_get->out(), dut.valid_get(), dut.data_get(),
                      sb);
      if (!manual) {
        get_drv.emplace(sim, "get", clk_get->out(), dut.req_get(), cfg.dm,
                        bfm::RateConfig{get.rate, 1});
      }
    }
  } else {
    if (get.gap == kManual) {
      throw ConfigError("Testbench: an asynchronous get side has no manual "
                        "mode");
    }
    async_get.emplace(sim, "get", dut.get_req(), dut.get_ack(),
                      dut.get_data(), cfg.dm, get.gap, &sb);
  }
}

template <class Fifo>
std::uint64_t Testbench<Fifo>::delivered() const noexcept {
  if (get_mon) return get_mon->dequeued();
  if (rs_sink) return rs_sink->received_valid();
  return async_get ? async_get->completed() : 0;
}

template <class Fifo>
sim::Time Testbench<Fifo>::last_delivery() const noexcept {
  if (get_mon) return get_mon->last_dequeue_time();
  if (rs_sink) return rs_sink->last_receive_time();
  return async_get ? async_get->last_ack_time() : 0;
}

template class Testbench<fifo::MixedClockFifo>;
template class Testbench<fifo::AsyncSyncFifo>;
template class Testbench<fifo::SyncAsyncFifo>;
template class Testbench<fifo::AsyncAsyncFifo>;

}  // namespace mts::metrics
