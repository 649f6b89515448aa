#include "bfm/ends.hpp"

#include <utility>

#include "sim/error.hpp"

namespace mts::bfm {

PutEnd::PutEnd(sim::Simulation& sim, std::string name, sim::Wire* clk,
               const Endpoint& ep, const gates::DelayModel& dm, double rate,
               sim::Time gap, std::uint64_t mask, Scoreboard& sb) {
  const bool manual = gap == kManual;
  if (ep.style == EndpointStyle::kHandshake) {
    async_put.emplace(sim, std::move(name), *ep.hs.req, *ep.hs.ack,
                      *ep.hs.data, dm, gap, mask, &sb);
  } else if (ep.style == EndpointStyle::kLi && !manual) {
    rs_source.emplace(sim, std::move(name), *clk, *ep.li.data, *ep.li.valid,
                      *ep.li.stop, dm, rate, mask, sb);
  } else {
    monitor.emplace(sim, *clk, *ep.fput.en_put, *ep.fput.req_put,
                    *ep.fput.data_put, sb);
    if (!manual) {
      driver.emplace(sim, std::move(name), *clk, *ep.fput.req_put,
                     *ep.fput.data_put, *ep.fput.full, dm,
                     RateConfig{rate, 1}, mask);
    }
  }
}

std::uint64_t PutEnd::sent() const noexcept {
  if (monitor) return monitor->enqueued();
  if (rs_source) return rs_source->sent_valid();
  return async_put ? async_put->completed() : 0;
}

void GetEnd::check(EndpointStyle style, sim::Time gap) {
  if (style == EndpointStyle::kHandshake && gap == kManual) {
    throw ConfigError("bfm: a handshake get end has no manual mode");
  }
}

GetEnd::GetEnd(sim::Simulation& sim, std::string name, sim::Wire* clk,
               const Endpoint& ep, const gates::DelayModel& dm, double stall,
               sim::Time gap, Scoreboard& sb) {
  check(ep.style, gap);
  const bool manual = gap == kManual;
  if (ep.style == EndpointStyle::kHandshake && ep.push) {
    async_ack.emplace(sim, std::move(name), *ep.hs.req, *ep.hs.ack,
                      *ep.hs.data, dm, gap, &sb);
  } else if (ep.style == EndpointStyle::kHandshake) {
    async_get.emplace(sim, std::move(name), *ep.hs.req, *ep.hs.ack,
                      *ep.hs.data, dm, gap, &sb);
  } else if (ep.style == EndpointStyle::kLi && !manual) {
    rs_sink.emplace(sim, std::move(name), *clk, *ep.li.data, *ep.li.valid,
                    *ep.li.stop, dm, stall, sb);
  } else {
    monitor.emplace(sim, *clk, *ep.fget.valid_get, *ep.fget.data_get, sb);
    if (!manual) {
      driver.emplace(sim, std::move(name), *clk, *ep.fget.req_get, dm,
                     RateConfig{1.0 - stall});
    }
  }
}

std::uint64_t GetEnd::delivered() const noexcept {
  if (monitor) return monitor->dequeued();
  if (rs_sink) return rs_sink->received_valid();
  if (async_get) return async_get->completed();
  return async_ack ? async_ack->completed() : 0;
}

sim::Time GetEnd::last_delivery() const noexcept {
  if (monitor) return monitor->last_dequeue_time();
  if (rs_sink) return rs_sink->last_receive_time();
  if (async_get) return async_get->last_ack_time();
  return async_ack ? async_ack->last_req_time() : 0;
}

}  // namespace mts::bfm
