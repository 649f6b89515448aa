#include "campaignd/workload.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "fifo/fifo.hpp"
#include "metrics/cover.hpp"
#include "metrics/testbench.hpp"
#include "sim/error.hpp"

namespace mts::campaignd {

namespace {

std::mutex g_registry_mu;

/// The representative mixed-clock FIFO soak (also the scaling benches'):
/// per-config capacity, seed-derived traffic rates, scoreboard + monitors,
/// and (params "coverage") the standard FIFO bins in ctx.coverage().
class FifoSoak : public Workload {
 public:
  explicit FifoSoak(const json::Value& params) {
    if (params.is_object()) {
      cycles_ = static_cast<unsigned>(params.get_u64("cycles", 40));
      with_coverage_ = params.get_bool("coverage", true);
    } else if (!params.is_null()) {
      throw json::ProtocolError("fifo_soak params must be an object");
    }
  }

  void run(sim::CampaignContext& ctx) override {
    constexpr unsigned kCaps[] = {4, 8, 16};
    fifo::FifoConfig cfg;
    cfg.capacity = kCaps[ctx.spec().config % 3];
    cfg.width = 8;

    sim::Simulation& sim = ctx.sim();
    const std::uint64_t seed = ctx.spec().seed;
    const double put_rate =
        0.5 + 0.5 * static_cast<double>(seed % 101) / 100.0;
    const double get_rate =
        0.5 + 0.5 * static_cast<double>((seed >> 16) % 101) / 100.0;

    const sim::Time pp = 2 * fifo::SyncPutSide::min_period(cfg);
    const sim::Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
    metrics::Testbench<fifo::MixedClockFifo> tb(
        sim, cfg, {pp, 4 * pp, put_rate},
        {gp, 4 * pp + gp / 3 + seed % 7, get_rate});
    if (with_coverage_) metrics::cover_fifo(ctx.coverage(), "dut", tb.dut);

    sim.run_until(4 * pp + static_cast<sim::Time>(cycles_) * pp);
    ctx.set("errors", static_cast<double>(tb.sb.errors()));
    ctx.set("dequeued", static_cast<double>(tb.delivered()));
    if (tb.sb.errors() > 0) {
      throw mts::SimulationError("scoreboard recorded " +
                                 std::to_string(tb.sb.errors()) +
                                 " data errors");
    }
  }

 private:
  unsigned cycles_ = 40;
  bool with_coverage_ = true;
};

/// fifo_soak plus deterministic failure injection: runs whose index is in
/// fail_indices throw SimulationError (every attempt, or -- with
/// "flaky" -- only attempt 1, so supervision classifies them flaky).
class ChaosSoak : public FifoSoak {
 public:
  explicit ChaosSoak(const json::Value& params) : FifoSoak(params) {
    if (params.is_object()) {
      flaky_ = params.get_bool("flaky", false);
      if (const json::Value* fi = params.find("fail_indices")) {
        for (const json::Value& v : fi->as_array()) {
          fail_indices_.push_back(v.as_size());
        }
      }
    }
  }

  void run(sim::CampaignContext& ctx) override {
    const bool listed =
        std::find(fail_indices_.begin(), fail_indices_.end(),
                  ctx.spec().index) != fail_indices_.end();
    if (listed && (!flaky_ || ctx.attempt() == 1)) {
      // Run a slice of the soak first so the failing run still leaves
      // report/metrics state behind (the repro bundle should carry it).
      ctx.set("injected", 1.0);
      throw mts::SimulationError("injected failure at run " +
                                 std::to_string(ctx.spec().index));
    }
    FifoSoak::run(ctx);
  }

 private:
  std::vector<std::size_t> fail_indices_;
  bool flaky_ = false;
};

/// The registry, holding the built-ins from its first access on.
std::map<std::string, WorkloadFactory>& registered() {
  static std::map<std::string, WorkloadFactory> m{
      {"fifo_soak",
       [](const json::Value& p) { return std::make_unique<FifoSoak>(p); }},
      {"chaos_soak",
       [](const json::Value& p) { return std::make_unique<ChaosSoak>(p); }}};
  return m;
}

}  // namespace

void register_workload(const std::string& name, WorkloadFactory factory) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  registered()[name] = std::move(factory);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const json::Value& params) {
  WorkloadFactory factory;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto& m = registered();
    const auto it = m.find(name);
    if (it == m.end()) {
      std::string known;
      for (const auto& [n, f] : m) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw json::ProtocolError("unknown workload '" + name +
                                "' (registered: " + known + ")");
    }
    factory = it->second;
  }
  return factory(params);
}

}  // namespace mts::campaignd
