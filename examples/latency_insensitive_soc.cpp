// Latency-insensitive SoC link (the paper's Fig. 14 followed by Fig. 11a,
// end to end): an asynchronous sensor-fusion block on one corner of the die
// streams packets through a synchronous bus domain and across a second
// clock-domain crossing into the display pipeline. Every wire is far too
// long for one clock cycle, so it is segmented:
//
//   async producer --[3 ARS]--> ASRS --[3 SRS @ clk_bus]-->
//     --[1 SRS @ clk_bus]--> MCRS --[2 SRS @ clk_display]--> sink
//
// The whole topology is ~15 lines of builder::Design declarations: an
// async source, a repeater in the bus domain, a stalling sink, and two
// annotated edges. elaborate() selects the Fig. 14 async-sync link and the
// Fig. 11a mixed-clock link from the port annotations, wires the glue and
// joins the trace streams automatically.
//
// Demonstrates:
//   - the paper's headline combination: mixed async/sync interfaces AND
//     multi-cycle interconnect AND a mixed-clock crossing, solved together,
//   - tolerance to downstream stalls (the sink drops its readiness 20% of
//     cycles; stop back-pressure ripples through the whole chain with no
//     packet loss),
//   - the observability stack (sim/observe.hpp): one transaction id rides
//     each packet from the asynchronous put all the way to valid_get in the
//     display domain; spans land in soc_trace.json (load it in
//     https://ui.perfetto.dev), per-instance latency/occupancy metrics and
//     the kernel's hottest-callbacks table land in soc_report.json, and the
//     elaborated topology itself in soc_design.json / soc_design.dot.
//
//   $ ./example_latency_insensitive_soc
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>

#include "builder/builder.hpp"
#include "fifo/interface_sides.hpp"
#include "metrics/registry.hpp"

int main() {
  using namespace mts;
  using sim::Time;

  sim::Simulation sim(11);

  // --- observability: armed BEFORE any component is constructed ---
  sim::TraceSession trace;
  metrics::Registry registry;
  sim::KernelProfiler profiler;
  sim::TelemetryConfig tcfg;
  tcfg.interval = 2 * sim::kNanosecond;  // a few samples per bus cycle batch
  sim::Telemetry telemetry(tcfg);
  sim::Observability obs;
  obs.trace = &trace;
  obs.metrics = &registry;
  obs.profiler = &profiler;
  obs.telemetry = &telemetry;
  obs.arm(sim);
  registry.bind(sim.report());

  fifo::FifoConfig probe;
  probe.capacity = 8;
  probe.width = 16;

  const Time base = std::max(fifo::SyncGetSide::min_period(probe),
                             fifo::SyncPutSide::min_period(probe));
  const Time bus_period = base * 5 / 4;
  const Time disp_period = base * 7 / 4;  // unrelated frequency: true CDC

  // --- the whole SoC, declaratively ---
  builder::Design d("soc");
  const builder::DomainId bus_dom =
      d.domain("clk_bus", {bus_period, 4 * bus_period, 0.5, 0});
  const builder::DomainId disp_dom =
      d.domain("clk_display", {disp_period, 4 * disp_period, 0.5, 0});
  const builder::NodeId sensor =
      d.source("sensor", builder::Design::async_out("out", 16),
               {/*rate=*/1.0, /*gap=*/0, /*mask=*/0xFFFF});
  const builder::NodeId glue = d.repeater("glue", bus_dom, 16);
  const builder::NodeId display =
      d.sink("display", builder::Design::sync_in("in", disp_dom, 16),
             {/*stall_rate=*/0.2});
  builder::LinkOptions fuse_opt;   // Fig. 14: 3 ARS + ASRS + 3 SRS
  fuse_opt.capacity = 8;
  fuse_opt.latency_left = 3;
  fuse_opt.latency_right = 3;
  d.connect(sensor, "out", glue, "in", fuse_opt, "fuse");
  builder::LinkOptions cross_opt;  // Fig. 11a: 1 SRS + MCRS + 2 SRS
  cross_opt.capacity = 8;
  cross_opt.latency_left = 1;
  cross_opt.latency_right = 2;
  d.connect(glue, "out", display, "in", cross_opt, "cross");

  auto elab = builder::elaborate(sim, d);

  // Bursty asynchronous producer: streams back to back, then idles.
  bfm::AsyncPutDriver& producer = *elab->node(sensor).put_end->async_put;
  auto bursts = std::make_shared<std::uint64_t>(0);
  auto toggle = std::make_shared<std::function<void()>>();
  *toggle = [&sim, &producer, bursts, toggle, bus_period] {
    const bool on = ((*bursts)++ % 2) == 1;
    producer.set_enabled(on);
    if (on) producer.issue_one();
    sim.sched().after(150 * bus_period, [toggle] { (*toggle)(); });
  };
  sim.sched().after(300 * bus_period, [toggle] { (*toggle)(); });

  const unsigned horizon_cycles = 3000;
  sim.run_until(4 * bus_period + horizon_cycles * bus_period);

  const bfm::Scoreboard& sb = elab->scoreboard(display);
  std::printf("latency-insensitive link: async sensor -> 3 ARS -> ASRS -> "
              "4 SRS @ %.0f MHz -> MCRS -> 2 SRS @ %.0f MHz -> display\n",
              sim::period_to_mhz(bus_period), sim::period_to_mhz(disp_period));
  std::printf("  packets sent       : %llu\n",
              static_cast<unsigned long long>(producer.completed()));
  std::printf("  packets displayed  : %llu\n",
              static_cast<unsigned long long>(elab->sink_received(display)));
  std::printf("  in flight at end   : %llu\n",
              static_cast<unsigned long long>(sb.in_flight()));
  std::printf("  order violations   : %llu\n",
              static_cast<unsigned long long>(sb.errors()));
  std::printf("  transaction ids    : %llu (minted once at the ASRS; spans "
              "ride to the display domain)\n",
              static_cast<unsigned long long>(trace.transactions()));

  // Per-stage forward latency from the metrics registry.
  for (const char* inst : {"fuse.asrs", "cross.mcrs", "cross.right.rs1"}) {
    const metrics::Histogram* h = registry.find_histogram(inst, "latency_ps");
    if (h != nullptr && h->count() > 0) {
      std::printf("  %-16s : p50 %.0f ps   p99 %.0f ps   (n=%llu)\n", inst,
                  h->percentile(0.50), h->percentile(0.99),
                  static_cast<unsigned long long>(h->count()));
    }
  }
  const std::string hot = sim::format_hot_sites(sim.report().kernel());
  if (!hot.empty()) std::printf("%s", hot.c_str());

  trace.write_json("soc_trace.json");
  std::ofstream("soc_report.json") << sim.report().to_json();
  std::ofstream("soc_design.json") << elab->to_json();
  std::ofstream("soc_design.dot") << elab->to_dot();
  telemetry.write_jsonl("soc_timeline.jsonl");
  std::printf("  wrote soc_trace.json (%llu events + %llu counter points), "
              "soc_report.json, soc_design.json, soc_design.dot and "
              "soc_timeline.jsonl (%llu samples, %llu series)\n",
              static_cast<unsigned long long>(trace.events_recorded()),
              static_cast<unsigned long long>(telemetry.store().total_points()),
              static_cast<unsigned long long>(telemetry.samples()),
              static_cast<unsigned long long>(
                  telemetry.store().series_count()));

  // One id per packet end to end: ids are minted only at the ASRS, so a
  // re-mint anywhere downstream would inflate the count well past `sent`.
  const bool traced_ok =
      trace.transactions() > 500 &&
      trace.transactions() <= producer.completed() + fuse_opt.capacity;

  // Counter tracks for all four telemetry source kinds must have landed in
  // the same trace.json as the transaction spans: FIFO/relay occupancy,
  // relay stall duty, scheduler event rate, synchronizer escapes.
  std::size_t kinds = 0;
  for (const char* needle :
       {".occupancy", ".stall_duty", "kernel.events_per_us", ".escape_rate"}) {
    bool found = false;
    for (const std::string& name : telemetry.store().names()) {
      if (name.find(needle) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (found) ++kinds;
  }
  const std::string trace_json = trace.to_json();
  const bool telemetry_ok = kinds >= 4 && telemetry.samples() > 100 &&
                            trace_json.find("\"ph\": \"C\"") !=
                                std::string::npos;
  std::printf("  telemetry          : %llu samples, %zu/4 source kinds, "
              "counter tracks %s\n",
              static_cast<unsigned long long>(telemetry.samples()), kinds,
              telemetry_ok ? "merged" : "MISSING");

  const bool ok = sb.errors() == 0 && elab->sink_received(display) > 500 &&
                  sb.in_flight() < 32 && traced_ok && telemetry_ok;
  std::printf("  %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
