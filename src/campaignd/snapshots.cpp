#include "campaignd/snapshots.hpp"

#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace mts::campaignd {

using json::Value;

namespace {

sim::Severity severity_from_name(const std::string& s) {
  if (s == "info") return sim::Severity::kInfo;
  if (s == "warning") return sim::Severity::kWarning;
  if (s == "violation") return sim::Severity::kViolation;
  if (s == "error") return sim::Severity::kError;
  throw json::ProtocolError("unknown severity '" + s + "'");
}

}  // namespace

// -- Report -----------------------------------------------------------------

Value report_to_json(const sim::Report& r) {
  Value v = Value::object();
  Value entries = Value::array();
  for (const sim::ReportEntry& e : r.entries()) {
    Value je = Value::object();
    je.set("t", Value::number_u64(e.time));
    je.set("sev", Value(sim::severity_name(e.severity)));
    je.set("cat", Value(e.category));
    je.set("msg", Value(e.message));
    entries.push(std::move(je));
  }
  v.set("entries", std::move(entries));
  Value cats = Value::object();
  for (const auto& [cat, n] : r.categories()) {
    cats.set(cat, Value::number_size(n));
  }
  v.set("categories", std::move(cats));
  v.set("failures", Value::number_size(r.failure_count()));
  v.set("total_added", Value::number_u64(r.total_added()));

  const sim::KernelStats& k = r.kernel();
  Value kv = Value::object();
  kv.set("events_executed", Value::number_u64(k.events_executed));
  kv.set("peak_queue_depth", Value::number_size(k.peak_queue_depth));
  kv.set("pool_high_water", Value::number_size(k.pool_high_water));
  if (!k.hot_sites.empty()) {
    Value sites = Value::array();
    for (const sim::KernelSiteStat& s : k.hot_sites) {
      Value js = Value::object();
      js.set("label", Value(s.label));
      js.set("events", Value::number_u64(s.events));
      js.set("wall_ns", Value::number_u64(s.wall_ns));
      sites.push(std::move(js));
    }
    kv.set("hot_sites", std::move(sites));
  }
  v.set("kernel", std::move(kv));
  return v;
}

void report_from_json(const Value& v, sim::Report& out) {
  std::vector<sim::ReportEntry> entries;
  for (const Value& je : v.at("entries").as_array()) {
    sim::ReportEntry e;
    e.time = je.at("t").as_u64();
    e.severity = severity_from_name(je.at("sev").as_string());
    e.category = je.at("cat").as_string();
    e.message = je.at("msg").as_string();
    entries.push_back(std::move(e));
  }
  std::map<std::string, std::size_t> cats;
  for (const auto& [cat, n] : v.at("categories").as_object()) {
    cats[cat] = n.as_size();
  }
  const Value& kv = v.at("kernel");
  sim::KernelStats k;
  k.events_executed = kv.at("events_executed").as_u64();
  k.peak_queue_depth = kv.at("peak_queue_depth").as_size();
  k.pool_high_water = kv.at("pool_high_water").as_size();
  if (const Value* sites = kv.find("hot_sites")) {
    for (const Value& js : sites->as_array()) {
      sim::KernelSiteStat s;
      s.label = js.at("label").as_string();
      s.events = js.at("events").as_u64();
      s.wall_ns = js.at("wall_ns").as_u64();
      k.hot_sites.push_back(std::move(s));
    }
  }
  out.restore(std::move(entries), std::move(cats),
              v.at("failures").as_size(), v.at("total_added").as_u64(),
              std::move(k));
}

// -- Registry ---------------------------------------------------------------

Value registry_to_json(const metrics::Registry& r) {
  // visit() walks (instance, metric) in map order; group back per instance.
  Value v = Value::object();
  auto instance_slot = [&v](const std::string& iname) -> Value& {
    if (!v.has(iname)) v.set(iname, Value::object());
    // set() keeps member addresses unstable; re-find after potential insert.
    return const_cast<Value&>(v.at(iname));
  };
  auto block_slot = [](Value& inst, const char* block) -> Value& {
    if (!inst.has(block)) inst.set(block, Value::object());
    return const_cast<Value&>(inst.at(block));
  };
  r.visit(
      [&](const std::string& iname, const std::string& name,
          const metrics::Counter& c) {
        block_slot(instance_slot(iname), "counters")
            .set(name, Value::number_u64(c.value()));
      },
      [&](const std::string& iname, const std::string& name,
          const metrics::Gauge& g) {
        block_slot(instance_slot(iname), "gauges")
            .set(name, Value::number_double(g.value()));
      },
      [&](const std::string& iname, const std::string& name,
          const metrics::Histogram& h) {
        Value jh = Value::object();
        Value bounds = Value::array();
        for (const double b : h.bounds()) {
          bounds.push(Value::number_double(b));
        }
        jh.set("bounds", std::move(bounds));
        Value counts = Value::array();
        for (const std::uint64_t c : h.bucket_counts()) {
          counts.push(Value::number_u64(c));
        }
        jh.set("counts", std::move(counts));
        jh.set("count", Value::number_u64(h.count()));
        jh.set("sum", Value::number_double(h.sum()));
        // min()/max() read 0 when empty; restore() re-derives the empty
        // sentinel from count == 0, so the 0s are never re-applied.
        jh.set("min", Value::number_double(h.min()));
        jh.set("max", Value::number_double(h.max()));
        block_slot(instance_slot(iname), "histograms")
            .set(name, std::move(jh));
      });
  return v;
}

void registry_from_json(const Value& v, metrics::Registry& out) {
  for (const auto& [iname, inst] : v.as_object()) {
    if (const Value* counters = inst.find("counters")) {
      for (const auto& [name, c] : counters->as_object()) {
        out.counter(iname, name).inc(c.as_u64());
      }
    }
    if (const Value* gauges = inst.find("gauges")) {
      for (const auto& [name, g] : gauges->as_object()) {
        out.gauge(iname, name).set(g.as_double());
      }
    }
    if (const Value* hists = inst.find("histograms")) {
      for (const auto& [name, jh] : hists->as_object()) {
        std::vector<double> bounds;
        for (const Value& b : jh.at("bounds").as_array()) {
          bounds.push_back(b.as_double());
        }
        std::vector<std::uint64_t> counts;
        for (const Value& c : jh.at("counts").as_array()) {
          counts.push_back(c.as_u64());
        }
        metrics::Histogram& h = out.histogram(iname, name, std::move(bounds));
        try {
          h.restore(counts, jh.at("count").as_u64(),
                    jh.at("sum").as_double(), jh.at("min").as_double(),
                    jh.at("max").as_double());
        } catch (const mts::ConfigError& e) {
          // Layout mismatch against a pre-existing histogram in `out`.
          throw json::ProtocolError(std::string("histogram '") + iname + "." +
                                    name + "': " + e.what());
        }
      }
    }
  }
}

// -- Coverage ---------------------------------------------------------------

Value coverage_to_json(const metrics::Coverage& c) {
  Value v = Value::object();
  for (const auto& [bin, hits] : c.bins()) {
    v.set(bin, Value::number_u64(hits));
  }
  return v;
}

void coverage_from_json(const Value& v, metrics::Coverage& out) {
  for (const auto& [bin, hits] : v.as_object()) {
    const std::uint64_t n = hits.as_u64();
    if (n == 0) {
      out.define(bin);
    } else {
      out.hit(bin, n);
    }
  }
}

// -- TimeSeriesStore --------------------------------------------------------

Value timeline_to_json(const metrics::TimeSeriesStore& ts) {
  Value v = Value::object();
  for (const std::string& name : ts.names()) {
    const metrics::TimeSeries* s = ts.find(name);
    Value js = Value::object();
    js.set("appended", Value::number_size(s->appended()));
    Value pts = Value::array();
    for (const metrics::TimePoint& p : s->points()) {
      Value jp = Value::array();
      jp.push(Value::number_u64(p.t));
      jp.push(Value::number_double(p.v));
      pts.push(std::move(jp));
    }
    js.set("points", std::move(pts));
    v.set(name, std::move(js));
  }
  return v;
}

void timeline_from_json(const Value& v, metrics::TimeSeriesStore& out) {
  for (const auto& [name, js] : v.as_object()) {
    std::vector<metrics::TimePoint> pts;
    for (const Value& jp : js.at("points").as_array()) {
      const json::Array& pair = jp.as_array();
      if (pair.size() != 2) throw json::ProtocolError("bad timeline point");
      metrics::TimePoint p;
      p.t = pair[0].as_u64();
      p.v = pair[1].as_double();
      pts.push_back(p);
    }
    out.series(name).restore(std::move(pts), js.at("appended").as_size());
  }
}

// -- RunResult --------------------------------------------------------------

Value run_result_to_json(const sim::RunResult& r) {
  Value v = Value::object();
  v.set("index", Value::number_size(r.index));
  v.set("seed", Value::number_u64(r.seed));
  v.set("ok", Value(r.ok));
  v.set("attempts", Value::number_u64(r.attempts));
  if (!r.error.empty()) v.set("error", Value(r.error));
  if (!r.error_type.empty()) v.set("error_type", Value(r.error_type));
  if (!r.classification.empty()) {
    v.set("classification", Value(r.classification));
  }
  if (!r.scalars.empty()) {
    Value sc = Value::object();
    for (const auto& [name, x] : r.scalars) {
      sc.set(name, Value::number_double(x));
    }
    v.set("scalars", std::move(sc));
  }
  if (!r.report_json.empty()) v.set("report_json", Value(r.report_json));
  if (!r.artifact.empty()) v.set("artifact", Value(r.artifact));
  if (!r.repro_path.empty()) v.set("repro_path", Value(r.repro_path));
  if (r.violations > 0) v.set("violations", Value::number_u64(r.violations));
  if (!r.violations_json.empty()) {
    v.set("violations_json", Value(r.violations_json));
  }
  if (r.telemetry_samples > 0) {
    v.set("telemetry_samples", Value::number_u64(r.telemetry_samples));
  }
  if (r.slo_worst > 0.0) {
    v.set("slo_worst", Value::number_double(r.slo_worst));
    v.set("slo_worst_instance", Value(r.slo_worst_instance));
  }
  if (r.slo_breaches > 0) {
    v.set("slo_breaches", Value::number_u64(r.slo_breaches));
  }
  return v;
}

sim::RunResult run_result_from_json(const Value& v) {
  sim::RunResult r;
  r.index = v.at("index").as_size();
  r.seed = v.at("seed").as_u64();
  r.ok = v.at("ok").as_bool();
  r.attempts = v.at("attempts").as_unsigned();
  r.error = v.get_string("error", "");
  r.error_type = v.get_string("error_type", "");
  r.classification = v.get_string("classification", "");
  if (const Value* sc = v.find("scalars")) {
    for (const auto& [name, x] : sc->as_object()) {
      r.scalars[name] = x.as_double();
    }
  }
  r.report_json = v.get_string("report_json", "");
  r.artifact = v.get_string("artifact", "");
  r.repro_path = v.get_string("repro_path", "");
  r.violations = v.get_u64("violations", 0);
  r.violations_json = v.get_string("violations_json", "");
  r.telemetry_samples = v.get_u64("telemetry_samples", 0);
  r.slo_worst = v.get_double("slo_worst", 0.0);
  r.slo_worst_instance = v.get_string("slo_worst_instance", "");
  r.slo_breaches = v.get_u64("slo_breaches", 0);
  return r;
}

// -- CampaignOptions --------------------------------------------------------

Value options_to_json(const sim::CampaignOptions& opt) {
  Value v = Value::object();
  v.set("seed", Value::number_u64(opt.seed));
  v.set("capture_run_reports", Value(opt.capture_run_reports));
  v.set("max_attempts", Value::number_u64(opt.max_attempts));
  v.set("quarantine_after", Value::number_u64(opt.quarantine_after));
  v.set("repro_dir", Value(opt.repro_dir));
  v.set("run_deadline_sec", Value::number_double(opt.run_deadline_sec));
  v.set("collect_violations", Value(opt.collect_violations));
  v.set("telemetry_interval", Value::number_u64(opt.telemetry_interval));
  v.set("telemetry_max_points",
        Value::number_size(opt.telemetry_max_points));
  v.set("telemetry_window", Value::number_size(opt.telemetry_window));
  Value slo = Value::object();
  slo.set("metric", Value(opt.slo.metric));
  slo.set("percentile", Value::number_double(opt.slo.percentile));
  slo.set("budget", Value::number_double(opt.slo.budget));
  slo.set("fail_run", Value(opt.slo.fail_run));
  v.set("slo", std::move(slo));
  return v;
}

sim::CampaignOptions options_from_json(const Value& v) {
  sim::CampaignOptions opt;
  opt.seed = v.at("seed").as_u64();
  opt.capture_run_reports = v.at("capture_run_reports").as_bool();
  opt.max_attempts = v.at("max_attempts").as_unsigned();
  opt.quarantine_after = v.at("quarantine_after").as_unsigned();
  opt.repro_dir = v.at("repro_dir").as_string();
  opt.run_deadline_sec = v.at("run_deadline_sec").as_double();
  opt.collect_violations = v.at("collect_violations").as_bool();
  opt.telemetry_interval = v.at("telemetry_interval").as_u64();
  opt.telemetry_max_points = v.at("telemetry_max_points").as_size();
  opt.telemetry_window = v.at("telemetry_window").as_size();
  const Value& slo = v.at("slo");
  opt.slo.metric = slo.at("metric").as_string();
  opt.slo.percentile = slo.at("percentile").as_double();
  opt.slo.budget = slo.at("budget").as_double();
  opt.slo.fail_run = slo.at("fail_run").as_bool();
  return opt;
}

json::Value make_run_record(const sim::RunRecord& rec) {
  Value v = Value::object();
  v.set("result", run_result_to_json(rec.result));
  v.set("report", report_to_json(rec.report));
  v.set("registry", registry_to_json(rec.metrics));
  if (rec.coverage.size() > 0) {
    v.set("coverage", coverage_to_json(rec.coverage));
  }
  if (!rec.timeline.empty()) v.set("timeline", timeline_to_json(rec.timeline));
  return v;
}

void run_record_from_json(const Value& v, sim::RunRecord& out) {
  out.result = run_result_from_json(v.at("result"));
  if (const Value* r = v.find("report")) report_from_json(*r, out.report);
  if (const Value* r = v.find("registry")) registry_from_json(*r, out.metrics);
  if (const Value* c = v.find("coverage")) coverage_from_json(*c, out.coverage);
  if (const Value* t = v.find("timeline")) timeline_from_json(*t, out.timeline);
}

std::string job_digest(std::size_t configs, std::size_t reps,
                       const sim::CampaignOptions& opt,
                       const std::string& workload,
                       const std::string& params_json,
                       const std::vector<std::size_t>& runs) {
  Value v = Value::object();
  v.set("configs", Value::number_size(configs));
  v.set("reps", Value::number_size(reps));
  v.set("options", options_to_json(opt));
  v.set("workload", Value(workload));
  v.set("params", Value(params_json));
  if (!runs.empty() && runs.size() != configs * reps) {
    Value list = Value::array();
    for (std::size_t i : runs) list.push(Value::number_size(i));
    v.set("runs", std::move(list));
  }
  const std::string canon = v.dump();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a/64
  for (const char c : canon) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

}  // namespace mts::campaignd
