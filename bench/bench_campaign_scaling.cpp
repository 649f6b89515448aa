// Campaign scaling: runs/sec of the shared FIFO-soak campaign workload
// (campaign_workload.hpp) at 1, 2, 4 and 8 workers, plus a determinism
// spot-check (the 4-worker campaign JSON must be byte-identical to the
// 1-worker one with host stats excluded).
//
// Writes BENCH_campaign.json (current directory). The speedup column is
// meaningful only when the host has cores to scale onto -- host_cores is
// recorded next to every number so a 1-core CI box reporting ~1.0x reads
// as what it is.
//
// A second section measures the campaignd MULTI-PROCESS path (coordinator +
// fork/exec'd worker processes, see src/campaignd/): runs/sec at 1/2/4
// worker processes, byte-identity of the merged artifact against the
// in-process oracle, and the checkpoint-resume overhead (a resume of a
// complete checkpoint re-executes nothing; its cost is load + refold).
// The worker binary path is baked in at configure time and can be
// overridden with MTS_CAMPAIGND_BIN; without a usable binary the section
// is skipped and recorded as such.
//
// Usage: bench_campaign_scaling [--smoke]
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "campaign_workload.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/json.hpp"

namespace {

using namespace mts;

/// The full campaign JSON (host stats excluded) for a worker count, for
/// the determinism check.
std::string campaign_doc(unsigned workers, std::size_t configs,
                         std::size_t reps, unsigned cycles) {
  sim::CampaignOptions opt;
  opt.workers = workers;
  opt.seed = 99;
  opt.capture_run_reports = true;
  sim::Campaign campaign(configs, reps, opt);
  campaign.run(benchwork::fifo_soak(cycles)->body());
  return campaign.to_json(/*include_host_stats=*/false);
}

/// Campaign-health artifacts for a worker count: the same FIFO soak with
/// the engine telemetry sampler and a latency SLO armed. Returns
/// {health_json, merged timeline JSONL} -- both must be byte-identical
/// across worker counts (run-index-ordered folds).
struct HealthDoc {
  std::string health;
  std::string timeline;
};

HealthDoc campaign_health(unsigned workers, std::size_t configs,
                          std::size_t reps, unsigned cycles) {
  sim::CampaignOptions opt;
  opt.workers = workers;
  opt.seed = 99;
  opt.telemetry_interval = 50 * sim::kNanosecond;
  opt.telemetry_max_points = 512;
  opt.telemetry_window = 256;
  opt.slo.metric = "latency_ps";
  opt.slo.percentile = 0.99;
  opt.slo.budget = 1e9;  // generous: record worst, don't fail runs
  sim::Campaign campaign(configs, reps, opt);
  campaign.run(benchwork::fifo_soak(cycles)->body());
  if (workers == 1) campaign.write_health_json("campaign_health.json");
  return HealthDoc{campaign.health_json(),
                   campaign.merged_timeline().to_jsonl()};
}

// -- campaignd multi-process section ----------------------------------------

std::string campaignd_worker_bin() {
  if (const char* env = std::getenv("MTS_CAMPAIGND_BIN")) return env;
#ifdef MTS_CAMPAIGND_BIN_DEFAULT
  return MTS_CAMPAIGND_BIN_DEFAULT;
#else
  return std::string();
#endif
}

campaignd::JobSpec campaignd_job(std::size_t configs, std::size_t reps,
                                 unsigned cycles) {
  campaignd::JobSpec job;
  job.workload = "fifo_soak";
  job.params = campaignd::json::Value::object();
  job.params.set("cycles", campaignd::json::Value::number_u64(cycles));
  job.configs = configs;
  job.reps = reps;
  job.opt.seed = 99;
  return job;
}

campaignd::CoordinatorOptions campaignd_opts(unsigned workers) {
  campaignd::CoordinatorOptions opt;
  opt.workers = workers;
  opt.worker_cmd = {campaignd_worker_bin(), "worker", "--port", "{port}"};
  return opt;
}

double timed_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct CampaigndResults {
  bool available = false;
  std::vector<double> rps;        ///< per worker count below
  bool identical = false;         ///< 4-process artifact == in-process oracle
  double full_run_sec = 0.0;      ///< checkpointed distributed run
  double resume_sec = 0.0;        ///< resume of the complete checkpoint
};

CampaigndResults measure_campaignd(std::size_t configs, std::size_t reps,
                                   unsigned cycles,
                                   const unsigned* worker_counts,
                                   std::size_t n_counts) {
  CampaigndResults out;
  const std::string bin = campaignd_worker_bin();
  if (bin.empty() || ::access(bin.c_str(), X_OK) != 0) return out;
  out.available = true;

  const campaignd::JobSpec job = campaignd_job(configs, reps, cycles);
  for (std::size_t i = 0; i < n_counts; ++i) {
    campaignd::Coordinator::Outcome o;
    campaignd::Coordinator coord(job, campaignd_opts(worker_counts[i]));
    const double sec = timed_seconds([&] { coord.run(o); });
    out.rps.push_back(static_cast<double>(configs * reps) / sec);
    if (i + 1 == n_counts) {
      campaignd::Coordinator::Outcome local;
      campaignd::run_local(job, local);
      out.identical = o.to_json(false) == local.to_json(false) &&
                      o.health_json(false) == local.health_json(false);
    }
  }

  // Resume overhead: a full checkpointed run, then a resume of its complete
  // checkpoint -- which replays nothing, so the delta is pure load+refold.
  const std::string ckpt = "BENCH_campaignd_ckpt.json";
  std::remove(ckpt.c_str());
  {
    campaignd::CoordinatorOptions opt = campaignd_opts(2);
    opt.checkpoint_path = ckpt;
    opt.checkpoint_every = 1;
    campaignd::Coordinator::Outcome o;
    campaignd::Coordinator coord(job, opt);
    out.full_run_sec = timed_seconds([&] { coord.run(o); });
  }
  {
    campaignd::CoordinatorOptions opt = campaignd_opts(2);
    opt.checkpoint_path = ckpt;
    opt.resume = true;
    campaignd::Coordinator::Outcome o;
    campaignd::Coordinator coord(job, opt);
    out.resume_sec = timed_seconds([&] { coord.run(o); });
  }
  std::remove(ckpt.c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t configs = 3;
  const std::size_t reps = smoke ? 4 : 16;
  const unsigned cycles = smoke ? 150 : 400;
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("campaign scaling: %zu runs of the shared FIFO soak "
              "(%u put cycles each), host_cores=%u\n\n",
              configs * reps, cycles, host_cores);
  std::printf("  %8s %14s %10s\n", "workers", "runs/sec", "speedup");

  const unsigned worker_counts[] = {1, 2, 4, 8};
  std::vector<double> rps;
  for (unsigned w : worker_counts) {
    rps.push_back(benchwork::measure_campaign_runs_per_sec(w, configs, reps,
                                                           cycles));
    std::printf("  %8u %14.1f %9.2fx\n", w, rps.back(), rps.back() / rps[0]);
  }

  const std::string doc1 = campaign_doc(1, configs, reps, cycles);
  const std::string doc4 = campaign_doc(4, configs, reps, cycles);
  const bool deterministic = doc1 == doc4;
  std::printf("\n4-worker vs 1-worker campaign JSON (host stats excluded): "
              "%s\n", deterministic ? "IDENTICAL" : "MISMATCH");

  // Streaming-telemetry determinism: per-run samplers + SLO verdicts armed,
  // health document and index-folded timeline byte-compared across worker
  // counts. Also leaves campaign_health.json behind (CI uploads it).
  const HealthDoc health1 = campaign_health(1, configs, reps, cycles);
  const HealthDoc health4 = campaign_health(4, configs, reps, cycles);
  const bool health_deterministic = health1.health == health4.health &&
                                    health1.timeline == health4.timeline;
  std::printf("4-worker vs 1-worker campaign_health.json + merged timeline: "
              "%s\n", health_deterministic ? "IDENTICAL" : "MISMATCH");

  // Multi-process campaignd: crash-isolated worker PROCESSES instead of
  // threads (fork/exec + TCP + checkpoint fold; see src/campaignd/).
  const unsigned proc_counts[] = {1, 2, 4};
  const CampaigndResults procs = measure_campaignd(
      configs, reps, cycles, proc_counts, std::size(proc_counts));
  if (procs.available) {
    std::printf("\ncampaignd multi-process (fork/exec workers):\n");
    std::printf("  %8s %14s %10s\n", "procs", "runs/sec", "speedup");
    for (std::size_t i = 0; i < procs.rps.size(); ++i) {
      std::printf("  %8u %14.1f %9.2fx\n", proc_counts[i], procs.rps[i],
                  procs.rps[i] / procs.rps[0]);
    }
    std::printf("4-process vs in-process campaign+health JSON: %s\n",
                procs.identical ? "IDENTICAL" : "MISMATCH");
    std::printf("checkpointed run %.3fs; resume of complete checkpoint "
                "%.3fs (replays nothing)\n",
                procs.full_run_sec, procs.resume_sec);
  } else {
    std::printf("\ncampaignd multi-process: worker binary unavailable, "
                "section skipped\n");
  }

  FILE* f = std::fopen("BENCH_campaign.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "bench_campaign_scaling: cannot write BENCH_campaign.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"note\": \"sim::Campaign scaling on the shared FIFO-"
                  "soak workload; speedup is bounded by host_cores, so a "
                  "1-core host legitimately reports ~1.0x\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f, "  \"runs\": %zu,\n", configs * reps);
  std::fprintf(f, "  \"cycles_per_run\": %u,\n", cycles);
  std::fprintf(f, "  \"runs_per_sec\": {");
  for (std::size_t i = 0; i < std::size(worker_counts); ++i) {
    std::fprintf(f, "%s\"%u\": %.1f", i == 0 ? "" : ", ", worker_counts[i],
                 rps[i]);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"speedup_4w_vs_1w\": %.2f,\n", rps[2] / rps[0]);
  std::fprintf(f, "  \"deterministic_4w_vs_1w\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"telemetry_health_deterministic_4w_vs_1w\": %s,\n",
               health_deterministic ? "true" : "false");
  std::fprintf(f, "  \"campaignd\": {\n");
  std::fprintf(f, "    \"available\": %s",
               procs.available ? "true" : "false");
  if (procs.available) {
    std::fprintf(f, ",\n    \"runs_per_sec\": {");
    for (std::size_t i = 0; i < procs.rps.size(); ++i) {
      std::fprintf(f, "%s\"%u\": %.1f", i == 0 ? "" : ", ", proc_counts[i],
                   procs.rps[i]);
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "    \"identical_to_in_process\": %s,\n",
                 procs.identical ? "true" : "false");
    std::fprintf(f, "    \"checkpointed_run_sec\": %.3f,\n",
                 procs.full_run_sec);
    std::fprintf(f, "    \"resume_refold_sec\": %.3f\n", procs.resume_sec);
  } else {
    std::fprintf(f, "\n");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_campaign.json and campaign_health.json\n");
  const bool campaignd_ok = !procs.available || procs.identical;
  return deterministic && health_deterministic && campaignd_ok ? 0 : 1;
}
