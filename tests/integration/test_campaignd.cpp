// campaignd chaos harness: crash-isolated workers are killed, wedged, muted
// and disconnected mid-campaign, and the merged artifacts must stay
// byte-identical to the sequential in-process oracle (run_local). Also
// covers graceful shutdown + resume, quarantine (per unit, and per config
// against sim::Campaign), degradation, run_filter validation, resuming
// under another run list, repro-bundle replay through a worker process and
// the CLI's numeric-flag errors and usage text.
//
// Worker processes are fork/exec'd from the mts_campaignd CLI binary; its
// path is baked in at configure time (MTS_CAMPAIGND_BIN_DEFAULT) and can be
// overridden with the MTS_CAMPAIGND_BIN environment variable. Tests skip
// when the binary is missing (e.g. a library-only build).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaignd/checkpoint.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/json.hpp"
#include "campaignd/workload.hpp"
#include "sim/campaign.hpp"

namespace campaignd = mts::campaignd;
namespace json = mts::campaignd::json;
namespace sim = mts::sim;
using campaignd::Coordinator;
using campaignd::CoordinatorOptions;
using campaignd::Event;
using campaignd::JobSpec;

namespace {

std::string worker_bin() {
  if (const char* env = std::getenv("MTS_CAMPAIGND_BIN")) return env;
#ifdef MTS_CAMPAIGND_BIN_DEFAULT
  return MTS_CAMPAIGND_BIN_DEFAULT;
#else
  return std::string();
#endif
}

#define REQUIRE_WORKER_BIN()                                          \
  do {                                                                \
    if (worker_bin().empty() ||                                       \
        ::access(worker_bin().c_str(), X_OK) != 0) {                  \
      GTEST_SKIP() << "mts_campaignd binary unavailable";             \
    }                                                                 \
  } while (false)

/// Thread-safe event sink shared with the coordinator.
struct EventLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Event> events;

  void add(const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(e);
    cv.notify_all();
  }
  std::size_t count(const std::string& kind) {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const Event& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }
  bool any_detail_contains(const std::string& kind, const std::string& sub) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Event& e : events) {
      if (e.kind == kind && e.detail.find(sub) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
  /// Blocks until `kind` has been seen `n` times (the shutdown tests wait
  /// for mid-campaign states). No timeout: a hang here is a real bug and
  /// the ctest timeout reports it.
  void wait_for(const std::string& kind, std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      std::size_t c = 0;
      for (const Event& e : events) {
        if (e.kind == kind) ++c;
      }
      return c >= n;
    });
  }
};

JobSpec small_job(std::size_t configs = 2, std::size_t reps = 3,
                  unsigned cycles = 6) {
  JobSpec job;
  job.workload = "fifo_soak";
  job.params = json::Value::object();
  job.params.set("cycles", json::Value::number_u64(cycles));
  job.configs = configs;
  job.reps = reps;
  job.opt.seed = 20010618;  // DAC 2001
  return job;
}

CoordinatorOptions fast_opts(unsigned workers = 2) {
  CoordinatorOptions opt;
  opt.workers = workers;
  opt.worker_cmd = {worker_bin(), "worker", "--port", "{port}"};
  opt.heartbeat_interval_ms = 25;
  opt.heartbeat_timeout_ms = 500;
  opt.progress_timeout_ms = 30000;
  opt.backoff_initial_ms = 10;
  opt.backoff_max_ms = 50;
  return opt;
}

json::Value one_chaos(const std::string& mode, std::size_t at_run,
                      const std::string& marker) {
  json::Value d = json::Value::object();
  d.set("mode", json::Value(mode));
  d.set("at_run", json::Value::number_size(at_run));
  d.set("marker", json::Value(marker));
  json::Value arr = json::Value::array();
  arr.push(std::move(d));
  return arr;
}

std::string temp_name(const std::string& stem) {
  return testing::TempDir() + "mts_campaignd_" + stem + "_" +
         std::to_string(::getpid());
}

/// Asserts the distributed outcome renders byte-identically to the
/// sequential oracle (campaign artifact, health document, coverage).
void expect_identical_to_local(const JobSpec& job,
                               const Coordinator::Outcome& dist) {
  Coordinator::Outcome local;
  campaignd::run_local(job, local);
  EXPECT_EQ(dist.to_json(false), local.to_json(false));
  EXPECT_EQ(dist.health_json(false), local.health_json(false));
  EXPECT_EQ(dist.coverage.bins(), local.coverage.bins());
  ASSERT_EQ(dist.results.size(), local.results.size());
}

}  // namespace

// -- Baseline: worker-count independence ------------------------------------

TEST(CampaigndChaos, DistributedMatchesLocalOracle) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job();
  for (unsigned workers : {1u, 3u}) {
    Coordinator::Outcome out;
    Coordinator coord(job, fast_opts(workers));
    coord.run(out);
    EXPECT_FALSE(out.interrupted);
    expect_identical_to_local(job, out);
  }
}

// -- Chaos: kill -9 a worker mid-unit ---------------------------------------

TEST(CampaigndChaos, WorkerKilledMidUnitIsRedispatched) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("kill_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("kill", 2, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  // The worker died by SIGKILL exactly once, the unit was re-dispatched,
  // and the final artifacts show no trace of the crash.
  EXPECT_TRUE(log->any_detail_contains("worker_lost", "signal:9"));
  EXPECT_GE(log->count("unit_requeued"), 1u);
  EXPECT_EQ(log->count("unit_quarantined"), 0u);
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

// -- Chaos: connection dropped mid-message ----------------------------------

TEST(CampaigndChaos, ConnectionDroppedMidMessageIsRedispatched) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("drop_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("drop_connection", 2, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  // The worker wrote a truncated run_done frame and exited; the partial
  // message must be discarded (never folded) and the run re-executed.
  EXPECT_GE(log->count("worker_lost"), 1u);
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

// -- Chaos: heartbeat stalls ------------------------------------------------

TEST(CampaigndChaos, MutedHeartbeatDetectedByDeadline) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("mute_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("mute_heartbeat", 3, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_TRUE(log->any_detail_contains("worker_lost", "heartbeat-timeout"));
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

TEST(CampaigndChaos, WedgedRunDetectedByProgressDeadline) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("hang_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("hang", 3, marker);
  opt.progress_timeout_ms = 700;  // beats keep flowing; the counter freezes
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_TRUE(log->any_detail_contains("worker_lost", "progress-timeout"));
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

// -- Graceful shutdown + resume ---------------------------------------------

TEST(CampaigndChaos, GracefulShutdownCheckpointsAndResumeIsByteIdentical) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("shutdown_marker");
  const std::string ckpt = temp_name("shutdown_ckpt") + ".json";
  std::remove(marker.c_str());
  std::remove(ckpt.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  // Run 4 hangs (first attempt only -- the marker gates it), so the
  // campaign is deterministically still in flight when we shut down.
  opt.chaos = one_chaos("hang", 4, marker);
  opt.checkpoint_path = ckpt;
  opt.checkpoint_every = 1;
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome first;
  Coordinator coord(job, opt);
  std::thread runner([&] { coord.run(first); });
  // The marker appears when run 4's worker claims the hang: from then on a
  // run is in flight, and the resumed campaign cannot hang again.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (::access(marker.c_str(), F_OK) != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  coord.request_shutdown();
  runner.join();
  ASSERT_EQ(::access(marker.c_str(), F_OK), 0) << "run 4 never started";

  EXPECT_TRUE(first.interrupted);
  EXPECT_GE(log->count("checkpoint_written"), 1u);
  std::ifstream in(ckpt);
  ASSERT_TRUE(in.good()) << "final checkpoint missing";

  // Resume: replays nothing (every checkpointed run arrives as a record,
  // not a re-execution) and the merged artifacts are byte-identical.
  auto log2 = std::make_shared<EventLog>();
  CoordinatorOptions ropt = opt;
  ropt.resume = true;
  ropt.on_event = [log2](const Event& e) { log2->add(e); };
  Coordinator::Outcome resumed;
  Coordinator rcoord(job, ropt);
  rcoord.run(resumed);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_FALSE(log2->any_detail_contains("worker_lost", "progress-timeout"));
  const std::size_t total = job.configs * job.reps;
  EXPECT_EQ(log2->count("run_done"), total - first.results.size());
  expect_identical_to_local(job, resumed);

  std::remove(marker.c_str());
  std::remove(ckpt.c_str());
}

// -- Quarantine: a unit failing identically twice ---------------------------

TEST(CampaigndChaos, UnitFailingIdenticallyTwiceIsQuarantined) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.unit_size = 1;
  // No marker: the kill fires on EVERY dispatch of run 2's unit, which is
  // exactly the deterministic-crash signature the quarantine exists for.
  opt.chaos = one_chaos("kill", 2, "");
  opt.unit_retries = 10;  // budget is NOT the trigger here
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_EQ(log->count("unit_quarantined"), 1u);
  ASSERT_EQ(out.results.size(), job.configs * job.reps);
  const sim::RunResult& q = out.results[2];
  EXPECT_FALSE(q.ok);
  EXPECT_EQ(q.classification, "quarantined");
  EXPECT_EQ(q.attempts, 0u);
  EXPECT_NE(q.error.find("signal:9"), std::string::npos) << q.error;
  ASSERT_EQ(out.quarantined_units.size(), 1u);
  // Every other run completed normally.
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(out.results[i].ok) << "run " << i;
  }
}

// -- Graceful degradation ---------------------------------------------------

TEST(CampaigndChaos, RetiredSlotDegradesToFewerWorkers) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("degrade_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.respawn_limit = 0;  // first crash retires the slot
  opt.chaos = one_chaos("kill", 2, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_GE(log->count("degraded"), 1u);
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

TEST(CampaigndChaos, AllSlotsRetiredFailsAfterCheckpoint) {
  REQUIRE_WORKER_BIN();
  const std::string ckpt = temp_name("retired_ckpt") + ".json";
  std::remove(ckpt.c_str());
  const JobSpec job = small_job();

  CoordinatorOptions opt = fast_opts(1);
  opt.respawn_limit = 0;
  opt.chaos = one_chaos("kill", 0, "");  // every dispatch dies immediately
  opt.checkpoint_path = ckpt;

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  EXPECT_THROW(coord.run(out), campaignd::CoordinatorError);
  // The failure path still persisted a checkpoint: nothing is lost.
  std::ifstream in(ckpt);
  EXPECT_TRUE(in.good());
  std::remove(ckpt.c_str());
}

// -- Repro bundle round-trip through a worker process -----------------------

TEST(CampaigndChaos, ReproBundleReplaysThroughWorker) {
  REQUIRE_WORKER_BIN();
  const std::string repro_dir = temp_name("repro");
  JobSpec job = small_job();
  job.workload = "chaos_soak";
  job.params.set("fail_indices", json::parse("[3]"));
  job.opt.repro_dir = repro_dir;

  Coordinator::Outcome local;
  campaignd::run_local(job, local);
  ASSERT_EQ(local.results.size(), 6u);
  ASSERT_FALSE(local.results[3].ok);
  const std::string bundle = local.results[3].repro_path;
  ASSERT_FALSE(bundle.empty());

  const std::string params = "'{\"cycles\":6,\"fail_indices\":[3]}'";
  const std::string base = worker_bin() + " replay " + bundle +
                           " --workload chaos_soak --params " + params;
  // Reproduces: same workload + params re-raise the identical failure.
  EXPECT_EQ(WEXITSTATUS(std::system((base + " > /dev/null").c_str())), 0);
  // Does not reproduce: without the injection the run passes (exit 1).
  const std::string clean = worker_bin() + " replay " + bundle +
                            " --workload chaos_soak --params '{\"cycles\":6}'"
                            " > /dev/null";
  EXPECT_EQ(WEXITSTATUS(std::system(clean.c_str())), 1);

  // Malformed bundle: structured error, exit 2.
  const std::string bad = temp_name("bad_bundle") + ".json";
  std::ofstream(bad) << "{\"run\":{\"index\":0}}";
  EXPECT_EQ(WEXITSTATUS(std::system(
                (worker_bin() + " replay " + bad + " 2> /dev/null").c_str())),
            2);
  const std::string garbage = temp_name("garbage_bundle") + ".json";
  std::ofstream(garbage) << "not json";
  EXPECT_EQ(
      WEXITSTATUS(std::system(
          (worker_bin() + " replay " + garbage + " 2> /dev/null").c_str())),
      2);
  std::remove(bad.c_str());
  std::remove(garbage.c_str());
}


// -- Shared per-run policy: the three executors agree -----------------------

TEST(CampaigndPolicy, RunFilterIsValidatedOnBothPaths) {
  REQUIRE_WORKER_BIN();
  JobSpec bad = small_job();  // 2 x 3: indices 0..5
  bad.run_filter = {1, 7};
  Coordinator::Outcome bad_local;
  EXPECT_THROW(campaignd::run_local(bad, bad_local),
               campaignd::CoordinatorError);
  Coordinator::Outcome bad_dist;
  Coordinator bad_coord(bad, fast_opts(1));
  EXPECT_THROW(bad_coord.run(bad_dist), campaignd::CoordinatorError);

  // A duplicated index executes, and reports, once.
  JobSpec dup = small_job();
  dup.run_filter = {4, 1, 4};
  Coordinator::Outcome local;
  campaignd::run_local(dup, local);
  Coordinator::Outcome dist;
  Coordinator coord(dup, fast_opts(1));
  coord.run(dist);
  for (const Coordinator::Outcome* o : {&local, &dist}) {
    ASSERT_EQ(o->results.size(), 2u);
    EXPECT_EQ(o->results[0].index, 1u);
    EXPECT_EQ(o->results[1].index, 4u);
  }
  EXPECT_EQ(dist.to_json(false), local.to_json(false));
}

TEST(CampaigndPolicy, ConfigQuarantineMatchesEngineOnEveryPath) {
  REQUIRE_WORKER_BIN();
  JobSpec job = small_job();  // 2 x 3
  job.workload = "chaos_soak";
  job.params.set("fail_indices", json::parse("[1]"));  // config 0, rep 1
  job.opt.quarantine_after = 1;

  sim::CampaignOptions eopt = job.opt;
  eopt.workers = 1;  // quarantine is placement-dependent; pin the order
  sim::Campaign engine(job.configs, job.reps, eopt);
  const std::unique_ptr<campaignd::Workload> wl =
      campaignd::make_workload(job.workload, job.params);
  engine.run(wl->body());

  Coordinator::Outcome local;
  campaignd::run_local(job, local);

  CoordinatorOptions opt = fast_opts(1);
  opt.unit_size = 1;
  Coordinator::Outcome dist;
  Coordinator coord(job, opt);
  coord.run(dist);

  const std::vector<sim::RunResult>& want = engine.results();
  ASSERT_EQ(want.size(), 6u);
  // Run 2 is config 0's remaining cell: skipped, never executed.
  EXPECT_EQ(want[2].classification, "quarantined");
  EXPECT_EQ(want[2].attempts, 0u);
  EXPECT_EQ(want[2].error, "config 0 quarantined after 1 failed runs");
  for (const Coordinator::Outcome* o : {&local, &dist}) {
    ASSERT_EQ(o->results.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const sim::RunResult& got = o->results[i];
      EXPECT_EQ(got.ok, want[i].ok) << "run " << i;
      EXPECT_EQ(got.classification, want[i].classification) << "run " << i;
      EXPECT_EQ(got.error, want[i].error) << "run " << i;
      EXPECT_EQ(got.attempts, want[i].attempts) << "run " << i;
    }
    EXPECT_EQ(o->quarantined_configs, engine.quarantined());
    EXPECT_EQ(o->to_json(false), engine.to_json(false));
  }
}

TEST(CampaigndPolicy, HostWorkersReportsTheSpawnedFleet) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job(2, 1);  // 2 runs: only 2 workers spawn
  Coordinator::Outcome dist;
  Coordinator coord(job, fast_opts(4));
  coord.run(dist);
  EXPECT_EQ(dist.workers, 2u);

  sim::CampaignOptions eopt = job.opt;
  eopt.workers = 4;
  sim::Campaign engine(job.configs, job.reps, eopt);
  engine.run(campaignd::make_workload(job.workload, job.params)->body());
  const std::string want = "\"host\": {\"workers\": 2,";
  EXPECT_NE(dist.to_json(true).find(want), std::string::npos);
  EXPECT_NE(engine.to_json(true).find(want), std::string::npos);
}

TEST(CampaigndPolicy, CoverageFoldsIdenticallyOnEveryTransport) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job();  // fifo_soak: coverage on by default
  const std::unique_ptr<campaignd::Workload> wl =
      campaignd::make_workload(job.workload, job.params);
  std::vector<std::map<std::string, std::uint64_t>> bins;
  for (unsigned workers : {1u, 4u}) {
    sim::CampaignOptions opt = job.opt;
    opt.workers = workers;
    sim::Campaign engine(job.configs, job.reps, opt);
    engine.run(wl->body());
    bins.push_back(engine.merged_coverage().bins());
  }
  Coordinator::Outcome local;
  campaignd::run_local(job, local);
  bins.push_back(local.coverage.bins());
  Coordinator::Outcome dist;
  Coordinator(job, fast_opts(2)).run(dist);
  bins.push_back(dist.coverage.bins());

  ASSERT_GT(bins[0].size(), 0u);
  EXPECT_GT(bins[0].at("dut.ne.rise"), 0u);
  for (std::size_t i = 1; i < bins.size(); ++i) {
    EXPECT_EQ(bins[i], bins[0]) << "transport " << i;
  }
}

TEST(CampaigndPolicy, ResumeUnderAnotherRunListIsRejected) {
  REQUIRE_WORKER_BIN();
  const std::string ckpt = temp_name("runlist_ckpt") + ".json";
  JobSpec other = small_job();  // 2 x 3: indices 0..5
  other.run_filter = {4, 5};
  CoordinatorOptions ropt = fast_opts(1);
  ropt.checkpoint_path = ckpt;
  ropt.resume = true;
  // A complete checkpoint of the whole matrix, then of runs 0-3: neither
  // holds runs 4 and 5, so resuming either under {4, 5} must refuse.
  for (const std::vector<std::size_t>& first :
       {std::vector<std::size_t>{}, std::vector<std::size_t>{0, 1, 2, 3}}) {
    std::remove(ckpt.c_str());
    JobSpec job = small_job();
    job.run_filter = first;
    CoordinatorOptions opt = fast_opts(1);
    opt.checkpoint_path = ckpt;
    Coordinator::Outcome done;
    Coordinator coord(job, opt);
    coord.run(done);
    ASSERT_EQ(done.results.size(), first.empty() ? 6u : 4u);

    Coordinator::Outcome resumed;
    Coordinator rcoord(other, ropt);
    EXPECT_THROW(rcoord.run(resumed), campaignd::CheckpointError)
        << first.size() << "-run filter";
  }
  std::remove(ckpt.c_str());
}

// -- CLI: bad numeric input is a usage error --------------------------------

TEST(CampaigndCli, BadNumericFlagsExitWithUsage) {
  REQUIRE_WORKER_BIN();
  const std::string err = temp_name("cli_err") + ".txt";
  // Exit status and the first stderr line of one invocation.
  auto run = [&](const std::string& args, std::string& first_line) {
    const int rc = std::system(
        (worker_bin() + " " + args + " > /dev/null 2> " + err).c_str());
    std::ifstream in(err);
    std::getline(in, first_line);
    return WEXITSTATUS(rc);
  };
  const std::string job = "run --local --configs 1 --reps 1";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {job + " --seed -5", "bad value for --seed: '-5'"},
      {job + " --seed +5", "bad value for --seed: '+5'"},
      {job + " --run-deadline-sec abc", "bad value for --run-deadline-sec"},
      {job + " --run-deadline-sec -1", "bad value for --run-deadline-sec"},
      {job + " --workers 4294967296", "bad value for --workers"},
      {job + " --heartbeat-ms 2147483648", "bad value for --heartbeat-ms"},
      {"worker --port 65536", "bad value for --port"},
  };
  for (const auto& [args, want] : cases) {
    std::string line;
    EXPECT_EQ(run(args, line), 2) << args;
    EXPECT_NE(line.find(want), std::string::npos) << args << ": " << line;
  }
  std::remove(err.c_str());
}

TEST(CampaigndCli, UsageNamesEveryFlag) {
  REQUIRE_WORKER_BIN();
  const std::string err = temp_name("cli_usage") + ".txt";
  const int rc = std::system((worker_bin() + " 2> " + err).c_str());
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  std::ifstream in(err);
  const std::string usage((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::set<std::string> named;
  const std::regex flag("--[a-z][a-z-]*");
  for (auto it = std::sregex_iterator(usage.begin(), usage.end(), flag);
       it != std::sregex_iterator(); ++it) {
    named.insert(it->str());
  }
  // Every flag parse_cli accepts.
  const std::set<std::string> accepted = {
      "--workload", "--params", "--configs", "--reps", "--seed",
      "--max-attempts", "--quarantine-after", "--repro-dir",
      "--collect-violations", "--telemetry-interval", "--run-deadline-sec",
      "--workers", "--unit-size", "--checkpoint", "--checkpoint-every",
      "--resume", "--retries", "--heartbeat-ms", "--heartbeat-timeout-ms",
      "--progress-timeout-ms", "--backoff-ms", "--backoff-max-ms",
      "--respawn-limit", "--chaos", "--worker-bin", "--local", "--out",
      "--health", "--host-stats", "--events", "--port"};
  EXPECT_EQ(named, accepted) << usage;
  std::remove(err.c_str());
}
