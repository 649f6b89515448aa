// mts_campaignd -- fault-tolerant multi-process campaign execution.
//
//   mts_campaignd run [job flags]        execute a campaign across a fleet
//                                        of crash-isolated worker processes
//                                        (--local: the sequential in-process
//                                        oracle instead -- byte-identical)
//   mts_campaignd worker --port N        internal: one worker process
//   mts_campaignd replay BUNDLE          re-execute a repro bundle's run in
//                                        a fresh worker process; exit 0 when
//                                        the same failure reproduces, 1 when
//                                        it does not, 2 on a malformed bundle
//
// `run --checkpoint FILE` journals completed runs; re-running with
// --resume replays nothing and renders byte-identical artifacts. SIGTERM /
// SIGINT write a final checkpoint before exiting (exit code 3). A bad flag
// or numeric value prints usage and exits 2.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaignd/coordinator.hpp"
#include "campaignd/json.hpp"
#include "campaignd/worker.hpp"
#include "sim/campaign.hpp"

namespace {

using mts::campaignd::Coordinator;
using mts::campaignd::CoordinatorOptions;
using mts::campaignd::JobSpec;
namespace json = mts::campaignd::json;

[[noreturn]] void usage(const std::string& err = "") {
  if (!err.empty()) std::cerr << "mts_campaignd: " << err << "\n";
  std::cerr <<
      "usage: mts_campaignd run [--workload W] [--params JSON] [--configs N]"
      " [--reps N]\n"
      "                        [--seed N] [--workers N] [--unit-size N]\n"
      "                        [--max-attempts N] [--quarantine-after N]"
      " [--repro-dir D]\n"
      "                        [--collect-violations] [--telemetry-interval N]"
      " [--run-deadline-sec S]\n"
      "                        [--checkpoint FILE] [--checkpoint-every N]"
      " [--resume]\n"
      "                        [--retries N] [--heartbeat-ms N]"
      " [--heartbeat-timeout-ms N]\n"
      "                        [--progress-timeout-ms N] [--backoff-ms N]"
      " [--backoff-max-ms N]\n"
      "                        [--respawn-limit N]\n"
      "                        [--chaos JSON] [--worker-bin PATH] [--local]\n"
      "                        [--out FILE] [--health FILE] [--host-stats]"
      " [--events]\n"
      "       mts_campaignd worker --port N\n"
      "       mts_campaignd replay BUNDLE [--workload W] [--params JSON]"
      " [--worker-bin PATH]\n";
  std::exit(2);
}

/// An unsigned decimal no larger than `max` (the target field's range);
/// anything else -- a sign, trailing bytes, overflow -- goes to usage().
std::uint64_t arg_u64(const std::string& flag, const std::string& v,
                      std::uint64_t max =
                          std::numeric_limits<std::uint64_t>::max()) {
  try {
    std::size_t pos = 0;
    if (v.empty() || v[0] < '0' || v[0] > '9') throw std::invalid_argument(v);
    const std::uint64_t out = std::stoull(v, &pos);
    if (pos != v.size() || out > max) throw std::out_of_range(v);
    return out;
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": '" + v + "'");
  }
}

template <typename T>
T arg_num(const std::string& flag, const std::string& v) {
  return static_cast<T>(arg_u64(flag, v, std::numeric_limits<T>::max()));
}

/// A finite, non-negative decimal; anything else goes to usage().
double arg_double(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size() || !std::isfinite(out) || out < 0.0) {
      throw std::invalid_argument(v);
    }
    return out;
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": '" + v + "'");
  }
}

/// Flags shared by run / worker / replay.
struct Cli {
  JobSpec job;
  CoordinatorOptions copt;
  bool local = false;
  bool host_stats = false;
  bool events = false;
  std::string out_path;
  std::string health_path;
  std::uint16_t port = 0;
  std::vector<std::string> positional;
};

Cli parse_cli(int argc, char** argv, int first) {
  Cli c;
  std::string worker_bin;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) usage(std::string(what) + " requires a value");
      return argv[++i];
    };
    if (a == "--workload") {
      c.job.workload = next("--workload");
    } else if (a == "--params") {
      c.job.params = json::parse(next("--params"));
    } else if (a == "--configs") {
      c.job.configs = arg_num<std::size_t>(a, next(a.c_str()));
    } else if (a == "--reps") {
      c.job.reps = arg_num<std::size_t>(a, next(a.c_str()));
    } else if (a == "--seed") {
      c.job.opt.seed = arg_u64(a, next(a.c_str()));
    } else if (a == "--max-attempts") {
      c.job.opt.max_attempts = arg_num<unsigned>(a, next(a.c_str()));
    } else if (a == "--quarantine-after") {
      c.job.opt.quarantine_after = arg_num<unsigned>(a, next(a.c_str()));
    } else if (a == "--repro-dir") {
      c.job.opt.repro_dir = next(a.c_str());
    } else if (a == "--collect-violations") {
      c.job.opt.collect_violations = true;
    } else if (a == "--telemetry-interval") {
      c.job.opt.telemetry_interval = arg_u64(a, next(a.c_str()));
    } else if (a == "--run-deadline-sec") {
      c.job.opt.run_deadline_sec = arg_double(a, next(a.c_str()));
    } else if (a == "--workers") {
      c.copt.workers = arg_num<unsigned>(a, next(a.c_str()));
    } else if (a == "--unit-size") {
      c.copt.unit_size = arg_num<std::size_t>(a, next(a.c_str()));
    } else if (a == "--checkpoint") {
      c.copt.checkpoint_path = next(a.c_str());
    } else if (a == "--checkpoint-every") {
      c.copt.checkpoint_every = arg_num<std::size_t>(a, next(a.c_str()));
    } else if (a == "--resume") {
      c.copt.resume = true;
    } else if (a == "--retries") {
      c.copt.unit_retries = arg_num<unsigned>(a, next(a.c_str()));
    } else if (a == "--heartbeat-ms") {
      c.copt.heartbeat_interval_ms = arg_num<int>(a, next(a.c_str()));
    } else if (a == "--heartbeat-timeout-ms") {
      c.copt.heartbeat_timeout_ms = arg_num<int>(a, next(a.c_str()));
    } else if (a == "--progress-timeout-ms") {
      c.copt.progress_timeout_ms = arg_num<int>(a, next(a.c_str()));
    } else if (a == "--backoff-ms") {
      c.copt.backoff_initial_ms = arg_num<int>(a, next(a.c_str()));
    } else if (a == "--backoff-max-ms") {
      c.copt.backoff_max_ms = arg_num<int>(a, next(a.c_str()));
    } else if (a == "--respawn-limit") {
      c.copt.respawn_limit = arg_num<unsigned>(a, next(a.c_str()));
    } else if (a == "--chaos") {
      c.copt.chaos = json::parse(next(a.c_str()));
    } else if (a == "--worker-bin") {
      worker_bin = next(a.c_str());
    } else if (a == "--local") {
      c.local = true;
    } else if (a == "--host-stats") {
      c.host_stats = true;
    } else if (a == "--events") {
      c.events = true;
    } else if (a == "--out") {
      c.out_path = next(a.c_str());
    } else if (a == "--health") {
      c.health_path = next(a.c_str());
    } else if (a == "--port") {
      c.port = arg_num<std::uint16_t>(a, next(a.c_str()));
    } else if (!a.empty() && a[0] == '-') {
      usage("unknown flag " + a);
    } else {
      c.positional.push_back(a);
    }
  }
  if (!worker_bin.empty()) {
    c.copt.worker_cmd = {worker_bin, "worker", "--port", "{port}"};
  }
  return c;
}

void print_event(const mts::campaignd::Event& e) {
  std::cerr << "[campaignd] " << e.kind;
  if (e.worker >= 0) std::cerr << " worker=" << e.worker;
  if (e.pid >= 0) std::cerr << " pid=" << e.pid;
  if (e.unit >= 0) std::cerr << " unit=" << e.unit;
  if (!e.detail.empty()) std::cerr << " " << e.detail;
  std::cerr << "\n";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

void emit_artifacts(const Cli& cli, const Coordinator::Outcome& out) {
  const std::string doc = out.to_json(cli.host_stats);
  if (cli.out_path.empty()) {
    std::cout << doc;
  } else if (!write_file(cli.out_path, doc)) {
    std::cerr << "mts_campaignd: cannot write " << cli.out_path << "\n";
  }
  if (!cli.health_path.empty() &&
      !write_file(cli.health_path, out.health_json(cli.host_stats))) {
    std::cerr << "mts_campaignd: cannot write " << cli.health_path << "\n";
  }
}

int cmd_run(int argc, char** argv) {
  Cli cli = parse_cli(argc, argv, 2);
  if (cli.events) cli.copt.on_event = print_event;
  Coordinator::Outcome out;
  if (cli.local) {
    mts::campaignd::run_local(cli.job, out);
  } else {
    Coordinator::install_signal_handlers();
    Coordinator coord(cli.job, cli.copt);
    coord.run(out);
  }
  emit_artifacts(cli, out);
  return out.interrupted ? 3 : 0;
}

int cmd_worker(int argc, char** argv) {
  Cli cli = parse_cli(argc, argv, 2);
  if (cli.port == 0) usage("worker requires --port");
  mts::campaignd::WorkerOptions opt;
  opt.port = cli.port;
  return mts::campaignd::run_worker(opt);
}

int cmd_replay(int argc, char** argv) {
  Cli cli = parse_cli(argc, argv, 2);
  if (cli.positional.size() != 1) usage("replay requires one BUNDLE path");
  const std::string& path = cli.positional.front();

  std::size_t index = 0, configs = 0, reps = 0;
  std::uint64_t campaign_seed = 0;
  std::string fail_type, fail_what;
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw json::ProtocolError("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const json::Value doc = json::parse(buf.str());
    const json::Value& run = doc.at("run");
    index = run.at("index").as_size();
    const std::size_t config = run.at("config").as_size();
    const std::size_t rep = run.at("rep").as_size();
    campaign_seed = run.at("campaign_seed").as_u64();
    configs = static_cast<std::size_t>(run.get_u64("configs", 0));
    reps = static_cast<std::size_t>(run.get_u64("reps", 0));
    if (reps == 0) {
      // Pre-campaignd bundles lack the matrix shape; recover it from the
      // row-major coordinates (index = config * reps + rep).
      if (config > 0) {
        if (index < rep || (index - rep) % config != 0) {
          throw json::ProtocolError("inconsistent run coordinates");
        }
        reps = (index - rep) / config;
        if (rep >= reps) {
          throw json::ProtocolError("inconsistent run coordinates");
        }
      } else {
        reps = rep + 1;
      }
    }
    if (configs == 0) configs = config + 1;
    if (index != config * reps + rep || index >= configs * reps) {
      throw json::ProtocolError("inconsistent run coordinates");
    }
    if (const json::Value* seed = run.find("seed")) {
      if (seed->as_u64() !=
          mts::sim::campaign_run_seed(campaign_seed, index)) {
        throw json::ProtocolError("seed does not match campaign_seed/index");
      }
    }
    const json::Value& failure = doc.at("failure");
    fail_type = failure.at("type").as_string();
    fail_what = failure.at("what").as_string();
  } catch (const std::exception& e) {
    std::cerr << "mts_campaignd: malformed bundle " << path << ": "
              << e.what() << "\n";
    return 2;
  }

  cli.job.configs = configs;
  cli.job.reps = reps;
  cli.job.opt.seed = campaign_seed;
  cli.job.run_filter = {index};
  cli.copt.workers = 1;
  if (cli.events) cli.copt.on_event = print_event;

  Coordinator::Outcome out;
  Coordinator coord(cli.job, cli.copt);
  coord.run(out);
  if (out.results.size() != 1) {
    std::cerr << "replay: run " << index << " produced no result\n";
    return 1;
  }
  const mts::sim::RunResult& r = out.results.front();
  const bool reproduced =
      !r.ok && r.error_type == fail_type && r.error == fail_what;
  std::cout << "replay run " << index << ": "
            << (reproduced
                    ? "reproduced " + fail_type + ": " + fail_what
                    : r.ok ? "did NOT reproduce (run passed)"
                           : "different failure " + r.error_type + ": " +
                                 r.error)
            << "\n";
  return reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "worker") return cmd_worker(argc, argv);
    if (cmd == "replay") return cmd_replay(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mts_campaignd: " << e.what() << "\n";
    return 2;
  }
  usage("unknown command '" + cmd + "'");
}
