// mts_mc -- explicit-state model checker driver (ARCHITECTURE.md sec. 11).
//
// Modes (default: --all):
//
//   --all              clean proofs at capacities 4 and 8, differential
//                      check of the shipped DV nets against ctrl::analyze(),
//                      and the full mutant self-test with replay cross-check
//   --capacity N       clean proof of the default ring at capacity N >= 2
//   --mutant NAME      one seeded mutant: expect its property + replay
//   --list-mutants     print the mutant set and exit
//
// Options:
//
//   --max-states N     full-pass visited-state budget (default 4000000)
//   --dfs-depth N      bounded-depth DFS fallback instead of BFS
//   --no-liveness      skip the reverse-reachability livelock check
//   --json PATH        write every CheckResult as a JSON array to PATH
//   --bundle-dir DIR   write <name>.cex.json per failure into DIR
//
// Exit status: 0 iff every requested check came out as expected (clean
// configs prove, mutants counterexample AND replay to the right invariant);
// 2 on a usage error, including a malformed or out-of-range number.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "ctrl/reachability.hpp"
#include "ctrl/specs.hpp"
#include "mc/mc.hpp"

namespace {

using namespace mts;

struct Args {
  bool all = true;
  bool list_mutants = false;
  unsigned capacity = 0;  ///< 0 = not set
  std::string mutant;
  std::string json_path;
  std::string bundle_dir;
  mc::ExploreOptions opts;
};

constexpr const char* kUsage =
    "usage: mts_mc [--all] [--capacity N] [--mutant NAME] [--list-mutants]\n"
    "              [--max-states N] [--dfs-depth N] [--no-liveness]\n"
    "              [--json PATH] [--bundle-dir DIR]";

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr, "%s\n", kUsage);
  std::exit(code);
}

const char* need_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(2);
  return argv[++i];
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--all") == 0) {
      a.all = true;
    } else if (std::strcmp(arg, "--capacity") == 0) {
      a.capacity = cli::count_flag(argc, argv, i, 2, kUsage);
      a.all = false;
    } else if (std::strcmp(arg, "--mutant") == 0) {
      a.mutant = need_value(argc, argv, i);
      a.all = false;
    } else if (std::strcmp(arg, "--list-mutants") == 0) {
      a.list_mutants = true;
      a.all = false;
    } else if (std::strcmp(arg, "--max-states") == 0) {
      a.opts.max_states =
          cli::count_flag<std::size_t>(argc, argv, i, 1, kUsage);
    } else if (std::strcmp(arg, "--dfs-depth") == 0) {
      a.opts.dfs_depth = cli::count_flag(argc, argv, i, 0, kUsage);
    } else if (std::strcmp(arg, "--no-liveness") == 0) {
      a.opts.check_liveness = false;
    } else if (std::strcmp(arg, "--json") == 0) {
      a.json_path = need_value(argc, argv, i);
    } else if (std::strcmp(arg, "--bundle-dir") == 0) {
      a.bundle_dir = need_value(argc, argv, i);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "mts_mc: unknown argument '%s'\n", arg);
      usage(2);
    }
  }
  return a;
}

struct Session {
  const Args& args;
  std::vector<std::string> results_json;
  int failures = 0;

  explicit Session(const Args& a) : args(a) {}

  void bundle(const std::string& name, const std::string& json) {
    if (args.bundle_dir.empty()) return;
    const std::string path = args.bundle_dir + "/" + name + ".cex.json";
    std::ofstream os(path);
    if (os) os << json << "\n";
  }

  void fail(const std::string& name, const std::string& why,
            const std::string& json) {
    std::printf("FAIL  %-28s %s\n", name.c_str(), why.c_str());
    bundle(name, json);
    ++failures;
  }

  /// A clean configuration must prove every property exhaustively.
  void run_clean(unsigned capacity) {
    const mc::RingConfig cfg = mc::default_ring(capacity);
    const mc::CheckResult res = mc::check_ring(cfg, args.opts);
    results_json.push_back(res.to_json());
    if (res.ok && res.exhaustive) {
      std::printf(
          "ok    %-28s exhaustive: %zu macro / %zu full states, %zu edges, "
          "peak frontier %zu, %zu properties proved\n",
          cfg.name.c_str(), res.macro_states, res.states, res.edges,
          res.peak_frontier, res.proved.size());
    } else if (res.ok) {
      fail(cfg.name, "no violation, but search was not exhaustive (raise "
                     "--max-states)", res.to_json());
    } else {
      fail(cfg.name,
           std::string("unexpected counterexample: ") +
               mc::property_name(res.cex->property) + " @ " + res.cex->site,
           res.to_json());
    }
  }

  /// The independent marking-graph oracle must agree with ctrl::analyze().
  void run_differential(const ctrl::PetriNet& net) {
    const ctrl::ReachabilityResult ref = ctrl::analyze(net);
    const mc::NetCheckResult got = mc::check_net(net);
    const bool agree = got.one_safe == ref.one_safe &&
                       got.deadlock_free == ref.deadlock_free &&
                       got.reachable_markings == ref.reachable_markings;
    if (agree) {
      std::printf("ok    %-28s mc/analyze agree: %zu markings, %s, %s\n",
                  net.name.c_str(), got.reachable_markings,
                  got.one_safe ? "one-safe" : "NOT one-safe",
                  got.deadlock_free ? "deadlock-free" : "NOT deadlock-free");
    } else {
      fail(net.name,
           "differential mismatch: mc says (" +
               std::to_string(got.reachable_markings) + " markings, safe=" +
               (got.one_safe ? "1" : "0") + ", df=" +
               (got.deadlock_free ? "1" : "0") + "), analyze says (" +
               std::to_string(ref.reachable_markings) + ", safe=" +
               (ref.one_safe ? "1" : "0") + ", df=" +
               (ref.deadlock_free ? "1" : "0") + ")",
           "{}");
    }
  }

  /// A mutant must yield its expected property AND replay to the matching
  /// runtime invariant at the same environment step.
  void run_mutant(const mc::Mutant& m) {
    const mc::CheckResult res = mc::check_ring(m.config, args.opts);
    results_json.push_back(res.to_json());
    if (res.ok) {
      fail(m.name, "checker found no violation (expected " +
                       std::string(mc::property_name(m.expected)) + ")",
           res.to_json());
      return;
    }
    if (res.cex->property != m.expected) {
      fail(m.name, std::string("found ") + mc::property_name(res.cex->property) +
                       ", expected " + mc::property_name(m.expected),
           res.to_json());
      return;
    }
    const mc::CrossCheckResult cc = mc::cross_check(m.config, *res.cex);
    if (!cc.ok) {
      fail(m.name, "replay cross-check failed: " + cc.message, res.to_json());
      return;
    }
    std::printf(
        "ok    %-28s found %s @ env step %zu (%zu macro states); replay "
        "confirmed %s\n",
        m.name.c_str(), mc::property_name(res.cex->property),
        res.cex->env_step, res.macro_states,
        verify::invariant_name(*cc.outcome.invariant));
  }

  int finish() {
    if (!args.json_path.empty()) {
      std::ofstream os(args.json_path);
      if (os) {
        os << "[";
        for (std::size_t i = 0; i < results_json.size(); ++i) {
          os << (i == 0 ? "" : ", ") << results_json[i];
        }
        os << "]\n";
      } else {
        std::fprintf(stderr, "mts_mc: cannot write %s\n",
                     args.json_path.c_str());
        ++failures;
      }
    }
    if (failures != 0) {
      std::printf("%d check(s) failed\n", failures);
      return 1;
    }
    return 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  if (args.list_mutants) {
    for (const mc::Mutant& m : mc::make_mutants()) {
      std::printf("%-28s %s (expected: %s)\n", m.name.c_str(),
                  m.description.c_str(), mc::property_name(m.expected));
    }
    return 0;
  }

  Session s(args);
  if (args.capacity != 0) {
    s.run_clean(args.capacity);
  } else if (!args.mutant.empty()) {
    bool found = false;
    for (const mc::Mutant& m : mc::make_mutants()) {
      if (m.name != args.mutant) continue;
      found = true;
      s.run_mutant(m);
    }
    if (!found) {
      std::fprintf(stderr, "mts_mc: unknown mutant '%s'\n",
                   args.mutant.c_str());
      return 2;
    }
  } else {
    s.run_clean(4);
    s.run_clean(8);
    s.run_differential(ctrl::dv_linear_net());
    s.run_differential(ctrl::dv_as_net());
    for (const mc::Mutant& m : mc::make_mutants()) s.run_mutant(m);
  }
  return s.finish();
}
