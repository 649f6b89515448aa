// mts_timeline -- inspect telemetry timelines without Perfetto.
//
// Reads a telemetry JSONL file (one {"t": <ps>, "s": "<series>", "v":
// <value>} object per line -- the sim::Telemetry / TimeSeriesStore export,
// see src/metrics/timeseries.hpp) and prints one row per series: an ASCII
// sparkline over the series' time span plus a count/min/mean/max/last
// summary. `-` reads stdin.
//
//   mts_timeline out/soc_timeline.jsonl
//   mts_timeline --series fifo --width 72 out/soc_timeline.jsonl
//   mts_timeline --json out/run-0.jsonl        # machine-readable rollup
//
// Options:
//
//   --series SUBSTR   only series whose name contains SUBSTR
//   --width N         sparkline columns (default 60)
//   --json            JSON rollup instead of the table: per-series count,
//                     min/mean/max, first/last time and last value
//
// Exit status: 0 on success, 1 on empty/missing input, 2 on usage errors.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace {

struct Point {
  std::uint64_t t = 0;  ///< picoseconds
  double v = 0.0;
};

struct Args {
  std::string path;
  std::string series_filter;
  std::size_t width = 60;
  bool json = false;
};

constexpr const char* kUsage =
    "usage: mts_timeline [--series SUBSTR] [--width N] [--json] FILE|-";

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr, "%s\n", kUsage);
  std::exit(code);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      a.json = true;
    } else if (std::strcmp(arg, "--series") == 0) {
      if (i + 1 >= argc) usage(2);
      a.series_filter = argv[++i];
    } else if (std::strcmp(arg, "--width") == 0) {
      a.width = mts::cli::count_flag<std::size_t>(argc, argv, i, 1, kUsage);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(0);
    } else if (arg[0] == '-' && std::strcmp(arg, "-") != 0) {
      std::fprintf(stderr, "mts_timeline: unknown option '%s'\n", arg);
      usage(2);
    } else if (a.path.empty()) {
      a.path = arg;
    } else {
      usage(2);
    }
  }
  if (a.path.empty()) usage(2);
  return a;
}

/// Minimal field extractor for the fixed telemetry JSONL shape. Returns
/// false on lines that don't carry all three fields (blank lines, noise).
bool parse_line(const std::string& line, std::uint64_t& t, std::string& s,
                double& v) {
  const auto find_key = [&](const char* key) -> std::size_t {
    const std::size_t p = line.find(key);
    return p == std::string::npos ? std::string::npos : p + std::strlen(key);
  };
  const std::size_t tp = find_key("\"t\":");
  const std::size_t sp = find_key("\"s\":");
  const std::size_t vp = find_key("\"v\":");
  if (tp == std::string::npos || sp == std::string::npos ||
      vp == std::string::npos) {
    return false;
  }
  t = std::strtoull(line.c_str() + tp, nullptr, 10);
  v = std::strtod(line.c_str() + vp, nullptr);
  const std::size_t q0 = line.find('"', sp);
  if (q0 == std::string::npos) return false;
  const std::size_t q1 = line.find('"', q0 + 1);
  if (q1 == std::string::npos) return false;
  s = line.substr(q0 + 1, q1 - q0 - 1);
  return true;
}

/// 10-level pure-ASCII sparkline: points bucketed over the series' time
/// span, each bucket averaging its points; empty buckets print a space.
std::string sparkline(const std::vector<Point>& pts, std::size_t width) {
  static const char kLevels[] = " .:-=+*#%@";
  if (pts.empty()) return std::string(width, ' ');
  const std::uint64_t t0 = pts.front().t;
  const std::uint64_t t1 = std::max(pts.back().t, t0 + 1);
  std::vector<double> sum(width, 0.0);
  std::vector<std::size_t> cnt(width, 0);
  for (const Point& p : pts) {
    std::size_t b = static_cast<std::size_t>(
        static_cast<double>(p.t - t0) / static_cast<double>(t1 - t0) *
        static_cast<double>(width - 1));
    if (b >= width) b = width - 1;
    sum[b] += p.v;
    ++cnt[b];
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < width; ++b) {
    if (cnt[b] == 0) continue;
    const double m = sum[b] / static_cast<double>(cnt[b]);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  std::string out(width, ' ');
  for (std::size_t b = 0; b < width; ++b) {
    if (cnt[b] == 0) continue;
    const double m = sum[b] / static_cast<double>(cnt[b]);
    const double frac = hi > lo ? (m - lo) / (hi - lo) : 0.5;
    const std::size_t lvl = std::min<std::size_t>(
        9, static_cast<std::size_t>(frac * 9.0 + 0.5));
    out[b] = kLevels[lvl == 0 ? 1 : lvl];  // non-empty buckets never blank
  }
  return out;
}

std::string fmt(double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.path != "-") {
    file.open(args.path);
    if (!file) {
      std::fprintf(stderr, "mts_timeline: cannot open '%s'\n",
                   args.path.c_str());
      return 1;
    }
    in = &file;
  }

  std::map<std::string, std::vector<Point>> series;
  std::string line;
  while (std::getline(*in, line)) {
    std::uint64_t t = 0;
    double v = 0.0;
    std::string name;
    if (!parse_line(line, t, name, v)) continue;
    if (!args.series_filter.empty() &&
        name.find(args.series_filter) == std::string::npos) {
      continue;
    }
    series[name].push_back(Point{t, v});
  }
  if (series.empty()) {
    std::fprintf(stderr, "mts_timeline: no matching telemetry points in '%s'\n",
                 args.path.c_str());
    return 1;
  }

  if (args.json) {
    std::ostringstream os;
    os << "{\"series\": [";
    bool first = true;
    for (const auto& [name, pts] : series) {
      double lo = pts.front().v, hi = pts.front().v, sum = 0.0;
      for (const Point& p : pts) {
        lo = std::min(lo, p.v);
        hi = std::max(hi, p.v);
        sum += p.v;
      }
      os << (first ? "" : ", ") << "\n  {\"name\": \"" << name
         << "\", \"points\": " << pts.size() << ", \"t_first\": "
         << pts.front().t << ", \"t_last\": " << pts.back().t
         << ", \"min\": " << fmt(lo) << ", \"mean\": "
         << fmt(sum / static_cast<double>(pts.size())) << ", \"max\": "
         << fmt(hi) << ", \"last\": " << fmt(pts.back().v) << "}";
      first = false;
    }
    os << "\n]}\n";
    std::fputs(os.str().c_str(), stdout);
    return 0;
  }

  std::size_t name_w = 6;
  for (const auto& [name, pts] : series) name_w = std::max(name_w, name.size());
  std::printf("%-*s  %-*s  %8s %12s %12s %12s %12s\n",
              static_cast<int>(name_w), "series", static_cast<int>(args.width),
              "sparkline", "points", "min", "mean", "max", "last");
  for (const auto& [name, pts] : series) {
    double lo = pts.front().v, hi = pts.front().v, sum = 0.0;
    for (const Point& p : pts) {
      lo = std::min(lo, p.v);
      hi = std::max(hi, p.v);
      sum += p.v;
    }
    std::printf("%-*s  [%s]  %6zu %12s %12s %12s %12s\n",
                static_cast<int>(name_w), name.c_str(),
                sparkline(pts, args.width).c_str(), pts.size(),
                fmt(lo).c_str(),
                fmt(sum / static_cast<double>(pts.size())).c_str(),
                fmt(hi).c_str(), fmt(pts.back().v).c_str());
  }
  return 0;
}
