// Reproduces Table 1 (throughput section): maximum put/get rates for the
// four designs x {4, 8, 16}-place x {8, 16}-bit.
//
// Synchronous interfaces report the maximum clock frequency (MHz) from the
// critical-path analysis, cross-checked by a saturated simulation at
// exactly that frequency (any timing violation, over/underflow or data
// corruption flags the row). Asynchronous put interfaces report measured
// MegaOps/s from a saturated 4-phase handshake, as in the paper.
//
// Usage: bench_table1_throughput [--csv] [--cycles N]
#include <cstdio>
#include <cstring>
#include <string>

#include "cli/args.hpp"
#include "fifo/config.hpp"
#include "metrics/experiments.hpp"
#include "metrics/table.hpp"

namespace {

using mts::fifo::ControllerKind;
using mts::fifo::FifoConfig;
using mts::metrics::Design;

constexpr const char* kUsage =
    "usage: bench_table1_throughput [--csv] [--cycles N]";

struct DesignRow {
  const char* name;
  Design design;
  ControllerKind controller;
};

constexpr DesignRow kDesigns[] = {
    {"Mixed-Clock", Design::kMixedClock, ControllerKind::kFifo},
    {"Async-Sync", Design::kAsyncSync, ControllerKind::kFifo},
    {"Mixed-Clock RS", Design::kMixedClock, ControllerKind::kRelayStation},
    {"Async-Sync RS", Design::kAsyncSync, ControllerKind::kRelayStation},
};

// Paper values (Table 1) for side-by-side comparison.
struct PaperThroughput {
  double put[6];  // {4,8,16} x {8,16}-bit, put column
  double get[6];
};
constexpr PaperThroughput kPaper[] = {
    {{565, 544, 505, 505, 488, 460}, {549, 523, 484, 492, 471, 439}},
    {{421, 379, 357, 386, 351, 332}, {549, 523, 484, 492, 471, 439}},
    {{580, 550, 509, 521, 498, 467}, {539, 517, 475, 478, 459, 430}},
    {{421, 379, 357, 386, 351, 332}, {539, 517, 475, 478, 459, 430}},
};

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  unsigned cycles = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--cycles") == 0) {
      cycles = mts::cli::count_flag(argc, argv, i, 1, kUsage);
    }
  }

  std::printf("Table 1 (throughput): measured vs paper (HSpice, 0.6u HP CMOS)\n");
  std::printf("sync interfaces: max clock MHz (critical path, validated by "
              "saturated simulation)\n");
  std::printf("async put interfaces: measured MegaOps/s (saturated 4-phase "
              "handshake)\n\n");

  const unsigned caps[] = {4, 8, 16};
  const unsigned widths[] = {8, 16};

  mts::metrics::Table table({"Version", "bits", "places", "put", "get",
                             "paper-put", "paper-get", "ok"});
  for (unsigned d = 0; d < 4; ++d) {
    const DesignRow& design = kDesigns[d];
    unsigned col = 0;
    for (unsigned width : widths) {
      for (unsigned cap : caps) {
        FifoConfig cfg;
        cfg.capacity = cap;
        cfg.width = width;
        cfg.controller = design.controller;
        const mts::metrics::ThroughputRow row =
            mts::metrics::throughput(design.design, cfg, cycles);
        table.add_row({design.name, std::to_string(width), std::to_string(cap),
                       mts::metrics::fmt(row.put, 0),
                       mts::metrics::fmt(row.get, 0),
                       mts::metrics::fmt(kPaper[d].put[col], 0),
                       mts::metrics::fmt(kPaper[d].get[col], 0),
                       row.validated ? "yes" : "NO"});
        ++col;
      }
    }
  }

  std::fputs(csv ? table.to_csv().c_str() : table.to_string().c_str(), stdout);
  return 0;
}
