#!/usr/bin/env bash
# Rebuilds everything, runs the full test suite, and regenerates every
# table/figure in EXPERIMENTS.md. All outputs (logs, VCD traces,
# BENCH_kernel.json, latency-histogram JSON, Perfetto traces) land in out/,
# which is gitignored.
#
# Usage: reproduce.sh [--jobs N]
#   --jobs N   worker threads for the sim::Campaign-driven sweeps (Table 1
#              latency histograms, sync-depth soaks, matrix extension, the
#              fuzz/soak test campaigns via MTS_CAMPAIGN_JOBS). Default:
#              nproc. Campaign results are bit-identical for any N; only
#              wall time changes.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"

jobs="$(nproc 2>/dev/null || echo 1)"
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      jobs="$2"
      shift 2
      ;;
    *)
      echo "unknown argument: $1 (usage: reproduce.sh [--jobs N])" >&2
      exit 2
      ;;
  esac
done
echo "campaign workers: $jobs"

cmake -B build -G Ninja
cmake --build build

mkdir -p out
# Fuzz campaigns and MTBF soaks shard across MTS_CAMPAIGN_JOBS workers
# (tests/integration/test_fuzz_campaign.cpp, tests/faults/...soak.cpp).
MTS_CAMPAIGN_JOBS="$jobs" ctest --test-dir build 2>&1 | tee out/test_output.txt

# Benchmarks run from out/ so that generated artifacts (fig3_*.vcd from
# bench_fig3_protocols, BENCH_kernel.json from bench_kernel_perf) are
# written there instead of the repository root. Campaign-driven sweeps
# take --jobs.
campaign_benches="bench_table1_latency bench_sync_depth bench_matrix_extension"
(
  cd out
  for b in "$repo"/build/bench/bench_*; do
    name="$(basename "$b")"
    echo "===================================================================="
    echo "== $name"
    echo "===================================================================="
    case " $campaign_benches " in
      *" $name "*) "$b" --jobs "$jobs" ;;
      *) "$b" ;;
    esac
    echo
  done
) 2>&1 | tee out/bench_output.txt

# Forward-latency distributions (metrics registry): one histogram per
# Table-1 configuration under saturated traffic, fanned across the
# campaign pool, with a one-screen p50/p99 summary on stdout and the full
# per-instance JSON in out/.
(
  cd out
  echo "===================================================================="
  echo "== latency histograms (saturated, per Table-1 configuration)"
  echo "===================================================================="
  "$repo"/build/bench/bench_table1_latency --jobs "$jobs" \
    --hist-json latency_histograms.json
) 2>&1 | tee out/latency_histograms.txt

# End-to-end observability artifacts: the mixed-timing SoC example's
# Perfetto trace (open soc_trace.json at https://ui.perfetto.dev) with the
# telemetry counter tracks merged in, its full report (metrics +
# hottest-callbacks kernel profile), and the sampled timeline JSONL.
(
  cd out
  "$repo"/build/examples/example_latency_insensitive_soc
) 2>&1 | tee out/soc_example.txt

# Backpressure-timeline figure (EXPERIMENTS.md): the deterministic
# stop-storm on a relay chain. storm_trace.json carries the stall-duty and
# occupancy counter tracks next to the transaction spans;
# storm_timeline.jsonl is the raw series for the mts_timeline CLI.
(
  cd out
  echo "===================================================================="
  echo "== backpressure storm timeline (relay chain under stop bursts)"
  echo "===================================================================="
  "$repo"/build/examples/example_backpressure_storm
  echo
  "$repo"/build/tools/mts_timeline storm_timeline.jsonl --series stall_duty
) 2>&1 | tee out/backpressure_storm.txt

# Campaign health document: the FIFO soak on the in-process campaign oracle
# with the per-run telemetry sampler armed (the same command as CI).
(
  cd out
  "$repo"/build/tools/mts_campaignd run --workload fifo_soak \
    --params '{"cycles":150}' --configs 3 --reps 4 --seed 99 --local \
    --telemetry-interval 50000 --out campaign.json \
    --health campaign_health.json
)

# Kernel perf gate: chain and 1-worker-campaign throughput, the disarmed
# FIFO soak's fixed 5% floor, and the profiler, allocation and
# armed-telemetry ceilings, vs the recorded BENCH_kernel.json.
python3 scripts/check_kernel_perf.py BENCH_kernel.json out/BENCH_kernel.json

echo "done: see out/test_output.txt, out/bench_output.txt, out/*.vcd,"
echo "      out/latency_histograms.json,"
echo "      out/soc_trace.json, out/soc_report.json, out/soc_timeline.jsonl,"
echo "      out/storm_trace.json, out/storm_timeline.jsonl,"
echo "      out/campaign_health.json, out/BENCH_kernel.json"
