#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh BENCH_kernel.json (bench_kernel_perf)
against the recorded one at the repository root.

Usage: check_kernel_perf.py <recorded.json> <fresh.json>

Exits 2 when the fresh file does not come from an optimized, unsanitized
build (its "host" stamp): a Debug or sanitized build runs at a fraction of
the recorded speed, so every floor would fail for no regression.

Fails (exit 1) when any gated number regresses:

  * chain.events_per_sec -- the dormant-path event-chain throughput
    (disabled observability, the hot path) falls below
    recorded * (1 - TOLERANCE). A faster fresh run always passes.
  * campaign.runs_per_sec["1"] -- single-worker campaign throughput on the
    shared FIFO-soak workload, same floor rule. Gated only when both sides
    ran the SAME workload shape (runs and cycles_per_run): runs/sec scales
    with run length, so a smoke fresh run vs a full baseline is reported
    informationally instead. Multi-worker numbers are host-core-bound and
    always stay informational.
  * chain.profiler_overhead_pct -- the ARMED profiler's slowdown of the
    event chain must stay under max(100%, recorded * (1 + TOLERANCE)). The
    100% floor keeps the ceiling meaningful on noisy hosts while still
    catching a relapse toward the pre-ring-buffer ~456% cost.

fifo_soak is keyed by soak length (put cycles). Its gates apply only when
the recorded file has an entry for the fresh soak's length (a longer soak
amortises warmup differently); otherwise they are informational.

  * cycles_per_sec_disarmed -- the mixed-clock FIFO soak with monitors and
    telemetry DISARMED must stay within a fixed 5% of the recorded
    throughput (the zero-cost-when-disarmed contract: components probe
    sim.monitors() and obs.telemetry once at construction, so a run with
    neither armed may not pay for the verify or telemetry subsystems).
  * allocs_per_million_cycles_disarmed -- steady-state heap allocations of
    the disarmed soak must stay under max(recorded * (1 + TOLERANCE), 1e4).
    The 1e4 floor is 4 allocations in the 400-cycle smoke, so a relapse to
    per-evaluation allocation (~2e7) fails while a one-off container growth
    does not.
  * telemetry_overhead_pct -- the ARMED sampler's slowdown (a sample every
    4 put cycles, every source + the registry) must stay under
    max(200%, recorded * 2). Overhead ratios wobble more than throughputs on
    loaded hosts (the armed run is ~4x longer, so it absorbs more transient
    noise); the hard guarantee is the disarmed floor.

monitors_overhead_pct and the sampler samples/sec rates are informational.
"""
import json
import sys

TOLERANCE = 0.15
DISARMED_BUDGET = 0.05
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo", "MinSizeRel")


class Gate:
    def __init__(self) -> None:
        self.failed = False

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.failed = self.failed or not ok
        print(f"{name}: {detail} -> {'OK' if ok else 'REGRESSION'}")

    def floor(self, name: str, ref: float, got: float, budget: float) -> None:
        floor = ref * (1.0 - budget)
        self.check(
            name,
            got >= floor,
            f"recorded {ref:.3e}, fresh {got:.3e} "
            f"({got / ref * 100.0:.1f}% of recorded, floor {floor:.3e})",
        )

    def ceiling(self, name: str, ref: float, got: float, ceiling: float,
                fmt: str = ".3e") -> None:
        self.check(
            name,
            got <= ceiling,
            f"recorded {ref:{fmt}}, fresh {got:{fmt}} "
            f"(ceiling {ceiling:{fmt}})",
        )


def unoptimized_reason(fresh: dict) -> str:
    host = fresh.get("host")
    if not isinstance(host, dict):
        return "has no host stamp"
    if host.get("build_type") not in OPTIMIZED_BUILDS:
        return f"comes from a {host.get('build_type')!r} build"
    if host.get("sanitizers", "none") != "none":
        return f"comes from a build sanitized with {host['sanitizers']}"
    return ""


def check_campaign(gate: Gate, rec: dict, new: dict) -> None:
    rps_rec = rec.get("runs_per_sec", {})
    rps_new = new.get("runs_per_sec", {})
    if "1" not in rps_rec or "1" not in rps_new:
        return
    if all(rec.get(k) == new.get(k) for k in ("runs", "cycles_per_run")):
        gate.floor("campaign_runs_per_sec[1w]", rps_rec["1"], rps_new["1"],
                   TOLERANCE)
    else:
        print(
            f"campaign_runs_per_sec[1w]: recorded {rps_rec['1']:.3e}, "
            f"fresh {rps_new['1']:.3e} (informational: workload shapes "
            "differ, e.g. smoke vs full)"
        )
    for w in sorted(rps_new, key=int):
        if w != "1":
            print(
                f"  campaign_runs_per_sec[{w}w]: {rps_new[w]:.3e} "
                "(informational: bounded by host cores)"
            )


def check_soak(gate: Gate, length: str, rec: dict, new: dict) -> None:
    prefix = f"fifo_soak[{length}]"
    if not rec:
        for key in ("cycles_per_sec_disarmed",
                    "allocs_per_million_cycles_disarmed",
                    "telemetry_overhead_pct"):
            if key in new:
                print(f"{prefix}.{key}: fresh {new[key]:.4g} (informational: "
                      "no recorded value for this soak length)")
    key = "cycles_per_sec_disarmed"
    if key in rec and key in new:
        gate.floor(f"{prefix}.{key}", rec[key], new[key], DISARMED_BUDGET)
    key = "allocs_per_million_cycles_disarmed"
    if key in rec and key in new:
        gate.ceiling(f"{prefix}.{key}", rec[key], new[key],
                     max(rec[key] * (1.0 + TOLERANCE), 1e4))
    key = "telemetry_overhead_pct"
    if key in rec and key in new:
        gate.ceiling(f"{prefix}.{key}", rec[key], new[key],
                     max(200.0, rec[key] * 2.0), ".1f")
    if "monitors_overhead_pct" in new:
        print(f"  {prefix}.monitors_overhead_pct: "
              f"{new['monitors_overhead_pct']:.1f}% "
              "(informational: armed checkers are an opt-in cost)")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        recorded = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)
    reason = unoptimized_reason(fresh)
    if reason:
        print(f"{sys.argv[2]} {reason}: the perf gate needs an optimized, "
              "unsanitized build (e.g. -DCMAKE_BUILD_TYPE=RelWithDebInfo)")
        return 2

    gate = Gate()
    chain_rec = recorded["chain"]
    chain_new = fresh["chain"]
    gate.floor("chain.events_per_sec", chain_rec["events_per_sec"],
               chain_new["events_per_sec"], TOLERANCE)
    check_campaign(gate, recorded.get("campaign", {}),
                   fresh.get("campaign", {}))

    got = chain_new["profiler_overhead_pct"]
    ref = chain_rec.get("profiler_overhead_pct")
    if ref is None:
        print(f"chain.profiler_overhead_pct: fresh {got:.1f}% "
              "(no recorded value)")
    else:
        gate.ceiling("chain.profiler_overhead_pct", ref, got,
                     max(100.0, ref * (1.0 + TOLERANCE)), ".1f")

    soak_rec = recorded.get("fifo_soak", {})
    for length, new in fresh.get("fifo_soak", {}).items():
        check_soak(gate, length, soak_rec.get(length, {}), new)

    sampler = fresh.get("sampler", {})
    for k in ("samples_per_sec_8_sources", "samples_per_sec_64_sources"):
        if k in sampler:
            print(f"  sampler.{k}: {sampler[k]:.3e} (informational)")

    return 1 if gate.failed else 0


if __name__ == "__main__":
    sys.exit(main())
