#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh BENCH_kernel.json against the recorded
baseline at the repository root.

Usage: check_kernel_perf.py <recorded.json> <fresh.json> [tolerance]
       [<recorded_telemetry.json> <fresh_telemetry.json>]

Fails (exit 1) when any of these regress beyond `tolerance` (default 15%):

  * current.scheduler_chain_events_per_sec -- the dormant-path event-chain
    throughput (disabled observability, the hot path) falls below
    recorded * (1 - tolerance). A faster fresh run always passes.
  * campaign.runs_per_sec["1"] -- single-worker campaign throughput on the
    shared FIFO-soak workload, same floor rule. Gated only when both sides
    recorded a campaign section (older baselines predate sim::Campaign)
    with the SAME workload shape (runs and cycles_per_run): runs/sec
    scales with run length, so a smoke fresh run vs a full baseline is
    not comparable and is reported informationally instead. Multi-worker
    numbers are host-core-bound and always stay informational.
  * observability.profiler_overhead_pct -- the ARMED profiler's slowdown of
    the event chain must stay under max(100%, recorded * (1 + tolerance)).
    The 100% floor keeps the ceiling meaningful on noisy CI hosts while
    still catching a relapse toward the pre-ring-buffer ~456% cost.
  * monitors.fifo_cycles_per_sec_disarmed -- the mixed-clock FIFO soak with
    protocol monitors DISARMED must stay within a fixed 5% of the recorded
    throughput (the zero-cost-when-disarmed contract: components probe
    sim.monitors() once at construction, so the disarmed run may not pay
    for the verify subsystem). Gated only when both sides measured the
    same fifo_cycles workload (smoke vs full are not comparable). The
    armed number is always informational.

When the telemetry JSON pair (BENCH_telemetry.json) is given, three more
gates apply:

  * fifo_soak.cycles_per_sec_disarmed -- the FIFO soak with the telemetry
    sampler DISARMED, same fixed 5% budget and same-workload rule as the
    monitors gate: components probe obs.telemetry once at construction, so
    a run without a Telemetry armed may not pay for the sampler.
  * fifo_soak.armed_overhead_pct -- the ARMED sampler's slowdown (a sample
    every 4 put cycles, every source + the registry) must stay under
    max(200%, recorded * 2), gated only when both sides measured the same
    fifo_cycles workload (overhead grows with soak length). Sampler
    samples/sec rates are reported informationally.
  * fifo_soak.allocs_per_million_cycles_disarmed -- steady-state heap
    allocations of the disarmed FIFO soak must stay under
    max(recorded * (1 + tolerance), 1e4), gated only when both sides ran
    the same fifo cycles (a longer soak amortises warm-up allocations
    differently). The 1e4 floor is 4 allocations in the 400-cycle smoke,
    so a relapse to per-evaluation allocation (~2e7) fails while a
    one-off container growth does not.
"""
import json
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 0.15
    with open(sys.argv[1]) as f:
        recorded = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    failed = False

    def gate_floor(name: str, ref: float, got: float) -> None:
        nonlocal failed
        floor = ref * (1.0 - tolerance)
        ok = got >= floor
        failed = failed or not ok
        print(
            f"{name}: recorded {ref:.3e}, fresh {got:.3e} "
            f"({got / ref * 100.0:.1f}% of recorded, floor {floor:.3e}) "
            f"-> {'OK' if ok else 'REGRESSION'}"
        )

    key = "scheduler_chain_events_per_sec"
    gate_floor(key, recorded["current"][key], fresh["current"][key])

    camp_rec = recorded.get("campaign", {})
    camp_new = fresh.get("campaign", {})
    rps_rec = camp_rec.get("runs_per_sec", {})
    rps_new = camp_new.get("runs_per_sec", {})
    if "1" in rps_rec and "1" in rps_new:
        same_shape = all(
            camp_rec.get(k) == camp_new.get(k)
            for k in ("runs", "cycles_per_run")
        )
        if same_shape:
            gate_floor("campaign_runs_per_sec[1w]", rps_rec["1"], rps_new["1"])
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

    mon_rec = recorded.get("monitors", {})
    mon_new = fresh.get("monitors", {})
    key = "fifo_cycles_per_sec_disarmed"
    if key in mon_rec and key in mon_new:
        if mon_rec.get("fifo_cycles") == mon_new.get("fifo_cycles"):
            # Fixed 5% budget, independent of the CLI tolerance: this gate
            # protects a zero-cost contract, not a best-effort trend.
            floor = mon_rec[key] * 0.95
            ok = mon_new[key] >= floor
            failed = failed or not ok
            print(
                f"monitors_disarmed_fifo_cycles_per_sec: recorded "
                f"{mon_rec[key]:.3e}, fresh {mon_new[key]:.3e} "
                f"({mon_new[key] / mon_rec[key] * 100.0:.1f}% of recorded, "
                f"floor {floor:.3e}, fixed 5% budget) "
                f"-> {'OK' if ok else 'REGRESSION'}"
            )
        else:
            print(
                f"monitors_disarmed_fifo_cycles_per_sec: recorded "
                f"{mon_rec[key]:.3e}, fresh {mon_new[key]:.3e} "
                "(informational: workload shapes differ, e.g. smoke vs full)"
            )
    if "armed_overhead_pct" in mon_new:
        print(
            f"  monitors_armed_overhead: {mon_new['armed_overhead_pct']:.1f}% "
            "(informational: armed checkers are an opt-in cost)"
        )

    obs_rec = recorded.get("observability", {})
    obs_new = fresh.get("observability", {})
    if "profiler_overhead_pct" in obs_new:
        got = obs_new["profiler_overhead_pct"]
        ref = obs_rec.get("profiler_overhead_pct")
        if ref is not None:
            ceiling = max(100.0, ref * (1.0 + tolerance))
            ok = got <= ceiling
            failed = failed or not ok
            print(
                f"profiler_overhead_pct: recorded {ref:.1f}%, fresh "
                f"{got:.1f}% (ceiling {ceiling:.1f}%) "
                f"-> {'OK' if ok else 'REGRESSION'}"
            )
        else:
            print(f"profiler overhead: fresh {got:.1f}% (no recorded value)")

    if len(sys.argv) > 5:
        with open(sys.argv[4]) as f:
            tel_rec = json.load(f).get("fifo_soak", {})
        with open(sys.argv[5]) as f:
            tel_all = json.load(f)
        tel_new = tel_all.get("fifo_soak", {})
        key = "cycles_per_sec_disarmed"
        if key in tel_rec and key in tel_new:
            if tel_rec.get("cycles") == tel_new.get("cycles"):
                # Same fixed 5% budget as the monitors gate: zero-cost
                # contract, not a best-effort trend.
                floor = tel_rec[key] * 0.95
                ok = tel_new[key] >= floor
                failed = failed or not ok
                print(
                    f"telemetry_disarmed_fifo_cycles_per_sec: recorded "
                    f"{tel_rec[key]:.3e}, fresh {tel_new[key]:.3e} "
                    f"({tel_new[key] / tel_rec[key] * 100.0:.1f}% of recorded,"
                    f" floor {floor:.3e}, fixed 5% budget) "
                    f"-> {'OK' if ok else 'REGRESSION'}"
                )
            else:
                print(
                    f"telemetry_disarmed_fifo_cycles_per_sec: recorded "
                    f"{tel_rec[key]:.3e}, fresh {tel_new[key]:.3e} "
                    "(informational: workload shapes differ, "
                    "e.g. smoke vs full)"
                )
        key = "allocs_per_million_cycles_disarmed"
        if key in tel_rec and key in tel_new:
            if tel_rec.get("cycles") == tel_new.get("cycles"):
                ceiling = max(tel_rec[key] * (1.0 + tolerance), 1e4)
                ok = tel_new[key] <= ceiling
                failed = failed or not ok
                print(
                    f"fifo_soak_allocs_per_million_cycles: recorded "
                    f"{tel_rec[key]:.3e}, fresh {tel_new[key]:.3e} "
                    f"(ceiling {ceiling:.3e}) "
                    f"-> {'OK' if ok else 'REGRESSION'}"
                )
            else:
                print(
                    f"fifo_soak_allocs_per_million_cycles: recorded "
                    f"{tel_rec[key]:.3e}, fresh {tel_new[key]:.3e} "
                    "(informational: workload shapes differ, "
                    "e.g. smoke vs full)"
                )
        if "armed_overhead_pct" in tel_new:
            got = tel_new["armed_overhead_pct"]
            ref = tel_rec.get("armed_overhead_pct")
            if ref is None or tel_rec.get("cycles") != tel_new.get("cycles"):
                # Overhead grows with soak length (more samples, deeper
                # series): cross-shape comparisons are meaningless, same as
                # the disarmed gate above.
                print(
                    f"telemetry_armed_overhead: fresh {got:.1f}% "
                    "(informational: workload shapes differ or no recorded "
                    "value)"
                )
            else:
                # Overhead ratios wobble more than throughputs on loaded CI
                # hosts (the armed run is ~4x longer, so it absorbs more
                # transient noise): give the ceiling 2x headroom. The hard
                # guarantee is the DISARMED floor above.
                ceiling = max(200.0, ref * 2.0)
                ok = got <= ceiling
                failed = failed or not ok
                print(
                    f"telemetry_armed_overhead: recorded {ref:.1f}%, fresh "
                    f"{got:.1f}% (ceiling {ceiling:.1f}%) "
                    f"-> {'OK' if ok else 'REGRESSION'}"
                )
        sampler = tel_all.get("sampler", {})
        for k in ("samples_per_sec_8_sources", "samples_per_sec_64_sources"):
            if k in sampler:
                print(f"  telemetry_{k}: {sampler[k]:.3e} (informational)")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
