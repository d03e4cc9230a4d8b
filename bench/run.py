"""nfvplace benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload seven-trellis --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs the
layer shims of ``tracing.py`` and reports the per-layer metrics instead.
The last line of standard output is the result object; the lines before it
name every metric with its unit and record the machine, seed, slot counts
and outputs digest. The command exits non-zero when any check fails.
README.md in this directory explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# One single-threaded process per workload: pin BLAS before numpy loads.
BLAS_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}

SETUP_REPEATS = 5
SOLVE_REPEATS = 5
BATCH8_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


def setup_seconds(workload: str) -> list[float]:
    """Cold set-up times, each in a fresh interpreter (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            env=child_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def machine() -> dict:
    import numpy as np

    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_ENV,
    }


def batch8() -> tuple[float, int]:
    """The test_11 instance: action (2,2,2,2) on the bundled config at full
    capacity. Median wall time of construct+run, and its scorings."""
    import numpy as np
    import nfvplace as nv

    cfg = nv.seven_providers()
    infra, catalog = cfg.infrastructure, cfg.service_types
    arrangement = tuple(int(x) for x in np.repeat(np.arange(len(catalog)), 2))
    times, evaluations = [], 0
    for _ in range(BATCH8_REPEATS):
        t0 = time.perf_counter()
        placement = nv.TrellisPlacement((2, 2, 2, 2), arrangement, infra.capacity.copy(), catalog, infra)
        placement.run()
        times.append(time.perf_counter() - t0)
        evaluations = placement.evaluations
    return statistics.median(times) * 1e3, evaluations


class Run:
    """Attempt bookkeeping: every solve and every episode is one attempt;
    an attempt fails when it raises a bookkeeping error, fails the
    correctness pass, or its digest differs from the first of its kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def check_digest(self, kind: str, digest: str) -> None:
        first = self.digests.setdefault(kind, digest)
        if first != digest:
            self.fail(f"{kind} digest changed between repeats: {first} != {digest}")


def attempt_solve(run: Run, wl, setup, seed: int):
    run.attempted += 1
    policy, seconds, reference = wl.solve(setup, seed)
    if not policy.converged:
        run.fail(f"value iteration did not converge in {policy.iterations} sweeps")
    else:
        run.check_digest("policy", wl.policy_digest(policy))
    return policy, seconds, reference


def attempt_episode(run: Run, wl, setup, workload: str, seed: int, policy, wrap_slot=None):
    import nfvplace as nv

    run.attempted += 1
    try:
        episode = wl.run_episode(setup, workload, seed, policy, wrap_slot)
    except (nv.SimulationError, nv.LedgerError) as exc:
        run.fail(f"episode raised {type(exc).__name__}: {exc}")
        return None
    if episode.problems:
        run.fail("; ".join(episode.problems[:5]))
    else:
        run.check_digest("episode", wl.episode_digest(episode))
    return episode


def end_to_end(run: Run, wl, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import numpy as np

    setup_times = setup_seconds(workload)
    setup = wl.build(workload)
    policy = None
    solve_times = []
    solve_scales = []
    episodes = []
    sim_seconds = 0.0
    # Whole episodes until --seconds of simulated time are done, with one
    # solve before each episode until SOLVE_REPEATS are done, so solves and
    # slots are sampled across the whole run.
    while len(solve_times) < SOLVE_REPEATS or sim_seconds < seconds:
        if len(solve_times) < SOLVE_REPEATS:
            policy, elapsed, reference = attempt_solve(run, wl, setup, seed)
            solve_times.append(elapsed)
            solve_scales.append(wl.host_scale(reference))
        if sim_seconds < seconds:
            episode = attempt_episode(run, wl, setup, workload, seed, policy)
            if episode is None:
                break
            episodes.append(episode)
            sim_seconds += episode.seconds
    if not episodes:
        return {}, {}

    # Each episode and each solve is scaled to reference seconds by the
    # reference kernel samples taken next to it (see README.md), so a slow
    # spell of the host cancels out. Wall-clock figures go to the record.
    slot_ms = np.concatenate([np.asarray(e.slot_ns, dtype=float) / 1e6 for e in episodes])
    ref_ms = np.concatenate([np.asarray(e.slot_ns, dtype=float) * e.scale / 1e6 for e in episodes])
    raw = slot_stats(slot_ms, sim_seconds)
    raw["solve_s"] = statistics.median(solve_times)
    ref = slot_stats(ref_ms, sum(e.seconds * e.scale for e in episodes))
    ref["solve_s"] = statistics.median(t * k for t, k in zip(solve_times, solve_scales))
    ratio, cost = wl.quality(episodes[0])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "slots_per_s": (ref["slots_per_s"], "slot/ref_s"),
        "slot_ms.p50": (ref["slot_ms.p50"], "ref_ms"),
        "slot_ms.p99": (ref["slot_ms.p99"], "ref_ms"),
        "solve_s": (ref["solve_s"], "ref_s"),
        "admission_ratio": (ratio, "ratio"),
        "mean_placement_cost": (cost, "cost"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    record = {
        "episodes": len(episodes),
        "slot_samples": int(slot_ms.size),
        "slot_samples_above_p99": int((slot_ms > raw["slot_ms.p99"]).sum()),
        "setup_s_samples": setup_times,
        "solve_s_samples": solve_times,
        "sweeps": policy.iterations,
        "wall_clock": raw,
        "host_scale": [e.scale for e in episodes] + solve_scales,
    }
    return metrics, record


def slot_stats(slot_ms, seconds: float) -> dict:
    import numpy as np

    return {
        "slots_per_s": slot_ms.size / seconds,
        "slot_ms.p50": float(np.median(slot_ms)),
        "slot_ms.p99": float(np.percentile(slot_ms, 99)),
    }


def traced(run: Run, wl, workload: str, seed: int) -> tuple[dict, dict]:
    import numpy as np
    import tracing

    tracer = tracing.Tracer()
    setup = wl.build(workload)
    batch8_ms, batch8_evaluations = batch8()

    with tracer.installed():
        tracer.phase = "policy"
        policy, solve_s, _ = attempt_solve(run, wl, setup, seed)

    plain = attempt_episode(run, wl, setup, workload, seed, policy)
    with tracer.installed():
        tracer.phase = "sim"
        spanned = attempt_episode(
            run, wl, setup, workload, seed, policy,
            wrap_slot=lambda step: tracer.span("sim.run_slot", step),
        )
    if plain is None or spanned is None:
        return {}, {}
    # Median slot time, traced over untraced, each in reference seconds: the
    # median shrugs off host stalls and the scale a change of host speed.
    overhead = (
        float(np.median(spanned.slot_ns)) * spanned.scale
        / (float(np.median(plain.slot_ns)) * plain.scale) - 1.0
    )
    metrics = tracing.layer_metrics(
        tracer, setup.timings, solve_s, policy.iterations, len(spanned.slot_ns),
        batch8_ms, batch8_evaluations, overhead,
    )
    record = {
        "untraced_episode_s": plain.seconds,
        "traced_episode_s": spanned.seconds,
        "tracing_overhead_share": overhead,
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "nfvplace" / "__init__.py").is_file():
        print(f"nfvplace sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC_DIR))
    import workloads as wl

    if args.workload not in wl.EPISODES:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.EPISODES)}",
              file=sys.stderr)
        return 2

    run = Run()
    if args.trace:
        metrics, record = traced(run, wl, args.workload, args.seed)
    else:
        metrics, record = end_to_end(run, wl, args.workload, args.seed, args.seconds)
    correct = run.failed == 0 and bool(metrics)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        episode=[list(p) for p in wl.EPISODES[args.workload]],
        machine=machine(),
        digests=run.digests,
        problems=run.problems,
    )
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
