"""Timing and counting shims around the layers of nfvplace, installed from
the benchmark only for the traced run.

Each shim opens a span around one public callable. Spans nest through a
stack, so a layer's self time is its span minus the spans of its children.
Only aggregates are kept in memory: per (phase, name) the call count, busy
time and self time, plus the individual durations of ``trellis.run`` for
its median. Nothing under ``src/`` is changed; every patched attribute is
restored when the ``installed`` block exits.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

import nfvplace as nv
import nfvplace.baselines
import nfvplace.sim


class Tracer:
    """Span and counter store. ``phase`` tags everything recorded, so solve
    work ("policy") and simulated slots ("sim") are reported apart."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)
        self.trellis_inputs: set = set()
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, after=None, keep_durations: bool = False):
        """Wrap ``fn`` so every call records a span named ``name``;
        ``after(args, result)`` then updates counters."""

        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                key = (self.phase, name)
                self.calls[key] += 1
                self.busy[key] += elapsed
                self.self_time[key] += elapsed - children[0]
                if keep_durations:
                    self.durations[key].append(elapsed)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count calls only; for callables too hot to time."""

        def wrapper(*args, **kwargs):
            self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    # -- counters fed by span results -----------------------------------

    def _trellis_init(self, args, _result) -> None:
        _self, action, arrangement, snapshot = args[:4]
        snap = np.asarray(snapshot)
        self.count("trellis.constructions")
        if self.phase == "policy":
            self.trellis_inputs.add(
                (tuple(action), tuple(arrangement), snap.dtype.str, snap.tobytes())
            )

    def _trellis_run(self, args, result) -> None:
        placement = args[0]
        self.count("trellis.evaluations", placement.evaluations)
        if not result.valid:
            self.count("trellis.invalid")
        for svc in result.services:
            self.count("trellis.placed")
            if svc.failure_prob > placement.catalog[svc.type_index].failure_cap:
                self.count("trellis.over_cap")

    def _baseline(self, args, outcomes) -> None:
        catalog = args[4]
        for o in outcomes:
            self.count("baselines.requested")
            if o.placed:
                self.count("baselines.placed")
                if o.failure_prob > catalog[o.type_index].failure_cap:
                    self.count("baselines.over_cap")

    def _run_baseline(self, fn):
        """Per-strategy span: the strategy is the first argument."""
        spans = {
            name: self.span(f"baselines.{name}", fn, after=self._baseline)
            for name in (b.value for b in nv.BaselineId)
        }

        def wrapper(baseline, *args, **kwargs):
            return spans[nv.BaselineId(baseline).value](baseline, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the shims in for the duration of the block."""
        patches = [
            (nv.TrellisPlacement, "__init__",
             lambda f: self.span("trellis.init", f, after=self._trellis_init)),
            (nv.TrellisPlacement, "run",
             lambda f: self.span("trellis.run", f, after=self._trellis_run, keep_durations=True)),
            (nfvplace.sim, "place_batch", lambda f: self.span("sim.place_batch", f)),
            (nfvplace.sim, "run_baseline", self._run_baseline),
            (nfvplace.sim, "sample_arrivals", lambda f: self.span("sim.sample", f)),
            (nfvplace.sim, "sample_departures", lambda f: self.span("sim.sample", f)),
            (nv.ResourceLedger, "allocate", lambda f: self.span("sim.ledger", f)),
            (nv.ResourceLedger, "release", lambda f: self.span("sim.ledger", f)),
            (nv.ResourceEstimator, "update", lambda f: self.counter("policy.estimator_update", f)),
            (nv.TransitionModel, "departure_row", lambda f: self.span("mdp.departure_row", f)),
            (nfvplace.baselines, "service_failure_probability",
             lambda f: self.counter("model.failure_prob", f)),
        ]
        saved = []
        try:
            for owner, attr, make in patches:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, setup_timings: dict, solve_s: float, sweeps: int,
                  sim_slots: int, batch8_ms: float, batch8_evaluations: int,
                  overhead_share: float) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``."""
    sim = lambda name: ("sim", name)  # noqa: E731
    pol = lambda name: ("policy", name)  # noqa: E731
    trellis_busy = tr.busy[sim("trellis.init")] + tr.busy[sim("trellis.run")]
    run_ms = tr.durations[sim("trellis.run")]
    placed = tr.counts[sim("trellis.placed")]
    calls = tr.calls[sim("trellis.run")]
    policy_calls = tr.counts[pol("trellis.constructions")]
    policy_trellis_s = tr.busy[pol("trellis.init")] + tr.busy[pol("trellis.run")]
    requested = tr.counts[sim("baselines.requested")]
    b_placed = tr.counts[sim("baselines.placed")]
    m = {
        "trellis.calls": (calls, "count"),
        "trellis.busy_s": (trellis_busy, "s"),
        "trellis.ms_per_call.p50": (
            float(np.median(run_ms)) * 1e3 if run_ms else 0.0, "ms"),
        "trellis.evaluations": (tr.counts[sim("trellis.evaluations")], "count"),
        "trellis.invalid_share": (_share(tr.counts[sim("trellis.invalid")], calls), "ratio"),
        "trellis.placed": (placed, "count"),
        "trellis.over_cap_share": (_share(tr.counts[sim("trellis.over_cap")], placed), "ratio"),
        "trellis.batch8_ms": (batch8_ms, "ms"),
        "trellis.batch8_evaluations": (batch8_evaluations, "count"),
    }
    busy_total = 0.0
    for name in (b.value for b in nv.BaselineId if b is not nv.BaselineId.TRELLIS_GREEDY):
        key = sim(f"baselines.{name}")
        busy_total += tr.busy[key]
        m[f"baselines.{name}.ms_per_slot"] = (_share(tr.busy[key], tr.calls[key]) * 1e3, "ms")
    m.update({
        "baselines.busy_s": (busy_total, "s"),
        "baselines.requested": (requested, "count"),
        "baselines.placed_share": (_share(b_placed, requested), "ratio"),
        "baselines.over_cap_share": (_share(tr.counts[sim("baselines.over_cap")], b_placed), "ratio"),
        "model.failure_prob_calls": (tr.counts[sim("model.failure_prob")], "count"),
        "policy.solve_s": (solve_s, "s"),
        "policy.sweeps": (sweeps, "count"),
        "policy.sweep_ms": (_share(solve_s, sweeps) * 1e3, "ms"),
        "policy.trellis_calls": (policy_calls, "count"),
        "policy.distinct_inputs": (len(tr.trellis_inputs), "count"),
        "policy.repeat_share": (_share(policy_calls - len(tr.trellis_inputs), policy_calls), "ratio"),
        "policy.trellis_s": (policy_trellis_s, "s"),
        "policy.backup_s": (solve_s - policy_trellis_s, "s"),
        "policy.estimator_updates": (tr.counts[pol("policy.estimator_update")], "count"),
        "mdp.departure_row_calls": (tr.calls[pol("mdp.departure_row")], "count"),
        "mdp.departure_row_s": (tr.busy[pol("mdp.departure_row")], "s"),
        "sim.slots": (sim_slots, "count"),
        "sim.sample_ms": (_share(tr.busy[sim("sim.sample")], sim_slots) * 1e3, "ms"),
        "sim.ledger_ms": (_share(tr.busy[sim("sim.ledger")], sim_slots) * 1e3, "ms"),
        "sim.ledger_ops": (tr.calls[sim("sim.ledger")], "count"),
        "sim.self_ms": (_share(tr.self_time[sim("sim.run_slot")], sim_slots) * 1e3, "ms"),
        "config.load_s": (setup_timings["config.load_s"], "s"),
        "mdp.space_build_s": (setup_timings["mdp.space_build_s"], "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
    })
    return m
