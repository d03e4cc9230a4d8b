"""Command line entry points.

Four subcommands cover the pipeline end to end: ``solve`` runs value
iteration and writes a policy artifact, ``simulate`` runs one seeded
slotted simulation, ``compare`` fans simulations out over strategies and
seeds, and ``oracle`` answers tiny instances by exhaustive search.

All diagnostics go to stderr as single-line JSON objects so callers can
parse failures; results land on stdout and in the requested output files.
Exit codes: 0 success, 1 runtime failure, 2 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .jsonio import json_list, to_json
from .mdp import TransitionModel, build_state_space
from .model import LedgerError, ResourceLedger
from .oracle import OBJECTIVES, OracleError, best_placement
from .policy import Policy, value_iteration
from .sim import MDP_STRATEGY, STRATEGY_IDS, SimulationError, run_experiment

ORACLE_MAX_SERVERS = 8
ORACLE_MAX_VNFS = 8
# the run figures that simulate prints and compare tabulates and summarizes
REPORTED = ("admission_ratio", "mean_placement_cost", "backups_per_vnf")


def _fail(exc: Exception, code: int) -> int:
    _emit({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    return code


def _emit(payload: dict, file=None) -> None:
    print(json.dumps(payload, sort_keys=True), file=file)


def _load_policy_for(cfg: ExperimentConfig, path: str) -> Policy:
    policy = Policy.load(path)
    # an artifact without a fingerprint is bound to no setup, so it is refused
    if policy.fingerprint != cfg.fingerprint:
        found = policy.fingerprint[:12] + ".." if policy.fingerprint else "none"
        raise ConfigError(
            f"policy {path} was solved for a different setup "
            f"(fingerprint {found} vs {cfg.fingerprint[:12]}..)"
        )
    return policy


def _setting(params, name: str, flag: str, value):
    """Setting ``name`` of ``params``, or ``value`` from ``flag`` when that
    was given, checked by the same rules as the config field."""
    if value is None:
        return getattr(params, name)
    try:
        return getattr(replace(params, **{name: value}), name)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {str(exc).partition(': ')[2]}, got {value}") from exc


def _distinct_files(args, outputs: dict[str, str]) -> None:
    """Rejects outputs (each path keyed by what it is) that resolve to one
    file, or to ``--config`` or ``--policy``: the run would overwrite what
    it wrote or what it read."""
    files = {Path(args.config).resolve(): "--config"}
    if getattr(args, "policy", None) is not None:
        files[Path(args.policy).resolve()] = "--policy"
    for what, path in outputs.items():
        other = files.setdefault(Path(path).resolve(), what)
        if other != what:
            raise ConfigError(f"{what} and {other} name one file, {path}")


def _distinct(entries: list, flag: str) -> None:
    """Rejects a list that names an entry twice: each repeat would add an
    identical run to the grid and count again in its statistics."""
    for k, entry in enumerate(entries):
        if entry in entries[:k]:
            raise ConfigError(f"{flag}: {entry} repeated")


def _cmd_solve(args) -> int:
    trace_path = f"{args.out}.trace.csv"
    _distinct_files(args, {"--out": args.out, "the --out trace": trace_path})
    cfg = load_config(args.config)
    seed = _setting(cfg.mdp, "seed", "--seed", args.seed)
    space = build_state_space(cfg.service_types, cap=cfg.mdp.state_space_cap)
    model = TransitionModel(space, cfg.service_types)
    policy = value_iteration(
        space, model, cfg.service_types, cfg.infrastructure, fingerprint=cfg.fingerprint,
        **asdict(replace(cfg.mdp, seed=seed)),
    )
    policy.save(args.out)
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,mean_value,sup_diff,trellis_searches,memo_hits,continuations\n")
        for i, (mv, sd, counts) in enumerate(
            zip(policy.mean_value_trace, policy.sup_diff_trace, policy.sweep_counts), start=1
        ):
            fh.write(f"{i},{mv!r},{sd!r},{','.join(map(str, counts))}\n")
    _emit(
        {
            "command": "solve",
            "states": space.size,
            "iterations": policy.iterations,
            "converged": policy.converged,
            "mean_value": policy.mean_value_trace[-1],
            "fingerprint": cfg.fingerprint,
            "policy": str(args.out),
            "trace": trace_path,
            # why the policy declines: states whose action admits nothing,
            # and occupied states the solve never estimated
            "zero_action_states": sum(1 for action in policy.actions if not any(action)),
            "unestimated_actives": policy.unestimated_actives,
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    summary_path = str(Path(args.out).with_suffix(".json"))
    _distinct_files(args, {"--out": args.out, "the --out summary": summary_path})
    cfg = load_config(args.config)
    policy = None
    if args.strategy == MDP_STRATEGY:
        if args.policy is None:
            raise ConfigError("the mdp strategy requires --policy")
        policy = _load_policy_for(cfg, args.policy)
    slots = _setting(cfg.sim, "slots", "--slots", args.slots)
    seed = _setting(cfg.sim, "seed", "--seed", args.seed)
    report = run_experiment(
        cfg.infrastructure, cfg.service_types, args.strategy, slots, seed, policy
    )
    report.to_csv(args.out)
    report.to_json(summary_path)
    _emit(
        {
            "command": "simulate",
            "strategy": args.strategy,
            "slots": slots,
            "seed": seed,
            **{name: getattr(report, name) for name in REPORTED},
            "csv": str(args.out),
            "summary": summary_path,
        }
    )
    return 0


def _cmd_compare(args) -> int:
    summary_path = str(Path(args.out).with_suffix(".json"))
    _distinct_files(args, {"--out": args.out, "the --out summary": summary_path})
    cfg = load_config(args.config)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise ConfigError("--strategies must name at least one strategy")
    for s in strategies:
        if s not in STRATEGY_IDS:
            raise ConfigError(f"unknown strategy {s!r}; choose from {STRATEGY_IDS}")
    _distinct(strategies, "--strategies")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from exc
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    for seed in seeds:
        _setting(cfg.sim, "seed", "--seeds", seed)
    _distinct(seeds, "--seeds")
    policy = None
    if MDP_STRATEGY in strategies:
        if args.policy is None:
            raise ConfigError("comparing the mdp strategy requires --policy")
        policy = _load_policy_for(cfg, args.policy)
    slots = _setting(cfg.sim, "slots", "--slots", args.slots)

    # each strategy's runs, one per seed in --seeds order
    reports = {
        strategy: [
            run_experiment(cfg.infrastructure, cfg.service_types, strategy, slots, seed, policy)
            for seed in seeds
        ]
        for strategy in strategies
    }

    columns = (*REPORTED, "mean_admitted_chain_length")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("strategy", "seed", *columns)) + "\n")
        for strategy, runs in reports.items():
            for seed, r in zip(seeds, runs):
                fh.write(",".join([strategy, str(seed), *(repr(getattr(r, c)) for c in columns)]))
                fh.write("\n")

    def stats(values: list[float]) -> dict:
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return {"mean": mean, "stddev": var**0.5}

    def by_length(runs: list) -> dict:
        merged: dict[str, list[float]] = {}
        for run in runs:
            for u, r in run.admission_ratio_by_length().items():
                merged.setdefault(str(u), []).append(r)
        return {u: stats(rs) for u, rs in sorted(merged.items())}

    summary = {
        "command": "compare",
        "slots": slots,
        "seeds": seeds,
        "strategies": {
            strategy: {
                **{name: stats([getattr(r, name) for r in runs]) for name in REPORTED},
                "admission_ratio_by_length": by_length(runs),
            }
            for strategy, runs in reports.items()
        },
        "csv": str(args.out),
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    summary["summary"] = summary_path
    _emit(summary)
    return 0


def _parse_instance(raw: str) -> list[int]:
    """Accepts a comma-separated list of type indices or a path to a JSON
    file shaped {"types": [...]} (a bare JSON list also works)."""
    candidate = Path(raw)
    if candidate.is_file():
        try:
            data = json.loads(candidate.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--instance: cannot read {raw}: {exc}") from exc
        if isinstance(data, dict):
            data = data.get("types")
        try:
            return json_list(data, "an integer", "types")
        except ValueError as exc:
            raise ConfigError(f"--instance: {raw}: {exc}") from exc
    try:
        return [int(s) for s in raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--instance: {exc}") from exc


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    instance = _parse_instance(args.instance)
    if not instance:
        raise ConfigError("--instance must list at least one service type index")
    for t in instance:
        if not 0 <= t < len(cfg.service_types):
            raise ConfigError(f"--instance: type index {t} out of range")
    infra = cfg.infrastructure
    if infra.num_servers > ORACLE_MAX_SERVERS:
        raise OracleError(
            f"{infra.num_servers} servers exceeds the exhaustive-search "
            f"limit of {ORACLE_MAX_SERVERS}"
        )
    total_vnfs = sum(cfg.service_types[t].num_vnfs for t in instance)
    if total_vnfs > ORACLE_MAX_VNFS:
        raise OracleError(
            f"{total_vnfs} functions exceeds the exhaustive-search "
            f"limit of {ORACLE_MAX_VNFS}"
        )
    idle = ResourceLedger.full(infra).server_idle
    result = best_placement(instance, cfg.service_types, infra, idle, objective=args.objective)
    payload = {
        "command": "oracle",
        "instance": instance,
        "objective": args.objective,
        "valid": result.valid,
        "nodes": result.nodes,
    }
    if result.valid:
        payload["objective_value"] = result.objective
        payload["failure_probs"] = list(result.failure_probs)
        payload["services"] = to_json(result.plan.services)
    _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfvplace",
        description="Reliability-aware service placement across providers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the admission policy")
    p_solve.add_argument("--config", required=True, help="experiment JSON file")
    p_solve.add_argument("--out", required=True, help="policy artifact to write")
    p_solve.add_argument("--seed", type=int, default=None, help="override mdp.seed")
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run one seeded simulation")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--strategy", required=True, choices=STRATEGY_IDS)
    p_sim.add_argument("--policy", default=None, help="policy artifact (mdp only)")
    p_sim.add_argument("--slots", type=int, default=None, help="override sim.slots")
    p_sim.add_argument("--seed", type=int, default=None, help="override sim.seed")
    p_sim.add_argument("--out", required=True, help="per-slot metrics CSV to write")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="fan simulations out over strategies and seeds")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument(
        "--strategies", required=True, help="comma-separated strategy ids"
    )
    p_cmp.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_cmp.add_argument("--slots", type=int, default=None)
    p_cmp.add_argument("--policy", default=None)
    p_cmp.add_argument("--out", required=True, help="aggregate CSV to write")
    p_cmp.set_defaults(func=_cmd_compare)

    p_orc = sub.add_parser("oracle", help="exhaustive placement for a tiny batch")
    p_orc.add_argument("--config", required=True)
    p_orc.add_argument(
        "--instance",
        required=True,
        help="service type indices: inline like 0,1 or a JSON file path",
    )
    p_orc.add_argument("--objective", choices=OBJECTIVES, default="reliable")
    p_orc.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(exc, 2)
    except (OracleError, SimulationError, LedgerError, OSError, ValueError) as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
