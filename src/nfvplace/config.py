"""JSON experiment configuration: validation with field-path errors,
defaults, fingerprinting, and construction of the infrastructure and
service catalog objects."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .mdp import build_state_space
from .model import DEFAULT_PENALTY, InP, Infrastructure, ServiceType, VnfSpec
from .policy import MdpParams, catalog_fingerprint
from .sim import SimParams


class ConfigError(Exception):
    """A configuration file failed to parse or validate."""


@dataclass
class ExperimentConfig:
    infrastructure: Infrastructure
    service_types: tuple[ServiceType, ...]
    mdp: MdpParams
    sim: SimParams
    fingerprint: str
    source: dict


# the keys each config object may hold; any other key is an error
TOP_FIELDS = {"infrastructure", "service_types", "mdp", "sim"}
INFRA_FIELDS = {"inps", "alpha", "beta", "v_base", "deployment_cost", "link_cost"}
INP_FIELDS = {f.name for f in fields(InP)}
# a link table is given in exactly one of these forms
LINK_TABLE_FORMS = {
    "matrix": ("matrix",),
    "intra_inp/inter_inp": ("intra_inp", "inter_inp"),
    "default": ("default",),
}
LINK_TABLE_FIELDS = {key for keys in LINK_TABLE_FORMS.values() for key in keys}
TYPE_FIELDS = {f.name for f in fields(ServiceType)}
VNF_FIELDS = {f.name for f in fields(VnfSpec)}


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(spec, path: str, known: set) -> dict:
    """``spec`` itself, once it is an object holding only ``known`` keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object")
    for key in spec:
        if key not in known:
            raise ConfigError(f"{_at(path, key)}: unknown field")
    return spec


def _need(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{_at(path, key)}: missing required field")
    return data[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    # json reads NaN and Infinity; neither is a usable cost, rate or weight
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _integers(values, path: str) -> tuple[int, ...]:
    """A list of integers, each checked with its own path."""
    if not isinstance(values, list):
        raise ConfigError(f"{path}: expected a list, got {type(values).__name__}")
    return tuple(_integer(v, f"{path}[{k}]") for k, v in enumerate(values))


def _settings(cls, spec, path: str):
    """A settings section read into the dataclass ``cls``: each field given
    is checked against its declared type, a missing one (or ``null`` where
    the default is ``None``) keeps its default, and ``cls`` checks ranges."""
    _object(spec, path, {f.name for f in fields(cls)})
    values = {}
    for f in fields(cls):
        if f.name in spec and not (spec[f.name] is None and f.default is None):
            # annotations are postponed, so a field's type is its source text
            read = _integer if f.type == "int" else _number
            values[f.name] = read(spec[f.name], f"{path}.{f.name}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _expand_link_table(spec, inps: list[InP], path: str) -> np.ndarray:
    """Accepts exactly one of an explicit matrix, the compact intra/inter
    form or one default for every pair of distinct servers."""
    total = sum(len(p.servers) for p in inps)
    owner = [i for i, p in enumerate(inps) for _ in p.servers]
    _object(spec, path, LINK_TABLE_FIELDS)
    forms = [name for name, keys in LINK_TABLE_FORMS.items() if any(k in spec for k in keys)]
    if len(forms) > 1:
        raise ConfigError(
            f"{path}: expected one of {', '.join(LINK_TABLE_FORMS)}, got {' and '.join(forms)}"
        )
    if "matrix" in spec:
        try:
            mat = np.asarray(spec["matrix"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.matrix: expected a numeric table ({exc})") from exc
        if mat.shape != (total, total):
            raise ConfigError(f"{path}.matrix: expected a {total}x{total} table")
        if not np.isfinite(mat).all():
            raise ConfigError(f"{path}.matrix: expected finite numbers")
        return mat
    if "intra_inp" in spec or "inter_inp" in spec:
        intra = _number(_need(spec, "intra_inp", path), f"{path}.intra_inp")
        inter = _number(_need(spec, "inter_inp", path), f"{path}.inter_inp")
        mat = np.empty((total, total))
        for a in range(total):
            for b in range(total):
                if a == b:
                    mat[a, b] = 0.0
                elif owner[a] == owner[b]:
                    mat[a, b] = intra
                else:
                    mat[a, b] = inter
        return mat
    if "default" in spec:
        value = _number(spec["default"], f"{path}.default")
        mat = np.full((total, total), value)
        np.fill_diagonal(mat, 0.0)
        return mat
    raise ConfigError(f"{path}: expected one of {', '.join(LINK_TABLE_FORMS)}")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a configuration dict and build the model objects."""
    _object(data, "", TOP_FIELDS)

    infra_spec = _object(_need(data, "infrastructure", ""), "infrastructure", INFRA_FIELDS)
    inp_specs = _need(infra_spec, "inps", "infrastructure")
    if not isinstance(inp_specs, list) or not inp_specs:
        raise ConfigError("infrastructure.inps: expected a non-empty list")
    inps = []
    for i, p in enumerate(inp_specs):
        path = f"infrastructure.inps[{i}]"
        _object(p, path, INP_FIELDS)
        failure_prob = _number(_need(p, "failure_prob", path), f"{path}.failure_prob")
        server_specs = _need(p, "servers", path)
        if not isinstance(server_specs, list):
            raise ConfigError(f"{path}.servers: expected a list, got {type(server_specs).__name__}")
        servers = tuple(
            _integers(row, f"{path}.servers[{j}]") for j, row in enumerate(server_specs)
        )
        try:
            inps.append(InP(failure_prob=failure_prob, servers=servers))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    alpha = _need(infra_spec, "alpha", "infrastructure")
    beta = _number(_need(infra_spec, "beta", "infrastructure"), "infrastructure.beta")
    v_base = _number(_need(infra_spec, "v_base", "infrastructure"), "infrastructure.v_base")
    dep_spec = _need(infra_spec, "deployment_cost", "infrastructure")
    link_cost = _expand_link_table(
        infra_spec.get("link_cost", {"default": 0.0}), inps, "infrastructure.link_cost"
    )
    try:
        infra = Infrastructure(
            inps,
            alpha=alpha,
            beta=beta,
            v_base=v_base,
            deployment_cost=dep_spec,
            link_cost=link_cost,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"infrastructure: {exc}") from exc

    type_specs = _need(data, "service_types", "")
    if not isinstance(type_specs, list) or not type_specs:
        raise ConfigError("service_types: expected a non-empty list")
    types = []
    for i, t in enumerate(type_specs):
        path = f"service_types[{i}]"
        _object(t, path, TYPE_FIELDS)
        vnf_specs = _need(t, "vnfs", path)
        if not isinstance(vnf_specs, list) or not vnf_specs:
            raise ConfigError(f"{path}.vnfs: expected a non-empty list")
        vnfs = []
        for k, v in enumerate(vnf_specs):
            vpath = f"{path}.vnfs[{k}]"
            _object(v, vpath, VNF_FIELDS)
            try:
                vnf = VnfSpec(
                    vnf_type=_integer(_need(v, "vnf_type", vpath), f"{vpath}.vnf_type"),
                    demands=_integers(_need(v, "demands", vpath), f"{vpath}.demands"),
                )
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError(f"{vpath}: {exc}") from exc
            if vnf.vnf_type >= infra.num_vnf_types:
                raise ConfigError(f"{vpath}.vnf_type: {vnf.vnf_type} not covered by deployment_cost")
            if len(vnf.demands) != infra.num_resources:
                raise ConfigError(f"{vpath}.demands: width {len(vnf.demands)} does not match alpha")
            vnfs.append(vnf)
        try:
            stype = ServiceType(
                failure_cap=_number(_need(t, "failure_cap", path), f"{path}.failure_cap"),
                departure_prob=_number(_need(t, "departure_prob", path), f"{path}.departure_prob"),
                bandwidth=_number(_need(t, "bandwidth", path), f"{path}.bandwidth"),
                vnfs=tuple(vnfs),
                arrival_pmf=tuple(_need(t, "arrival_pmf", path)),
                admission_reward=_number(_need(t, "admission_reward", path), f"{path}.admission_reward"),
                sigma_max=_integer(_need(t, "sigma_max", path), f"{path}.sigma_max"),
                penalty=_number(t.get("penalty", DEFAULT_PENALTY), f"{path}.penalty"),
                name=str(t.get("name", f"type{i}")),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        types.append(stype)

    mdp = _settings(MdpParams, data.get("mdp", {}), "mdp")
    sim = _settings(SimParams, data.get("sim", {}), "sim")

    try:
        build_state_space(types, mdp.state_space_cap)
    except ValueError as exc:
        raise ConfigError(f"mdp.state_space_cap: {exc}") from exc

    cfg = ExperimentConfig(
        infrastructure=infra,
        service_types=tuple(types),
        mdp=mdp,
        sim=sim,
        fingerprint="",
        source={},
    )
    cfg.source = serialize_config(cfg)
    cfg.fingerprint = catalog_fingerprint(
        cfg.source["infrastructure"], cfg.source["service_types"]
    )
    return cfg


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical dict form; feeding it back to parse_config reproduces the
    same configuration."""
    infra = cfg.infrastructure
    return {
        "infrastructure": {
            "inps": [
                {"failure_prob": p.failure_prob, "servers": [list(s) for s in p.servers]}
                for p in infra.inps
            ],
            "alpha": [float(a) for a in infra.alpha],
            "beta": infra.beta,
            "v_base": infra.v_base,
            "deployment_cost": [[float(c) for c in row] for row in infra.deployment_cost],
            "link_cost": {"matrix": [[float(c) for c in row] for row in infra.link_cost]},
        },
        "service_types": [
            {
                "name": t.name,
                "failure_cap": t.failure_cap,
                "departure_prob": t.departure_prob,
                "bandwidth": t.bandwidth,
                "vnfs": [
                    {"vnf_type": v.vnf_type, "demands": list(v.demands)} for v in t.vnfs
                ],
                "arrival_pmf": list(t.arrival_pmf),
                "admission_reward": t.admission_reward,
                "sigma_max": t.sigma_max,
                "penalty": t.penalty,
            }
            for t in cfg.service_types
        ],
        "mdp": asdict(cfg.mdp),
        "sim": asdict(cfg.sim),
    }


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)
