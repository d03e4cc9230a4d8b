"""JSON experiment configuration: validation with field-path errors,
defaults, fingerprinting, and construction of the infrastructure and
service catalog objects."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .jsonio import (
    READERS, at, finite, json_list, json_object, json_rows, json_value, read_object, to_json,
)
from .mdp import build_state_space
from .model import InP, Infrastructure, ServiceType
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
    # formed from the four above: the canonical dict form, and the hash of
    # its infrastructure and service types that binds a policy to them
    fingerprint: str = field(init=False)
    source: dict = field(init=False)

    def __post_init__(self) -> None:
        self.source = serialize_config(self)
        self.fingerprint = catalog_fingerprint(
            self.source["infrastructure"], self.source["service_types"]
        )


# the keys each hand-read config object may hold; any other key is an error
TOP_FIELDS = {"infrastructure", "service_types", "mdp", "sim"}
INFRA_FIELDS = {"inps", "alpha", "beta", "v_base", "deployment_cost", "link_cost"}
# a link table is given in exactly one of these forms
LINK_TABLE_FORMS = {
    "matrix": ("matrix",),
    "intra_inp/inter_inp": ("intra_inp", "inter_inp"),
    "default": ("default",),
}
LINK_TABLE_FIELDS = {key for keys in LINK_TABLE_FORMS.values() for key in keys}


def _checked(read, *args):
    """``read(*args)`` with a JSON reader's ``ValueError`` (which starts
    with the field's path) raised as a ``ConfigError``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _object(spec, path: str, known: set) -> dict:
    return _checked(json_object, spec, path, known)


def _need(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{at(path, key)}: missing required field")
    return data[key]


def _number(value, path: str) -> float:
    return _checked(lambda: finite(READERS["float"](value, path), path))


def _expand_link_table(spec, inps: list[InP], path: str) -> np.ndarray:
    """Accepts exactly one of an explicit matrix, the compact intra/inter
    form or one default for every pair of distinct servers."""
    total = sum(len(p.servers) for p in inps)
    _object(spec, path, LINK_TABLE_FIELDS)
    forms = [name for name, keys in LINK_TABLE_FORMS.items() if any(k in spec for k in keys)]
    if len(forms) > 1:
        raise ConfigError(
            f"{path}: expected one of {', '.join(LINK_TABLE_FORMS)}, got {' and '.join(forms)}"
        )
    if "matrix" in spec:
        try:
            mat = np.array(json_rows(spec["matrix"], "a number", "matrix"), dtype=float)
        except ValueError as exc:
            raise ConfigError(f"{path}.matrix: expected a numeric table ({exc})") from exc
        if mat.shape != (total, total):
            raise ConfigError(f"{path}.matrix: expected a {total}x{total} table")
        if not np.isfinite(mat).all():
            raise ConfigError(f"{path}.matrix: expected finite numbers")
        return mat
    if "intra_inp" in spec or "inter_inp" in spec:
        intra = _number(_need(spec, "intra_inp", path), f"{path}.intra_inp")
        inter = _number(_need(spec, "inter_inp", path), f"{path}.inter_inp")
        owner = np.repeat(np.arange(len(inps)), [len(p.servers) for p in inps])
        mat = np.where(owner[:, None] == owner[None, :], intra, inter)
        np.fill_diagonal(mat, 0.0)
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
    inps = [
        _checked(read_object, InP, p, f"infrastructure.inps[{i}]") for i, p in enumerate(inp_specs)
    ]

    alpha = _checked(
        json_list, _need(infra_spec, "alpha", "infrastructure"), "a number", "infrastructure.alpha"
    )
    beta = _number(_need(infra_spec, "beta", "infrastructure"), "infrastructure.beta")
    v_base = _number(_need(infra_spec, "v_base", "infrastructure"), "infrastructure.v_base")
    deployment_cost = _checked(
        json_rows, _need(infra_spec, "deployment_cost", "infrastructure"), "a number",
        "infrastructure.deployment_cost",
    )
    link_cost = _expand_link_table(
        infra_spec.get("link_cost", {"default": 0.0}), inps, "infrastructure.link_cost"
    )
    try:
        infra = Infrastructure(
            inps,
            alpha=alpha,
            beta=beta,
            v_base=v_base,
            deployment_cost=deployment_cost,
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
        spec = {"name": f"type{i}", **_checked(json_value, t, "an object", path)}
        stype = _checked(read_object, ServiceType, spec, path)
        for k, vnf in enumerate(stype.vnfs):
            vpath = f"{path}.vnfs[{k}]"
            if vnf.vnf_type >= infra.num_vnf_types:
                raise ConfigError(f"{vpath}.vnf_type: {vnf.vnf_type} not covered by deployment_cost")
            if len(vnf.demands) != infra.num_resources:
                raise ConfigError(f"{vpath}.demands: width {len(vnf.demands)} does not match alpha")
        types.append(stype)

    mdp = _checked(read_object, MdpParams, data.get("mdp", {}), "mdp")
    sim = _checked(read_object, SimParams, data.get("sim", {}), "sim")

    try:
        build_state_space(types, mdp.state_space_cap)
    except ValueError as exc:
        raise ConfigError(f"mdp.state_space_cap: {exc}") from exc

    return ExperimentConfig(infrastructure=infra, service_types=tuple(types), mdp=mdp, sim=sim)


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical dict form; feeding it back to parse_config reproduces the
    same configuration."""
    infra = cfg.infrastructure
    return {
        "infrastructure": {
            "inps": to_json(infra.inps),
            "alpha": to_json(infra.alpha),
            "beta": infra.beta,
            "v_base": infra.v_base,
            "deployment_cost": to_json(infra.deployment_cost),
            "link_cost": {"matrix": to_json(infra.link_cost)},
        },
        "service_types": to_json(cfg.service_types),
        "mdp": to_json(cfg.mdp),
        "sim": to_json(cfg.sim),
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
