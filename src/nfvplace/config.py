"""JSON experiment configuration: validation with field-path errors,
defaults, fingerprinting, and construction of the infrastructure and
service catalog objects."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .jsonio import (
    READERS, at, build, json_items, json_object, json_rows, json_value, read_fields,
    read_object, to_json,
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


# a link table is given in exactly one of these forms
LINK_TABLE_FORMS = {
    "matrix": ("matrix",),
    "intra_inp/inter_inp": ("intra_inp", "inter_inp"),
    "default": ("default",),
}
LINK_TABLE_FIELDS = {key for keys in LINK_TABLE_FORMS.values() for key in keys}


def _need(data: dict, key: str, path: str):
    if key not in data:
        raise ValueError(f"{at(path, key)}: missing required field")
    return data[key]


def _expand_link_table(spec, inps: tuple[InP, ...], path: str) -> np.ndarray:
    """Accepts exactly one of an explicit matrix, the compact intra/inter
    form or one default for every pair of distinct servers."""
    total = sum(len(p.servers) for p in inps)
    json_object(spec, path, LINK_TABLE_FIELDS)
    forms = [name for name, keys in LINK_TABLE_FORMS.items() if any(k in spec for k in keys)]
    if len(forms) > 1:
        raise ValueError(
            f"{path}: expected one of {', '.join(LINK_TABLE_FORMS)}, got {' and '.join(forms)}"
        )
    if "matrix" in spec:
        try:
            mat = np.array(json_rows(spec["matrix"], "a number", "matrix"), dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}.matrix: expected a numeric table ({exc})") from exc
        if mat.shape != (total, total):
            raise ValueError(f"{path}.matrix: expected a {total}x{total} table")
        if not np.isfinite(mat).all():
            raise ValueError(f"{path}.matrix: expected finite numbers")
        return mat
    if "intra_inp" in spec or "inter_inp" in spec:
        intra = READERS["float"](_need(spec, "intra_inp", path), f"{path}.intra_inp")
        inter = READERS["float"](_need(spec, "inter_inp", path), f"{path}.inter_inp")
        owner = np.repeat(np.arange(len(inps)), [len(p.servers) for p in inps])
        mat = np.where(owner[:, None] == owner[None, :], intra, inter)
        np.fill_diagonal(mat, 0.0)
        return mat
    if "default" in spec:
        value = READERS["float"](spec["default"], f"{path}.default")
        mat = np.full((total, total), value)
        np.fill_diagonal(mat, 0.0)
        return mat
    raise ValueError(f"{path}: expected one of {', '.join(LINK_TABLE_FORMS)}")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a configuration dict and build the model objects; a
    malformed entry raises ``ConfigError`` naming its field's path."""
    try:
        return _parse(data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse(data: dict) -> ExperimentConfig:
    json_object(data, "", {f.name for f in fields(ExperimentConfig) if f.init})

    # the infrastructure section is read from its declaration, but for the
    # link table, whose three forms need the providers to expand
    path = "infrastructure"
    spec = json_value(_need(data, path, ""), "an object", path)
    values = read_fields(Infrastructure, {k: v for k, v in spec.items() if k != "link_cost"}, path)
    values["link_cost"] = _expand_link_table(
        spec.get("link_cost", {"default": 0.0}), values["inps"], f"{path}.link_cost"
    )
    infra = build(Infrastructure, values, path)

    types = []
    for i, t in enumerate(json_items(_need(data, "service_types", ""), "service_types")):
        path = f"service_types[{i}]"
        spec = {"name": f"type{i}", **json_value(t, "an object", path)}
        stype = read_object(ServiceType, spec, path)
        for k, vnf in enumerate(stype.vnfs):
            vpath = f"{path}.vnfs[{k}]"
            if vnf.vnf_type >= infra.num_vnf_types:
                raise ValueError(f"{vpath}.vnf_type: {vnf.vnf_type} not covered by deployment_cost")
            if len(vnf.demands) != infra.num_resources:
                raise ValueError(f"{vpath}.demands: width {len(vnf.demands)} does not match alpha")
        types.append(stype)

    mdp = read_object(MdpParams, data.get("mdp", {}), "mdp")
    sim = read_object(SimParams, data.get("sim", {}), "sim")

    try:
        build_state_space(types, mdp.state_space_cap)
    except ValueError as exc:
        raise ValueError(f"mdp.state_space_cap: {exc}") from exc

    return ExperimentConfig(infrastructure=infra, service_types=tuple(types), mdp=mdp, sim=sim)


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical dict form; feeding it back to parse_config reproduces the
    same configuration. The link table is written in its matrix form."""
    source = {f.name: to_json(getattr(cfg, f.name)) for f in fields(cfg) if f.init}
    infra = source["infrastructure"]
    infra["link_cost"] = {"matrix": infra["link_cost"]}
    return source


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
