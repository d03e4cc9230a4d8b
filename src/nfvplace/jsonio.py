"""Typed JSON reading and writing of the dataclasses that configs and policy
artifacts hold, driven by each class's declared fields: a value of the
wrong JSON type is rejected, not coerced, with the field's path."""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from functools import cache

import numpy as np

from .model import InP, VnfSpec, is_integer

# the Python type each JSON type reads as; a bool is not a number
_JSON_TYPES = {
    "an integer": int, "a number": (int, float), "a bool": bool, "a string": str, "a list": list,
    "an object": dict,
}

# the integers a field may hold: each is read into int64 arrays, and Python
# tests an int's membership in a range without iterating it
INT64 = range(-(2**63), 2**63)


def at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def json_value(value, expected: str, name: str):
    """``value`` once it holds the JSON type ``expected``, else a
    ``ValueError`` that starts with ``name``."""
    kind = _JSON_TYPES[expected]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name}: expected {expected}, got {type(value).__name__}")
    if kind is int and value not in INT64:
        raise ValueError(f"{name}: expected an integer within int64, got one of {value.bit_length()} bits")
    return value


def json_list(values, expected: str, name: str) -> list:
    """``values`` once it is a JSON list whose entries each hold the type
    ``expected``; an entry's path is formed only for its error."""
    kind = _JSON_TYPES[expected]
    for k, v in enumerate(json_value(values, "a list", name)):
        if (
            not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool)
            or (kind is int and v not in INT64)
        ):
            json_value(v, expected, f"{name}[{k}]")
    return values


def json_rows(values, expected: str, name: str) -> list[list]:
    """A JSON list of lists whose entries each hold the type ``expected``."""
    return [
        json_list(row, expected, f"{name}[{k}]")
        for k, row in enumerate(json_value(values, "a list", name))
    ]


def json_items(values, name: str) -> list:
    """``values`` once it is a non-empty JSON list."""
    if not isinstance(values, list) or not values:
        raise ValueError(f"{name}: expected a non-empty list")
    return values


def json_object(spec, path: str, known) -> dict:
    """``spec`` once it is a JSON object holding only the keys ``known``."""
    json_value(spec, "an object", path or "top level")
    for key in spec:
        if key not in known:
            raise ValueError(f"{at(path, key)}: unknown field")
    return spec


def finite(value, name: str) -> float:
    """The JSON number ``value`` as a float once it is finite: json reads
    NaN and Infinity, and an integer can lie beyond a float's range; none
    of them is a usable cost, rate or weight."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(
            f"{name}: expected a finite number, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ValueError(f"{name}: expected a finite number, got {number}")
    return number


def finite_floats(values, name: str) -> list[float]:
    """``values`` as floats once it is a JSON list of finite numbers; an
    entry's path is formed only for its error."""
    try:
        floats = list(map(float, json_list(values, "a number", name)))
        if all(map(math.isfinite, floats)):
            return floats
    except OverflowError:
        pass
    # some entry is no finite float: the first such names itself
    return [finite(v, f"{name}[{k}]") for k, v in enumerate(values)]


# the reader of each field annotation; annotations are postponed, so a
# field's type is its source text, and ``X | None`` reads as ``X``
READERS = {
    "int": lambda v, name: json_value(v, "an integer", name),
    "float": lambda v, name: finite(json_value(v, "a number", name), name),
    "bool": lambda v, name: json_value(v, "a bool", name),
    "str": lambda v, name: json_value(v, "a string", name),
    "tuple[int, ...]": lambda v, name: tuple(json_list(v, "an integer", name)),
    "tuple[float, ...]": lambda v, name: tuple(finite_floats(v, name)),
    "list[float]": finite_floats,
    "np.ndarray": lambda v, name: np.array(finite_floats(v, name)),
    "tuple[tuple[int, ...], ...]": lambda v, name: tuple(
        map(tuple, json_rows(v, "an integer", name))
    ),
    "list[tuple[int, ...]]": lambda v, name: list(map(tuple, json_rows(v, "an integer", name))),
    # a table's rows as read; the constructor makes the array, so a ragged
    # table fails there with the object's path
    "Table": lambda v, name: json_rows(v, "a number", name),
    "tuple[VnfSpec, ...]": lambda v, name: tuple(
        read_object(VnfSpec, spec, f"{name}[{k}]")
        for k, spec in enumerate(json_value(v, "a list", name))
    ),
    "tuple[InP, ...]": lambda v, name: tuple(
        read_object(InP, spec, f"{name}[{k}]") for k, spec in enumerate(json_items(v, name))
    ),
}


# the values a setting's annotation admits, as the Python objects a caller
# may pass; a bool is neither an integer nor a number
SETTING_TYPES = {
    "int": ("an integer", is_integer),
    "float": ("a number", lambda v: is_integer(v) or isinstance(v, (float, np.floating))),
}


def check_setting_types(params) -> None:
    """Raise ``ValueError("<field>: must be an integer")`` for an ``int``
    field of the dataclass ``params`` that holds no int or numpy integer,
    or ``"<field>: must be a number"`` for a ``float`` field that holds no
    real number; ``X | None`` also admits None."""
    for f in fields(params):
        value = getattr(params, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        expected, admits = SETTING_TYPES[kind]
        if not admits(value):
            raise ValueError(f"{f.name}: must be {expected}")


@cache
def saved_fields(cls) -> tuple:
    """The fields of the dataclass ``cls`` that its JSON form holds: all but
    those left out of comparisons, which describe a run, not the value."""
    return tuple(f for f in fields(cls) if f.compare)


@cache
def _readers(cls) -> dict:
    """Each saved field's reader and default, looked up once per class."""
    return {
        f.name: (READERS[f.type.removesuffix(" | None")], f.default) for f in saved_fields(cls)
    }


def read_fields(cls, spec, path: str = "") -> dict:
    """The saved fields of ``cls`` read from the JSON object ``spec``, each
    checked by its annotation's reader. A missing field, or ``null`` where
    the default is ``None``, keeps its default. A wrong type, an unknown key
    or a missing field without a default raises ``ValueError`` naming the
    field's path."""
    readers = _readers(cls)
    json_object(spec, path, readers)
    values = {}
    for key, (read, default) in readers.items():
        if key not in spec:
            if default is MISSING:
                raise ValueError(f"{at(path, key)}: missing required field")
        elif not (spec[key] is None and default is None):
            values[key] = read(spec[key], at(path, key))
    return values


def read_object(cls, spec, path: str):
    """``cls`` built by :func:`build` from :func:`read_fields`."""
    return build(cls, read_fields(cls, spec, path), path)


def build(cls, values: dict, path: str):
    """``cls(**values)``. A constructor error is raised again after
    ``path``: joined with a dot when it names its field (``gamma: must lie
    in (0, 1)``), else a colon."""
    try:
        return cls(**values)
    except (ValueError, TypeError, OverflowError) as exc:
        named = str(exc).partition(": ")[0] in _readers(cls)
        raise ValueError(f"{path}.{exc}" if named else f"{path}: {exc}") from exc


def to_json(value):
    """The JSON form that :func:`read_fields` reads back: a dataclass as an
    object of its saved fields, and a tuple, list or array as a list."""
    if isinstance(value, (int, float, str)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return {f.name: to_json(getattr(value, f.name)) for f in saved_fields(type(value))}
