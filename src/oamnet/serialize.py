"""Canonical JSON interchange for netlists and reports.

The JSON output is deterministic byte for byte: objects serialize in
insertion order and every float is rendered with 17 significant digits,
enough to reconstruct the exact IEEE-754 double on any conforming parser
(negative zero is written ``-0.0``, since ``-0`` would parse as an integer).

:func:`dumps_canonical` first dispatches on the exact ``type()`` of the
value: ``float``, ``str``, ``int``, ``dict`` and ``list``, the types that
reports and netlist records are built from, each cost one identity test.
Everything else falls back to an ``isinstance`` chain: ``bool``, ``None``,
tuples, numpy integer and float scalars, other :class:`Mapping` types such
as an ensemble's amplitudes, and subclasses of the five exact types.  Both
routes write the same text for the same value.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii as _quote
from numbers import Real
from typing import Any

import numpy as np

from .elements import (
    BeamSplitter,
    DovePrism,
    Element,
    Hologram,
    Mirror,
    PhaseShifter,
    ReflectiveHologram,
)
from .errors import DomainError
from .netlist import Netlist


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise DomainError(f"non-finite float {value!r} is not serializable")
    text = format(value, ".17g")
    return "-0.0" if text == "-0" else text


def dumps_canonical(value: Any) -> str:
    """Deterministic JSON text for plain dict/list/str/number/bool trees."""
    kind = type(value)
    if kind is float:
        return _format_float(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is dict:
        return _dumps_items(value)
    if kind is list:
        return "[" + ", ".join([dumps_canonical(item) for item in value]) + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, Mapping):
        return _dumps_items(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([dumps_canonical(item) for item in value]) + "]"
    raise DomainError(f"cannot serialize {type(value).__name__}")


def _dumps_items(value: Mapping) -> str:
    """A JSON object of the items, each key written as ``str(key)``."""
    items = ", ".join(
        [
            f"{_quote(str(key))}: {dumps_canonical(item)}"
            for key, item in value.items()
        ]
    )
    return "{" + items + "}"


# element class -> record type and its fields in record order, each with the
# type it is written through and read as; a port (None) is written as given
# and read as an integer, and a beamsplitter's two as one "ports" list
_RECORDS: dict[type, tuple[str, tuple[tuple[str, type | None], ...]]] = {
    BeamSplitter: ("beamsplitter", (("ports", list), ("theta", float), ("phi", float))),
    PhaseShifter: ("phase", (("port", None), ("phi", float))),
    DovePrism: ("dove", (("port", None), ("alpha", float))),
    Hologram: ("hologram", (("port", None), ("k", int))),
    ReflectiveHologram: ("reflective_hologram", (("port", None), ("k", int))),
    Mirror: ("mirror", (("port", None),)),
}


def element_to_dict(element: Element) -> dict[str, Any]:
    for cls, (name, fields) in _RECORDS.items():
        if isinstance(element, cls):
            record: dict[str, Any] = {"type": name}
            for key, kind in fields:
                value = getattr(element, key)
                record[key] = value if kind is None else kind(value)
            return record
    raise DomainError(f"unknown element {type(element).__name__}")


def _field(record: Mapping[str, Any], key: str) -> Any:
    if key not in record:
        raise DomainError(f"missing field {key!r} in {record!r}")
    return record[key]


def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _int_field(record: Mapping[str, Any], key: str) -> int:
    return _integer(_field(record, key), key)


def _float_field(record: Mapping[str, Any], key: str) -> float:
    value = _field(record, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"field {key!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise DomainError(f"field {key!r} is out of float range") from None
    if not math.isfinite(value):
        raise DomainError(f"field {key!r} must be finite, got {value!r}")
    return value


def _bool_field(record: Mapping[str, Any], key: str) -> bool:
    value = _field(record, key)
    if not isinstance(value, bool):
        raise DomainError(f"field {key!r} must be true or false, got {value!r}")
    return value


def element_from_dict(data: Mapping[str, Any]) -> Element:
    """Element from its record; raises :class:`DomainError` on any field of
    the wrong JSON type, a non-finite number or an unknown element type."""
    if not isinstance(data, Mapping):
        raise DomainError(f"element record must be a JSON object, got {data!r}")
    kind = data.get("type")
    for cls, (name, fields) in _RECORDS.items():
        if kind != name:
            continue
        args: list[Any] = []
        for key, field_kind in fields:
            if field_kind is list:
                pair = _field(data, key)
                if not isinstance(pair, list) or len(pair) != 2:
                    raise DomainError(f"field 'ports' must list two ports, got {pair!r}")
                args += [_integer(port, key) for port in pair]
            elif field_kind is float:
                args.append(_float_field(data, key))
            else:
                args.append(_int_field(data, key))
        return cls(*args)
    raise DomainError(f"unknown element type {kind!r}")


def netlist_to_dict(
    netlist: Netlist, replay_error: float | None = None
) -> dict[str, Any]:
    if not isinstance(netlist, Netlist):
        raise DomainError(f"not a netlist: {type(netlist).__name__}")
    data: dict[str, Any] = {
        "dimension": netlist.dimension,
        "parity_flip": netlist.parity_flip,
        "elements": [element_to_dict(element) for element in netlist.elements],
        "metadata": {},
    }
    if replay_error is not None:
        if not isinstance(replay_error, Real):
            raise DomainError(f"not a replay error: {type(replay_error).__name__}")
        data["metadata"]["replay_error"] = float(replay_error)
    return data


def netlist_from_dict(data: Mapping[str, Any]) -> Netlist:
    """Netlist from its record, as strict as :func:`element_from_dict`."""
    if not isinstance(data, Mapping):
        raise DomainError(f"netlist record must be a JSON object, got {data!r}")
    dimension = _int_field(data, "dimension")
    parity_flip = _bool_field(data, "parity_flip")
    records = _field(data, "elements")
    if not isinstance(records, list):
        raise DomainError(f"field 'elements' must be a list, got {records!r}")
    elements = tuple(element_from_dict(record) for record in records)
    return Netlist(dimension, elements, parity_flip)


def netlist_dumps(netlist: Netlist, replay_error: float | None = None) -> str:
    return dumps_canonical(netlist_to_dict(netlist, replay_error)) + "\n"


def netlist_loads(text: str | bytes | bytearray) -> Netlist:
    """Netlist from its JSON document, as strict as
    :func:`netlist_from_dict`; anything but a ``str``, ``bytes`` or
    ``bytearray`` holding a JSON object raises :class:`DomainError`."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise DomainError(f"not a JSON document: {type(text).__name__}")
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DomainError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("netlist document must be a JSON object")
    return netlist_from_dict(data)


__all__ = [
    "dumps_canonical",
    "element_from_dict",
    "element_to_dict",
    "netlist_dumps",
    "netlist_from_dict",
    "netlist_loads",
    "netlist_to_dict",
]
