"""Canonical JSON form of typed dataclass fields: what a cache key hashes.

Values are normalised by the *declared* type of their field -- ``10`` and
``10.0`` in a ``float`` field describe the same point -- so a key never
depends on the Python type a sweep axis happened to use.  The form is strict
JSON: tuples become lists, override pairs a mapping, and infinities the
string ``"inf"`` (the bare ``Infinity`` token ``json.dumps`` would emit is
not valid JSON and breaks external JSONL consumers).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Dict, Optional, Tuple, get_type_hints

INFINITY = float("inf")


def json_number(value: Any) -> Any:
    """Real numbers as floats, infinities as ``"inf"``; the rest unchanged.

    NaN never describes an operating point and is rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    number = float(value)
    if math.isnan(number):
        raise ValueError("NaN is not a valid point parameter")
    return number if math.isfinite(number) else "inf" if number > 0 else "-inf"


def _optional(convert: Any) -> Any:
    return lambda value: None if value is None else convert(value)


#: Declared field type -> encoder.  Fields typed ``Any`` are not keyed.
_ENCODERS = {
    int: int,
    float: json_number,
    str: str,
    bool: bool,
    Optional[int]: _optional(int),
    Optional[float]: _optional(json_number),
    Optional[str]: _optional(str),
    Tuple[int, ...]: lambda value: [int(item) for item in value],
    # Free-form (name, value) pairs: numbers normalise, the rest passes through.
    Tuple[Tuple[str, Any], ...]: lambda value: {
        name: json_number(item) for name, item in value
    },
}


@functools.lru_cache(maxsize=None)
def _encoders(cls: type) -> Tuple[Tuple[str, Any], ...]:
    hints = get_type_hints(cls)
    try:
        return tuple(
            (field.name, _ENCODERS[hints[field.name]])
            for field in dataclasses.fields(cls)
            if hints[field.name] is not Any
        )
    except KeyError as error:
        raise TypeError(f"{cls.__name__}: no canonical form for field type {error}") from None


def canonical_fields(instance: Any) -> Dict[str, Any]:
    """``{field: canonical value}`` of a dataclass instance, in field order."""
    return {
        name: encode(getattr(instance, name)) for name, encode in _encoders(type(instance))
    }


def from_canonical(raw: Any) -> Any:
    """Inverse of the encoders: tuples, override pairs and infinities.

    ``int`` / ``float`` survive JSON as encoded, so they need no decoding.
    """
    if isinstance(raw, list):
        return tuple(raw)
    if isinstance(raw, dict):
        return tuple(sorted((name, from_canonical(value)) for name, value in raw.items()))
    return INFINITY if raw == "inf" else -INFINITY if raw == "-inf" else raw
