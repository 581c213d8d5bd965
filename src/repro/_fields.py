"""One field rule for every wire document.

Request and result types (:mod:`repro.api.schema`) and study specs
(:class:`repro.explore.StudySpec`) state each field's type once, in its
annotation, and its bounds once, as ``field(metadata=...)`` next to its
default.  :func:`check_fields` derives every per-field check from those
two, so a ``validate()`` method keeps only the rules that relate two
fields or consult another module.

Annotations understood: ``str``, ``int``, ``float`` (any number),
``bool``, ``Any``, ``Optional[X]``, ``List[X]`` (a tuple is stored as a
list) and ``Dict[str, X]``.  ``bool`` is never taken for a number.
Metadata keys: ``minimum`` (``>=``), ``exclusive_minimum`` (``>``),
``choices`` and ``nonempty``.  A bounded number must also be finite:
NaN passes every comparison, and neither NaN nor inf is strict JSON.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Mapping, Tuple

#: Field rules shared by many fields, for ``field(metadata=...)``.
AT_LEAST_ONE = {"minimum": 1}
NON_NEGATIVE = {"minimum": 0}
ABOVE_ZERO = {"exclusive_minimum": 0}
NONEMPTY = {"nonempty": True}
_NO_RULE: Mapping[str, Any] = MappingProxyType({})

_SCALARS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


class SchemaError(ValueError):
    """An invalid request/result document.  Always names the bad field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


@lru_cache(maxsize=None)
def _field_table(cls: type) -> Tuple[Tuple[str, Any, Mapping[str, Any]], ...]:
    """``(name, type hint, rule)`` per dataclass field, read on first use."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (spec.name, hints[spec.name], spec.metadata)
        for spec in dataclasses.fields(cls)
    )


def check_fields(instance: Any) -> None:
    """Check every field of a dataclass instance against its type and rule.

    Raises :class:`SchemaError` naming ``Class.field`` on the first
    mismatch.  List fields given as tuples are stored back as lists.
    """
    owner = type(instance).__name__
    for name, hint, rule in _field_table(type(instance)):
        try:
            value = check_value(hint, getattr(instance, name), rule)
        except ValueError as exc:
            raise SchemaError(f"{owner}.{name}", str(exc)) from None
        setattr(instance, name, value)


def check_value(hint: Any, value: Any, rule: Mapping[str, Any] = _NO_RULE) -> Any:
    """``value`` checked against type ``hint`` and ``rule``.

    Returns the value, a list copied and a tuple as a list; raises
    ``ValueError`` saying what was expected.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:   # Optional[X]
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        for element in value:
            check_value(args[0] if args else Any, element)
        value = list(value)
    elif origin is dict:
        if not isinstance(value, dict):
            raise ValueError(f"expected an object, got {value!r}")
        for key, element in value.items():
            if not isinstance(key, str):
                raise ValueError(f"non-string key {key!r}")
            check_value(args[1] if args else Any, element)
    elif hint in _SCALARS:
        wanted = (int, float) if hint is float else hint
        if not isinstance(value, wanted) or (hint is not bool and isinstance(value, bool)):
            raise ValueError(f"expected {_SCALARS[hint]}, got {value!r}")
    elif hint is not Any:
        raise TypeError(f"unsupported field type {hint!r}")
    if rule.get("nonempty") and not value:
        raise ValueError(f"must not be empty, got {value!r}")
    if "choices" in rule and value not in rule["choices"]:
        raise ValueError(f"expected one of {list(rule['choices'])}, got {value!r}")
    if "minimum" in rule or "exclusive_minimum" in rule:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        if "minimum" in rule and value < rule["minimum"]:
            raise ValueError(f"must be >= {rule['minimum']}, got {value}")
        if "exclusive_minimum" in rule and value <= rule["exclusive_minimum"]:
            raise ValueError(f"must be > {rule['exclusive_minimum']}, got {value}")
    return value
