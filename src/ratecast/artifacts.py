"""JSON artifacts, each declared once as a dataclass whose field types say what its file holds."""

from __future__ import annotations

import math
import reprlib
import types
import typing
from dataclasses import MISSING, asdict, fields

#: What an ``int`` field holds, since numpy keeps counts and seeds as int64.
_INT64 = range(-(2**63), 2**63)

#: How an error names these types; every other type is named as annotated.
_NAMES = {
    int: "an integer from -2**63 to 2**63 - 1",
    tuple[int, int]: "a [lo, hi] pair of integers with lo >= -2**63 and hi < 2**63 - 1",
    tuple[float, float]: "a [lo, hi] pair of finite numbers",
}


def _finite(value) -> bool:
    """Whether ``value`` is a finite number; a JSON integer too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _matches(tp, value) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return any(_matches(arg, value) for arg in args)
    if origin is tuple:
        pair = isinstance(value, list) and len(value) == 2
        if not (pair and all(_matches(args[0], v) and _finite(v) for v in value)):
            return False
        # an integer range is drawn below hi + 1, which must be an int64 too
        return args[0] is not int or value[1] + 1 in _INT64
    if origin is list:
        return isinstance(value, list) and all(_matches(args[0], v) for v in value)
    if isinstance(value, bool):  # JSON true and false are not numbers
        return tp is bool
    if tp is float:  # any float, or an integer that a float can hold
        return isinstance(value, float) or isinstance(value, int) and _finite(value)
    if tp is int:
        return isinstance(value, int) and value in _INT64
    return isinstance(value, tp)


class JsonArtifact:
    """Mixin of a dataclass that is one JSON artifact: its fields are the file's.

    ``from_dict`` checks each value against its field's type. ``int`` is an
    int64 integer and never a boolean, ``float`` any number that a float can
    hold, and ``tuple[X, X]`` a ``[lo, hi]`` pair of finite numbers, whose
    ``hi + 1`` is an int64 too when they are integers; ``str``,
    ``dict``, ``list[X]`` and ``X | None`` are what they say. A field with a
    default may be absent. A key that names no field is ignored, so that a
    file with a field added later still reads, unless the class sets
    ``unknown_key``: then it is an error.
    """

    #: What the error calls a key that names no field; None lets such keys pass.
    unknown_key: typing.ClassVar[str | None] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        """The artifact in the JSON value ``payload``.

        Raises ValueError naming the first field, in declaration order, that is
        absent with no default or holds a value its type does not allow.
        """
        hints, declared = typing.get_type_hints(cls), fields(cls)
        required = [f.name for f in declared if f.default is f.default_factory is MISSING]
        if not isinstance(payload, dict):
            holding = f" with fields {', '.join(map(repr, required))}" if required else ""
            raise ValueError(f"must be a JSON object{holding}, got {reprlib.repr(payload)}")
        if cls.unknown_key and (extra := payload.keys() - {f.name for f in declared}):
            raise ValueError(f"unknown {cls.unknown_key} {min(extra)!r}")
        kwargs = {}
        for f in declared:
            tp, value = hints[f.name], payload.get(f.name, MISSING)
            if value is MISSING:
                if f.name in required:
                    raise ValueError(f"lacks field {f.name!r}")
            elif not _matches(tp, value):
                what = _NAMES.get(tp, f.type)
                # abridged: a model's trees can run to megabytes
                raise ValueError(f"field {f.name!r} must be {what}, got {reprlib.repr(value)}")
            else:
                kwargs[f.name] = tuple(value) if typing.get_origin(tp) is tuple else value
        return cls(**kwargs)
