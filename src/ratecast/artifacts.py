"""JSON artifacts, each declared once as a dataclass whose field types say what its file holds."""

from __future__ import annotations

import json
import math
import reprlib
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields

#: What an ``int`` field holds, since numpy keeps counts and seeds as int64.
_INT64 = range(-(2**63), 2**63)

#: How an error names these types; every other type is named as annotated.
_NAMES = {
    float: "a finite number",
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


def require_finite_fields(config) -> None:
    """Raise ValueError naming the first ``float`` field of the dataclass ``config`` that is
    not finite, by :func:`_finite`'s rule: an integer too large for a float is not."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in (float, "float") and not _finite(value):
            raise ValueError(f"{f.name} must be finite, got {reprlib.repr(value)}")


def _matches(tp, value) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return any(_matches(arg, value) for arg in args)
    if origin is tuple:
        pair = isinstance(value, list) and len(value) == 2
        if not (pair and all(_matches(args[0], v) for v in value)):
            return False
        # an integer range is drawn below hi + 1, which must be an int64 too
        return args[0] is not int or value[1] + 1 in _INT64
    if origin is list:
        return isinstance(value, list) and all(_matches(args[0], v) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_matches(args[1], v) for v in value.values())
    if isinstance(value, bool):  # JSON true and false are not numbers
        return tp is bool
    if tp is float:  # JSON has no NaN or infinity, and an integer must fit a float
        return isinstance(value, (int, float)) and _finite(value)
    if tp is int:
        return isinstance(value, int) and value in _INT64
    return isinstance(value, tp)


class JsonArtifact:
    """Mixin of a dataclass that is one JSON artifact: its fields are the file's.

    ``from_dict`` checks each value against its field's type. ``int`` is an
    int64 integer and never a boolean, ``float`` a finite number, and
    ``tuple[X, X]`` a ``[lo, hi]`` pair of ``X``, whose ``hi + 1`` is an
    int64 too when they are integers; ``str``, ``dict``, ``dict[str, X]``,
    ``list[X]`` and ``X | None`` are what they say. A field with a default
    may be absent. A key that names no field is ignored, so that a file with
    a later field still reads, unless the class sets ``unknown_key``: then it
    is an error.
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


@contextmanager
def naming(path: str):
    """Re-raise a ValueError from the body, its message prefixed by ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path: str, read):
    """``read`` of the JSON value in ``path``, typically an artifact's ``from_dict``."""
    with open(path, "r", encoding="utf-8") as fh, naming(path):
        try:
            value = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to read") from None
        return read(value)


def write_json(path: str, payload, indent: int | None = 2) -> None:
    """Write ``payload`` to ``path``; a NaN or infinity, which JSON lacks, writes no file."""
    with naming(path):
        text = json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
