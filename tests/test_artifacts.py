"""The JSON contract of every artifact class, derived from its dataclass fields.

A field added to an artifact class is covered here with no edit: each field
must round-trip through JSON, reject a value of the wrong type by name, and be
either required by name or optional with its default.
"""

import dataclasses
import json
import math
import re
import types
import typing

import pytest

from ratecast.artifacts import JsonArtifact
from ratecast.events import CleaningReport
from ratecast.features import FeaturesMeta
from ratecast.models import HyperParams, ModelFile
from ratecast.validation import CvConfig, CvReport, EvalReport, HyperParamSpace

_HYPERPARAMS = HyperParams(learning_rate=0.05, n_estimators=7, max_features=0.5, seed=3)
_PARAMS = _HYPERPARAMS.to_dict()

EXAMPLES = [
    CleaningReport(n_input=10, n_oversize_removed=2, n_zero_removed=1, n_output=7),
    _HYPERPARAMS,
    HyperParamSpace(learning_rate=(0.1, 0.2), max_depth=(2, 4), max_features=(0.5, 1.0)),
    FeaturesMeta(
        groups=["A", "B"],
        column_meta=[{"name": "A.file_size", "group": "A", "origin": "numeric:file_size_gb"}],
        n_rows=3,
        tz_offset_hours=-8.0,
        stage="all",
    ),
    CvReport(
        best_params=_PARAMS,
        best_index=1,
        mean_rmse=[2.5, 1.5],
        candidates=[HyperParams().to_dict(), _PARAMS],
        fold_rmse=[[2.0, 3.0], [1.0, 2.0]],
        family="gbt",
        config=dataclasses.asdict(CvConfig()),
        timing={"wall_s": 0.25},
    ),
    EvalReport(rmse_mbs=88.5, n_test=100, split=0.9, test_subset=None, seed=6,
               timing={"wall_s": 0.1}),
    # Every field set: to_dict leaves out the ones that are None.
    ModelFile(
        format_version=1,
        family="gbt",
        params=_PARAMS,
        feature_names=["A.file_size"],
        importances=[1.0],
        trees=[{"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                "value": [2.5], "n_node_samples": [4], "feature_gains": [0.0]}],
        base_prediction=2.5,
        train_loss=[0.5],
    ),
]


def _subclasses(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _subclasses(cls)


def _json(artifact) -> dict:
    return json.loads(json.dumps(artifact.to_dict()))


def _not_none(tp):
    """``tp`` without its ``| None``."""
    if typing.get_origin(tp) is types.UnionType:
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    return tp


def _wrong_value(tp):
    """A JSON value that a field of type ``tp`` must reject."""
    tp = _not_none(tp)
    if tp is int:
        return True  # a boolean for an integer
    if tp is float:
        return "1.5"  # a string for a number
    if typing.get_origin(tp) in (list, tuple):
        return 5  # a number for a list
    return [] if tp is dict else 5


def _past_int64(tp) -> list:
    """JSON integers just past what a field of type ``tp`` holds; none if it holds no integer."""
    tp = _not_none(tp)
    if tp is int:
        return [2**63, -(2**63) - 1]
    if tp == tuple[int, int]:  # a range is drawn below hi + 1, so that must fit too
        return [[1, 2**63 - 1], [-(2**63) - 1, 1]]
    return []


def _non_finite(tp) -> list:
    """Values with a NaN or an infinity where a field of type ``tp`` holds floats."""
    tp = _not_none(tp)
    if tp is float:
        return [math.nan, math.inf, -math.inf]
    if typing.get_origin(tp) is list:
        return [[v] for v in _non_finite(typing.get_args(tp)[0])]
    if typing.get_origin(tp) is dict:
        return [{"wall_s": v} for v in _non_finite(typing.get_args(tp)[1])]
    if tp == tuple[float, float]:
        return [pair for v in _non_finite(float) for pair in ([v, 2.5], [0.5, v])]
    return []


def _hint(example, field) -> type:
    return typing.get_type_hints(type(example))[field.name]


FIELDS = [
    pytest.param(example, f, id=f"{type(example).__name__}.{f.name}")
    for example in EXAMPLES
    for f in dataclasses.fields(example)
]
INTEGER_FIELDS = [param for param in FIELDS if _past_int64(_hint(*param.values))]
FLOAT_FIELDS = [param for param in FIELDS if _non_finite(_hint(*param.values))]


def test_examples_cover_every_artifact_class():
    assert {type(example) for example in EXAMPLES} == set(_subclasses(JsonArtifact))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda e: type(e).__name__)
def test_artifact_round_trips_through_json(example):
    assert type(example).from_dict(_json(example)) == example


@pytest.mark.parametrize("example, field", FIELDS)
def test_wrongly_typed_field_is_rejected_by_name(example, field):
    cls = type(example)
    payload = _json(example)
    payload[field.name] = _wrong_value(_hint(example, field))
    with pytest.raises(ValueError, match=re.escape(f"field {field.name!r} must be")):
        cls.from_dict(payload)


@pytest.mark.parametrize("example, field", INTEGER_FIELDS)
def test_integer_past_int64_is_rejected_by_name(example, field):
    cls = type(example)
    for value in _past_int64(_hint(example, field)):
        payload = _json(example)
        payload[field.name] = value
        with pytest.raises(ValueError, match=re.escape(f"field {field.name!r} must be")):
            cls.from_dict(payload)


@pytest.mark.parametrize("example, field", FLOAT_FIELDS)
def test_nan_and_infinity_are_rejected_by_name(example, field):
    cls = type(example)
    for value in _non_finite(_hint(example, field)):
        payload = _json(example)
        payload[field.name] = value
        with pytest.raises(ValueError, match=re.escape(f"field {field.name!r} must be")):
            cls.from_dict(payload)


@pytest.mark.parametrize("example, field", FIELDS)
def test_absent_field_is_required_by_name_or_takes_its_default(example, field):
    cls = type(example)
    payload = _json(example)
    del payload[field.name]
    if field.default is field.default_factory is dataclasses.MISSING:
        with pytest.raises(ValueError, match=re.escape(f"lacks field {field.name!r}")):
            cls.from_dict(payload)
    else:
        default = field.default
        if field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        assert getattr(cls.from_dict(payload), field.name) == default
