"""Spans and counts recorded around calls into the ratecast layers.

A :class:`Tracer` keeps every span in memory (name, start, end, parent span,
phase) and writes them out once the run ends. Spans come from two places:

* the benchmark's own calls into the public API (``with tr.span(...)``), and
* :func:`instrument`, which, for the duration of a ``with`` block, replaces
  the public functions one ratecast module imports from another by wrappers
  that open a span. This times the lag sweeps inside ``assemble_features``
  and the fits inside ``nested_cv`` from outside, without editing the
  package.

A span's layer is its name up to the first dot; layer names are the
package's module names.

Untraced runs use :data:`OFF`, whose span and count calls do nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

class Tracer:
    """In-memory span and count recorder; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        # [name, start, end, parent index or None, phase]
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.phase = "setup"
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.phase]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.phase][name] += value

    def dump(self, path: str) -> None:
        """Write the spans as JSON: times in seconds from the tracer's creation."""
        rows = [
            {
                "id": i,
                "name": name,
                "start": start - self.t0,
                "end": end - self.t0,
                "parent": parent,
                "phase": phase,
            }
            for i, (name, start, end, parent, phase) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")

    def phase_metrics(self) -> dict[str, Counter]:
        """Per phase: summed seconds per span name, per-layer self time and counts.

        A span's self time is its duration minus that of its direct children.
        ``tree.predict`` spans are split by caller: under ``models.fit`` they are
        the training-set predictions boosting makes every round
        (``tree.fit_predict_s``), elsewhere they score held-out rows
        (``tree.predict_s``).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            dur = end - start
            self_s = dur - child_time[i]
            metrics = out[phase]
            key = name
            if name == "tree.predict" and parent is not None and self.spans[parent][0] == "models.fit":
                key = "tree.fit_predict"
            metrics[f"{key}_s"] += dur
            metrics[f"{name.split('.', 1)[0]}.self_s"] += self_s
            if name == "features.assemble":
                metrics["features.assemble_self_s"] += self_s
            if name.startswith("lags.keyed."):
                metrics["lags.keyed_s"] += dur
            elif name.startswith("lags.concurrency."):
                metrics["lags.concurrency_s"] += dur
        for phase, counts in self.counts.items():
            out[phase].update(counts)
        return out


class _Off:
    """Stand-in for :class:`Tracer` in untraced runs."""

    enabled = False

    def span(self, name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass


OFF = _Off()


def combine_phases(per_phase: dict[str, Counter]) -> dict[str, float]:
    """One set-up plus the median pass plus the post-run probe.

    Phases are ``setup``, ``pass<k>`` and ``probe``. Each metric is taken as
    its set-up value, plus its median over the traced passes (a pass that did
    not record it counts as 0), plus its probe value.
    """
    passes = [c for phase, c in per_phase.items() if phase.startswith("pass")]
    names = set().union(*per_phase.values()) if per_phase else set()
    out: dict[str, float] = {}
    for name in names:
        value = per_phase.get("setup", Counter())[name] + per_phase.get("probe", Counter())[name]
        if passes:
            value += statistics.median(c[name] for c in passes)
        out[name] = float(value)
    return out


def _spanned(tr: Tracer, fn: Callable, name, after: Callable | None = None) -> Callable:
    """``fn`` inside a span; ``name`` is a string or is computed from the call."""

    def wrapper(*args, **kwargs):
        with tr.span(name if isinstance(name, str) else name(*args, **kwargs)):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _by_kind(prefix: str) -> Callable[..., str]:
    # assemble_features calls compute_keyed_lags(events, kind, orders) and
    # compute_concurrency(events, kind) positionally.
    return lambda events, kind, *rest: f"{prefix}.{kind.value}"


@contextlib.contextmanager
def instrument(tr: Tracer, on_fit: Callable | None = None) -> Iterator[None]:
    """Open spans at calls one ratecast module makes into another.

    ``on_fit(model, X)`` runs after every fit made through
    ``validation.fit_family``, so counts can be taken from models that
    ``nested_cv`` does not return. ``lags.parse_filename`` calls are counted
    (``filenames.calls``), not spanned: there are three per event. Attributes
    a later version of the package no longer has are left alone; their spans
    are then absent.
    """
    import ratecast.features
    import ratecast.lags
    import ratecast.models
    import ratecast.tree
    import ratecast.validation

    after_fit = None
    if on_fit is not None:
        after_fit = lambda model, family, X, *args, **kwargs: on_fit(model, X)  # noqa: E731

    def counted(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            tr.count("filenames.calls")
            return fn(*args, **kwargs)

        return wrapper

    patches = [
        (ratecast.features, "compute_keyed_lags", lambda fn: _spanned(tr, fn, _by_kind("lags.keyed"))),
        (ratecast.features, "compute_concurrency", lambda fn: _spanned(tr, fn, _by_kind("lags.concurrency"))),
        (ratecast.features, "compute_chunk_time_offset", lambda fn: _spanned(tr, fn, "lags.chunk_offset")),
        (ratecast.lags, "parse_filename", counted),
        (ratecast.models, "grow_tree", lambda fn: _spanned(tr, fn, "tree.grow")),
        (ratecast.tree.RegressionTree, "predict", lambda fn: _spanned(tr, fn, "tree.predict")),
        (ratecast.validation, "fit_family", lambda fn: _spanned(tr, fn, "models.fit", after_fit)),
        (ratecast.validation, "predict", lambda fn: _spanned(tr, fn, "models.predict")),
    ]
    saved = []
    try:
        for owner, attr, make in patches:
            if attr in vars(owner):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
