"""Shared test fixtures: event factories, random event-log generators and
traced-memory probes."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from ratecast.events import EventLog, Stage, TransferEvent


def mk_event(
    id: int = 0,
    start: int = 0,
    stop: int | None = None,
    size: float = 1.0,
    rate: float = 100.0,
    instrument: str = "cxi",
    experiment: str = "cxi00001",
    target_host: str = "psana201",
    target_fs: str = "ffb21",
    source_fs: str = "dss-feh",
    node: str = "cxidss01",
    file_name: str = "e1-r1-s0-c0.xtc",
    stage: Stage = Stage.DSS_TO_FFB,
) -> TransferEvent:
    return TransferEvent(
        id=id,
        start_time=start,
        stop_time=stop if stop is not None else start + 10,
        file_size_gb=size,
        transfer_rate_mbs=rate,
        instrument=instrument,
        experiment=experiment,
        target_host=target_host,
        target_fs=target_fs,
        source_fs=source_fs,
        node=node,
        file_name=file_name,
        stage=stage,
    )


def random_events(
    rng: np.random.Generator,
    n: int,
    time_span: int = 5000,
    max_duration: int = 60,
    unparseable_fraction: float = 0.3,
) -> list[TransferEvent]:
    """Random valid events with deliberately small key cardinalities.

    Small attribute pools force key collisions, equal start times and
    zero-duration transfers, which is exactly what the sweep algorithms have
    to get right.
    """
    instruments = ["cxi", "xpp", "mec"]
    experiments = [f"exp{i}" for i in range(5)]
    source_fs = ["dss-neh", "dss-feh"]
    target_fs = ["ffb11", "ffb21"]
    hosts = [f"psana10{i}" for i in range(3)]
    nodes = [f"node{i}" for i in range(4)]
    events = []
    for i in range(n):
        start = int(rng.integers(0, time_span))
        stop = start + int(rng.integers(0, max_duration + 1))
        if rng.random() < unparseable_fraction:
            file_name = f"scratch-{i}.dat"
        else:
            file_name = (
                f"e{rng.integers(1, 4)}-r{rng.integers(1, 4)}"
                f"-s{rng.integers(0, 6)}-c{rng.integers(0, 3)}.xtc"
            )
        events.append(
            TransferEvent(
                id=i,
                start_time=start,
                stop_time=stop,
                file_size_gb=float(rng.uniform(0.01, 100.0)),
                transfer_rate_mbs=float(rng.uniform(1.0, 400.0)),
                instrument=str(rng.choice(instruments)),
                experiment=str(rng.choice(experiments)),
                target_host=str(rng.choice(hosts)),
                target_fs=str(rng.choice(target_fs)),
                source_fs=str(rng.choice(source_fs)),
                node=str(rng.choice(nodes)),
                file_name=file_name,
                stage=Stage.DSS_TO_FFB,
            )
        )
    return events


def random_log(rng: np.random.Generator, n: int, **kwargs) -> EventLog:
    """The log of :func:`random_events`' rows."""
    return EventLog.from_events(random_events(rng, n, **kwargs))


def traced_peak(call, *args):
    """(peak bytes traced while ``call(*args)`` ran, above the level it started
    at; its result). numpy reports its array buffers to tracemalloc."""
    peak, _, result = _traced(call, args)
    return peak, result


def traced_held(call, *args):
    """(bytes still traced once ``call(*args)`` has returned, above the level
    it started at: what its result holds; its result). A full collection
    first empties the interpreter's free lists, whose blocks the result does
    not hold."""
    _, held, result = _traced(call, args)
    return held, result


def _traced(call, args):
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
        gc.collect()
        return peak, tracemalloc.get_traced_memory()[0] - start, result
    finally:
        if not was_tracing:
            tracemalloc.stop()
