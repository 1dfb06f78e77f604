"""Seeded generator of realistic transfer logs with hidden resource states.

The generated workload mimics a detector facility: each instrument runs
experiments made of runs; a run writes 5-6 parallel streams; every stream
emits one file per chunk, capped at a configurable size, and all streams of
a chunk normally start together. A fraction of streams start late, by
minutes or by hours.

Ground truth for the transfer rate is

    rate = g(file_size) * state(source_fs) * state(target_host) * state(node)
           * delay_factor + noise

where g saturates (small files pay per-file overhead, large files approach
the base rate), each resource carries a multiplicative throughput factor
that evolves as a stationary AR(1) process stepped at the events touching
it, and delayed streams run with less contention. Because the states are
autocorrelated, the rate of the most recently finished transfer on a shared
resource is informative about the current one; that is what lag features are
meant to pick up. Rates are clipped to a hardware-style cap.

Long gaps decorrelate a resource: the AR step count grows with the elapsed
time since the resource was last touched, so an hours-late stream sees an
essentially resampled state while a minutes-late one sees a mild
perturbation.

One generator, seeded with ``SynthConfig.seed``, takes every draw, in a fixed
order. Each instrument first draws its start clock. Runs then come
instrument by instrument, each with scalar draws: run, stream and chunk
counts and stream hosts; per chunk a fill fraction; per stream a delay
decision (and its length) and a size jitter; then the gaps. Integer draws
share PCG64's buffered 32-bit halves, so these stay one call each. Once the
skeletons are sorted and cut to ``n_events``, every draw left for real
events is a standard normal, taken as one block of ``n_events`` rows: the
source_fs, target_host and node innovations when ``state_sigma > 0``, then
the noise when ``noise_mbs > 0``. Injected corrupt records draw last. A seed
gives the same log bytes and hidden arrays as the per-event generator this
layout replaced; tests/test_synth.py pins their SHA-256.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from operator import itemgetter
from typing import Iterator

import numpy as np

from .events import KNOWN_INSTRUMENTS, EventLog, Stage

_NEH_INSTRUMENTS = ("amo", "sxr", "xpp")
_NEH_FFB_HOSTS = ("psana102", "psana103")
_FEH_FFB_HOSTS = ("psana201", "psana202", "psana203")
_ANA_EXTRA_HOSTS = tuple(f"psexport{i:02d}" for i in (1, 2, 5, 6, 7, 8))

_CHUNKS_PER_RUN = (2, 8)
_RUNS_PER_EXPERIMENT = (2, 4)
_CHUNK_GAP_S = (90, 600)
_RUN_GAP_S = (600, 10800)
_SIZE_HALF_GB = 5.0  # file size at which g() reaches half the base rate
_STATE_STEP_S = 600  # one AR step per this much idle time on a resource
_RATE_FLOOR_MBS = 0.5
# shared file systems swing harder than individual hosts/nodes
_STATE_SIGMA_WEIGHTS = {"src": 1.2, "host": 0.95, "node": 0.95}


@dataclass(frozen=True)
class SynthConfig:
    """Workload shape, hidden-state dynamics and corruption injection.

    Every float field must be finite, and ``state_sigma`` at most 10, so that
    no resource factor overflows; an error names the field.
    """

    n_events: int = 10000
    n_instruments: int = 7
    experiments_per_instrument: int = 4
    streams_min: int = 5
    streams_max: int = 6
    chunk_cap_gb: float = 100.0
    ar_rho: float = 0.95
    state_sigma: float = 0.25  # stationary std of each resource's log factor
    noise_mbs: float = 4.0
    base_rate_mbs: float = 300.0
    rate_cap_mbs: float = 400.0
    delayed_stream_prob: float = 0.08
    minor_delay_s: tuple[int, int] = (30, 600)
    major_delay_s: tuple[int, int] = (3600, 14400)
    major_delay_fraction: float = 0.3
    delay_boost: float = 0.3
    stage: Stage = Stage.DSS_TO_FFB
    start_epoch: int = 1_500_000_000
    inject_oversize: int = 0
    inject_zero: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        # A log factor is normal with std state_sigma times its weight (at most
        # 1.2), so up to 10 exp() overflows only on a draw past 59 std devs.
        if self.state_sigma > 10:
            raise ValueError(f"state_sigma must be at most 10, got {self.state_sigma}")
        if self.n_events < 0:
            raise ValueError("n_events must be non-negative")
        if self.n_instruments < 1:
            raise ValueError("n_instruments must be positive")
        if self.experiments_per_instrument < 1:
            raise ValueError("experiments_per_instrument must be positive")
        if not 1 <= self.streams_min <= self.streams_max:
            raise ValueError("need 1 <= streams_min <= streams_max")
        if self.chunk_cap_gb <= 0:
            raise ValueError("chunk_cap_gb must be positive")
        if not 0 <= self.ar_rho < 1:
            raise ValueError("ar_rho must be in [0, 1)")
        if self.state_sigma < 0 or self.noise_mbs < 0:
            raise ValueError("noise scales must be non-negative")
        if self.base_rate_mbs <= 0 or self.rate_cap_mbs <= 0:
            raise ValueError("rates must be positive")
        for prob in (self.delayed_stream_prob, self.major_delay_fraction):
            if not 0 <= prob <= 1:
                raise ValueError("probabilities must be in [0, 1]")
        if self.delay_boost < 0:
            raise ValueError("delay_boost must be non-negative")
        if self.inject_oversize < 0 or self.inject_zero < 0:
            raise ValueError("injection counts must be non-negative")

    def to_dict(self) -> dict:
        """JSON-ready fields: the stage as its value, tuples as lists."""
        return {
            name: value.value if isinstance(value, Stage)
            else list(value) if isinstance(value, tuple)
            else value
            for name, value in asdict(self).items()
        }


def _instrument_names(n: int) -> list[str]:
    names = list(KNOWN_INSTRUMENTS[:n])
    names.extend(f"ins{i:02d}" for i in range(len(names), n))
    return names


def _topology(instrument: str, stage: Stage) -> tuple[str, str, tuple[str, ...]]:
    """(source_fs, target_fs, target-host pool) for one instrument."""
    near_hall = instrument in _NEH_INSTRUMENTS or (
        instrument.startswith("ins") and int(instrument[3:]) % 2 == 0
    )
    ffb = "ffb11" if near_hall else "ffb21"
    hall_hosts = _NEH_FFB_HOSTS if near_hall else _FEH_FFB_HOSTS
    if stage is Stage.DSS_TO_FFB:
        return ("dss-neh" if near_hall else "dss-feh"), ffb, hall_hosts
    return ffb, "ana", hall_hosts + _ANA_EXTRA_HOSTS


def _uniform(random, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` from one ``rng.random()``, as numpy computes it."""
    return lo + (hi - lo) * random()


# A skeleton is one transfer before its rate is known: (start_time, delay_s,
# file_size_gb, instrument, experiment, target_host, target_fs, source_fs,
# node, file_name).
_SKELETON_ORDER = itemgetter(0, 9)


class _InstrumentLine:
    """Per-instrument generation state: its clock and experiment/run counters."""

    def __init__(self, name: str, config: SynthConfig, rng: np.random.Generator):
        self.name = name
        self.config = config
        self.source_fs, self.target_fs, self.host_pool = _topology(name, config.stage)
        self.clock = config.start_epoch + int(rng.integers(0, 86400))
        self.runs_left = 0
        self.exp_num = 0
        self.run_num = 0

    def _next_run(self, rng: np.random.Generator, exp_base: Iterator[int]) -> None:
        if self.runs_left == 0:
            self.exp_num = next(exp_base)
            self.run_num = 0
            self.runs_left = int(rng.integers(_RUNS_PER_EXPERIMENT[0], _RUNS_PER_EXPERIMENT[1] + 1))
        self.run_num += 1
        self.runs_left -= 1

    def generate_run(
        self, rng: np.random.Generator, exp_base: Iterator[int], out: list[tuple]
    ) -> None:
        """Append one run's skeletons to ``out``."""
        cfg = self.config
        integers, random = rng.integers, rng.random
        self._next_run(rng, exp_base)
        n_streams = int(integers(cfg.streams_min, cfg.streams_max + 1))
        n_chunks = int(integers(_CHUNKS_PER_RUN[0], _CHUNKS_PER_RUN[1] + 1))
        hosts = [self.host_pool[int(integers(len(self.host_pool)))] for _ in range(n_streams)]
        nodes = [f"{self.name}dss{stream + 1:02d}" for stream in range(n_streams)]
        experiment = f"{self.name}{self.exp_num:05d}"
        run_prefix = f"e{self.exp_num}-r{self.run_num:04d}"
        cap = cfg.chunk_cap_gb
        for chunk in range(n_chunks):
            chunk_start = self.clock
            # the final chunk is partly filled, the others nearly to the cap
            fill = (0.003, 1.0) if chunk == n_chunks - 1 else (0.97, 1.0)
            base_size = cap * _uniform(random, *fill)
            for stream in range(n_streams):
                delay = 0
                if stream > 0 and random() < cfg.delayed_stream_prob:
                    lo, hi = (
                        cfg.major_delay_s if random() < cfg.major_delay_fraction
                        else cfg.minor_delay_s
                    )
                    delay = int(integers(lo, hi + 1))
                size = min(base_size * (1.0 + _uniform(random, -0.001, 0.001)), cap)
                out.append((
                    chunk_start + delay, delay, max(size, 0.001), self.name, experiment,
                    hosts[stream], self.target_fs, self.source_fs, nodes[stream],
                    f"{run_prefix}-s{stream:02d}-c{chunk:02d}.xtc",
                ))
            self.clock += int(integers(_CHUNK_GAP_S[0], _CHUNK_GAP_S[1] + 1))
        self.clock += int(integers(_RUN_GAP_S[0], _RUN_GAP_S[1] + 1))


def _ar_factors(
    resources: tuple[str, ...], times: tuple[int, ...], sigma: float, rho: float,
    z: list[float],
) -> np.ndarray:
    """Per-event factor exp(x) of the resource each event touches.

    Each resource's log factor x is a stationary AR(1) with standard deviation
    ``sigma``, stepped at the (time-ordered) events that touch it, the k-th
    event drawing its innovation from the standard normal ``z[k]``.
    """
    states: dict[str, tuple[float, int]] = {}
    log_factors = []
    for resource, now, zk in zip(resources, times, z):
        prior = states.get(resource)
        if prior is None:
            x = sigma * zk
        else:
            x_prev, last = prior
            decay = rho ** (1 + (now - last) // _STATE_STEP_S)
            # AR(1) bridged over the idle steps (at least one, as times do not
            # decrease): keeps the stationary variance fixed, so long-idle
            # resources come back essentially resampled.
            x = decay * x_prev + sigma * math.sqrt(1.0 - decay * decay) * zk
        states[resource] = (x, now)
        log_factors.append(x)
    return np.array(list(map(math.exp, log_factors)), dtype=float)


def generate_workload(
    config: SynthConfig,
) -> tuple[EventLog, dict[str, np.ndarray]]:
    """Generate a cleaned-valid transfer log plus its hidden state trace.

    Returns events in canonical start order with dense ids, and a dict of
    per-event hidden multipliers ({"source_fs", "target_host", "node"};
    NaN rows mark injected corrupt records). Deterministic per seed; the
    output passes the cleaning rules with zero removals unless oversize/zero
    injection is requested.
    """
    rng = np.random.default_rng(config.seed)
    instruments = _instrument_names(config.n_instruments)
    lines = [_InstrumentLine(name, config, rng) for name in instruments]
    exp_base = iter(range(100, 10**9))

    skeletons: list[tuple] = []
    while len(skeletons) < config.n_events:
        for line in lines:
            line.generate_run(rng, exp_base, skeletons)
    skeletons.sort(key=_SKELETON_ORDER)
    del skeletons[config.n_events:]
    n = len(skeletons)
    columns = list(zip(*skeletons)) or [()] * 10
    del skeletons
    starts, delays, sizes, _, _, hosts, _, sources, nodes, _ = columns

    # Every remaining draw is a standard normal, taken as one block: per
    # event, the source_fs, target_host and node innovations when states
    # vary, then the noise. numpy's normal(0, s) is s * z.
    sigma, noise = config.state_sigma, config.noise_mbs
    z = rng.standard_normal((n, (3 if sigma > 0 else 0) + (1 if noise > 0 else 0)))
    if sigma > 0:
        factors = [
            _ar_factors(names, starts, sigma * _STATE_SIGMA_WEIGHTS[kind], config.ar_rho,
                        z[:, k].tolist())
            for k, (kind, names) in enumerate((("src", sources), ("host", hosts), ("node", nodes)))
        ]
    else:
        factors = [np.ones(n)] * 3
    # Array +, *, / and rint round exactly as the scalar ops they replace, in
    # the same order; exp and ** stay scalar, as numpy's SIMD versions need
    # not match them bit for bit.
    size = np.array(sizes, dtype=float)
    delay_factor = np.array(
        [1.0 + config.delay_boost * (1.0 - math.exp(-d / 1800.0)) for d in delays], dtype=float
    )
    # g(size) saturates: small files pay per-file overhead
    rate = config.base_rate_mbs * size / (size + _SIZE_HALF_GB)
    rate = rate * factors[0] * factors[1] * factors[2] * delay_factor
    if noise > 0:
        rate += noise * z[:, -1]
    rate = np.minimum(np.maximum(rate, _RATE_FLOOR_MBS), config.rate_cap_mbs)
    duration = np.maximum(1, np.rint(size * 1000.0 / rate)).astype(np.int64)
    start = np.array(starts, dtype=np.int64)
    # A record's fields: TransferEvent's after the id, then the three hidden factors.
    records = [start, start + duration, size, rate,
               *(np.array(column, dtype=object) for column in columns[3:]), *factors]
    del columns, starts, delays, sizes, hosts, sources, nodes

    if config.inject_oversize or config.inject_zero:
        corrupt = zip(*_corrupt_records(config, rng, start))
        records = [np.concatenate([f, np.array(extra, dtype=f.dtype)])
                   for f, extra in zip(records, corrupt)]
    # ids are assigned in canonical (start, stop, file name) order once
    # durations are known
    _, name_ranks = np.unique(records[10], return_inverse=True)
    order = np.lexsort((name_ranks, records[1], records[0]))
    records = [field[order] for field in records]

    n = len(order)
    events = EventLog._from_columns(np.arange(n), *records[:11], [config.stage] * n)
    hidden = dict(zip(("source_fs", "target_host", "node"), records[11:]))
    return events, hidden


def _corrupt_records(config: SynthConfig, rng: np.random.Generator, starts) -> list[tuple]:
    """Oversize and zero-valued records for cleaning-rule exercises, drawn
    between the first and last of the real ``starts``, in start order."""
    if len(starts):
        t_lo, t_hi = int(starts[0]), int(starts[-1])
    else:
        t_lo = config.start_epoch
        t_hi = config.start_epoch + 86400
    out = []
    for i in range(config.inject_oversize + config.inject_zero):
        oversize = i < config.inject_oversize
        start = int(rng.integers(t_lo, t_hi + 1))
        if oversize:
            size = float(rng.uniform(1001.0, 1500.0))
            rate = float(rng.uniform(50.0, 300.0))
        elif rng.random() < 0.5:
            size = 0.0
            rate = float(rng.uniform(50.0, 300.0))
        else:
            size = float(rng.uniform(0.1, 100.0))
            rate = 0.0
        stop = start + int(rng.integers(1, 600))
        out.append((
            start, stop, size, rate, "bad", "bad00000", "badhost", "badfs", "badfs",
            "badnode", f"e0-r0-s0-c{i}.bad", math.nan, math.nan, math.nan,
        ))
    return out
