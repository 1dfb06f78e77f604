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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .events import KNOWN_INSTRUMENTS, Stage, TransferEvent

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
    """Workload shape, hidden-state dynamics and corruption injection."""

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


@dataclass
class _Skeleton:
    start_time: int
    delay_s: int
    file_size_gb: float
    instrument: str
    experiment: str
    target_host: str
    target_fs: str
    source_fs: str
    node: str
    file_name: str


class _InstrumentLine:
    """Per-instrument generation state: its clock and experiment/run counters."""

    def __init__(self, name: str, config: SynthConfig, rng: np.random.Generator):
        self.name = name
        self.config = config
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
        self, rng: np.random.Generator, exp_base: Iterator[int]
    ) -> list[_Skeleton]:
        cfg = self.config
        self._next_run(rng, exp_base)
        source_fs, target_fs, host_pool = _topology(self.name, cfg.stage)
        n_streams = int(rng.integers(cfg.streams_min, cfg.streams_max + 1))
        n_chunks = int(rng.integers(_CHUNKS_PER_RUN[0], _CHUNKS_PER_RUN[1] + 1))
        hosts = [host_pool[int(rng.integers(len(host_pool)))] for _ in range(n_streams)]
        experiment = f"{self.name}{self.exp_num:05d}"
        out: list[_Skeleton] = []
        for chunk in range(n_chunks):
            chunk_start = self.clock
            final_chunk = chunk == n_chunks - 1
            if final_chunk:
                base_size = cfg.chunk_cap_gb * float(rng.uniform(0.003, 1.0))
            else:
                base_size = cfg.chunk_cap_gb * float(rng.uniform(0.97, 1.0))
            for stream in range(n_streams):
                delay = 0
                if stream > 0 and rng.random() < cfg.delayed_stream_prob:
                    if rng.random() < cfg.major_delay_fraction:
                        delay = int(rng.integers(cfg.major_delay_s[0], cfg.major_delay_s[1] + 1))
                    else:
                        delay = int(rng.integers(cfg.minor_delay_s[0], cfg.minor_delay_s[1] + 1))
                size = min(base_size * float(1.0 + rng.uniform(-0.001, 0.001)), cfg.chunk_cap_gb)
                out.append(
                    _Skeleton(
                        start_time=chunk_start + delay,
                        delay_s=delay,
                        file_size_gb=max(size, 0.001),
                        instrument=self.name,
                        experiment=experiment,
                        target_host=hosts[stream],
                        target_fs=target_fs,
                        source_fs=source_fs,
                        node=f"{self.name}dss{stream + 1:02d}",
                        file_name=(
                            f"e{self.exp_num}-r{self.run_num:04d}"
                            f"-s{stream:02d}-c{chunk:02d}.xtc"
                        ),
                    )
                )
            self.clock += int(rng.integers(_CHUNK_GAP_S[0], _CHUNK_GAP_S[1] + 1))
        self.clock += int(rng.integers(_RUN_GAP_S[0], _RUN_GAP_S[1] + 1))
        return out


class _ResourceStates:
    """Stationary AR(1) log-factors per resource, stepped at touch time."""

    def __init__(self, rho: float, sigma: float, rng: np.random.Generator):
        self.rho = rho
        self.sigma = sigma
        self.rng = rng
        self.state: dict[str, tuple[float, int]] = {}

    def touch(self, resource: str, now: int) -> float:
        sigma = self.sigma * _STATE_SIGMA_WEIGHTS[resource.split(":", 1)[0]]
        prior = self.state.get(resource)
        if sigma == 0.0:
            self.state[resource] = (0.0, now)
            return 1.0
        if prior is None:
            log_factor = float(self.rng.normal(0.0, sigma))
        else:
            log_prev, last = prior
            steps = max(1, 1 + (now - last) // _STATE_STEP_S)
            decay = self.rho**steps
            # AR(1) bridged over `steps`: keeps the stationary variance fixed,
            # so long-idle resources come back essentially resampled.
            innovation_std = sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
            log_factor = decay * log_prev + float(self.rng.normal(0.0, innovation_std))
        self.state[resource] = (log_factor, now)
        return math.exp(log_factor)


def _saturating_rate(size_gb: float, base_rate: float) -> float:
    return base_rate * size_gb / (size_gb + _SIZE_HALF_GB)


def generate_workload(
    config: SynthConfig,
) -> tuple[list[TransferEvent], dict[str, np.ndarray]]:
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

    skeletons: list[_Skeleton] = []
    while len(skeletons) < config.n_events:
        for line in lines:
            skeletons.extend(line.generate_run(rng, exp_base))
    skeletons.sort(key=lambda s: (s.start_time, s.file_name))
    skeletons = skeletons[: config.n_events]

    states = _ResourceStates(config.ar_rho, config.state_sigma, rng)
    records: list[tuple[_Skeleton, int, float, tuple[float, float, float]]] = []
    for sk in skeletons:
        f_src = states.touch(f"src:{sk.source_fs}", sk.start_time)
        f_host = states.touch(f"host:{sk.target_host}", sk.start_time)
        f_node = states.touch(f"node:{sk.node}", sk.start_time)
        delay_factor = 1.0 + config.delay_boost * (1.0 - math.exp(-sk.delay_s / 1800.0))
        rate = (
            _saturating_rate(sk.file_size_gb, config.base_rate_mbs)
            * f_src
            * f_host
            * f_node
            * delay_factor
        )
        if config.noise_mbs > 0:
            rate += float(rng.normal(0.0, config.noise_mbs))
        rate = float(np.clip(rate, _RATE_FLOOR_MBS, config.rate_cap_mbs))
        duration = max(1, int(round(sk.file_size_gb * 1000.0 / rate)))
        records.append((sk, sk.start_time + duration, rate, (f_src, f_host, f_node)))

    if config.inject_oversize or config.inject_zero:
        records.extend(_corrupt_records(config, rng, records))
    # ids are assigned in canonical (start, stop) order once durations are known
    records.sort(key=lambda r: (r[0].start_time, r[1], r[0].file_name))

    events: list[TransferEvent] = []
    hidden = {
        "source_fs": np.empty(len(records)),
        "target_host": np.empty(len(records)),
        "node": np.empty(len(records)),
    }
    for idx, (sk, stop, rate, factors) in enumerate(records):
        events.append(
            TransferEvent(
                id=idx,
                start_time=sk.start_time,
                stop_time=stop,
                file_size_gb=sk.file_size_gb,
                transfer_rate_mbs=rate,
                instrument=sk.instrument,
                experiment=sk.experiment,
                target_host=sk.target_host,
                target_fs=sk.target_fs,
                source_fs=sk.source_fs,
                node=sk.node,
                file_name=sk.file_name,
                stage=config.stage,
            )
        )
        hidden["source_fs"][idx] = factors[0]
        hidden["target_host"][idx] = factors[1]
        hidden["node"][idx] = factors[2]
    return events, hidden


def _corrupt_records(
    config: SynthConfig,
    rng: np.random.Generator,
    records: list[tuple[_Skeleton, int, float, tuple[float, float, float]]],
) -> list[tuple[_Skeleton, int, float, tuple[float, float, float]]]:
    """Oversize and zero-valued records for cleaning-rule exercises."""
    if records:
        t_lo = records[0][0].start_time
        t_hi = max(r[0].start_time for r in records)
    else:
        t_lo = config.start_epoch
        t_hi = config.start_epoch + 86400
    nan_factors = (math.nan, math.nan, math.nan)
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
        sk = _Skeleton(
            start_time=start,
            delay_s=0,
            file_size_gb=size,
            instrument="bad",
            experiment="bad00000",
            target_host="badhost",
            target_fs="badfs",
            source_fs="badfs",
            node="badnode",
            file_name=f"e0-r0-s0-c{i}.bad",
        )
        out.append((sk, start + int(rng.integers(1, 600)), rate, nan_factors))
    return out
