"""Closed-loop benchmark of the ratecast pipeline.

One process sets a workload up, then runs its passes back to back for
``--seconds`` seconds, with no threads and no worker processes. Layers are
timed from outside, around calls into the package's public functions.

    python3 bench/run.py --workload features_full --seed 20250808 --seconds 10 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` sets the workload up three times, with passes after each
set-up, and reports the end-to-end metrics. ``--trace 1`` sets it up once with
tracing on, alternates untraced and traced passes, and reports the per-layer
metrics plus the tracing overhead (median traced pass minus median untraced
pass). Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A record with the
output hashes, versions and checks goes to ``bench/results/``, and a traced
run also writes its spans there.

``--workload all`` runs every workload in turn, each in its own process so
that peak memory is per workload, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 3


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def use_checkout() -> None:
    """Import ratecast from this checkout's ``src`` and the oracles from ``tests``."""
    # One thread: BLAS helper threads would compete with the caller for the
    # few cores of the machine.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = ROOT / "src"
    for path in (ROOT / "tests", src):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import ratecast
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ratecast from {src}: {exc}") from None
    if not Path(ratecast.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: ratecast was imported from {ratecast.__file__}, not {src}")


def percentile_line(samples: list[float]) -> str:
    """The highest listed percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    qs = [q for q in (50, 75, 90, 95, 99, 99.9) if n - math.ceil(q / 100 * n) >= 10]
    if not qs:
        return f"no percentile has ten samples beyond it (n={n})"
    value = sorted(samples)[math.ceil(qs[-1] / 100 * n) - 1]
    return f"p{qs[-1]:g} {value:.4f} s (n={n})"


def format_rmse(qualities: dict[str, list[float]], digits: int) -> str:
    """``holdout 88.04, cv_best 78.60``; more than one value per name if passes differ."""
    cells = [f"{k} {' '.join(f'{q:.{digits}f}' for q in v)}" for k, v in qualities.items()]
    return ", ".join(cells) or "n/a"


def timed_pass(wl, state: dict, tr, label: str) -> tuple[dict, dict | None]:
    """One pass, timed, then its checks; returns its record and its outputs.

    A pass that raises, or whose checks find a problem, counts as failed; a
    pass that raises has no outputs.
    """
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = wl.run_pass(state, tr)
    except Exception as exc:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return {"wall_s": wall, "label": label, "problems": [f"raised {exc!r}"]}, None
    wall = time.perf_counter() - t0
    try:
        problems = wl.check(state, out)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems = [f"check raised {exc!r}"]
    record = {
        "wall_s": wall,
        "label": label,
        "problems": problems,
        "identity": wl.identity(out),
        "quality": wl.quality(out),
    }
    return record, out


def layer_metrics(tr, passes: list[dict]) -> dict[str, float]:
    """Per-layer values of a traced run, plus the tracing overhead on ``run_s``."""
    layer = tracing.combine_phases(tr.phase_metrics())
    base = statistics.median(p["wall_s"] for p in passes if p["label"] == "untraced")
    traced = statistics.median(p["wall_s"] for p in passes if p["label"] == "traced")
    layer["trace.overhead_s"] = traced - base
    layer["trace.overhead_share"] = layer["trace.overhead_s"] / base
    if layer.get("models.trees"):
        layer["models.fit_s_per_tree"] = layer.get("models.fit_s", 0.0) / layer["models.trees"]
    if layer.get("validation.fits"):
        layer["validation.s_per_fit"] = layer.get("validation.nested_cv_s", 0.0) / layer["validation.fits"]
    return layer


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args, spec: dict) -> int:
    use_checkout()
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload](n_events=args.events)
    tr = tracing.Tracer() if args.trace else tracing.OFF

    # Set-ups and passes alternate: after set-up k, passes run until k/3 of
    # --seconds has been measured, so that run_s samples spread over the whole
    # run instead of one stretch of it: on shared machines, speed drifts over
    # tens of seconds.
    # A traced run sets up once and alternates untraced and traced passes, so
    # that the overhead estimate sees the same drift.
    repeats = 1 if args.trace else SETUP_REPEATS
    budget = args.seconds
    on_fit = lambda model, X: workloads.record_model(tr, model, X.shape[1])  # noqa: E731
    setup_times, passes = [], []
    measured = 0.0
    # Only the last pass's outputs are kept, for the prefix check; earlier
    # ones are dropped before the next pass, so that peak_rss_mb does not
    # depend on how many passes a run makes.
    state = out = None
    for k in range(1, repeats + 1):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        with tracing.instrument(tr) if args.trace else contextlib.nullcontext():
            state = wl.setup(args.seed, tr)
        setup_times.append(time.perf_counter() - t0)
        while not passes or measured < budget * k / repeats or (args.trace and len(passes) < 2):
            out = None
            if args.trace and len(passes) % 2:
                tr.phase = f"pass{len(passes) // 2}"
                with tracing.instrument(tr, on_fit=on_fit):
                    record, out = timed_pass(wl, state, tr, "traced")
            else:
                record, out = timed_pass(wl, state, tracing.OFF, "untraced" if args.trace else "timed")
            passes.append(record)
            measured += record["wall_s"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    prefix_problems = ["the last pass failed, so the prefix check did not run"]
    if out is not None:
        events, matrix = wl.prefix_inputs(state, out)
        try:
            prefix_problems = workloads.check_prefix(events, matrix, wl.groups)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            prefix_problems = [f"prefix check raised {exc!r}"]
        if args.trace:
            tr.phase = "probe"
            workloads.probe_filenames(events, tr)

    failed = sum(1 for p in passes if p["problems"])
    qualities: dict[str, list[float]] = {}
    for p in passes:
        for key, value in p.get("quality", {}).items():
            if value not in qualities.setdefault(key, []):
                qualities[key].append(value)
    hashes: dict[str, list[str]] = {}
    for p in passes:
        for key, digest in p.get("identity", {}).items():
            if digest not in hashes.setdefault(key, []):
                hashes[key].append(digest)

    print(f"workload {wl.name}  seed {args.seed}  events {args.events}  trace {args.trace}")
    if args.trace:
        layer = layer_metrics(tr, passes)
        metrics = {m["name"]: _metric(layer.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
        lags_s = sum(layer.get(k, 0.0) for k in ("lags.keyed_s", "lags.concurrency_s", "lags.chunk_offset_s"))
        print(
            f"  assembly accounting: assemble_self_s + lags = "
            f"{layer.get('features.assemble_self_s', 0.0) + lags_s:.4f} s, "
            f"assemble_s = {layer.get('features.assemble_s', 0.0):.4f} s"
        )
    else:
        walls = [p["wall_s"] for p in passes]
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "run_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        print(f"  setup_s      {metrics['setup_s']['value']:10.4f} s   median of {len(setup_times)} set-ups")
        print(f"  run_s        {metrics['run_s']['value']:10.4f} s   median of {len(walls)} passes; {percentile_line(walls)}")
        print(f"  peak_rss_mb  {peak_rss_mb:10.1f} MB")
    print(f"  rmse_mbs     {format_rmse(qualities, 6)} MB/s")
    print(f"  failed_ops   {failed}/{len(passes)} = {failed / len(passes):.3f}")
    for p in passes:
        for problem in p["problems"]:
            print(f"  FAILED pass: {problem}")
    for problem in prefix_problems:
        print(f"  FAILED prefix check: {problem}")
    for key, digests in hashes.items():
        note = "" if len(digests) == 1 else "  (differs between passes)"
        print(f"  {key} {' '.join(digests)}{note}")

    record = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "params": wl.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()},
        "setup_times_s": setup_times,
        "passes": passes,
        "rmse_mbs": qualities,
        "failed_ops": failed / len(passes),
        "prefix_problems": prefix_problems,
        "identity": hashes,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if args.trace:
        tr.dump(f"{stem}-spans.json")

    result = {
        "correct": failed == 0 and not prefix_problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another; then one table."""
    results = {}
    for name in workload_names(spec):
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--events", str(args.events),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    suffix = "-trace" if args.trace else ""
    for name, res in results.items():
        with open(RESULTS / f"{name}-seed{args.seed}{suffix}.json", encoding="utf-8") as fh:
            rmse = format_rmse(json.load(fh)["rmse_mbs"], 4)
        cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name:14s} {cells}  rmse_mbs {rmse} MB/s  failed_ops {res['failed']}/{res['attempted']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def parse_args(spec: dict, argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*workload_names(spec), "all"), default="all")
    p.add_argument("--seed", type=int, default=20250808)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--events", type=int, default=50_000,
        help="log size; the acceptance size is 50000, the self-test uses a few hundred",
    )
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if args.events < 100:
        raise SystemExit("bench: --events must be at least 100")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
