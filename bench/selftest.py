"""Self-test of the benchmark harness at a few hundred events.

    python3 bench/selftest.py

Runs one short untraced and one traced run of every workload in this
process and checks that each emits every metric of BENCHMARK.json with its
unit, that the human-readable lines name the end-to-end metrics, and that a
corrupted feature CSV round trip and a pass that raises are both counted as
failed passes. Exits 1 on the first set of problems found.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from unittest import mock

import run

EVENTS = 300
SECONDS = 0.2


def invoke(workload: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "5", "--seconds", str(SECONDS),
             "--trace", str(trace), "--events", str(EVENTS)]
        )
    lines = out.getvalue().strip().splitlines()
    if code != 0:
        raise SystemExit(f"selftest: {workload} trace {trace} exited with {code}")
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = run.load_spec()
    run.use_checkout()
    import numpy as np
    import ratecast

    problems: list[str] = []
    produced: dict[str, float] = {}
    for name in run.workload_names(spec):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = invoke(name, trace)
            where = f"{name} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {lines}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units {got} != {want}")
            for k, m in result["metrics"].items():
                produced[k] = max(produced.get(k, 0.0), abs(m["value"]))
            if trace == 0:
                text = "\n".join(lines[:-1])
                for label in ("setup_s", "run_s", "peak_rss_mb", "rmse_mbs", "failed_ops"):
                    if label not in text:
                        problems.append(f"{where}: human output lacks {label}")
    # Synthetic logs pass cleaning untouched and every file name parses.
    zero_by_construction = {"events.rows_dropped", "filenames.unparsed"}
    never = sorted(k for k, v in produced.items() if v == 0 and k not in zero_by_construction)
    if never:
        problems.append(f"metrics zero on every workload: {never}")

    real_read = ratecast.read_feature_csv

    def corrupted_read(source):
        X, names, ids, targets = real_read(source)
        X[0, 0] = np.nextafter(X[0, 0], np.inf)
        return X, names, ids, targets

    with mock.patch.object(ratecast, "read_feature_csv", corrupted_read):
        _, result = invoke("features_full", 0)
    if result["failed"] != result["attempted"] or result["correct"]:
        problems.append(f"corrupted CSV round trip not counted as failed: {result}")

    def raising_fit(*args, **kwargs):
        raise RuntimeError("deliberate failure")

    with mock.patch.object(ratecast, "fit_gbt", raising_fit), contextlib.redirect_stderr(io.StringIO()):
        _, result = invoke("model_fits", 0)
    if result["failed"] != result["attempted"] or result["correct"]:
        problems.append(f"raising pass not counted as failed: {result}")

    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
