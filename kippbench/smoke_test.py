"""Smoke test of the benchmark itself, at tiny size.

    python3 kippbench/smoke_test.py        (or: python3 -m pytest kippbench/smoke_test.py)

Runs every workload for a fraction of a second with and without tracing
and checks that the result line carries exactly the metrics BENCHMARK.json
names, each with its unit; then runs the command line once end to end,
and once in a directory holding only BENCHMARK.json and kippbench/, where
it must fail without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_module():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run

    return run


def _check_line(line: dict, kind: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want, (kind, sorted(set(got) ^ set(want)))
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_every_metric_at_tiny_size():
    run = _run_module()
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                line, _ = run.run_benchmark(name, 7, 0.2, trace, tiny=True)
            _check_line(line, kind)
            if trace:
                # every per-layer metric saw calls, since the traced run covers all workloads
                calls = {k: v["value"] for k, v in line["metrics"].items() if k.endswith(".calls")}
                assert all(v > 0 for v in calls.values()), calls


def test_command_line_prints_result_last():
    done = subprocess.run(
        [sys.executable, "kippbench/run.py", "--workload", "planted", "--seed", "7", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    _check_line(json.loads(lines[-1]), "end_to_end")
    assert any(ln.startswith("# provenance ") for ln in lines)


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180, env=env,
        )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    for test in (test_every_metric_at_tiny_size, test_command_line_prints_result_last, test_fails_without_the_program):
        test()
        print(f"ok  {test.__name__}")
