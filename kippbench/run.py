"""kippcurve benchmark: one seeded workload, closed loop, one client, one BLAS thread.

    python3 kippbench/run.py --workload {campaign,planted,highdim}
        [--seed N|default|holdout] [--seconds S] [--trace 0|1]

Run from the repository root.  --trace 0 measures the end-to-end metrics
with tracing off.  --trace 1 measures the named workload untraced and
traced for a quarter of the time each (the ratio is the tracing
overhead), then traces the other two workloads for a quarter each, so
every per-layer metric comes from spans over all three workloads.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics; a fuller record with provenance (and, traced, every
span) goes to kippbench/out/.  See kippbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 2108
HOLDOUT_SEED = 4459  # not to be used while a change is written; claims must also hold here
SETUP_REPS = 7
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# the probe runs in a fresh interpreter, so its clock covers the import
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import kippcurve, workloads
from pathlib import Path
workloads.WORKLOADS[{name!r}]({seed!r}, Path({scratch!r})).first_call()
print(time.perf_counter() - t0)
"""


def parse_seed(text: str) -> int:
    return {"default": DEFAULT_SEED, "holdout": HOLDOUT_SEED}.get(text) or int(text)


def setup_seconds(name: str, seed: int, scratch: Path, reps: int) -> float:
    """Median over reps fresh interpreters of import kippcurve plus its first call."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, scratch=str(scratch))
    times = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    """Closed-loop results over a pool: mean time and verdict per input, misses by cause."""

    def __init__(self):
        self.mean_s: list[float] = []  # mean over the passes of each input
        self.units: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.units_run = 0
        self.busy_s = 0.0
        self.elapsed = 0.0
        self.causes: Counter = Counter()  # "group: cause" -> units missed
        self.broken: list[str] = []

    def add(self, other: "Tally") -> None:
        for name, value in vars(other).items():
            if name == "causes":
                self.causes.update(value)
            else:
                setattr(self, name, getattr(self, name) + value)

    def latency_ms(self) -> list[float]:
        return [1e3 * t / u for t, u in zip(self.mean_s, self.units)]

    def throughput(self) -> float:
        return self.units_run / self.busy_s


def run_one(workload, inp, tracer) -> tuple[int, str | None, float, str | None]:
    """(units missed, cause, seconds, problem) for one input; problem makes the run not correct."""
    import kippcurve as kc
    from workloads import Broken, Miss

    units = workload.units(inp)
    missed, cause, problem = 0, None, None
    t0 = perf_counter()
    try:
        if tracer is None:
            missed = workload.run(inp)
        else:
            with tracer.span(f"bench.{workload.name}.item"):
                missed = workload.run(inp)
    except Miss as exc:
        missed, cause = units, exc.args[0]
    except kc.KippError as exc:
        missed, cause = units, type(exc).__name__
    except Broken as exc:
        missed, cause, problem = units, "Broken", str(exc)
    except Exception:
        missed, cause, problem = units, "unexpected", traceback.format_exc()
    return missed, cause, perf_counter() - t0, problem


def closed_loop(workload, seconds: float, tracer=None, whole_pass: bool = True) -> Tally:
    """Run the workload's pool in passes, each input only after the previous one finished.

    Passes repeat until seconds have gone by, and the first completes
    unless whole_pass is off.  Each input's latency is its mean over the
    passes, so it spreads over the run like the throughput does instead
    of landing in one slow or fast spell of a shared machine.  Each input
    must give the same verdict on every pass.
    """
    pool = workload.pool()
    spent = [0.0] * len(pool)
    count = [0] * len(pool)
    verdicts: list = [None] * len(pool)
    tally = Tally()
    start = perf_counter()
    while tally.runs == 0 or perf_counter() - start < seconds:
        for i, inp in enumerate(pool):
            if tally.runs >= (len(pool) if whole_pass else 1) and perf_counter() - start >= seconds:
                break
            missed, cause, secs, problem = run_one(workload, inp, tracer)
            tally.runs += 1
            tally.units_run += workload.units(inp)
            tally.busy_s += secs
            spent[i] += secs
            count[i] += 1
            if problem is not None:
                tally.broken.append(problem)
            if verdicts[i] is None:
                verdicts[i] = (missed, cause)
            elif verdicts[i] != (missed, cause):
                tally.broken.append(f"{workload.name} input {i}: verdict {verdicts[i]} became {(missed, cause)}")
    tally.elapsed = perf_counter() - start
    for inp, secs, runs, verdict in zip(pool, spent, count, verdicts):
        if verdict is None:
            continue  # not reached before time ran out
        missed, cause = verdict
        tally.mean_s.append(secs / runs)
        tally.units.append(workload.units(inp))
        tally.attempted += tally.units[-1]
        tally.failed += missed
        if missed:
            tally.causes[f"{workload.group(inp)}: {cause or 'trial verdict'}"] += missed
    return tally


def tail(latency_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with TAIL_BEYOND samples beyond it."""
    import numpy as np

    n = len(latency_ms)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p, float(np.percentile(latency_ms, p))
    return 100.0, max(latency_ms)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "loop": "closed, one client",
    }


def end_to_end(name: str, tally: Tally, setup_s: float) -> dict:
    import numpy as np

    latency = tally.latency_ms()
    p, tail_ms = tail(latency)
    unit = "trial" if name == "campaign" else "item"
    print(f"# {name}: {len(latency)} inputs, {tally.attempted} {unit}s, {tally.runs} runs "
          f"({tally.runs / len(latency):.2f} passes) in {tally.elapsed:.2f} s; "
          f"latency is each input's mean over its passes; item_ms_tail is p{p:g} of {len(latency)} samples")
    print(f"# fail_ratio = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for cause, count in sorted(tally.causes.items()):
        print(f"#   missed {count:6d}  {cause}")
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (tally.throughput(), "1/s"),
        "item_ms_p50": (float(np.median(latency)), "ms"),
        "item_ms_tail": (tail_ms, "ms"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False):
    """Run one workload and return (result line dict, full record dict).

    tiny shrinks the pools and the set-up probes for the smoke test.
    """
    import workloads
    from tracing import Tracer, instrumented, layer_metrics, self_times

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="scratch-") as tmp:
        scratch = Path(tmp)

        def make(wname):
            return workloads.WORKLOADS[wname](seed, scratch, tiny)

        record: dict = {"workload": name, "trace": int(trace), "provenance": provenance(seed)}
        total = Tally()
        if not trace:
            setup_s = setup_seconds(name, seed, scratch, 1 if tiny else SETUP_REPS)
            w = make(name)
            w.first_call()
            total = closed_loop(w, seconds)
            metrics = end_to_end(name, total, setup_s)
            if name == "campaign":
                for cfg_seed, digest in w.digests.items():
                    print(f"# records.jsonl sha256 seed={cfg_seed} {digest}")
                record["records_sha256"] = w.digests
        else:
            tracer = Tracer()
            w = make(name)
            w.first_call()
            plain = closed_loop(w, seconds / 4, whole_pass=False)
            tracer.workload = name
            with instrumented(tracer):
                traced = closed_loop(w, seconds / 4, tracer, whole_pass=False)
            for tally in (plain, traced):
                total.add(tally)
            for other in workloads.WORKLOADS:
                if other == name:
                    continue
                o = make(other)
                o.first_call()
                tracer.workload = other
                with instrumented(tracer):
                    total.add(closed_loop(o, seconds / 4, tracer, whole_pass=False))
            ratio = traced.throughput() / plain.throughput()
            print(f"# tracing overhead on {name}: traced/untraced throughput = "
                  f"{traced.throughput():.3f}/{plain.throughput():.3f} = {ratio:.4f}")
            metrics = layer_metrics(tracer.spans)
            metrics["trace.throughput_ratio"] = (ratio, "ratio")
            print(f"# {'span':40s} {'calls':>7s} {'incl ms':>10s} {'self ms':>10s}")
            for sname, (calls, incl, own) in sorted(self_times(tracer.spans).items()):
                print(f"# {sname:40s} {calls:7d} {1e3 * incl:10.1f} {1e3 * own:10.1f}")
            record["spans"] = tracer.as_records()
        record["missed"] = dict(total.causes)

    correct = not total.broken
    for msg in total.broken[:5]:
        print(f"# NOT CORRECT: {msg}", file=sys.stderr)
    line = {
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(line)
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("campaign", "planted", "highdim"))
    ap.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import kippcurve
    except ImportError as exc:
        print(f"kippcurve is not importable from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(kippcurve.__file__).resolve().parents:
        print(f"kippcurve was imported from {kippcurve.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    line, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str) + "\n")
    print(f"# full record: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
