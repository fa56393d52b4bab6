"""Spans around calls into kippcurve's public functions, and the per-layer metrics.

The traced run swaps each timed public function for a wrapper in every
kippcurve module namespace that binds it, so calls the package makes
internally (run_campaign calling fit_disc, classify_curve calling
kipp_poly_det) are timed as well as the benchmark's own calls.  No
program file changes.  Spans (name, start, end, parent) stay in memory
until the run writes them out; the originals are restored on exit.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions timed in the traced run
TIMED = {
    "generators": (
        "jordan_shift",
        "s5_family",
        "two_ellipse_block",
        "flat_3x3",
        "haar_unitary",
        "random_partial_isometry",
    ),
    "linalg": ("schur_triangularize",),
    "homopoly": ("substitute_linear", "max_coeff_diff"),
    "kippenhahn": ("kipp_poly_det", "kipp_poly_expanded", "boundary_polyline"),
    "classify": ("classify_curve", "fit_disc", "detect_flat", "matched_reports"),
    "harness": ("run_campaign",),
    "svgplot": ("render_svg",),
}

# span name -> per-call time metric (inclusive ms per call)
TIME_METRICS = {
    "classify.classify_curve": "classify.classify_curve_ms",
    "classify.fit_disc": "classify.fit_disc_ms",
    "classify.detect_flat": "classify.detect_flat_ms",
    "classify.matched_reports": "classify.reports_ms",
    "kippenhahn.kipp_poly_det": "kippenhahn.det_ms",
    "kippenhahn.kipp_poly_expanded": "kippenhahn.expanded_ms",
    "kippenhahn.boundary_polyline": "kippenhahn.boundary_ms",
    "homopoly.substitute_linear": "homopoly.substitute_ms",
    "homopoly.max_coeff_diff": "homopoly.diff_ms",
    "linalg.schur_triangularize": "linalg.schur_ms",
    "svgplot.render_svg": "svgplot.render_ms",
}

# campaign trial stages: direct children of a run_campaign span
TRIAL_STAGES = {
    "generate": tuple(f"generators.{f}" for f in TIMED["generators"]),
    "fit": ("classify.fit_disc",),
    "classify": ("classify.classify_curve",),
    "flat": ("classify.detect_flat",),
}


def _recognised(components) -> bool:
    return any(c.kind != "unclassified" for c in components)


def _campaign_output(result) -> tuple[int, int]:
    rdir, records, _ = result
    return len(records), sum(f.stat().st_size for f in rdir.iterdir())


# span name -> function of the return value whose result the span keeps
NOTES = {
    "classify.classify_curve": _recognised,
    "harness.run_campaign": _campaign_output,
}

NAME, START, END, PARENT, ITEM, OK, NOTE, WORKLOAD = range(8)


class Tracer:
    """In-memory spans: [name, start, end, parent, item, ok, note, workload].

    parent is the index of the enclosing span (-1 at top level) and item
    the index of the benchmark item span the call belongs to, so every
    span of one item shares that identifier.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.workload = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields the span's index."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        item = self.spans[parent][ITEM] if parent >= 0 else idx
        self.spans.append([name, perf_counter(), 0.0, parent, item, True, None, self.workload])
        self._stack.append(idx)
        try:
            yield idx
        except BaseException:
            self.spans[idx][OK] = False
            raise
        finally:
            self.spans[idx][END] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        def traced_call(*args, **kwargs):
            with self.span(name) as idx:
                out = fn(*args, **kwargs)
            if note is not None:
                self.spans[idx][NOTE] = note(out)
            return out

        traced_call.__wrapped__ = fn
        return traced_call

    def as_records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "item", "ok", "note", "workload")
        return [dict(zip(keys, s)) for s in self.spans]


@contextmanager
def instrumented(tracer: Tracer):
    """Route every binding of the timed functions through tracer while active."""
    modules = [m for name, m in sys.modules.items() if name == "kippcurve" or name.startswith("kippcurve.")]
    swapped = []
    try:
        for layer, names in TIMED.items():
            home = importlib.import_module(f"kippcurve.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapper = tracer.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    if vars(mod).get(fname) is orig:
                        setattr(mod, fname, wrapper)
                        swapped.append((mod, fname, orig))
        yield tracer
    finally:
        for mod, fname, orig in swapped:
            setattr(mod, fname, orig)


def _per_call_ms(durations: list[float]) -> float:
    return 1e3 * sum(durations) / len(durations) if durations else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a traced run's spans."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def dur(s):
        return s[END] - s[START]

    out: dict[str, tuple[float, str]] = {}
    for name, metric in TIME_METRICS.items():
        out[metric] = (_per_call_ms([dur(s) for s in by_name.get(name, [])]), "ms")

    gen_names = set(TRIAL_STAGES["generate"])
    top_gen = [s for s in spans if s[NAME] in gen_names and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in gen_names)]
    out["generators.ms"] = (_per_call_ms([dur(s) for s in top_gen]), "ms")

    curves = by_name.get("classify.classify_curve", [])
    done = [s for s in curves if s[OK]]
    out["classify.peel_yield"] = (sum(1 for s in done if s[NOTE]) / len(done) if done else 0.0, "ratio")
    dets = by_name.get("kippenhahn.kipp_poly_det", [])
    out["kippenhahn.det_fail"] = (sum(1 for s in dets if not s[OK]) / len(dets) if dets else 0.0, "ratio")

    campaigns = [i for i, s in enumerate(spans) if s[NAME] == "harness.run_campaign" and s[OK]]
    trials = sum(spans[i][NOTE][0] for i in campaigns)
    stage_of = {n: stage for stage, names in TRIAL_STAGES.items() for n in names}
    stage_s = dict.fromkeys(TRIAL_STAGES, 0.0)
    members = set(campaigns)
    for s in spans:
        if s[PARENT] in members and s[NAME] in stage_of:
            stage_s[stage_of[s[NAME]]] += dur(s)
    for stage, secs in stage_s.items():
        out[f"harness.trial_ms.{stage}"] = (1e3 * secs / trials if trials else 0.0, "ms")
    out["harness.bytes_written"] = (
        sum(spans[i][NOTE][1] for i in campaigns) / len(campaigns) if campaigns else 0.0,
        "B",
    )

    for layer, names in TIMED.items():
        for fname in names:
            out[f"{layer}.{fname}.calls"] = (len(by_name.get(f"{layer}.{fname}", [])), "count")
    return out


def self_times(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive s, self s); self time excludes child spans."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    out: dict[str, list] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += s[END] - s[START] - child_s[i]
    return {k: tuple(v) for k, v in out.items()}
