"""Per-layer tracing from outside the program.

The tracer replaces public functions at the sites that import them with
timing wrappers, so the program itself carries no instrumentation.  Each
call becomes a span (name, stage, start, end, parent, thread).  Spans stay
in memory and are written out when the run ends.  A span's self time is
its duration minus the part of it that its child spans cover.

``letrack.parallel.map_ordered`` may run its work in threads; its wrapper
hands its own span to each worker thread as the parent, so spans opened in
workers still hang under the call that caused them.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

MASKOPS = ("metrics.mask_iou", "metrics.mask_to_box", "metrics.box_iou_matrix")
SOLVERS = ("association.hungarian_max", "metrics.hungarian_max")
MAPS = ("cli.map_ordered", "metrics.map_ordered")
STAGES = ("track", "eval_closed", "eval_open")

PER_LAYER = (
    ("io.load_detections_s", "s"),
    ("io.load_tracks_s", "s"),
    ("io.load_bank_s", "s"),
    ("io.render_s", "s"),
    ("io.bytes_read", "bytes"),
    ("io.bytes_written", "bytes"),
    ("io.validate_rle_calls", "count"),
    ("core.validate_sequence_s", "s"),
    ("association.step_calls", "count"),
    ("association.step_s", "s"),
    ("association.step_p50_ms", "ms"),
    ("association.step_p99_ms", "ms"),
    ("association.scores_s", "s"),
    ("association.gate_s", "s"),
    ("association.assign_s", "s"),
    ("association.step_self_s", "s"),
    ("association.matches", "count"),
    ("association.spawns", "count"),
    ("association.reids", "count"),
    ("association.gate_open_ratio", "ratio"),
    ("classification.classify_calls", "count"),
    ("classification.classify_s", "s"),
    ("assignment.calls", "count"),
    ("assignment.s", "s"),
    ("assignment.call_p99_ms", "ms"),
    ("assignment.fast_path_ratio", "ratio"),
    ("assignment.nontrivial_calls", "count"),
    ("maskops.mask_iou_calls", "count"),
    ("maskops.mask_iou_s", "s"),
    ("maskops.mask_to_box_calls", "count"),
    ("maskops.mask_to_box_s", "s"),
    ("maskops.box_iou_matrix_s", "s"),
    *(
        (f"metrics.{mode}.{key}", "count" if key == "solver_calls" else "s")
        for mode in ("closed", "open")
        for key in ("evaluate_s", "geometry_s", "match_s", "self_s", "solver_calls")
    ),
    ("parallel.items", "count"),
    ("parallel.workers", "count"),
    ("parallel.map_s", "s"),
    ("parallel.cpu_util", "ratio"),
    ("synth.generate_s", "s"),
    ("cli.track.self_s", "s"),
    ("cli.eval_closed.self_s", "s"),
    ("cli.eval_open.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics that read each wrap target; a missing target marks them missing.
_NEEDS = {
    "cli.load_detections": ("io.load_detections_s", "io.bytes_read"),
    "cli.load_tracks": ("io.load_tracks_s", "io.bytes_read"),
    "cli.load_bank": ("io.load_bank_s", "io.bytes_read"),
    "cli.dumps_canonical": ("io.render_s",),
    "cli.evaluate": tuple(m for m, _ in PER_LAYER if m.startswith("metrics.")),
    "association.Tracker.step": (
        "association.step_calls", "association.step_s", "association.step_p50_ms",
        "association.step_p99_ms", "association.step_self_s", "association.matches",
        "association.spawns", "association.reids",
    ),
    "association.bisoftmax_scores": ("association.scores_s",),
    "association.cem_gate": ("association.gate_s", "association.gate_open_ratio"),
    "association.classify_detection": (
        "classification.classify_calls", "classification.classify_s",
    ),
    "metrics.mask_iou": ("maskops.mask_iou_calls", "maskops.mask_iou_s"),
    "metrics.mask_to_box": ("maskops.mask_to_box_calls", "maskops.mask_to_box_s"),
    "metrics.box_iou_matrix": ("maskops.box_iou_matrix_s",),
    "io.validate_rle": ("io.validate_rle_calls",),
    "io.validate_sequence": ("core.validate_sequence_s",),
}
for _site in SOLVERS:
    _NEEDS[_site] = (
        "assignment.calls", "assignment.s", "assignment.call_p99_ms",
        "assignment.fast_path_ratio", "assignment.nontrivial_calls",
    ) + (("association.assign_s",) if _site.startswith("association") else ())
for _site in MAPS:
    _NEEDS[_site] = ("parallel.items", "parallel.workers", "parallel.map_s", "parallel.cpu_util")


@dataclass(slots=True)
class Span:
    name: str
    stage: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _one_to_one(args: tuple, kwargs: dict) -> bool:
    """Whether hungarian_max(scores, feasible) has at most one feasible cell per row and column."""
    feasible = args[1] if len(args) > 1 else kwargs.get("feasible")
    feas = np.ones(np.shape(args[0]), bool) if feasible is None else np.asarray(feasible, bool)
    if feas.size == 0:
        return True
    return bool(feas.sum(axis=1).max() <= 1 and feas.sum(axis=0).max() <= 1)


class Tracer:
    """Install timing wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stage = ""
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, Span]:
        stack = self._stack()
        span = Span(name, self.stage, parent=stack[-1] if stack else None,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1, span

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run fn(*args) inside a span of its own (the benchmark's stage roots)."""
        idx, span = self._open(name)
        stack = self._stack()
        stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[[int, Span, tuple, dict], tuple[tuple, dict]] | None = None,
        after: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace owner.attr with a timing wrapper; record it missing if absent."""
        orig = getattr(owner, attr, None) if owner is not None else None
        if not callable(orig):
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx, span = tracer._open(name)
            if before is not None:
                args, kwargs = before(idx, span, args, kwargs)
            stack = tracer._stack()
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def take(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- the wrap sites ------------------------------------------------------

    def install(self, letrack: Any) -> None:
        """Wrap every traced public function of the letrack package."""
        self.missing = []
        cli = getattr(letrack, "cli", None)
        association = getattr(letrack, "association", None)
        metrics = getattr(letrack, "metrics", None)
        lio = getattr(letrack, "io", None)
        parallel = getattr(letrack, "parallel", None)
        thread_count = getattr(parallel, "thread_count", None)
        workers = thread_count() if callable(thread_count) else 1

        def file_size(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
            path = args[0] if args else kwargs.get("path")
            span.info["bytes"] = os.path.getsize(path) if isinstance(path, str) else 0

        def solver(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
            span.info["one_to_one"] = _one_to_one(args, kwargs)

        def gate(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
            r = np.asarray(result)
            span.info["open"] = int(r.sum())
            span.info["cells"] = int(r.size)

        def step_before(idx: int, span: Span, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
            tracker = args[0]
            span.info["lost"] = {
                t.track_id for t in tracker.tracks if t.status.name == "LOST"
            }
            return args, kwargs

        def step_after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
            lost = span.info.pop("lost")
            span.info["matches"] = len(result.matches)
            span.info["spawns"] = len(result.new_tracks)
            span.info["reids"] = sum(1 for _, tid, _ in result.matches if tid in lost)

        def map_before(idx: int, span: Span, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
            if len(args) != 2 or kwargs:
                return args, kwargs
            fn, items = args[0], list(args[1])
            caller = threading.get_ident()

            def task(item: Any) -> Any:
                if threading.get_ident() == caller:
                    return fn(item)
                stack = self._stack()
                stack.append(idx)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            span.info["items"] = len(items)
            span.info["workers"] = 1 if workers <= 1 or len(items) <= 1 else min(workers, len(items))
            span.info["cpu"] = _cpu_seconds()
            return (task, items), {}

        def map_after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
            span.info["cpu"] = _cpu_seconds() - span.info.get("cpu", _cpu_seconds())

        for fn in ("load_detections", "load_tracks", "load_bank"):
            self.wrap(cli, fn, f"cli.{fn}", after=file_size)
        self.wrap(cli, "dumps_canonical", "cli.dumps_canonical")
        self.wrap(cli, "evaluate", "cli.evaluate")
        self.wrap(cli, "map_ordered", "cli.map_ordered", before=map_before, after=map_after)
        self.wrap(getattr(association, "Tracker", None), "step", "association.Tracker.step",
                  before=step_before, after=step_after)
        self.wrap(association, "bisoftmax_scores", "association.bisoftmax_scores")
        self.wrap(association, "cem_gate", "association.cem_gate", after=gate)
        self.wrap(association, "hungarian_max", "association.hungarian_max", after=solver)
        self.wrap(association, "classify_detection", "association.classify_detection")
        for fn in ("mask_iou", "mask_to_box", "box_iou_matrix"):
            self.wrap(metrics, fn, f"metrics.{fn}")
        self.wrap(metrics, "hungarian_max", "metrics.hungarian_max", after=solver)
        self.wrap(metrics, "map_ordered", "metrics.map_ordered", before=map_before, after=map_after)
        self.wrap(lio, "validate_rle", "io.validate_rle")
        self.wrap(lio, "validate_sequence", "io.validate_sequence")

    def missing_metrics(self) -> list[str]:
        return sorted({m for site in self.missing for m in _NEEDS.get(site, ())})


# ---------------------------------------------------------------------------
# span analysis


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    kids = _children(spans)
    return [
        s.duration - _covered(s.start, s.end, [(spans[c].start, spans[c].end) for c in kids[i]])
        for i, s in enumerate(spans)
    ]


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} {s.name} is not inside its parent {p.name}")
    return errors


def _descendants(kids: list[list[int]], root: int) -> list[int]:
    out, todo = [], list(kids[root])
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out


def _pct_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (track, eval closed, eval open)."""
    kids = _children(spans)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names: str, stage: str | None = None) -> list[int]:
        return [i for n in names for i in by_name.get(n, ()) if stage is None or spans[i].stage == stage]

    def total(*names: str, stage: str | None = None) -> float:
        return sum(spans[i].duration for i in idx(*names, stage=stage))

    def info(key: str, *names: str) -> list[Any]:
        return [spans[i].info.get(key, 0) for i in idx(*names)]

    m: dict[str, float] = {
        "io.load_detections_s": total("cli.load_detections"),
        "io.load_tracks_s": total("cli.load_tracks"),
        "io.load_bank_s": total("cli.load_bank"),
        "io.render_s": total("cli.dumps_canonical"),
        "io.bytes_read": sum(info("bytes", "cli.load_detections", "cli.load_tracks", "cli.load_bank")),
        "io.validate_rle_calls": len(idx("io.validate_rle")),
        "core.validate_sequence_s": total("io.validate_sequence"),
    }

    steps = [spans[i].duration for i in idx("association.Tracker.step")]
    gates = info("cells", "association.cem_gate")
    m.update({
        "association.step_calls": len(steps),
        "association.step_s": sum(steps),
        "association.step_p50_ms": _pct_ms(steps, 50),
        "association.step_p99_ms": _pct_ms(steps, 99),
        "association.scores_s": total("association.bisoftmax_scores"),
        "association.gate_s": total("association.cem_gate"),
        "association.assign_s": total("association.hungarian_max"),
        "association.step_self_s": sum(selfs[i] for i in idx("association.Tracker.step")),
        "association.matches": sum(info("matches", "association.Tracker.step")),
        "association.spawns": sum(info("spawns", "association.Tracker.step")),
        "association.reids": sum(info("reids", "association.Tracker.step")),
        "association.gate_open_ratio": (
            sum(info("open", "association.cem_gate")) / sum(gates) if sum(gates) else 0.0
        ),
        "classification.classify_calls": len(idx("association.classify_detection")),
        "classification.classify_s": total("association.classify_detection"),
    })

    solves = [spans[i].duration for i in idx(*SOLVERS)]
    fast = sum(1 for flag in info("one_to_one", *SOLVERS) if flag)
    m.update({
        "assignment.calls": len(solves),
        "assignment.s": sum(solves),
        "assignment.call_p99_ms": _pct_ms(solves, 99),
        "assignment.fast_path_ratio": fast / len(solves) if solves else 0.0,
        "assignment.nontrivial_calls": len(solves) - fast,
        "maskops.mask_iou_calls": len(idx("metrics.mask_iou")),
        "maskops.mask_iou_s": total("metrics.mask_iou"),
        "maskops.mask_to_box_calls": len(idx("metrics.mask_to_box")),
        "maskops.mask_to_box_s": total("metrics.mask_to_box"),
        "maskops.box_iou_matrix_s": total("metrics.box_iou_matrix"),
    })

    for mode in ("closed", "open"):
        stage = f"eval_{mode}"
        own = 0.0
        for e in idx("cli.evaluate", stage=stage):
            inner = [
                (spans[d].start, spans[d].end)
                for d in _descendants(kids, e)
                if spans[d].name in MASKOPS or spans[d].name == "metrics.hungarian_max"
            ]
            own += spans[e].duration - _covered(spans[e].start, spans[e].end, inner)
        m.update({
            f"metrics.{mode}.evaluate_s": total("cli.evaluate", stage=stage),
            f"metrics.{mode}.geometry_s": total(*MASKOPS, stage=stage),
            f"metrics.{mode}.match_s": total("metrics.hungarian_max", stage=stage),
            f"metrics.{mode}.self_s": own,
            f"metrics.{mode}.solver_calls": len(idx("metrics.hungarian_max", stage=stage)),
        })

    map_wall = total(*MAPS)
    m.update({
        "parallel.items": max(info("items", *MAPS), default=0),
        "parallel.workers": max(info("workers", *MAPS), default=0),
        "parallel.map_s": map_wall,
        "parallel.cpu_util": sum(info("cpu", *MAPS)) / map_wall if map_wall > 0 else 0.0,
    })
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = sum(selfs[i] for i in idx("cli.main", stage=stage))
    return m


def median_metrics(per_repeat: list[dict[str, float]]) -> dict[str, float]:
    keys = per_repeat[0].keys() if per_repeat else ()
    return {k: float(statistics.median(r[k] for r in per_repeat)) for k in keys}
