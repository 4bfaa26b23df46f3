"""letrack benchmark: time the CLI path on seeded synthetic workloads.

    python3 perfbench/run.py --workload multi_seq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

A run generates its inputs from the seed with ``letrack.synth`` (three
times, in a child process, so set-up time is a median and the child's memory
is not charged to the run), then repeats the three commands a user runs, in
process through ``letrack.cli.main``, until ``--seconds`` have passed:

    letrack track --detections dets.json --bank bank.json --out pred.json
    letrack eval --mode closed --report report_closed.json ...
    letrack eval --mode open --report report_open.json ...

It is a closed loop: one caller, each command starts when the previous one
has finished.  Before each command, and between the set-up builds, the run
times ``yardstick.py``, a fixed task that does not use letrack; every
end-to-end time is reported scaled by ``REFERENCE_S / median(yardstick)``,
so that the host's speed drift cancels and the program's speed stays.
``LETRACK_THREADS`` is removed from the environment, so the program
resolves its default worker count.  Every command's output files
and stdout table are hashed and must equal those of the first repeat; on
the default seed they must also equal the digests in ``digests.json``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians, times adjusted for host speed); the table
above it gives each metric's adjusted median and its raw median, maximum
and sample count.  With ``--trace 1`` the run alternates untraced and
traced repeats and reports the per-layer metrics of
``tracing.py`` instead; traced outputs must be byte-identical to untraced
ones.  Spans are written to ``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, NamedTuple

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("multi_seq", "crowded", "long_box")
DEFAULT_SEED = 1
SETUPS = 3
YARD_PER_SETUP = 3
MIN_REPEATS = 3

OUTPUTS = ("pred.json", "report_closed.json", "report_open.json", "stdout_closed", "stdout_open")

Metrics = dict[str, tuple[float, str]]  # name -> (value, unit)


class ProgramMissing(Exception):
    pass


def _import_program() -> Any:
    """Import letrack from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "letrack", "__init__.py")):
        raise ProgramMissing(f"no letrack package under {SRC}")
    sys.path.insert(0, SRC)
    import letrack
    import letrack.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(letrack.__file__))) != SRC:
        raise ProgramMissing(f"letrack was imported from {letrack.__file__}, not {SRC}")
    return letrack


def build_setups(name: str, seed: int, out_dir: str) -> dict:
    """Build the inputs SETUPS times, timing the yardstick around each build.

    The last copy of the inputs stays in out_dir.
    """
    _import_program()
    import workloads

    builds, yard = [], []
    for _ in range(SETUPS):
        yard += [yardstick.measure() for _ in range(YARD_PER_SETUP)]
        builds.append(workloads.build_inputs(workloads.WORKLOADS[name], seed, out_dir))
    yard += [yardstick.measure() for _ in range(YARD_PER_SETUP)]
    return {"builds": builds, "yardstick": yard}


def run_setups(name: str, seed: int, out_dir: str) -> dict:
    """build_setups in a child process, waited for before this returns."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-into", out_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# one repeat of the CLI path


class Stage(NamedTuple):
    name: str
    argv: list[str]
    outputs: dict[str, str]  # output key -> file path ("" for captured stdout)


def stages(w: Any, work: str) -> list[Stage]:
    f = {k: os.path.join(work, k) for k in ("gt.json", "dets.json", "bank.json", *OUTPUTS)}
    common = ["--gt", f["gt.json"], "--pred", f["pred.json"], "--bank", f["bank.json"],
              "--geometry", w.geometry]
    return [
        Stage("track", ["track", "--detections", f["dets.json"], "--bank", f["bank.json"],
                        "--out", f["pred.json"]], {"pred.json": f["pred.json"]}),
        Stage("eval_closed", ["eval", *common, "--mode", "closed",
                              "--report", f["report_closed.json"]],
              {"report_closed.json": f["report_closed.json"], "stdout_closed": ""}),
        Stage("eval_open", ["eval", *common, "--mode", "open",
                            "--report", f["report_open.json"]],
              {"report_open.json": f["report_open.json"], "stdout_open": ""}),
    ]


def run_stage(cli: Any, stage: Stage, tracer: Any = None) -> tuple[float, int | None, dict[str, bytes]]:
    """One CLI call: (seconds, exit code or None on exception, output bytes)."""
    for path in stage.outputs.values():
        if path and os.path.exists(path):
            os.remove(path)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(stage.argv)
            else:
                tracer.stage = stage.name
                code = tracer.call("cli.main", cli.main, stage.argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        print(f"{stage.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = None
    seconds = time.perf_counter() - t0
    data = {}
    for key, path in stage.outputs.items():
        if not path:
            data[key] = out.getvalue().encode("utf-8")
        elif os.path.exists(path):
            with open(path, "rb") as fh:
                data[key] = fh.read()
    if code != 0:
        print(f"{stage.name}: exit {code}: {err.getvalue().strip()[-500:]}", file=sys.stderr)
    return seconds, code, data


def _scores_in_range(report: bytes) -> bool:
    obj = json.loads(report)
    values: list[float] = []
    for split in obj["splits"].values():
        if split is None:
            continue
        for key, v in split.items():
            if key == "per_alpha":
                values += [x for seq in v.values() for x in seq]
            elif key != "counts":
                values.append(v)
    for cat in obj.get("per_category", ()):
        values += [cat[k] for k in ("HOTA", "DetA", "AssA", "LocA")]
    return all(0.0 <= x <= 1.0 for x in values)


class Checker:
    """Counts operations and failures; pins outputs to the first repeat."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected  # committed digests, default seed only
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, stage: Stage, code: int | None, data: dict[str, bytes]) -> None:
        self.attempted += 1
        problems = [] if code == 0 else [f"{stage.name} exited {code}"]
        for key in stage.outputs:
            if key not in data:
                problems.append(f"{stage.name} wrote no {key}")
                continue
            digest = hashlib.sha256(data[key]).hexdigest()
            if key not in self.reference:
                self.reference[key] = digest
                if key.startswith("report") and not _scores_in_range(data[key]):
                    problems.append(f"{key} has a score outside [0, 1]")
            elif self.reference[key] != digest:
                problems.append(f"{key} differs from the first repeat")
            if self.expected is not None and self.expected.get(key) != digest:
                problems.append(f"{key} does not match digests.json")
        if problems:
            self.failed += 1
            self.problems += problems


def run_repeat(cli: Any, plan: list[Stage], checker: Checker, tracer: Any = None,
               yard: list[float] | None = None) -> dict[str, float]:
    """One pass over the plan; times the yardstick before each stage into yard."""
    times = {}
    for stage in plan:
        if yard is not None:
            yard.append(yardstick.measure())
        seconds, code, data = run_stage(cli, stage, tracer)
        checker.check(stage, code, data)
        times[stage.name] = seconds
    times["pipeline"] = sum(times[s.name] for s in plan)
    times["bytes_written"] = sum(
        os.path.getsize(p) for s in plan for p in s.outputs.values() if p and os.path.exists(p)
    )
    return times


# ---------------------------------------------------------------------------
# reporting


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_table(rows: list[tuple[str, str, float, float, float | None, int]]) -> None:
    print(f"{'metric':<16}{'unit':<7}{'adjusted':>12}{'raw median':>12}{'raw max':>12}{'n':>5}")
    for name, unit, adj, med, high, n in rows:
        print(f"{name:<16}{unit:<7}{_fmt(adj):>12}{_fmt(med):>12}"
              f"{'-' if high is None else _fmt(high):>12}{n:>5}")


def result_line(correct: bool, checker: Checker, metrics: Metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def environment(letrack: Any, name: str, seed: int, setup: dict) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": letrack.parallel.thread_count(),
        "shape": setup["shape"],
        "input_bytes": setup["file_bytes"],
    }


# ---------------------------------------------------------------------------
# runs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    letrack = _import_program()
    import tracing
    import workloads

    w = workloads.WORKLOADS[name]
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    expected = pinned["workloads"].get(name, {}) if seed == pinned["seed"] else None
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_run = run_setups(name, seed, work)
        setups = setup_run["builds"]
        env = environment(letrack, name, seed, setups[0])
        print("env " + json.dumps(env, sort_keys=True))
        checker = Checker(expected)
        inputs_ok = all(s["digests"] == setups[0]["digests"] for s in setups)
        if not inputs_ok:
            checker.problems.append("set-up produced different inputs on the same seed")
        if expected is not None:
            for fname, digest in setups[0]["digests"].items():
                if expected.get(fname) != digest:
                    inputs_ok = False
                    checker.problems.append(f"{fname} does not match digests.json")
        plan = stages(w, work)
        if trace:
            correct, metrics = _traced(letrack, tracing, plan, checker, seconds, w, env, setups)
        else:
            setup_times = [s["setup_s"] for s in setups]
            correct, metrics = _untraced(letrack, plan, checker, seconds, setup_times,
                                         setup_run["yardstick"])
        correct = correct and inputs_ok and checker.failed == 0
        for p in checker.problems[:20]:
            print(f"problem: {p}")
        print(f"outputs {json.dumps(checker.reference, sort_keys=True)}")
        print(f"inputs {json.dumps(setups[0]['digests'], sort_keys=True)}")
        print(result_line(correct, checker, metrics))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(letrack: Any, plan: list[Stage], checker: Checker, seconds: float,
              setup_times: list[float], setup_yard: list[float]) -> tuple[bool, Metrics]:
    reps: list[dict[str, float]] = []
    yard: list[float] = []
    start = time.perf_counter()
    while True:
        reps.append(run_repeat(letrack.cli, plan, checker, yard=yard))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["pipeline"] for r in reps)
        if len(reps) >= MIN_REPEATS and elapsed + typical > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    series = {
        "setup_s": setup_times,
        "track_s": [r["track"] for r in reps],
        "eval_closed_s": [r["eval_closed"] for r in reps],
        "eval_open_s": [r["eval_open"] for r in reps],
        "pipeline_s": [r["pipeline"] for r in reps],
    }
    # Host speed: the run's own yardstick times, the set-up child's for setup_s.
    scale = {k: yardstick.REFERENCE_S / statistics.median(yard) for k in series}
    scale["setup_s"] = yardstick.REFERENCE_S / statistics.median(setup_yard)
    rows = [(k, "s", statistics.median(v) * scale[k], statistics.median(v), max(v), len(v))
            for k, v in series.items()]
    rows.append(("peak_rss_mb", "MB", peak_mb, peak_mb, None, 1))
    error_rate = checker.failed / checker.attempted
    rows.append(("error_rate", "ratio", error_rate, error_rate, None, checker.attempted))
    print_table(rows)
    print(f"yardstick s: run median {_fmt(statistics.median(yard))} (n={len(yard)}), "
          f"set-up median {_fmt(statistics.median(setup_yard))} (n={len(setup_yard)}), "
          f"reference {yardstick.REFERENCE_S}")
    return True, {k: (adj, u) for k, u, adj, _, _, _ in rows if k != "error_rate"}


def _traced(letrack: Any, tracing: Any, plan: list[Stage], checker: Checker, seconds: float,
            w: Any, env: dict, setups: list[dict]) -> tuple[bool, Metrics]:
    tracer = tracing.Tracer()
    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    per_repeat: list[dict[str, float]] = []
    kept_spans: list[list[Any]] = []
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        plain.append(run_repeat(letrack.cli, plan, checker))
        tracer.install(letrack)
        try:
            times = run_repeat(letrack.cli, plan, checker, tracer)
        finally:
            tracer.restore()
        spans = tracer.take()
        traced.append(times)
        problems += tracing.nesting_errors(spans)
        selfs = tracing.self_times(spans)
        problems += [f"span {spans[i].name} has self time {s:.3g} < 0"
                     for i, s in enumerate(selfs) if s < -1e-9]
        m = tracing.layer_metrics(spans)
        m["io.bytes_written"] = times["bytes_written"]
        per_repeat.append(m)
        kept_spans.append(spans)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break

    metrics = tracing.median_metrics(per_repeat)
    metrics["synth.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["pipeline"] for t in traced)
        / statistics.median(p["pipeline"] for p in plain) - 1.0
    )
    missing = tracer.missing_metrics()
    if tracer.missing:
        print(f"missing wrap targets: {', '.join(tracer.missing)}")
        print(f"missing metrics: {', '.join(missing)}")

    # Each workload must keep the property that defines it.
    defining = {
        "multi_seq": ("parallel.items > 1", metrics["parallel.items"] > 1),
        "crowded": ("assignment.nontrivial_calls > 0", metrics["assignment.nontrivial_calls"] > 0),
        "long_box": ("maskops.mask_iou_calls == 0 and parallel.items == 1",
                     metrics["maskops.mask_iou_calls"] == 0 and metrics["parallel.items"] == 1),
    }
    rule, holds = defining[w.name]
    if not holds:
        problems.append(f"{w.name} no longer satisfies {rule}")
    for p in problems[:20]:
        print(f"problem: {p}")

    print(f"{'metric':<34}{'unit':<7}{'median':>12}   n={len(per_repeat)} traced repeats")
    for key, unit in tracing.PER_LAYER:
        flag = "  (missing)" if key in missing else ""
        print(f"{key:<34}{unit:<7}{_fmt(metrics[key]):>12}{flag}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{w.name}-seed{env['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env,
            "missing": tracer.missing,
            "metrics": metrics,
            "fields": ["name", "stage", "start", "end", "parent", "thread"],
            "repeats": [
                [[s.name, s.stage, s.start, s.end, s.parent, s.thread] for s in spans]
                for spans in kept_spans
            ],
        }, fh)
    print(f"spans -> {os.path.relpath(path, ROOT)}")
    return not problems, {key: (metrics[key], unit) for key, unit in tracing.PER_LAYER}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory stays per run."""
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)  # the set-up child
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.environ.pop("LETRACK_THREADS", None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        if args.setup_into:
            print(json.dumps(build_setups(args.workload, args.seed, args.setup_into)))
            return 0
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
