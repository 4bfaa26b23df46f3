"""A fixed reference task that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts: the same CLI call
on the same input can take 0.2 s or 0.4 s a minute apart, with process CPU
time growing as much as wall time.  A run therefore times this task between
its CLI calls and reports every end-to-end time scaled to a host on which
the task takes ``REFERENCE_S``:

    adjusted = median(stage seconds) * REFERENCE_S / median(yardstick seconds)

The task never touches ``letrack``, so a change to the program cannot move
it; only the host can.  It does the same kinds of work as the program:
parsing JSON, walking the parsed lists in Python, boolean mask arithmetic
on 64x96 frames and small dense matrix algebra.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

# About the task's median time on the host the baseline was measured on
# (2-vCPU VM, Python 3.11, numpy 2.4); adjusted times are seconds on a host
# where the task takes exactly this long.
REFERENCE_S = 0.1


def _data() -> tuple[str, np.ndarray, list[np.ndarray]]:
    rnd = random.Random(20230804)
    frames = [
        {
            "index": i,
            "detections": [
                {
                    "box": [round(rnd.uniform(0, 96), 3) for _ in range(4)],
                    "score": round(rnd.random(), 6),
                    "embedding": [round(rnd.gauss(0, 1), 6) for _ in range(16)],
                }
                for _ in range(20)
            ],
        }
        for i in range(150)
    ]
    rng = np.random.default_rng(20230804)
    masks = rng.random((48, 64, 96)) > 0.5
    mats = [rng.random((12, 12)) + 4.0 * np.eye(12) for _ in range(300)]
    return json.dumps({"frames": frames}, sort_keys=True), masks, mats


_BLOB, _MASKS, _MATS = _data()


def _work() -> float:
    acc = 0.0
    for _ in range(4):
        obj = json.loads(_BLOB)
        for fr in obj["frames"]:
            for det in fr["detections"]:
                acc += sum(det["embedding"]) * det["score"] + det["box"][2]
    for i in range(len(_MASKS)):
        for j in range(i + 1, len(_MASKS), 2):
            inter = np.logical_and(_MASKS[i], _MASKS[j]).sum()
            union = np.logical_or(_MASKS[i], _MASKS[j]).sum()
            acc += inter / union
    for m in _MATS:
        acc += float(np.linalg.inv(m).sum()) + float(np.linalg.det(m))
    return acc


def measure() -> float:
    """Seconds one run of the reference task took."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
