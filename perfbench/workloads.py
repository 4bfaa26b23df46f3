"""Seeded benchmark inputs: one gt/detections/bank triple per workload.

Every input comes from ``letrack.synth.generate``.  A workload is a list of
sequences; a sequence is one or more synthetic *cuts* laid end to end in
time, each cut an independent ``generate`` call whose track ids and frame
indices are shifted past the previous cut's.  Several short cuts give one
sequence many independent object layouts, which keeps the work per run
steady from seed to seed where a single crowded layout would not be.

All sequences share the first cut's category bank: category ids line up
across cuts, so the prototypes of the other cuts disagree with the bank in
a seeded, deterministic way, as a detector's class embeddings would.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from letrack.io import (
    bank_to_jsonable,
    detections_to_jsonable,
    dumps_canonical,
    tracks_to_jsonable,
)
from letrack.synth import SynthConfig, generate

# Noise shared by every workload; long_box raises p_fp.
NOISE = dict(p_drop=0.1, box_jitter_sigma=0.5, app_noise_sigma=0.2, cls_noise_sigma=0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    # Tracks per cut, one entry per sequence.
    track_counts: tuple[int, ...]
    cuts_per_sequence: int
    frames_per_cut: int
    height: int
    width: int
    p_fp: float
    masks: bool  # False: strip masks from gt and detections, eval with --geometry box

    @property
    def geometry(self) -> str:
        return "mask" if self.masks else "box"


WORKLOADS = {
    w.name: w
    for w in (
        # A typical dataset: uneven sequences fan out in parallel.map_ordered
        # (the largest last, so the slowest sequence shows); mask IoU in
        # pass 1 and mask-heavy JSON carry the work.  Six cuts of 5 frames
        # per sequence: with two cuts of 10 the eval work swung ~10% by seed.
        Workload("multi_seq", (10, 14, 18, 22, 26, 30), 6, 5, 64, 96, 0.3, True),
        # Crowded frames: open-mode pass 2 builds wide components at low
        # alphas, so the exact solver dominates; one sequence, one parallel
        # item.  Solver cost grows so steeply with component width that one
        # layout's cost swings ~2x by seed; 32 cuts average that out.
        Workload("crowded", (48,), 32, 2, 64, 96, 0.3, True),
        # Long box-only sequence: no mask work, one parallel item; the
        # tracker loop, classification, embedding parsing and thousands of
        # small solver calls carry it.  Fifteen cuts of 10 frames: one layout
        # held for 150 frames left the solver work swinging 1.5x by seed.
        Workload("long_box", (30,), 15, 10, 240, 320, 1.0, False),
    )
}


def _configs(w: Workload, seed: int) -> list[list[SynthConfig]]:
    """SynthConfig per cut, per sequence; cut seeds are distinct per run seed."""
    stride = len(w.track_counts) * w.cuts_per_sequence
    sequences = []
    for s, tracks in enumerate(w.track_counts):
        sequences.append([
            SynthConfig(
                seed=seed * stride + s * w.cuts_per_sequence + c + 1,
                num_frames=w.frames_per_cut,
                num_tracks=tracks,
                frame_height=w.height,
                frame_width=w.width,
                p_fp=w.p_fp,
                **NOISE,
            )
            for c in range(w.cuts_per_sequence)
        ])
    return sequences


def _strip_masks(seqs: list[dict]) -> None:
    for seq in seqs:
        for item in seq.get("tracks", ()):
            for ob in item["observations"]:
                ob.pop("mask", None)
        for fr in seq.get("frames", ()):
            for det in fr["detections"]:
                det.pop("mask", None)


def _join_cuts(w: Workload, name: str, results: list) -> tuple[dict, dict]:
    """One gt and one detections sequence object from consecutive cuts."""
    meta = {"name": name, "height": w.height, "width": w.width,
            "num_frames": w.frames_per_cut * len(results)}
    gt = dict(meta, tracks=[])
    dets = dict(meta, frames=[])
    id_offset = 0
    for c, res in enumerate(results):
        frame_offset = c * w.frames_per_cut
        (g,) = tracks_to_jsonable(res.gt)["sequences"]
        for item in g["tracks"]:
            item["track_id"] += id_offset
            for ob in item["observations"]:
                ob["frame"] += frame_offset
        id_offset += len(g["tracks"])
        gt["tracks"] += g["tracks"]
        (d,) = detections_to_jsonable(res.detections)["sequences"]
        for fr in d["frames"]:
            fr["index"] += frame_offset
        dets["frames"] += d["frames"]
    return gt, dets


def build_inputs(w: Workload, seed: int, out_dir: str) -> dict:
    """Generate, render and write the three input files; return timings and facts."""
    t0 = time.perf_counter()
    results = [[generate(cfg) for cfg in cuts] for cuts in _configs(w, seed)]
    t_generate = time.perf_counter() - t0
    gt_seqs, det_seqs = [], []
    for s, cuts in enumerate(results):
        gt, dets = _join_cuts(w, f"{w.name}_{seed}_{s:02d}", cuts)
        gt_seqs.append(gt)
        det_seqs.append(dets)
    if not w.masks:
        _strip_masks(gt_seqs + det_seqs)
    payloads = {
        "gt.json": {"sequences": gt_seqs},
        "dets.json": {"sequences": det_seqs},
        "bank.json": bank_to_jsonable(results[0][0].bank),
    }
    digests, sizes = {}, {}
    for fname, obj in payloads.items():
        data = (dumps_canonical(obj) + "\n").encode("ascii")
        with open(os.path.join(out_dir, fname), "wb") as f:
            f.write(data)
        digests[fname] = hashlib.sha256(data).hexdigest()
        sizes[fname] = len(data)
    setup_s = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "generate_s": t_generate,
        "digests": digests,
        "file_bytes": sizes,
        "shape": {
            "sequences": len(gt_seqs),
            "frames_per_sequence": w.frames_per_cut * w.cuts_per_sequence,
            "cuts_per_sequence": w.cuts_per_sequence,
            "tracks_per_cut": [len(cuts[0].gt[0].tracks) for cuts in results],
            "frame": [w.height, w.width],
            "geometry": w.geometry,
            "detections": sum(len(fr["detections"]) for d in det_seqs for fr in d["frames"]),
        },
    }
