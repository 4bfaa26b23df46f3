"""End-to-end acceptance checks.

Each test covers one numbered contract of the toolkit and reports a single
PASS line (or fails with details) so the whole gate reads as a checklist:

 1. evaluator fixed point on perfect predictions, both modes, 50 seeds
 2. two-pass scoring agrees with a brute-force oracle on tiny instances
 3. hand-worked id-switch / added-FP fixtures hit the exact closed/open values
 4. assignment solver agrees exactly with exhaustive enumeration
 5. mask run-length coding round-trips exactly and its IoU is exact
 6. the noise-free pipeline scores 1.0; dropped detections lower the mean
 7. synth/track/eval bytes are identical across repeated runs
 8. common/uncommon split arithmetic and the report column layout
 9. a 100-frame, 20-track mask sequence evaluates in under a second
"""

import math
import time

import numpy as np

from letrack.assignment import hungarian_max
from letrack.association import track_sequence
from letrack.io import (
    bank_to_jsonable,
    detections_to_jsonable,
    dumps_canonical,
    tracks_to_jsonable,
)
from letrack.maskops import RleMask, mask_iou, rle_decode, rle_encode
from letrack.metrics import DEFAULT_ALPHAS, EvalConfig, evaluate, hota_alpha
from letrack.synth import SynthConfig, generate, perfect_tracker

from helpers import box_track, seq_tracks, two_split_bank
from oracles import assignment_oracle, hota_oracle

TOL = 1e-9


def _pass(msg: str) -> None:
    print(f"PASS: {msg}")


def _split_metric_values(split):
    vals = [split.combined, split.det, split.ass]
    if split.loc is not None:
        vals.append(split.loc)
    for arr in split.per_alpha.values():
        vals.extend(arr)
    return vals


def test_1_evaluator_fixed_point_over_seeds():
    start = time.monotonic()
    for seed in range(1, 51):
        res = generate(SynthConfig(seed=seed))
        pred = perfect_tracker(res.gt)
        for mode in ("closed", "open"):
            report = evaluate(res.gt, pred, res.bank, EvalConfig(mode=mode))
            for name, split in report.splits.items():
                if split is None:
                    continue
                for v in _split_metric_values(split):
                    assert abs(v - 1.0) <= TOL, (seed, mode, name, v)
            for cat in report.per_category:
                assert abs(cat.combined - 1.0) <= TOL, (seed, mode, cat)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"fixed-point sweep took {elapsed:.2f}s"
    _pass(
        "evaluator fixed point: 50 seeds x 2 modes, every metric = 1.0 "
        f"within {TOL} ({elapsed:.2f}s)"
    )


def _random_tiny_instance(rng):
    def tracks(n_max):
        out = []
        for tid in range(1, int(rng.integers(1, n_max + 1)) + 1):
            n_frames = int(rng.integers(1, 6))
            frames = sorted(rng.choice(5, size=n_frames, replace=False))
            obs = [
                (int(f), tuple(rng.uniform(0, 15, 2)) + tuple(rng.uniform(1, 10, 2)))
                for f in frames
            ]
            out.append(box_track(tid, obs))
        return out

    gt = tracks(3)
    pred = tracks(3) if rng.uniform() > 0.1 else []
    return gt, pred


def test_2_scoring_matches_brute_force_oracle():
    rng = np.random.default_rng(20240817)
    for case in range(200):
        gt, pred = _random_tiny_instance(rng)
        for alpha in DEFAULT_ALPHAS:
            want = hota_oracle(gt, pred, alpha)
            det, ass, hota = hota_alpha(gt, pred, alpha, mode="closed", geometry="box")
            detre, ass_o, owta = hota_alpha(gt, pred, alpha, mode="open", geometry="box")
            assert abs(det - want["det_a"]) <= TOL, (case, alpha)
            assert abs(ass - want["ass_a"]) <= TOL, (case, alpha)
            assert abs(hota - want["hota"]) <= TOL, (case, alpha)
            assert abs(detre - want["det_re"]) <= TOL, (case, alpha)
            assert abs(ass_o - want["ass_a"]) <= TOL, (case, alpha)
            assert abs(owta - want["owta"]) <= TOL, (case, alpha)
    _pass(
        "two-pass scoring matches the exhaustive oracle on 200 random tiny "
        f"instances x {len(DEFAULT_ALPHAS)} alphas within {TOL}"
    )


def test_3_hand_worked_fixtures():
    box = (0, 0, 10, 10)
    far = (40, 40, 10, 10)
    gt = [box_track(1, [(0, box), (1, box)])]
    split_pred = [box_track(1, [(0, box)]), box_track(2, [(1, box)])]
    expect = math.sqrt(0.5)
    for alpha in DEFAULT_ALPHAS:
        det, ass, hota = hota_alpha(gt, split_pred, alpha, mode="closed", geometry="box")
        assert abs(hota - expect) <= TOL, alpha

    with_fp = split_pred + [box_track(3, [(0, far), (1, far)])]
    for alpha in DEFAULT_ALPHAS:
        _, _, hota = hota_alpha(gt, with_fp, alpha, mode="closed", geometry="box")
        assert abs(hota - 0.5) <= TOL, alpha
        _, _, owta = hota_alpha(gt, with_fp, alpha, mode="open", geometry="box")
        assert abs(owta - expect) <= TOL, alpha
    _pass(
        "id-switch fixture scores sqrt(0.5) at every alpha; adding far FPs "
        "drops closed HOTA to 0.5 while open OWTA keeps sqrt(0.5)"
    )


def test_4_assignment_matches_exhaustive_enumeration():
    rng = np.random.default_rng(77)
    for case in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        kind = case % 4
        if kind == 0:
            scores = rng.uniform(-1, 1, (n, m))
        elif kind == 1:
            scores = rng.integers(0, 5, (n, m)).astype(np.float64) / 4.0  # tie-heavy
        elif kind == 2:
            scores = np.full((n, m), 0.5)  # everything ties
        else:
            scores = rng.uniform(0, 1, (n, m))
        feasible = None
        if kind == 3:
            feasible = rng.uniform(size=(n, m)) < 0.7
        got = hungarian_max(scores, feasible)
        want = assignment_oracle(scores, feasible)
        assert got == want, (case, scores, feasible)
    _pass(
        "assignment solver equals exhaustive enumeration (score, cardinality, "
        "lexicographic tie-break) on 1000 matrices up to 6x6"
    )


def _brute_iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.logical_and(a, b).sum())
    union = int(np.logical_or(a, b).sum())
    return inter / union if union else 0.0


def test_5_rle_roundtrip_and_exact_iou():
    for bits in range(512):
        grid = np.array([(bits >> k) & 1 for k in range(9)], dtype=bool).reshape(3, 3)
        mask = rle_encode(grid)
        assert np.array_equal(rle_decode(mask), grid), bits

    rng = np.random.default_rng(5)
    masks = []
    for _ in range(1000):
        grid = rng.uniform(size=(64, 64)) < rng.uniform(0.05, 0.95)
        mask = rle_encode(grid)
        assert np.array_equal(rle_decode(mask), grid)
        masks.append((mask, grid))
    for k in range(0, 1000, 2):
        (ma, ga), (mb, gb) = masks[k], masks[k + 1]
        assert mask_iou(ma, mb) == _brute_iou(ga, gb)
    _pass(
        "run-length coding round-trips all 512 3x3 grids and 1000 random "
        "64x64 grids; packed-bit IoU equals brute-force bitmap IoU exactly on 500 pairs"
    )


def _run_tracker(detections, bank):
    return [track_sequence(seq, bank=bank)[0] for seq in detections]


def test_6_noise_free_pipeline_is_perfect_and_drops_hurt():
    res = generate(SynthConfig(seed=1))
    pred = _run_tracker(res.detections, res.bank)
    for mode in ("closed", "open"):
        report = evaluate(res.gt, pred, res.bank, EvalConfig(mode=mode))
        for split in report.splits.values():
            if split is None:
                continue
            for v in _split_metric_values(split):
                assert abs(v - 1.0) <= TOL, (mode, v)

    scores = []
    for seed in range(1, 11):
        res = generate(SynthConfig(seed=seed, p_drop=0.3))
        pred = _run_tracker(res.detections, res.bank)
        report = evaluate(res.gt, pred, res.bank, EvalConfig(mode="closed"))
        scores.append(report.splits["all"].combined)
    mean = sum(scores) / len(scores)
    assert mean < 1.0 - TOL, scores
    _pass(
        "noise-free synth->track->eval scores 1.0 everywhere; with p_drop=0.3 "
        f"the 10-seed mean closed score falls to {mean:.3f}"
    )


def _pipeline_bytes():
    res = generate(SynthConfig(seed=4, p_drop=0.1, p_fp=0.3, num_frames=15))
    pred = _run_tracker(res.detections, res.bank)
    blobs = [
        dumps_canonical(tracks_to_jsonable(res.gt)),
        dumps_canonical(detections_to_jsonable(res.detections)),
        dumps_canonical(bank_to_jsonable(res.bank)),
        dumps_canonical(tracks_to_jsonable(pred)),
    ]
    for mode in ("closed", "open"):
        report = evaluate(res.gt, pred, res.bank, EvalConfig(mode=mode))
        blobs.append(dumps_canonical(report.to_jsonable()))
        blobs.append(report.format_table())
    return blobs


def test_7_byte_determinism_across_runs():
    first = _pipeline_bytes()
    assert _pipeline_bytes() == first, "repeated run changed bytes"
    assert _pipeline_bytes() == first, "third run changed bytes"
    _pass("synth, tracker, and eval outputs are byte-identical across repeated runs")


def test_8_split_arithmetic_and_table_layout():
    box = (0, 0, 10, 10)
    far = (40, 40, 10, 10)
    bank = two_split_bank()
    gt = [
        seq_tracks(
            [
                box_track(1, [(f, box) for f in range(4)], category_id=1),
                box_track(2, [(f, far) for f in range(4)], category_id=2),
            ]
        )
    ]
    pred = [seq_tracks([box_track(9, [(f, box) for f in range(4)], category_id=1, score=1.0)])]

    closed = evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))
    assert closed.splits["common"].combined == 1.0
    assert closed.splits["uncommon"].combined == 0.0
    assert closed.splits["all"].combined == 0.5

    assert closed.format_table().splitlines()[0].split() == [
        "HOTAall", "DETAall", "AssAall",
        "HOTAcom", "DETAcom", "AssAcom",
        "HOTAunc", "DETAunc", "AssAunc",
    ]
    opened = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box"))
    assert opened.format_table().splitlines()[0].split() == [
        "OWTAall", "DETReall", "AssAall",
        "OWTAcom", "DETRecom", "AssAcom",
        "OWTAunc", "DETReunc", "AssAunc",
    ]
    _pass(
        "two-category fixture: combined = 1 (common), 0 (uncommon), 0.5 (all) "
        "exactly; closed and open tables carry the 9 expected columns"
    )


def test_9_hundred_frame_sequence_under_one_second():
    res = generate(SynthConfig(seed=5, num_frames=100, num_tracks=20))
    pred = perfect_tracker(res.gt)
    for t in res.gt[0].tracks:
        assert all(ob.mask is not None for ob in t.observations)

    timings = {}
    for mode in ("closed", "open"):
        start = time.monotonic()
        evaluate(res.gt, pred, res.bank, EvalConfig(mode=mode))
        timings[mode] = time.monotonic() - start
        assert timings[mode] < 1.0, f"{mode} evaluation took {timings[mode]:.3f}s"
    _pass(
        "100-frame, 20-track mask sequence scores over all 19 alphas in "
        f"{timings['closed']:.2f}s closed / {timings['open']:.2f}s open"
    )
