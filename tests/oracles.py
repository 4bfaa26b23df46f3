"""Brute-force reference implementations the tests compare against.

These trade every efficiency for obviousness: exhaustive enumeration over
all matchings, exact Fraction arithmetic over the (dyadic) float inputs,
and literal set-counting definitions instead of algebraic shortcuts.  If
production and oracle agree on thousands of random instances, the clever
code earns its keep.

The reference tracker steps one row at a time: it stacks the pool afresh
each frame and classifies each voting detection alone.

The synthesis references draw the random stream one Gaussian at a time and
paint rectangle masks on a full grid.

The JSON references at the end are the loaders, validators and canonical
writer in their per-element form, before the whole-list screens: every
value is type-checked, every run and every detection walked one at a time.
They take only the containers and ``SchemaError`` from ``letrack.io``; each
field helper they use is their own copy, so they never share a reading with
the code they judge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator

import numpy as np

from letrack.assignment import hungarian_max
from letrack.association import Diagnostics, FrameAssignment, TrackerConfig, bisoftmax_scores, cem_gate
from letrack.classification import CategoryBank, CategoryEntry, classify_detection, vote
from letrack.core import BBox, Detection, InternalInvariantError, SequenceMeta, TrackState, TrackStatus
from letrack.io import (
    FrameDetections,
    SchemaError,
    SequenceDetections,
    SequenceTracks,
    TrackObservation,
    TrackRecord,
)
from letrack.maskops import RleMask, box_iou, rle_decode, rle_encode
from letrack.rng import SplitMix64
from letrack.synth import SynthResult, _draw_body, _draw_rect, _position, _rasterize, _rect_mask

# ---------------------------------------------------------------------------
# assignment


def assignment_oracle(scores, feasible=None) -> list[tuple[int, int]]:
    """Best matching by exhaustive enumeration.

    Preference chain, identical to the production contract: maximum total
    score (compared exactly), then maximum cardinality, then the
    lexicographically smallest sorted pair list.
    """
    n = len(scores)
    m = len(scores[0]) if n else 0

    def cell_ok(i: int, j: int) -> bool:
        return feasible is None or bool(feasible[i][j])

    best: list[tuple[Fraction, int, tuple[tuple[int, int], ...]]] = [
        (Fraction(0), 0, ())
    ]

    def consider(picked: list[tuple[int, int]]) -> None:
        total = sum((Fraction(scores[i][j]) for i, j in picked), Fraction(0))
        pairs = tuple(sorted(picked))
        cur = best[0]
        if (total, len(picked)) > (cur[0], cur[1]) or (
            (total, len(picked)) == (cur[0], cur[1]) and pairs < cur[2]
        ):
            best[0] = (total, len(picked), pairs)

    def rec(row: int, used_cols: frozenset[int], picked: list[tuple[int, int]]) -> None:
        if row == n:
            consider(picked)
            return
        rec(row + 1, used_cols, picked)
        for j in range(m):
            if j not in used_cols and cell_ok(row, j):
                picked.append((row, j))
                rec(row + 1, used_cols | {j}, picked)
                picked.pop()

    rec(0, frozenset(), [])
    return list(best[0][2])


# The cell encoding, one cell at a time through ``as_integer_ratio``.
# ``letrack.assignment`` builds the same layout in array passes from
# ``np.frexp``, so the reference never shares the encoding it judges.
def _encode_cells(
    cells: list[tuple[int, int, float]], n_rows: int, n_cols: int
) -> list[int]:
    """Map each feasible cell's score to the exact preference-carrying integer.

    Layout, from high to low bits: [scaled score][cardinality bit][lex bit].
    With R = n_rows * n_cols ranks, cell rank r contributes 2**R for being
    matched at all and 2**(R - 1 - r) for its position; the sum of every lex
    bit is < 2**R, so one extra matched cell beats any lex rearrangement,
    and the score is shifted left past the largest possible preference sum.
    """
    r_total = n_rows * n_cols
    k = min(n_rows, n_cols)
    shift = r_total + k.bit_length() + 1
    ratios = [float(v).as_integer_ratio() for (_, _, v) in cells]
    common_den = max(den for _, den in ratios)
    out = []
    for (i_loc, j_loc, _), (num, den) in zip(cells, ratios):
        scaled = num * (common_den // den)
        rank = i_loc * n_cols + j_loc
        out.append((scaled << shift) + (1 << r_total) + (1 << (r_total - 1 - rank)))
    return out


# The exact component solve as it stood before the rectangular solver: the
# same cell encoding, solved by enumeration when a component is tiny and
# otherwise as an (n_rows + n_cols)-square with a private zero-cost dummy per
# row and column.  It is the wide-component reference; assignment_oracle is
# brute force and only reaches about 8 x 8.


def solve_component_reference(cells: list[tuple[int, int, float]], n_rows: int, n_cols: int) -> list[int]:
    """Exact solve of one component given as row-major (row, col, score) cells.

    Rows and columns are local ranks in [0, n_rows) and [0, n_cols); the
    result holds the positions in ``cells`` of the chosen ones.
    """
    encoded = _encode_cells(cells, n_rows, n_cols)

    if n_rows == 1 or n_cols == 1:
        # At most one pair can be selected; argmax over encoded weights.
        best = None
        for k, enc in enumerate(encoded):
            if enc > 0 and (best is None or enc > best[0]):
                best = (enc, k)
        return [] if best is None else [best[1]]

    # Tiny components: enumerate matchings outright.  The encoding gives
    # every distinct matching a distinct integer sum whose order embeds the
    # full preference chain, so the argmax over sums is the same matching
    # the O(n^3) solve would return, without the big-integer machinery.
    row_cells: list[list[tuple[int, int, int]]] = [[] for _ in range(n_rows)]
    for k, ((i_loc, j_loc, _), enc) in enumerate(zip(cells, encoded)):
        row_cells[i_loc].append((j_loc, enc, k))
    work = 1
    for rc in row_cells:
        work *= len(rc) + 1
        if work > 200:
            break
    if work <= 200:
        best_sum = 0
        best_cells: tuple[int, ...] = ()
        chosen: list[int] = []

        def walk(idx: int, used: int, acc: int) -> None:
            nonlocal best_sum, best_cells
            if idx == n_rows:
                if acc > best_sum:
                    best_sum = acc
                    best_cells = tuple(chosen)
                return
            walk(idx + 1, used, acc)
            for j_loc, enc, k in row_cells[idx]:
                bit = 1 << j_loc
                if not used & bit:
                    chosen.append(k)
                    walk(idx + 1, used | bit, acc + enc)
                    chosen.pop()

        walk(0, 0, 0)
        return list(best_cells)

    cell_at = {(i_loc, j_loc): k for k, (i_loc, j_loc, _) in enumerate(cells)}
    big = sum(abs(e) for e in encoded) + 1
    size = n_rows + n_cols
    # Square min-cost matrix: real cells negated, each real row/column gets
    # a private zero-cost dummy ("stay unmatched"), dummy-dummy is free, and
    # everything else costs `big` so the optimum provably avoids it.
    cost = [[big] * size for _ in range(size)]
    for (i_loc, j_loc, _), enc in zip(cells, encoded):
        cost[i_loc][j_loc] = -enc
    for i_loc in range(n_rows):
        cost[i_loc][n_cols + i_loc] = 0
    for j_loc in range(n_cols):
        dummy_row = cost[n_rows + j_loc]
        dummy_row[j_loc] = 0
        for i_loc in range(n_rows):
            dummy_row[n_cols + i_loc] = 0
    col_of_row = _min_cost_perfect_reference(cost, inf=(big + 1) << 72)

    out = []
    for i_loc in range(n_rows):
        j_loc = col_of_row[i_loc]
        if j_loc < n_cols:
            k = cell_at.get((i_loc, j_loc))
            if k is None:
                raise InternalInvariantError("assignment selected a forbidden cell")
            out.append(k)
    return out


def _min_cost_perfect_reference(cost: list[list[int]], inf: int) -> list[int]:
    """Min-cost perfect assignment on a square integer matrix.

    Classic Hungarian algorithm with row/column potentials, O(n^3).  Runs on
    arbitrary-precision integers, so it is exact; `inf` must exceed every
    reachable reduced cost and only seeds the minima.  Returns, for each
    row, the column it is matched to.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: 1-based row matched to column j; p[0] is scratch
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            u_i0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u_i0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    col_of_row = [0] * n
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row


# ---------------------------------------------------------------------------
# tracker (one row at a time)


class ReferenceTracker:
    """``Tracker.step`` in its per-row form: the pool is stacked afresh every
    frame from the live tracks, each matched track's EMA is its own array
    operation, and each vote is its own ``classify_detection`` call."""

    def __init__(self, cfg: TrackerConfig | None = None, bank: CategoryBank | None = None):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        self.bank = bank
        self.diagnostics = Diagnostics()
        self.tracks: list[TrackState] = []
        self._next_id = 1

    def _cast_vote(self, track: TrackState, det: Detection) -> None:
        if self.bank is not None:
            category_id, _ = classify_detection(det.cls_emb, self.bank, self.diagnostics)
            vote(track, category_id)

    def step(self, frame_index: int, detections: list[Detection]) -> FrameAssignment:
        pool = [t for t in self.tracks if t.status is not TrackStatus.DEAD]
        n, m = len(detections), len(pool)
        if n > 0 and m > 0:
            det_app = np.stack([np.asarray(d.app_emb, np.float64) for d in detections])
            det_cls = np.stack([np.asarray(d.cls_emb, np.float64) for d in detections])
            pool_app = np.stack([t.app_emb_smoothed for t in pool])
            pool_cls = np.stack(
                [np.asarray(t.observations[-1][1].cls_emb, np.float64) for t in pool]
            )
            scores = bisoftmax_scores(det_app, pool_app)
            gate = cem_gate(det_cls, pool_cls, self.cfg.cem_gate_threshold, self.diagnostics)
            pairs = hungarian_max(scores, gate & (scores >= self.cfg.match_threshold))
        else:
            pairs = []

        matches = []
        momentum = self.cfg.embedding_momentum
        for i, j in pairs:
            det, track = detections[i], pool[j]
            track.observations.append((frame_index, det))
            track.app_emb_smoothed = (1.0 - momentum) * track.app_emb_smoothed + momentum * np.asarray(
                det.app_emb, dtype=np.float64
            )
            track.last_frame = frame_index
            track.status = TrackStatus.ACTIVE
            self._cast_vote(track, det)
            matches.append((i, track.track_id, float(scores[i, j])))

        matched_dets = {i for i, _ in pairs}
        new_tracks = []
        for i, det in enumerate(detections):
            if i in matched_dets or det.objectness < self.cfg.new_track_threshold:
                continue
            track = TrackState(
                track_id=self._next_id,
                app_emb_smoothed=np.asarray(det.app_emb, np.float64).copy(),
                last_frame=frame_index,
                observations=[(frame_index, det)],
                status=TrackStatus.ACTIVE,
            )
            self._next_id += 1
            self.tracks.append(track)
            self._cast_vote(track, det)
            new_tracks.append((i, track.track_id))

        matched_pool = {j for _, j in pairs}
        unmatched_tracks = []
        for j, track in enumerate(pool):
            if j in matched_pool:
                continue
            track.status = TrackStatus.LOST
            if frame_index - track.last_frame > self.cfg.max_lost_frames:
                track.status = TrackStatus.DEAD
            unmatched_tracks.append(track.track_id)
        return FrameAssignment(tuple(matches), tuple(new_tracks), tuple(unmatched_tracks))


# ---------------------------------------------------------------------------
# evaluation: the pool cell by cell, and one class-agnostic pool's scores


def _obs_by_frame(track) -> dict[int, object]:
    return {ob.frame: ob for ob in track.observations}


def hota_oracle(gt_tracks, pred_tracks, alpha: float) -> dict:
    """First-principles single-pool scores at one alpha.

    The similarity is box IoU (the shared geometry primitive, tested on its
    own); everything downstream of it is recomputed literally: global
    alignment by counting frames, per-frame matching by exhaustive
    enumeration of the float weights with the production tie-break, and
    association accuracy by counting the TPA/FNA/FPA detection sets of each
    matched pair rather than through any closed form.
    """
    gt_tracks = sorted(gt_tracks, key=lambda t: t.track_id)
    pred_tracks = sorted(pred_tracks, key=lambda t: t.track_id)
    gt_obs = [_obs_by_frame(t) for t in gt_tracks]
    pred_obs = [_obs_by_frame(t) for t in pred_tracks]
    gt_total = sum(len(o) for o in gt_obs)
    pred_total = sum(len(o) for o in pred_obs)
    frames = sorted(set().union(*[set(o) for o in gt_obs + pred_obs]) if gt_obs + pred_obs else set())

    def sim(g: int, p: int, frame: int) -> float | None:
        if frame not in gt_obs[g] or frame not in pred_obs[p]:
            return None
        return box_iou(gt_obs[g][frame].box, pred_obs[p][frame].box)

    # global alignment score per pair
    a_glob: dict[tuple[int, int], float] = {}
    for g in range(len(gt_tracks)):
        for p in range(len(pred_tracks)):
            c = 0
            for frame in frames:
                s = sim(g, p, frame)
                if s is not None and s >= alpha:
                    c += 1
            denom = len(gt_obs[g]) + len(pred_obs[p]) - c
            a_glob[(g, p)] = c / denom if denom > 0 else 0.0

    # per-frame exhaustive matching over float weights
    match_of_gt: dict[int, dict[int, int]] = {}  # frame -> {g: p}
    for frame in frames:
        g_here = [g for g in range(len(gt_tracks)) if frame in gt_obs[g]]
        p_here = [p for p in range(len(pred_tracks)) if frame in pred_obs[p]]
        if not g_here or not p_here:
            continue
        weights = [
            [a_glob[(g, p)] + sim(g, p, frame) / 1000.0 for p in p_here] for g in g_here
        ]
        ok = [[sim(g, p, frame) >= alpha for p in p_here] for g in g_here]
        pairs = assignment_oracle(weights, ok)
        match_of_gt[frame] = {g_here[a]: p_here[b] for a, b in pairs}

    tp = sum(len(m) for m in match_of_gt.values())
    fn = gt_total - tp
    fp = pred_total - tp

    # association accuracy: literal TPA/FNA/FPA per TP
    ass_sum = Fraction(0)
    for frame, matched in match_of_gt.items():
        for g, p in matched.items():
            tpa = fna = fpa = 0
            for other in frames:
                g_present = other in gt_obs[g]
                p_present = other in pred_obs[p]
                g_match = match_of_gt.get(other, {}).get(g)
                if g_present and g_match == p:
                    tpa += 1
                    continue
                if g_present:
                    fna += 1
                if p_present:
                    p_matched_to = None
                    for gg, pp in match_of_gt.get(other, {}).items():
                        if pp == p:
                            p_matched_to = gg
                            break
                    if p_matched_to != g:
                        fpa += 1
            ass_sum += Fraction(tpa, tpa + fna + fpa)

    det_a = tp / (tp + fn + fp) if tp + fn + fp > 0 else 0.0
    det_re = tp / (tp + fn) if tp + fn > 0 else 0.0
    ass_a = float(ass_sum / tp) if tp > 0 else 0.0
    return {
        "tp": tp,
        "fn": fn,
        "fp": fp,
        "det_a": det_a,
        "det_re": det_re,
        "ass_a": ass_a,
        "hota": math.sqrt(det_a * ass_a),
        "owta": math.sqrt(det_re * ass_a),
    }


def pool_reference(gt_tracks, pred_tracks, geometry: str, same_category: bool = False) -> dict:
    """The evaluator's flat pool, cell by cell.

    For each frame both sides hold and each (gt, pred) pair in it, tracks in
    id order: mask IoU counted on the two ``rle_decode`` bitmaps when both
    observations have a mask in mask geometry, else box IoU (a box fallback
    in mask geometry).  With ``same_category`` a pair of different categories
    is skipped.  Cells with similarity > 0 are kept, in frame then row-major
    order; ``pair`` numbers the distinct (gt, pred) pairs in row-major order.
    """
    gt_tracks = sorted(gt_tracks, key=lambda t: t.track_id)
    pred_tracks = sorted(pred_tracks, key=lambda t: t.track_id)
    gt_obs = [_obs_by_frame(t) for t in gt_tracks]
    pred_obs = [_obs_by_frame(t) for t in pred_tracks]
    shared = set().union(*map(set, gt_obs)) & set().union(*map(set, pred_obs))
    cells, fallback = [], 0
    for frame in sorted(shared):
        for g, g_obs in enumerate(gt_obs):
            for p, p_obs in enumerate(pred_obs):
                if frame not in g_obs or frame not in p_obs:
                    continue
                if same_category and gt_tracks[g].category_id != pred_tracks[p].category_id:
                    continue
                a, b = g_obs[frame], p_obs[frame]
                if geometry == "mask" and a.mask is not None and b.mask is not None:
                    bits_a, bits_b = rle_decode(a.mask), rle_decode(b.mask)
                    inter = int(np.logical_and(bits_a, bits_b).sum())
                    union = int(np.logical_or(bits_a, bits_b).sum())
                    sim = inter / union if union else 0.0
                else:
                    fallback += geometry == "mask"
                    sim = box_iou(a.box, b.box)
                if sim > 0.0:
                    cells.append((frame, g, p, sim))
    pair_ids = {gp: k for k, gp in enumerate(sorted({(g, p) for _, g, p, _ in cells}))}
    return {
        "frame": [c[0] for c in cells],
        "gt": [c[1] for c in cells],
        "pred": [c[2] for c in cells],
        "sim": [c[3] for c in cells],
        "pair": [pair_ids[(g, p)] for _, g, p, _ in cells],
        "box_fallback_pairs": fallback,
    }


# ---------------------------------------------------------------------------
# synthesis: the random stream and rectangle masks, one element at a time


def gauss_vec_reference(rng: SplitMix64, n: int) -> np.ndarray:
    """n scalar ``gauss()`` calls, in order."""
    return np.array([rng.gauss() for _ in range(n)], dtype=np.float64)


def generate_reference(cfg):
    """``letrack.synth.generate`` as one loop: each kept detection draws its
    noise with ``gauss_vec_reference`` and is built on the spot."""
    rng = SplitMix64(cfg.seed)
    n_common = int(math.floor(cfg.fraction_common * cfg.num_categories + 0.5))
    prototypes, entries = [], []
    for c in range(cfg.num_categories):
        proto = rng.unit_vector(cfg.cls_emb_dim)
        prototypes.append(proto)
        split = "common" if c < n_common else "uncommon"
        entries.append(CategoryEntry(category_id=c + 1, name=f"category_{c + 1:02d}", split=split, prototype=proto))
    bodies = [_draw_body(rng, cfg) for _ in range(cfg.num_tracks)]
    gt_obs = [[] for _ in bodies]
    frames = []
    for t in range(cfg.num_frames):
        dets = []
        for k, body in enumerate(bodies):
            xi, yi = _position(body, t, cfg)
            gt_box = BBox(float(xi), float(yi), float(body.w), float(body.h))
            mask = _rect_mask(cfg.frame_height, cfg.frame_width, xi, yi, body.w, body.h)
            gt_obs[k].append(TrackObservation(frame=t, box=gt_box, mask=mask))
            if rng.uniform() < cfg.p_drop:
                continue
            noise = gauss_vec_reference(rng, 4 + cfg.app_emb_dim + cfg.cls_emb_dim)
            jitter = noise[:4].tolist()
            s = cfg.box_jitter_sigma
            det_box = BBox(
                gt_box.x + jitter[0] * s,
                gt_box.y + jitter[1] * s,
                max(gt_box.w + jitter[2] * s, 0.0),
                max(gt_box.h + jitter[3] * s, 0.0),
            )
            dets.append(Detection(
                frame_index=t,
                box=det_box,
                objectness=0.95,
                app_emb=body.identity + noise[4 : 4 + cfg.app_emb_dim] * cfg.app_noise_sigma,
                cls_emb=prototypes[body.category_id - 1]
                + noise[4 + cfg.app_emb_dim :] * cfg.cls_noise_sigma,
                mask=_rasterize(det_box, cfg.frame_height, cfg.frame_width),
            ))
        for _ in range(cfg.num_tracks):
            if rng.uniform() >= cfg.p_fp / cfg.num_tracks:
                continue
            w, h, x0, y0 = _draw_rect(rng, cfg)
            app_emb = rng.unit_vector(cfg.app_emb_dim)
            cls_emb = rng.unit_vector(cfg.cls_emb_dim)
            dets.append(Detection(
                frame_index=t,
                box=BBox(float(x0), float(y0), float(w), float(h)),
                objectness=rng.uniform_in(0.3, 0.8),
                app_emb=app_emb,
                cls_emb=cls_emb,
                mask=_rect_mask(cfg.frame_height, cfg.frame_width, x0, y0, w, h),
            ))
        frames.append(FrameDetections(index=t, detections=dets))
    meta = SequenceMeta(f"synth_{cfg.seed:04d}", cfg.frame_height, cfg.frame_width, cfg.num_frames)
    gt_tracks = [
        TrackRecord(track_id=k + 1, observations=gt_obs[k], category_id=bodies[k].category_id)
        for k in range(cfg.num_tracks)
    ]
    return SynthResult(
        gt=[SequenceTracks(meta=meta, tracks=gt_tracks)],
        detections=[SequenceDetections(meta=meta, frames=frames)],
        bank=CategoryBank(entries),
    )


def rect_mask_reference(height: int, width: int, x0: int, y0: int, w: int, h: int) -> RleMask:
    """Paint the rectangle on a full grid, then run-length encode it."""
    grid = np.zeros((height, width), dtype=bool)
    grid[y0 : y0 + h, x0 : x0 + w] = True
    return rle_encode(grid)


# ---------------------------------------------------------------------------
# JSON documents: per-element loaders, validators and writer


def dumps_canonical_reference(obj: Any) -> str:
    """Canonical JSON, one recursive call per value."""
    parts: list[str] = []
    _dump_reference(obj, parts)
    return "".join(parts)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return "%.9g" % (x,)


def _dump_reference(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _dump_reference(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _dump_reference(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _dump_reference(obj.tolist(), out)
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def validate_rle_reference(mask: RleMask) -> list[str]:
    issues: list[str] = []
    h, w = mask.size
    if h < 0 or w < 0:
        issues.append(f"size must be non-negative, got ({h}, {w})")
        return issues
    total = h * w
    counts = mask.counts
    if total > 0 and len(counts) == 0:
        issues.append(f"counts is empty for a {h}x{w} mask")
        return issues
    for i, c in enumerate(counts):
        if c < 0:
            issues.append(f"counts[{i}] is negative: {c}")
        elif c == 0 and i != 0:
            issues.append(f"counts[{i}] is a zero-length interior run")
    got = sum(counts)
    if got != total:
        issues.append(f"counts sum to {got} pixels, expected {total} for size ({h}, {w})")
    return issues


def _check_box(box: BBox, where: str, issues: list[str]) -> None:
    vals = (box.x, box.y, box.w, box.h)
    if not all(np.isfinite(v) for v in vals):
        issues.append(f"{where}: box coordinates must be finite, got {vals}")
        return
    if box.w < 0 or box.h < 0:
        issues.append(f"{where}: box width/height must be >= 0, got w={box.w} h={box.h}")


def validate_sequence_reference(meta: SequenceMeta, detections: list[Detection]) -> list[str]:
    issues: list[str] = []
    if meta.height < 1 or meta.width < 1:
        issues.append(f"meta: frame size must be >= 1x1, got {meta.height}x{meta.width}")
    if meta.num_frames < 1:
        issues.append(f"meta: num_frames must be >= 1, got {meta.num_frames}")
    elif meta.num_frames >= 2**63:
        issues.append(f"meta: num_frames must be <= 2**63 - 1, got {meta.num_frames}")

    app_dim: int | None = None
    cls_dim: int | None = None
    for i, det in enumerate(detections):
        where = f"detections[{i}]"
        if not (0 <= det.frame_index < meta.num_frames):
            issues.append(
                f"{where}: frame_index out of range, got {det.frame_index} "
                f"for {meta.num_frames} frames"
            )
        if not (np.isfinite(det.objectness) and 0.0 <= det.objectness <= 1.0):
            issues.append(f"{where}: objectness out of range [0, 1], got {det.objectness}")
        _check_box(det.box, where, issues)

        for name, emb in (("app_emb", det.app_emb), ("cls_emb", det.cls_emb)):
            if emb.ndim != 1:
                issues.append(f"{where}: {name} must be 1-D, got shape {emb.shape}")
                continue
            if emb.size == 0:
                issues.append(f"{where}: {name} must be non-empty")
                continue
            if not np.all(np.isfinite(emb)):
                issues.append(f"{where}: {name} has non-finite values")
        if det.app_emb.ndim == 1 and det.app_emb.size > 0:
            if app_dim is None:
                app_dim = det.app_emb.size
            elif det.app_emb.size != app_dim:
                issues.append(
                    f"{where}: app_emb embedding dimension mismatch, "
                    f"got {det.app_emb.size}, expected {app_dim}"
                )
        if det.cls_emb.ndim == 1 and det.cls_emb.size > 0:
            if cls_dim is None:
                cls_dim = det.cls_emb.size
            elif det.cls_emb.size != cls_dim:
                issues.append(
                    f"{where}: cls_emb embedding dimension mismatch, "
                    f"got {det.cls_emb.size}, expected {cls_dim}"
                )
        if det.mask is not None and tuple(det.mask.size) != (meta.height, meta.width):
            issues.append(
                f"{where}: mask size {tuple(det.mask.size)} does not match "
                f"sequence size ({meta.height}, {meta.width})"
            )
    return issues


@dataclass
class _Ctx:
    lax: bool
    issues: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def issue(self, path: str, msg: str) -> None:
        self.issues.append(f"{path}: {msg}")

    def check_keys(self, obj: dict, path: str, known) -> None:
        for key in sorted(set(obj) - set(known)):
            msg = f"{path}.{key}: unknown field"
            if self.lax:
                self.warnings.append(msg)
            else:
                self.issues.append(msg)

    def finish(self) -> list[str]:
        if self.issues:
            raise SchemaError(self.issues)
        return self.warnings


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The least integer magnitude that rounds to infinity as a double: halfway
# between the largest finite double, 2**1024 - 2**971, and 2**1024, a tie
# that round-half-to-even sends up.
_DOUBLE_OVERFLOW = 2**1024 - 2**970


def _is_double(v: Any) -> bool:
    """A number that fits a double (RFC 8259 section 6); an integer beyond
    that range is a fault at its field."""
    return _is_num(v) and (isinstance(v, float) or abs(v) < _DOUBLE_OVERFLOW)


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _get_obj(v: Any, path: str, ctx: _Ctx) -> dict | None:
    if not isinstance(v, dict):
        ctx.issue(path, f"expected an object, got {type(v).__name__}")
        return None
    return v


def _get_list(v: Any, path: str, ctx: _Ctx) -> list | None:
    if not isinstance(v, list):
        ctx.issue(path, f"expected an array, got {type(v).__name__}")
        return None
    return v


def _get_int(obj: dict, key: str, path: str, ctx: _Ctx, minimum: int | None = None) -> int | None:
    if key not in obj:
        ctx.issue(f"{path}.{key}", "missing required field")
        return None
    v = obj[key]
    if not _is_int(v):
        ctx.issue(f"{path}.{key}", f"expected an integer, got {v!r}")
        return None
    if minimum is not None and v < minimum:
        ctx.issue(f"{path}.{key}", f"expected an integer >= {minimum}, got {v}")
        return None
    return v


def _get_str(obj: dict, key: str, path: str, ctx: _Ctx) -> str | None:
    if key not in obj:
        ctx.issue(f"{path}.{key}", "missing required field")
        return None
    v = obj[key]
    if not isinstance(v, str):
        ctx.issue(f"{path}.{key}", f"expected a string, got {type(v).__name__}")
        return None
    return v


def _parse_meta(obj: dict, path: str, ctx: _Ctx) -> SequenceMeta | None:
    name = _get_str(obj, "name", path, ctx)
    height = _get_int(obj, "height", path, ctx, minimum=1)
    width = _get_int(obj, "width", path, ctx, minimum=1)
    num_frames = _get_int(obj, "num_frames", path, ctx, minimum=1)
    if None in (name, height, width, num_frames):
        return None
    return SequenceMeta(name=name, height=height, width=width, num_frames=num_frames)


def _root_list(obj: Any, ctx: _Ctx, key: str) -> list | None:
    """The array under ``key`` of a root object whose only field is ``key``;
    None, with the issue filed on ``ctx``, when either is malformed."""
    root = _get_obj(obj, "$", ctx)
    if root is None:
        return None
    ctx.check_keys(root, "$", frozenset({key}))
    if key not in root:
        ctx.issue(key, "missing required field")
        return None
    return _get_list(root[key], key, ctx)


def _sequences(obj: Any, ctx: _Ctx, body_key: str) -> Iterator[tuple[str, SequenceMeta, list]]:
    """Yield (path, meta, body) for each sequence whose shared fields parse.

    Checks what every sequence document shares, filing issues on ``ctx``:
    the root object, the ``sequences`` array, each sequence's unknown keys,
    its meta, its ``body_key`` array and duplicate sequence names.
    """
    seq_list = _root_list(obj, ctx, "sequences")
    if seq_list is None:
        return
    known = frozenset({"name", "height", "width", "num_frames", body_key})
    names: set[str] = set()
    for si, seq_v in enumerate(seq_list):
        path = f"sequences[{si}]"
        seq_obj = _get_obj(seq_v, path, ctx)
        if seq_obj is None:
            continue
        ctx.check_keys(seq_obj, path, known)
        meta = _parse_meta(seq_obj, path, ctx)
        if body_key not in seq_obj:
            ctx.issue(f"{path}.{body_key}", "missing required field")
            continue
        body = _get_list(seq_obj[body_key], f"{path}.{body_key}", ctx)
        if meta is None or body is None:
            continue
        if meta.name in names:
            ctx.issue(f"{path}.name", f"duplicate sequence name {meta.name!r}")
        names.add(meta.name)
        yield path, meta, body


def _missing(obj: dict, key: str, path: str, ctx: _Ctx) -> bool:
    """File a missing required field; such a field gets no second issue."""
    if key in obj:
        return False
    ctx.issue(f"{path}.{key}", "missing required field")
    return True


def _parse_box(v: Any, path: str, ctx: _Ctx) -> BBox | None:
    if not (isinstance(v, list) and len(v) == 4 and all(_is_double(x) for x in v)):
        ctx.issue(path, "expected 4 numbers")
        return None
    return BBox(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


def _parse_vector(v: Any, path: str, ctx: _Ctx) -> np.ndarray | None:
    if not (isinstance(v, list) and len(v) > 0 and all(_is_double(x) for x in v)):
        ctx.issue(path, "expected a non-empty array of numbers")
        return None
    return np.asarray(v, dtype=np.float64)


def _parse_mask(v: Any, path: str, ctx: _Ctx, seq_size: tuple[int, int]) -> RleMask | None:
    n_issues = len(ctx.issues)
    obj = _get_obj(v, path, ctx)
    if obj is None:
        return None
    ctx.check_keys(obj, path, ("counts", "size"))
    size_v = obj.get("size")
    counts_v = obj.get("counts")
    if not (isinstance(size_v, list) and len(size_v) == 2 and all(_is_int(x) for x in size_v)):
        ctx.issue(f"{path}.size", "expected [height, width] integers")
        return None
    if not (isinstance(counts_v, list) and all(_is_int(x) for x in counts_v)):
        ctx.issue(f"{path}.counts", "expected an array of integers")
        return None
    mask = RleMask(size=(size_v[0], size_v[1]), counts=tuple(counts_v))
    for msg in validate_rle_reference(mask):
        ctx.issue(path, msg)
    if tuple(mask.size) != seq_size:
        ctx.issue(
            f"{path}.size",
            f"mask size {tuple(mask.size)} does not match sequence size {seq_size}",
        )
    return mask if len(ctx.issues) == n_issues else None


def detections_from_jsonable_reference(
    obj: Any, lax: bool = False
) -> tuple[list[SequenceDetections], list[str]]:
    ctx = _Ctx(lax=lax)
    sequences: list[SequenceDetections] = []
    for spath, meta, frames_list in _sequences(obj, ctx, "frames"):
        seq_size = (meta.height, meta.width)
        frames: list[FrameDetections] = []
        prev_index: int | None = None
        for fi, fr_v in enumerate(frames_list):
            fpath = f"{spath}.frames[{fi}]"
            fr_obj = _get_obj(fr_v, fpath, ctx)
            if fr_obj is None:
                continue
            ctx.check_keys(fr_obj, fpath, ("index", "detections"))
            index = _get_int(fr_obj, "index", fpath, ctx, minimum=0)
            dets_list = None
            if not _missing(fr_obj, "detections", fpath, ctx):
                dets_list = _get_list(fr_obj["detections"], f"{fpath}.detections", ctx)
            if index is None or dets_list is None:
                continue
            in_range = index < meta.num_frames
            if not in_range:
                ctx.issue(
                    f"{fpath}.index",
                    f"frame index {index} out of range for {meta.num_frames} frames",
                )
            if prev_index is not None and index <= prev_index:
                ctx.issue(f"{fpath}.index", "frame indices must be strictly ascending")
            prev_index = index
            dets: list[Detection] = []
            for di, det_v in enumerate(dets_list):
                dpath = f"{fpath}.detections[{di}]"
                det_obj = _get_obj(det_v, dpath, ctx)
                if det_obj is None:
                    continue
                ctx.check_keys(det_obj, dpath, ("box", "score", "mask", "app_emb", "cls_emb"))
                box = score_v = app = cls = None
                if not _missing(det_obj, "box", dpath, ctx):
                    box = _parse_box(det_obj["box"], f"{dpath}.box", ctx)
                if not _missing(det_obj, "score", dpath, ctx):
                    score_v = det_obj["score"]
                    if not _is_double(score_v):
                        ctx.issue(f"{dpath}.score", f"expected a number, got {score_v!r}")
                        score_v = None
                if not _missing(det_obj, "app_emb", dpath, ctx):
                    app = _parse_vector(det_obj["app_emb"], f"{dpath}.app_emb", ctx)
                if not _missing(det_obj, "cls_emb", dpath, ctx):
                    cls = _parse_vector(det_obj["cls_emb"], f"{dpath}.cls_emb", ctx)
                mask = None
                if det_obj.get("mask") is not None:
                    mask = _parse_mask(det_obj["mask"], f"{dpath}.mask", ctx, seq_size)
                if not in_range or box is None or score_v is None or app is None or cls is None:
                    continue
                dets.append(
                    Detection(
                        frame_index=index,
                        box=box,
                        objectness=float(score_v),
                        app_emb=app,
                        cls_emb=cls,
                        mask=mask,
                    )
                )
            frames.append(FrameDetections(index=index, detections=dets))
        seq = SequenceDetections(meta=meta, frames=frames)
        for msg in validate_sequence_reference(meta, seq.all_detections()):
            ctx.issue(spath, msg)
        sequences.append(seq)
    return sequences, ctx.finish()


def tracks_from_jsonable_reference(
    obj: Any, lax: bool = False
) -> tuple[list[SequenceTracks], list[str]]:
    ctx = _Ctx(lax=lax)
    sequences: list[SequenceTracks] = []
    for spath, meta, tracks_list in _sequences(obj, ctx, "tracks"):
        seq_size = (meta.height, meta.width)
        tracks: list[TrackRecord] = []
        seen_ids: set[int] = set()
        for ti, tr_v in enumerate(tracks_list):
            tpath = f"{spath}.tracks[{ti}]"
            tr_obj = _get_obj(tr_v, tpath, ctx)
            if tr_obj is None:
                continue
            ctx.check_keys(tr_obj, tpath, ("track_id", "category_id", "score", "observations"))
            track_id = _get_int(tr_obj, "track_id", tpath, ctx, minimum=1)
            if track_id is not None:
                if track_id in seen_ids:
                    ctx.issue(f"{tpath}.track_id", f"duplicate track id {track_id}")
                seen_ids.add(track_id)
            category_id: int | None = None
            if tr_obj.get("category_id") is not None:
                cv = tr_obj["category_id"]
                if not _is_int(cv):
                    ctx.issue(f"{tpath}.category_id", f"expected an integer, got {cv!r}")
                else:
                    category_id = cv
            score: float | None = None
            if tr_obj.get("score") is not None:
                sv = tr_obj["score"]
                if not _is_double(sv) or not math.isfinite(sv):
                    ctx.issue(f"{tpath}.score", f"expected a finite number, got {sv!r}")
                else:
                    score = float(sv)
            if "observations" not in tr_obj:
                ctx.issue(f"{tpath}.observations", "missing required field")
                continue
            obs_list = _get_list(tr_obj["observations"], f"{tpath}.observations", ctx)
            if obs_list is None or track_id is None:
                continue
            if len(obs_list) == 0:
                ctx.issue(f"{tpath}.observations", "a track needs at least one observation")
            observations: list[TrackObservation] = []
            prev_frame: int | None = None
            for oi, ob_v in enumerate(obs_list):
                opath = f"{tpath}.observations[{oi}]"
                ob_obj = _get_obj(ob_v, opath, ctx)
                if ob_obj is None:
                    continue
                ctx.check_keys(ob_obj, opath, ("frame", "box", "mask"))
                frame = _get_int(ob_obj, "frame", opath, ctx, minimum=0)
                box = None
                if not _missing(ob_obj, "box", opath, ctx):
                    box = _parse_box(ob_obj["box"], f"{opath}.box", ctx)
                mask = None
                if ob_obj.get("mask") is not None:
                    mask = _parse_mask(ob_obj["mask"], f"{opath}.mask", ctx, seq_size)
                if frame is None or box is None:
                    continue
                if frame >= meta.num_frames:
                    ctx.issue(
                        f"{opath}.frame",
                        f"frame {frame} out of range for {meta.num_frames} frames",
                    )
                if prev_frame is not None and frame <= prev_frame:
                    ctx.issue(
                        f"{opath}.frame",
                        "observation frames must be strictly ascending "
                        "(one observation per frame)",
                    )
                prev_frame = frame
                if not all(math.isfinite(v) for v in box.as_tuple()):
                    ctx.issue(f"{opath}.box", "box coordinates must be finite")
                elif box.w < 0 or box.h < 0:
                    ctx.issue(f"{opath}.box", "box width/height must be >= 0")
                observations.append(TrackObservation(frame=frame, box=box, mask=mask))
            tracks.append(
                TrackRecord(
                    track_id=track_id,
                    observations=observations,
                    category_id=category_id,
                    score=score,
                )
            )
        sequences.append(SequenceTracks(meta=meta, tracks=tracks))
    return sequences, ctx.finish()


def rle_to_string(counts) -> str:
    """COCO compressed RLE string of integer runs (cocoapi ``rleToString``)."""
    out = []
    for i, cnt in enumerate(counts):
        x = cnt - counts[i - 2] if i > 2 else cnt
        more = True
        while more:
            c = x & 0x1F
            x >>= 5
            more = x != -1 if c & 0x10 else x != 0
            if more:
                c |= 0x20
            out.append(chr(c + 48))
    return "".join(out)
