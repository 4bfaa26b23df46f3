"""Higher-order tracking evaluation: HOTA (closed world) and OWTA (open world).

Matching is decided per alpha in two passes.  Pass one scores every
(gt track, pred track) pair globally: with C the number of frames where the
pair's similarity reaches alpha and T the two track lengths,

    A_glob(g, p) = C / (T_g + T_p - C).

Pass two matches each frame independently with an exact assignment over the
pairs present in that frame whose similarity reaches alpha, maximizing
A_glob + S/1000; the small similarity term only breaks ties between
globally equivalent pairs.  Matched detections are TPs, leftover gt
detections FNs, leftover predictions FPs.

A sequence's pool is flat: one entry per (frame, gt, pred) cell whose
similarity is > 0, the only cells any alpha in (0, 1) can admit, each with
the id of its (gt, pred) pair.  It is built from one frame index per side
over the frames both hold: box IoU frame by frame, then the mask IoU of
every cell with two masks (in closed mode, of one category) in one pass
per block of frames whose masks fill ``_CHUNK_BYTES`` packed, each mask
packed once.  Pass one is then one ``np.bincount`` over the pair ids of
the cells that reach alpha, and pass two one ``assign_cells`` call for all
frames at once, rows keyed by (frame, gt) and columns by (frame, pred), so
frames stay independent.

Association accuracy averages, over TPs, A(c) = TPA / (TPA + FNA + FPA).
Every gt detection is a TP or an FN and every prediction a TP or an FP, so
for a TP of pair (g, p) with m matched frames this is exactly
m / (T_g + T_p - m); the implementation uses that identity while the test
oracle counts the TPA/FNA/FPA sets literally.

Both modes match each sequence as one pool.  Closed world gives a pair of
different categories similarity 0, below every alpha, so it never matches;
it reads out each category's TPs, FNs and FPs and averages categories
unweighted (categories without gt tracks are skipped, their predictions
included).  Open world ignores prediction labels and reports
OWTA = sqrt(DetRe * AssA); the common/uncommon splits only filter which gt
tracks are read out of the one matching.

Scores are accumulated across sequences per alpha and averaged over the
alpha grid at the end.  All reported values live in [0, 1]; 0/0 ratios are
defined as 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .assignment import assign_cells
from .classification import SPLITS, CategoryBank
from .io import SchemaError, SequenceTracks, TrackObservation, TrackRecord
from .maskops import _CHUNK_BYTES, RleMask, _one_size, _pack, _pair_iou, box_iou_matrix
from .parallel import map_ordered

__all__ = [
    "DEFAULT_ALPHAS",
    "EvalConfig",
    "MetricsReport",
    "SplitScores",
    "CategoryScores",
    "evaluate",
    "hota_alpha",
    "match_frames",
]

# 0.05, 0.10, ..., 0.95
DEFAULT_ALPHAS: tuple[float, ...] = tuple(k / 20 for k in range(1, 20))

# Weight of the per-frame similarity tie-breaker in the pass-two objective.
TIE_BREAK_DIVISOR = 1000.0

# Per mode: the combined score, the detection score and its table header.
_NAMES = {"closed": ("HOTA", "DetA", "DETA"), "open": ("OWTA", "DetRe", "DETRe")}
MODES = tuple(_NAMES)
GEOMETRIES = ("mask", "box")


def _check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class EvalConfig:
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    mode: str = "closed"
    geometry: str = "mask"

    def __post_init__(self) -> None:
        _check_choice("mode", self.mode, MODES)
        _check_choice("geometry", self.geometry, GEOMETRIES)
        if len(self.alphas) == 0:
            raise ValueError("alphas must not be empty")
        prev = 0.0
        for a in self.alphas:
            # NaN fails the comparison too.
            if not (0.0 < a < 1.0):
                raise ValueError(f"alphas must lie strictly inside (0, 1), got {a}")
            if a <= prev:
                raise ValueError("alphas must be strictly increasing")
            prev = a


# ---------------------------------------------------------------------------
# per-pool machinery


@dataclass
class _PoolData:
    """Precomputed geometry for the gt and pred tracks of one sequence."""

    gt_tracks: list[TrackRecord]  # by track id; the indices below refer to these
    pred_tracks: list[TrackRecord]
    gt_len: np.ndarray  # observations per gt track
    pred_len: np.ndarray
    # One entry per (frame, gt, pred) cell with similarity > 0, in frame
    # order and row-major within a frame; ``pair`` numbers the distinct
    # (gt, pred) pairs in row-major order.  Every alpha is > 0, so no other
    # cell can ever match.
    frame: np.ndarray
    gt: np.ndarray
    pred: np.ndarray
    sim: np.ndarray
    pair: np.ndarray
    box_fallback_pairs: int


def _track_fault(track: TrackRecord) -> Optional[str]:
    """Why ``track`` cannot be scored, or None: it needs observations, on
    distinct frames."""
    frames = [ob.frame for ob in track.observations]
    if not frames:
        return "has no observations"
    if len(set(frames)) < len(frames):
        dups = sorted(f for f, n in Counter(frames).items() if n > 1)
        return "has duplicate observations for frame(s) " + ", ".join(map(str, dups))
    return None


def _build_pool(
    gt_tracks: list[TrackRecord],
    pred_tracks: list[TrackRecord],
    geometry: str,
    same_category: bool = False,
) -> _PoolData:
    """Similarity of every (gt, pred) pair in each frame where both are present.

    Takes valid tracks (see ``_track_fault``) and sorts them by track id.
    Only the cells with similarity > 0 are kept, as flat arrays.  In mask
    geometry a pair with two masks (one size per frame) gets their IoU, any
    other a box fallback.  With ``same_category`` a pair whose category ids
    differ gets similarity 0, below every alpha, so it never matches, nor
    counts as a box fallback.
    """
    gt_tracks = sorted(gt_tracks, key=lambda t: t.track_id)
    pred_tracks = sorted(pred_tracks, key=lambda t: t.track_id)
    if same_category:
        gt_cat = np.array([t.category_id for t in gt_tracks], dtype=np.int64)
        pred_cat = np.array([t.category_id for t in pred_tracks], dtype=np.int64)
    # One frame index per side: frame -> [(track index, observation)].
    gt_index: dict[int, list[tuple[int, TrackObservation]]] = {}
    pred_index: dict[int, list[tuple[int, TrackObservation]]] = {}
    for tracks, index in ((gt_tracks, gt_index), (pred_tracks, pred_index)):
        for i, t in enumerate(tracks):
            for ob in t.observations:
                index.setdefault(ob.frame, []).append((i, ob))

    # An empty first part fixes the dtypes when no cell is kept.
    parts = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0),)]
    fallback = 0
    # Mask geometry: a block of frames' kept cells, each with the rows of its
    # masks (-1: none), and their masks in frame order.  A block is scored in
    # one pass once its masks fill ``_CHUNK_BYTES`` packed.
    block: list[tuple[np.ndarray, ...]] = []
    masks: list[RleMask] = []
    packed = 0

    def score_block() -> None:
        nonlocal packed
        frame_of, g, p, sim, ra, rb = (np.concatenate(col) for col in zip(*block))
        two = (ra >= 0) & (rb >= 0)
        sim[two] = _pair_iou(_pack(masks), ra[two], rb[two])
        keep = sim > 0.0
        parts.append((frame_of[keep], g[keep], p[keep], sim[keep]))
        block.clear()
        masks.clear()
        packed = 0

    for frame in sorted(gt_index.keys() & pred_index.keys()):
        g_idx, g_ob = zip(*gt_index[frame])
        p_idx, p_ob = zip(*pred_index[frame])
        g_arr = np.asarray(g_idx, np.int64)
        p_arr = np.asarray(p_idx, np.int64)
        sim = box_iou_matrix([ob.box for ob in g_ob], [ob.box for ob in p_ob])
        same = gt_cat[g_arr][:, None] == pred_cat[p_arr] if same_category else np.True_
        if geometry == "box":
            a, b = np.nonzero(same & (sim > 0.0))
            parts.append((np.full(len(a), frame), g_arr[a], p_arr[b], sim[a, b]))
            continue
        if packed >= _CHUNK_BYTES:
            score_block()
        h, w = _one_size([ob.mask for ob in (*g_ob, *p_ob) if ob.mask is not None])
        rows = []
        for obs in (g_ob, p_ob):
            has = np.array([ob.mask is not None for ob in obs])
            rows.append(np.where(has, np.cumsum(has) + (len(masks) - 1), -1))
            masks += [ob.mask for ob in obs if ob.mask is not None]
            packed += int(has.sum()) * -(-h * w // 64) * 8
        g_row, p_row = rows
        # Pairs where either side lacks a mask keep their box IoU.
        masked = (g_row[:, None] >= 0) & (p_row >= 0)
        fallback += int(np.count_nonzero(same & ~masked))
        a, b = np.nonzero(same & (masked | (sim > 0.0)))
        block.append((np.full(len(a), frame), g_arr[a], p_arr[b], sim[a, b], g_row[a], p_row[b]))
    if block:
        score_block()
    frame_of, g, p, sim = (np.concatenate(col) for col in zip(*parts))
    _, pair = np.unique(g * len(pred_tracks) + p, return_inverse=True)
    return _PoolData(
        gt_tracks=gt_tracks,
        pred_tracks=pred_tracks,
        gt_len=np.array([len(t.observations) for t in gt_tracks], dtype=np.int64),
        pred_len=np.array([len(t.observations) for t in pred_tracks], dtype=np.int64),
        frame=frame_of,
        gt=g,
        pred=p,
        sim=sim,
        pair=pair,
        box_fallback_pairs=fallback,
    )


def _match(pool: _PoolData, alpha: float) -> tuple[np.ndarray, ...]:
    """Both matching passes of one pool at one alpha.

    Returns (frame, gt index, pred index, similarity) of every TP as four
    aligned arrays, in frame order and by row within a frame.
    """
    feasible = pool.sim >= alpha
    frame, g, p = pool.frame[feasible], pool.gt[feasible], pool.pred[feasible]
    sim, pair = pool.sim[feasible], pool.pair[feasible]
    # Pass one: C per pair; T_g + T_p - C >= 1 since no track is empty.
    c = np.bincount(pair)[pair]
    a_glob = c / (pool.gt_len[g] + pool.pred_len[p] - c)
    # Pass two: every frame's assignment in one call, rows keyed by
    # (frame, gt) and columns by (frame, pred).
    take = assign_cells(
        frame * len(pool.gt_len) + g,
        frame * len(pool.pred_len) + p,
        a_glob + sim / TIE_BREAK_DIVISOR,
    )
    return frame[take], g[take], p[take], sim[take]


def _group_sums(
    pool: _PoolData, matches: tuple[np.ndarray, ...], groups: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group TP count, sum of A(c) over TPs and sum of similarity over TPs.

    ``groups`` maps each gt track to its group.  Each float sum runs in one
    fixed order: similarity in frame then row order, A(c) in row-major
    (gt, pred) order, where a pair with m TPs adds m * A(c) at once.
    """
    _, g, p, s = matches
    tp = np.bincount(groups[g], minlength=n_groups)
    loc = np.bincount(groups[g], weights=s, minlength=n_groups)
    n_pred = len(pool.pred_len)
    pair, m = np.unique(g * n_pred + p, return_counts=True)
    gi, pj = np.divmod(pair, n_pred)
    terms = m * (m / (pool.gt_len[gi] + pool.pred_len[pj] - m))
    ass = np.bincount(groups[gi], weights=terms, minlength=n_groups)
    return tp, ass, loc


def _div(num: Any, den: Any) -> np.ndarray:
    """Elementwise num / den, with 0/0 (any x/0) defined as 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=np.asarray(den) > 0)


# ---------------------------------------------------------------------------
# public single-pool operations


def _single_pool(
    gt_tracks: list[TrackRecord], pred_tracks: list[TrackRecord], alpha: float, geometry: str,
    mode: str = "closed",
) -> _PoolData:
    """Check the arguments as ``EvalConfig`` does and every track, listing all
    faulty tracks in one SchemaError; then build the pool."""
    EvalConfig(alphas=(alpha,), mode=mode, geometry=geometry)
    tracks = [*gt_tracks, *pred_tracks]
    issues = [f"track {t.track_id} {f}" for t in tracks if (f := _track_fault(t))]
    if issues:
        raise SchemaError(issues)
    return _build_pool(gt_tracks, pred_tracks, geometry)


def match_frames(
    gt_tracks: list[TrackRecord],
    pred_tracks: list[TrackRecord],
    alpha: float,
    geometry: str = "mask",
) -> tuple[dict[int, list[tuple[int, int]]], int, int]:
    """Two-pass matching of one pool at one alpha.

    Returns (per-frame TP matches as {frame: [(gt_id, pred_id), ...]},
    FN count, FP count).
    """
    pool = _single_pool(gt_tracks, pred_tracks, alpha, geometry)
    frames, g, p, _ = _match(pool, alpha)
    matches: dict[int, list[tuple[int, int]]] = {}
    for frame, gi, pj in zip(frames.tolist(), g.tolist(), p.tolist()):
        matches.setdefault(frame, []).append(
            (pool.gt_tracks[gi].track_id, pool.pred_tracks[pj].track_id)
        )
    return matches, int(pool.gt_len.sum()) - len(g), int(pool.pred_len.sum()) - len(g)


def hota_alpha(
    gt_tracks: list[TrackRecord],
    pred_tracks: list[TrackRecord],
    alpha: float,
    mode: str = "closed",
    geometry: str = "mask",
) -> tuple[float, float, float]:
    """Single-pool score at one alpha.

    Returns (DetA, AssA, HOTA_alpha) in closed mode and
    (DetRe, AssA, OWTA_alpha) in open mode.
    """
    pool = _single_pool(gt_tracks, pred_tracks, alpha, geometry, mode)
    one_group = np.zeros(len(pool.gt_len), dtype=np.int64)
    tp, ass, _ = _group_sums(pool, _match(pool, alpha), one_group, 1)
    # TP + FN is every gt detection; closed mode adds the FPs.
    den = pool.gt_len.sum() + (pool.pred_len.sum() - tp if mode == "closed" else 0)
    det = float(_div(tp, den)[0])
    ass = float(_div(ass, tp)[0])
    return det, ass, math.sqrt(det * ass)


# ---------------------------------------------------------------------------
# report containers


@dataclass
class SplitScores:
    combined: float
    det: float
    ass: float
    loc: Optional[float]
    per_alpha: dict[str, tuple[float, ...]]
    counts: dict[str, Optional[tuple[int, ...]]]


@dataclass
class CategoryScores:
    category_id: int
    name: str
    split: str
    combined: float
    det: float
    ass: float
    loc: float


@dataclass
class MetricsReport:
    mode: str
    geometry: str
    alphas: tuple[float, ...]
    splits: dict[str, Optional[SplitScores]]
    per_category: list[CategoryScores] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        combined, det, _ = _NAMES[self.mode]
        splits_out: dict[str, Any] = {}
        for name, s in self.splits.items():
            if s is None:
                splits_out[name] = None
                continue
            entry: dict[str, Any] = {
                combined: s.combined,
                det: s.det,
                "AssA": s.ass,
                "per_alpha": {k: list(v) for k, v in s.per_alpha.items()},
                "counts": {
                    k: (list(v) if v is not None else None) for k, v in s.counts.items()
                },
            }
            if s.loc is not None:
                entry["LocA"] = s.loc
            splits_out[name] = entry
        out: dict[str, Any] = {
            "mode": self.mode,
            "geometry": self.geometry,
            "alphas": list(self.alphas),
            "tie_break_weight": 1.0 / TIE_BREAK_DIVISOR,
            "category_averaging": "unweighted mean over categories with at least one gt track",
            "splits": splits_out,
            "warnings": list(self.warnings),
            "diagnostics": dict(self.diagnostics),
        }
        if self.mode == "closed":
            out["per_category"] = [
                {
                    "category_id": c.category_id,
                    "name": c.name,
                    "split": c.split,
                    "HOTA": c.combined,
                    "DetA": c.det,
                    "AssA": c.ass,
                    "LocA": c.loc,
                }
                for c in self.per_category
            ]
        return out

    def format_table(self, row_label: str = "pred") -> str:
        """One-row score table: combined/det/AssA for all/com/unc, x100."""
        combined, _, det = _NAMES[self.mode]
        headers, cells, locs = [], [], []
        for split, short in zip(("all", "common", "uncommon"), ("all", "com", "unc")):
            headers += [f"{combined}{short}", f"{det}{short}", f"AssA{short}"]
            s = self.splits.get(split)
            if s is None:
                cells += ["-", "-", "-"]
            else:
                cells += [f"{100 * s.combined:.1f}", f"{100 * s.det:.1f}", f"{100 * s.ass:.1f}"]
            has_loc = s is not None and s.loc is not None
            locs.append(f"{split}={100 * s.loc:.1f}" if has_loc else f"{split}=-")
        label_w = max(len(row_label), 7)
        widths = [max(len(h), 7) for h in headers]
        lines = [
            " ".join([" " * label_w] + [h.rjust(w) for h, w in zip(headers, widths)]),
            " ".join([row_label.ljust(label_w)] + [c.rjust(w) for c, w in zip(cells, widths)]),
        ]
        if self.mode == "closed":
            lines.append("LocA: " + " ".join(locs))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# evaluate


def _check_inputs(
    gt: list[SequenceTracks],
    pred: list[SequenceTracks],
    bank: CategoryBank,
    cfg: EvalConfig,
) -> tuple[dict[str, SequenceTracks], dict[str, SequenceTracks], list[str]]:
    issues: list[str] = []
    warnings: list[str] = []
    gt_by_name: dict[str, SequenceTracks] = {}
    pred_by_name: dict[str, SequenceTracks] = {}
    sides = (("ground truth", gt, gt_by_name), ("predictions", pred, pred_by_name))
    for side, seqs, by_name in sides:
        for seq in seqs:
            if seq.meta.name in by_name:
                issues.append(f"{side}: duplicate sequence name {seq.meta.name!r}")
            by_name[seq.meta.name] = seq

    for name in sorted(set(pred_by_name) - set(gt_by_name)):
        msg = f"sequence {name!r} present in predictions but absent from ground truth"
        if cfg.mode == "closed":
            issues.append(msg)
        else:
            warnings.append(msg + "; its predictions only contribute false positives")
    for name in sorted(set(pred_by_name) & set(gt_by_name)):
        mg, mp = gt_by_name[name].meta, pred_by_name[name].meta
        if (mg.height, mg.width, mg.num_frames) != (mp.height, mp.width, mp.num_frames):
            issues.append(
                f"sequence {name!r}: meta mismatch between ground truth "
                f"({mg.height}x{mg.width}, {mg.num_frames} frames) and predictions "
                f"({mp.height}x{mp.width}, {mp.num_frames} frames)"
            )

    for side, seqs in (("ground truth", gt), ("prediction", pred)):
        labels_required = side == "ground truth" or cfg.mode == "closed"
        for seq in seqs:
            for t in seq.tracks:
                where = f"{side} sequence {seq.meta.name!r}: track {t.track_id}"
                fault = _track_fault(t)
                if fault is not None:
                    issues.append(f"{where} {fault}")
                if not labels_required:
                    continue
                if t.category_id is None:
                    required = " (required in closed mode)" if side == "prediction" else ""
                    issues.append(f"{where} has no category_id{required}")
                elif t.category_id not in bank:
                    issues.append(f"{where} has unknown category_id {t.category_id}")
    if issues:
        raise SchemaError(issues)
    return gt_by_name, pred_by_name, warnings


def _split_from_arrays(
    mode: str,
    det: np.ndarray,
    ass: np.ndarray,
    loc: np.ndarray | None,
    counts: dict[str, Optional[tuple[int, ...]]],
) -> SplitScores:
    combined_per_alpha = np.sqrt(det * ass)
    combined_key, det_key, _ = _NAMES[mode]
    per_alpha = {
        combined_key: tuple(float(x) for x in combined_per_alpha),
        det_key: tuple(float(x) for x in det),
        "AssA": tuple(float(x) for x in ass),
    }
    if loc is not None:
        per_alpha["LocA"] = tuple(float(x) for x in loc)
    return SplitScores(
        combined=float(np.mean(combined_per_alpha)),
        det=float(np.mean(det)),
        ass=float(np.mean(ass)),
        loc=float(np.mean(loc)) if loc is not None else None,
        per_alpha=per_alpha,
        counts=counts,
    )


def evaluate(
    gt: list[SequenceTracks],
    pred: list[SequenceTracks],
    bank: CategoryBank,
    cfg: EvalConfig | None = None,
) -> MetricsReport:
    """Score predictions against ground truth; see the module docstring.

    Ground-truth tracks always need a category_id known to the bank (the
    splits come from it); prediction labels are required and used in closed
    mode, ignored in open mode.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    gt_by_name, pred_by_name, warnings = _check_inputs(gt, pred, bank, cfg)
    n_alphas = len(cfg.alphas)

    if not any(s.tracks for s in gt):
        warnings.append("ground truth contains zero tracks; every metric is defined as 0")
        zeros = np.zeros(n_alphas)
        counts = {key: (0,) * n_alphas for key in ("tp", "fn", "fp")}
        loc = zeros if cfg.mode == "closed" else None
        return MetricsReport(
            mode=cfg.mode,
            geometry=cfg.geometry,
            alphas=tuple(cfg.alphas),
            splits={
                "all": _split_from_arrays(cfg.mode, zeros, zeros, loc, counts),
                "common": None,
                "uncommon": None,
            },
            warnings=warnings,
            diagnostics={"box_fallback_pairs": 0, "zero_gt": True},
        )

    closed = cfg.mode == "closed"
    cats = sorted({t.category_id for s in gt_by_name.values() for t in s.tracks})
    cat_index = {c: i for i, c in enumerate(cats)}
    split_names = ("all",) + SPLITS

    def sequence_task(name: str) -> tuple[dict[str, np.ndarray], int]:
        """One sequence's "tp", "fn", "fp", "ass" (and closed mode's "loc")
        as (column, alpha) arrays in a dict, and its box-fallback pair count.
        Columns are the categories with gt in closed mode, else the splits.
        """
        gt_seq, pred_seq = gt_by_name.get(name), pred_by_name.get(name)
        pred_tracks = pred_seq.tracks if pred_seq else []
        if closed:
            # Categories with zero gt tracks anywhere are out of the
            # averaging entirely, their predictions included.
            pred_tracks = [t for t in pred_tracks if t.category_id in cat_index]
        pool = _build_pool(gt_seq.tracks if gt_seq else [], pred_tracks, cfg.geometry, closed)
        gt_tracks, pred_tracks = pool.gt_tracks, pool.pred_tracks
        # Closed mode sums per category, open mode per gt track.
        groups = np.array(
            [cat_index[t.category_id] if closed else i for i, t in enumerate(gt_tracks)],
            dtype=np.int64,
        )
        n_groups = len(cats) if closed else len(gt_tracks)
        sums = [_group_sums(pool, _match(pool, a), groups, n_groups) for a in cfg.alphas]
        tp, ass, loc = (np.stack(v, axis=1) for v in zip(*sums))
        if closed:
            pred_groups = np.array([cat_index[t.category_id] for t in pred_tracks], dtype=np.int64)
            gt_dets = np.bincount(groups, pool.gt_len, n_groups).astype(np.int64)[:, None]
            pred_dets = np.bincount(pred_groups, pool.pred_len, n_groups).astype(np.int64)[:, None]
            cols = {"tp": tp, "fn": gt_dets - tp, "fp": pred_dets - tp, "ass": ass, "loc": loc}
            return cols, pool.box_fallback_pairs
        in_split = [np.ones(len(gt_tracks), dtype=bool)] + [
            np.array([bank.split_of(t.category_id) == s for t in gt_tracks], dtype=bool)
            for s in SPLITS
        ]
        cols = {
            key: np.array([[v[sel, k].sum() for k in range(n_alphas)] for sel in in_split])
            for key, v in (("tp", tp), ("ass", ass))
        }
        cols["fn"] = np.array([pool.gt_len[sel].sum() for sel in in_split])[:, None] - cols["tp"]
        # FPs are class-agnostic; only the "all" column's are read out.
        cols["fp"] = pool.pred_len.sum() - cols["tp"]
        return cols, pool.box_fallback_pairs

    # Prediction-only sequences (open mode only) still contribute their FPs.
    results = map_ordered(sequence_task, sorted(set(gt_by_name) | set(pred_by_name)))
    acc = {key: sum(cols[key] for cols, _ in results) for key in results[0][0]}
    tp = acc["tp"]
    det = _div(tp, tp + acc["fn"] + (acc["fp"] if closed else 0))
    ass = _div(acc["ass"], tp)
    loc = _div(acc["loc"], tp) if closed else None

    # Categories with gt in each split; a split without any reads out None.
    members = {"all": list(range(len(cats)))}
    for s in SPLITS:
        members[s] = [i for i, c in enumerate(cats) if bank.split_of(c) == s]
    splits: dict[str, Optional[SplitScores]] = {}
    per_category: list[CategoryScores] = []
    for col, s in enumerate(split_names):
        rows = members[s]
        if not rows:
            splits[s] = None
        elif closed:
            counts = {
                key: tuple(int(x) for x in acc[key][rows].sum(axis=0)) for key in ("tp", "fn", "fp")
            }
            splits[s] = _split_from_arrays(
                cfg.mode, det[rows].mean(axis=0), ass[rows].mean(axis=0), loc[rows].mean(axis=0), counts
            )
        else:
            counts = {
                "tp": tuple(int(x) for x in tp[col]),
                "fn": tuple(int(x) for x in acc["fn"][col]),
                # FPs cannot be attributed to a gt split.
                "fp": tuple(int(x) for x in acc["fp"][col]) if s == "all" else None,
            }
            splits[s] = _split_from_arrays(cfg.mode, det[col], ass[col], None, counts)
    if closed:
        for i, cat in enumerate(cats):
            entry = bank.get(cat)
            per_category.append(
                CategoryScores(
                    category_id=cat,
                    name=entry.name,
                    split=entry.split,
                    combined=float(np.mean(np.sqrt(det[i] * ass[i]))),
                    det=float(np.mean(det[i])),
                    ass=float(np.mean(ass[i])),
                    loc=float(np.mean(loc[i])),
                )
            )

    return MetricsReport(
        mode=cfg.mode,
        geometry=cfg.geometry,
        alphas=tuple(cfg.alphas),
        splits=splits,
        per_category=per_category,
        warnings=warnings,
        diagnostics={"box_fallback_pairs": sum(f for _, f in results), "zero_gt": False},
    )
