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

Association accuracy averages, over TPs, A(c) = TPA / (TPA + FNA + FPA).
Every gt detection is a TP or an FN and every prediction a TP or an FP, so
for a TP of pair (g, p) with m matched frames this is exactly
m / (T_g + T_p - m); the implementation uses that identity while the test
oracle counts the TPA/FNA/FPA sets literally.

Closed world restricts each pool to one category and averages categories
unweighted (categories without gt tracks are skipped).  Open world pools
everything class-agnostically, ignores prediction labels, and reports
OWTA = sqrt(DetRe * AssA); the common/uncommon splits only filter which gt
tracks are read out of the one global matching.

Scores are accumulated across sequences per alpha and averaged over the
alpha grid at the end.  All reported values live in [0, 1]; 0/0 ratios are
defined as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .assignment import hungarian_max
from .classification import SPLITS, CategoryBank
from .io import SchemaError, SequenceTracks, TrackRecord
from .maskops import box_iou_matrix, mask_iou_matrix
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

MODES = ("closed", "open")
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
            if not (0.0 < a < 1.0):
                raise ValueError(f"alphas must lie strictly inside (0, 1), got {a}")
            if a <= prev:
                raise ValueError("alphas must be strictly increasing")
            prev = a


# ---------------------------------------------------------------------------
# per-pool machinery


@dataclass
class _PoolData:
    """Precomputed geometry for one (gt pool, pred pool) pair in one sequence."""

    gt_ids: list[int]
    pred_ids: list[int]
    gt_len: np.ndarray  # observations per gt track
    pred_len: np.ndarray
    gt_total: int
    pred_total: int
    # (frame, gt indices present, pred indices present, similarity matrix,
    # open-mesh index grid for scattering into (n_gt, n_pred) arrays);
    # frames where either side is absent carry no matchable pairs and are
    # dropped here (their detections are still counted via the totals).
    frames: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]]
    box_fallback_pairs: int


def _observations_by_frame(track: TrackRecord) -> dict[int, Any]:
    obs = {}
    for ob in track.observations:
        if ob.frame in obs:
            raise SchemaError(
                [f"track {track.track_id}: duplicate observation for frame {ob.frame}"]
            )
        obs[ob.frame] = ob
    if not obs:
        raise SchemaError([f"track {track.track_id}: no observations"])
    return obs


def _build_pool(
    gt_tracks: list[TrackRecord], pred_tracks: list[TrackRecord], geometry: str
) -> _PoolData:
    _check_choice("geometry", geometry, GEOMETRIES)
    gt_tracks = sorted(gt_tracks, key=lambda t: t.track_id)
    pred_tracks = sorted(pred_tracks, key=lambda t: t.track_id)
    gt_obs = [_observations_by_frame(t) for t in gt_tracks]
    pred_obs = [_observations_by_frame(t) for t in pred_tracks]

    frame_set: set[int] = set()
    for obs in gt_obs:
        frame_set.update(obs)
    for obs in pred_obs:
        frame_set.update(obs)

    frames = []
    fallback = 0
    for frame in sorted(frame_set):
        g_idx = [i for i, obs in enumerate(gt_obs) if frame in obs]
        p_idx = [j for j, obs in enumerate(pred_obs) if frame in obs]
        if not g_idx or not p_idx:
            continue
        g_ob = [gt_obs[i][frame] for i in g_idx]
        p_ob = [pred_obs[j][frame] for j in p_idx]
        sim = box_iou_matrix([ob.box for ob in g_ob], [ob.box for ob in p_ob])
        if geometry == "mask":
            # Pairs where either side lacks a mask keep their box IoU.
            g_m = [a for a, ob in enumerate(g_ob) if ob.mask is not None]
            p_m = [b for b, ob in enumerate(p_ob) if ob.mask is not None]
            sim[np.ix_(g_m, p_m)] = mask_iou_matrix(
                [g_ob[a].mask for a in g_m], [p_ob[b].mask for b in p_m]
            )
            fallback += sim.size - len(g_m) * len(p_m)
        g_arr = np.asarray(g_idx, np.int64)
        p_arr = np.asarray(p_idx, np.int64)
        frames.append((frame, g_arr, p_arr, sim, np.ix_(g_arr, p_arr)))
    return _PoolData(
        gt_ids=[t.track_id for t in gt_tracks],
        pred_ids=[t.track_id for t in pred_tracks],
        gt_len=np.array([len(o) for o in gt_obs], dtype=np.int64),
        pred_len=np.array([len(o) for o in pred_obs], dtype=np.int64),
        gt_total=int(sum(len(o) for o in gt_obs)),
        pred_total=int(sum(len(o) for o in pred_obs)),
        frames=frames,
        box_fallback_pairs=fallback,
    )


@dataclass
class _AlphaStats:
    """Matching outcome of one pool at one alpha."""

    tp: int
    fn: int
    fp: int
    ass_num: float  # sum over TPs of A(c)
    loc_num: float  # sum over TPs of similarity
    tp_by_gt: np.ndarray
    ass_by_gt: np.ndarray
    matches_by_frame: dict[int, list[tuple[int, int]]]


def _pool_alpha_stats(pool: _PoolData, alpha: float) -> _AlphaStats:
    n_gt, n_pred = len(pool.gt_ids), len(pool.pred_ids)
    count = np.zeros((n_gt, n_pred), dtype=np.int64)
    for _, g_idx, p_idx, sim, grid in pool.frames:
        count[grid] += sim >= alpha
    denom = pool.gt_len[:, None] + pool.pred_len[None, :] - count
    a_glob = np.zeros((n_gt, n_pred), dtype=np.float64)
    np.divide(count, denom, out=a_glob, where=denom > 0)

    match_count = np.zeros((n_gt, n_pred), dtype=np.int64)
    tp = 0
    loc_num = 0.0
    matches_by_frame: dict[int, list[tuple[int, int]]] = {}
    for frame, g_idx, p_idx, sim, grid in pool.frames:
        feasible = sim >= alpha
        if not feasible.any():
            continue
        weights = a_glob[grid] + sim / TIE_BREAK_DIVISOR
        pairs = hungarian_max(weights, feasible)
        if not pairs:
            continue
        frame_matches = []
        for a, b in pairs:
            gi, pj = int(g_idx[a]), int(p_idx[b])
            match_count[gi, pj] += 1
            loc_num += float(sim[a, b])
            frame_matches.append((pool.gt_ids[gi], pool.pred_ids[pj]))
        matches_by_frame[frame] = frame_matches
        tp += len(pairs)

    ass_num = 0.0
    ass_by_gt = np.zeros(n_gt, dtype=np.float64)
    g_nz, p_nz = np.nonzero(match_count)  # row-major: deterministic order
    for gi, pj in zip(g_nz, p_nz):
        m = int(match_count[gi, pj])
        term = m * (m / float(pool.gt_len[gi] + pool.pred_len[pj] - m))
        ass_num += term
        ass_by_gt[gi] += term
    return _AlphaStats(
        tp=tp,
        fn=pool.gt_total - tp,
        fp=pool.pred_total - tp,
        ass_num=ass_num,
        loc_num=loc_num,
        tp_by_gt=match_count.sum(axis=1),
        ass_by_gt=ass_by_gt,
        matches_by_frame=matches_by_frame,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# ---------------------------------------------------------------------------
# public single-pool operations


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
    pool = _build_pool(gt_tracks, pred_tracks, geometry)
    stats = _pool_alpha_stats(pool, alpha)
    return stats.matches_by_frame, stats.fn, stats.fp


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
    _check_choice("mode", mode, MODES)
    pool = _build_pool(gt_tracks, pred_tracks, geometry)
    stats = _pool_alpha_stats(pool, alpha)
    if mode == "closed":
        det = _ratio(stats.tp, stats.tp + stats.fn + stats.fp)
    else:
        det = _ratio(stats.tp, stats.tp + stats.fn)
    ass = _ratio(stats.ass_num, stats.tp)
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

    @property
    def combined_name(self) -> str:
        return "HOTA" if self.mode == "closed" else "OWTA"

    @property
    def det_name(self) -> str:
        return "DetA" if self.mode == "closed" else "DetRe"

    def to_jsonable(self) -> dict:
        splits_out: dict[str, Any] = {}
        for name, s in self.splits.items():
            if s is None:
                splits_out[name] = None
                continue
            entry: dict[str, Any] = {
                self.combined_name: s.combined,
                self.det_name: s.det,
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
        headers = []
        for split in ("all", "com", "unc"):
            headers += [
                f"{self.combined_name}{split}",
                f"{'DETA' if self.mode == 'closed' else 'DETRe'}{split}",
                f"AssA{split}",
            ]
        cells = []
        for split in ("all", "common", "uncommon"):
            s = self.splits.get(split)
            if s is None:
                cells += ["-", "-", "-"]
            else:
                cells += [f"{100 * s.combined:.1f}", f"{100 * s.det:.1f}", f"{100 * s.ass:.1f}"]
        label_w = max(len(row_label), 7)
        widths = [max(len(h), 7) for h in headers]
        lines = [
            " ".join([" " * label_w] + [h.rjust(w) for h, w in zip(headers, widths)]),
            " ".join([row_label.ljust(label_w)] + [c.rjust(w) for c, w in zip(cells, widths)]),
        ]
        if self.mode == "closed":
            locs = []
            for split in ("all", "common", "uncommon"):
                s = self.splits.get(split)
                locs.append(
                    f"{split}={100 * s.loc:.1f}" if s is not None and s.loc is not None else f"{split}=-"
                )
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
    for seq in gt:
        if seq.meta.name in gt_by_name:
            issues.append(f"ground truth: duplicate sequence name {seq.meta.name!r}")
        gt_by_name[seq.meta.name] = seq
    pred_by_name: dict[str, SequenceTracks] = {}
    for seq in pred:
        if seq.meta.name in pred_by_name:
            issues.append(f"predictions: duplicate sequence name {seq.meta.name!r}")
        pred_by_name[seq.meta.name] = seq

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

    for seq in gt:
        for t in seq.tracks:
            if t.category_id is None:
                issues.append(
                    f"ground truth sequence {seq.meta.name!r}: track {t.track_id} "
                    "has no category_id"
                )
            elif t.category_id not in bank:
                issues.append(
                    f"ground truth sequence {seq.meta.name!r}: track {t.track_id} "
                    f"has unknown category_id {t.category_id}"
                )
    if cfg.mode == "closed":
        for seq in pred:
            for t in seq.tracks:
                if t.category_id is None:
                    issues.append(
                        f"prediction sequence {seq.meta.name!r}: track {t.track_id} "
                        "has no category_id (required in closed mode)"
                    )
                elif t.category_id not in bank:
                    issues.append(
                        f"prediction sequence {seq.meta.name!r}: track {t.track_id} "
                        f"has unknown category_id {t.category_id}"
                    )
    if issues:
        raise SchemaError(issues)
    return gt_by_name, pred_by_name, warnings


def _zero_split(mode: str, n_alphas: int, with_fp: bool) -> SplitScores:
    zeros_f = tuple(0.0 for _ in range(n_alphas))
    zeros_i = tuple(0 for _ in range(n_alphas))
    per_alpha = {
        ("HOTA" if mode == "closed" else "OWTA"): zeros_f,
        ("DetA" if mode == "closed" else "DetRe"): zeros_f,
        "AssA": zeros_f,
    }
    if mode == "closed":
        per_alpha["LocA"] = zeros_f
    return SplitScores(
        combined=0.0,
        det=0.0,
        ass=0.0,
        loc=0.0 if mode == "closed" else None,
        per_alpha=per_alpha,
        counts={"tp": zeros_i, "fn": zeros_i, "fp": zeros_i if with_fp else None},
    )


def _split_from_arrays(
    mode: str,
    det: np.ndarray,
    ass: np.ndarray,
    loc: np.ndarray | None,
    counts: dict[str, Optional[tuple[int, ...]]],
) -> SplitScores:
    combined_per_alpha = np.sqrt(det * ass)
    per_alpha = {
        ("HOTA" if mode == "closed" else "OWTA"): tuple(float(x) for x in combined_per_alpha),
        ("DetA" if mode == "closed" else "DetRe"): tuple(float(x) for x in det),
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

    total_gt_tracks = sum(len(s.tracks) for s in gt)
    if total_gt_tracks == 0:
        warnings.append("ground truth contains zero tracks; every metric is defined as 0")
        splits: dict[str, Optional[SplitScores]] = {
            "all": _zero_split(cfg.mode, n_alphas, with_fp=True),
            "common": None,
            "uncommon": None,
        }
        return MetricsReport(
            mode=cfg.mode,
            geometry=cfg.geometry,
            alphas=tuple(cfg.alphas),
            splits=splits,
            warnings=warnings,
            diagnostics={"box_fallback_pairs": 0, "zero_gt": True},
        )

    if cfg.mode == "closed":
        report = _evaluate_closed(gt_by_name, pred_by_name, bank, cfg)
    else:
        report = _evaluate_open(gt_by_name, pred_by_name, bank, cfg)
    report.warnings = warnings + report.warnings
    return report


def _evaluate_closed(
    gt_by_name: dict[str, SequenceTracks],
    pred_by_name: dict[str, SequenceTracks],
    bank: CategoryBank,
    cfg: EvalConfig,
) -> MetricsReport:
    names = sorted(gt_by_name)
    cats_with_gt = sorted(
        {t.category_id for s in gt_by_name.values() for t in s.tracks if t.category_id is not None}
    )
    cat_set = set(cats_with_gt)
    n_alphas = len(cfg.alphas)

    def sequence_task(name: str) -> tuple[dict[int, list[_AlphaStats]], int]:
        gt_seq = gt_by_name[name]
        pred_seq = pred_by_name.get(name)
        gt_by_cat: dict[int, list[TrackRecord]] = {}
        for t in gt_seq.tracks:
            gt_by_cat.setdefault(t.category_id, []).append(t)
        pred_by_cat: dict[int, list[TrackRecord]] = {}
        if pred_seq is not None:
            for t in pred_seq.tracks:
                # Categories with zero gt tracks anywhere are out of the
                # averaging entirely, their predictions included.
                if t.category_id in cat_set:
                    pred_by_cat.setdefault(t.category_id, []).append(t)
        out: dict[int, list[_AlphaStats]] = {}
        fallback = 0
        for cat in sorted(set(gt_by_cat) | set(pred_by_cat)):
            pool = _build_pool(gt_by_cat.get(cat, []), pred_by_cat.get(cat, []), cfg.geometry)
            fallback += pool.box_fallback_pairs
            out[cat] = [_pool_alpha_stats(pool, alpha) for alpha in cfg.alphas]
        return out, fallback

    results = map_ordered(sequence_task, names)

    acc: dict[int, dict[str, np.ndarray]] = {
        cat: {
            "tp": np.zeros(n_alphas, np.int64),
            "fn": np.zeros(n_alphas, np.int64),
            "fp": np.zeros(n_alphas, np.int64),
            "ass": np.zeros(n_alphas, np.float64),
            "loc": np.zeros(n_alphas, np.float64),
        }
        for cat in cats_with_gt
    }
    fallback_total = 0
    for per_cat, fallback in results:
        fallback_total += fallback
        for cat, stats_list in per_cat.items():
            a = acc[cat]
            for k, st in enumerate(stats_list):
                a["tp"][k] += st.tp
                a["fn"][k] += st.fn
                a["fp"][k] += st.fp
                a["ass"][k] += st.ass_num
                a["loc"][k] += st.loc_num

    per_cat_arrays: dict[int, dict[str, np.ndarray]] = {}
    per_category: list[CategoryScores] = []
    for cat in cats_with_gt:
        a = acc[cat]
        det = np.array(
            [_ratio(a["tp"][k], a["tp"][k] + a["fn"][k] + a["fp"][k]) for k in range(n_alphas)]
        )
        ass = np.array([_ratio(a["ass"][k], a["tp"][k]) for k in range(n_alphas)])
        loc = np.array([_ratio(a["loc"][k], a["tp"][k]) for k in range(n_alphas)])
        hota = np.sqrt(det * ass)
        per_cat_arrays[cat] = {"det": det, "ass": ass, "loc": loc}
        entry = bank.get(cat)
        per_category.append(
            CategoryScores(
                category_id=cat,
                name=entry.name,
                split=entry.split,
                combined=float(np.mean(hota)),
                det=float(np.mean(det)),
                ass=float(np.mean(ass)),
                loc=float(np.mean(loc)),
            )
        )

    splits: dict[str, Optional[SplitScores]] = {}
    split_members = {
        "all": cats_with_gt,
        "common": [c for c in cats_with_gt if bank.split_of(c) == "common"],
        "uncommon": [c for c in cats_with_gt if bank.split_of(c) == "uncommon"],
    }
    for split_name, members in split_members.items():
        if not members:
            splits[split_name] = None
            continue
        det = np.mean(np.stack([per_cat_arrays[c]["det"] for c in members]), axis=0)
        ass = np.mean(np.stack([per_cat_arrays[c]["ass"] for c in members]), axis=0)
        loc = np.mean(np.stack([per_cat_arrays[c]["loc"] for c in members]), axis=0)
        counts = {
            key: tuple(int(sum(acc[c][key][k] for c in members)) for k in range(n_alphas))
            for key in ("tp", "fn", "fp")
        }
        splits[split_name] = _split_from_arrays(cfg.mode, det, ass, loc, counts)

    return MetricsReport(
        mode=cfg.mode,
        geometry=cfg.geometry,
        alphas=tuple(cfg.alphas),
        splits=splits,
        per_category=per_category,
        diagnostics={"box_fallback_pairs": fallback_total, "zero_gt": False},
    )


def _evaluate_open(
    gt_by_name: dict[str, SequenceTracks],
    pred_by_name: dict[str, SequenceTracks],
    bank: CategoryBank,
    cfg: EvalConfig,
) -> MetricsReport:
    # Pure prediction-only sequences still contribute their FPs to the counts.
    names = sorted(set(gt_by_name) | set(pred_by_name))
    n_alphas = len(cfg.alphas)
    split_names = ("all",) + SPLITS

    def sequence_task(name: str) -> tuple[dict[str, dict[str, np.ndarray]], int]:
        gt_seq = gt_by_name.get(name)
        pred_seq = pred_by_name.get(name)
        gt_tracks = list(gt_seq.tracks) if gt_seq is not None else []
        gt_tracks = sorted(gt_tracks, key=lambda t: t.track_id)
        pred_tracks = list(pred_seq.tracks) if pred_seq is not None else []
        pool = _build_pool(gt_tracks, pred_tracks, cfg.geometry)
        in_split = {
            "all": np.ones(len(gt_tracks), dtype=bool),
            "common": np.array(
                [bank.split_of(t.category_id) == "common" for t in gt_tracks], dtype=bool
            ),
            "uncommon": np.array(
                [bank.split_of(t.category_id) == "uncommon" for t in gt_tracks], dtype=bool
            ),
        }
        out = {
            s: {
                "tp": np.zeros(n_alphas, np.int64),
                "fn": np.zeros(n_alphas, np.int64),
                "fp": np.zeros(n_alphas, np.int64),
                "ass": np.zeros(n_alphas, np.float64),
            }
            for s in split_names
        }
        for k, alpha in enumerate(cfg.alphas):
            st = _pool_alpha_stats(pool, alpha)
            for s in split_names:
                sel = in_split[s]
                tp_s = int(st.tp_by_gt[sel].sum()) if len(gt_tracks) else 0
                gt_dets_s = int(pool.gt_len[sel].sum()) if len(gt_tracks) else 0
                out[s]["tp"][k] = tp_s
                out[s]["fn"][k] = gt_dets_s - tp_s
                out[s]["ass"][k] = float(st.ass_by_gt[sel].sum()) if len(gt_tracks) else 0.0
            out["all"]["fp"][k] = st.fp
        return out, pool.box_fallback_pairs

    results = map_ordered(sequence_task, names)

    acc = {
        s: {
            "tp": np.zeros(n_alphas, np.int64),
            "fn": np.zeros(n_alphas, np.int64),
            "fp": np.zeros(n_alphas, np.int64),
            "ass": np.zeros(n_alphas, np.float64),
        }
        for s in split_names
    }
    fallback_total = 0
    for per_split, fallback in results:
        fallback_total += fallback
        for s in split_names:
            for key in ("tp", "fn", "fp", "ass"):
                acc[s][key] += per_split[s][key]

    gt_tracks_per_split = {
        "all": sum(len(s.tracks) for s in gt_by_name.values()),
        "common": sum(
            1
            for s in gt_by_name.values()
            for t in s.tracks
            if bank.split_of(t.category_id) == "common"
        ),
        "uncommon": sum(
            1
            for s in gt_by_name.values()
            for t in s.tracks
            if bank.split_of(t.category_id) == "uncommon"
        ),
    }

    splits: dict[str, Optional[SplitScores]] = {}
    for s in split_names:
        if gt_tracks_per_split[s] == 0:
            splits[s] = None
            continue
        a = acc[s]
        detre = np.array([_ratio(a["tp"][k], a["tp"][k] + a["fn"][k]) for k in range(n_alphas)])
        ass = np.array([_ratio(a["ass"][k], a["tp"][k]) for k in range(n_alphas)])
        counts: dict[str, Optional[tuple[int, ...]]] = {
            "tp": tuple(int(x) for x in a["tp"]),
            "fn": tuple(int(x) for x in a["fn"]),
            # FPs are class-agnostic; they cannot be attributed to a gt split.
            "fp": tuple(int(x) for x in a["fp"]) if s == "all" else None,
        }
        splits[s] = _split_from_arrays(cfg.mode, detre, ass, None, counts)

    return MetricsReport(
        mode=cfg.mode,
        geometry=cfg.geometry,
        alphas=tuple(cfg.alphas),
        splits=splits,
        diagnostics={"box_fallback_pairs": fallback_total, "zero_gt": False},
    )
