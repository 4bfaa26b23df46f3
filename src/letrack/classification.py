"""Exemplar-based classification: category bank, nearest prototype, voting.

Detections are labeled by cosine similarity against a bank of unit-norm
category prototypes; tracks accumulate one vote per observation and take
the majority label.  Every tie anywhere resolves to the smallest category
id, which keeps labeling deterministic under any iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:
    from .association import Diagnostics
    from .core import TrackState

__all__ = [
    "CategoryBank",
    "CategoryEntry",
    "SPLITS",
    "classify_detection",
    "nearest_prototypes",
    "track_label",
    "unit_rows",
    "vote",
    "vote_fraction",
]

SPLITS = ("common", "uncommon")

_UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CategoryEntry:
    """One category: id, human-readable name, rarity split, optional prototype.

    The prototype may be omitted for evaluation-only banks (the evaluator
    needs ids and splits, not embeddings).
    """

    category_id: int
    name: str
    split: str
    prototype: Optional[np.ndarray] = None


class CategoryBank:
    """Validated, id-ordered collection of categories."""

    def __init__(self, entries: Iterable[CategoryEntry]):
        ordered = sorted(entries, key=lambda e: e.category_id)
        seen: set[int] = set()
        dim: int | None = None
        for e in ordered:
            if e.category_id in seen:
                raise ValueError(f"duplicate category id {e.category_id}")
            seen.add(e.category_id)
            if e.split not in SPLITS:
                raise ValueError(
                    f"category {e.category_id}: split must be one of {SPLITS}, got {e.split!r}"
                )
            if e.prototype is not None:
                p = np.asarray(e.prototype, dtype=np.float64)
                if p.ndim != 1 or p.size == 0:
                    raise ValueError(f"category {e.category_id}: prototype must be a non-empty vector")
                if dim is None:
                    dim = p.size
                elif p.size != dim:
                    raise ValueError(
                        f"category {e.category_id}: prototype dimension {p.size} != {dim}"
                    )
                norm = float(np.linalg.norm(p))
                if not np.isfinite(norm) or abs(norm - 1.0) > _UNIT_NORM_TOL:
                    raise ValueError(
                        f"category {e.category_id}: prototype norm {norm} not within "
                        f"{_UNIT_NORM_TOL} of 1"
                    )
        self._entries: dict[int, CategoryEntry] = {e.category_id: e for e in ordered}
        self._matrix: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, category_id: int) -> bool:
        return category_id in self._entries

    def ids(self) -> list[int]:
        """Category ids in ascending order."""
        return list(self._entries)

    def get(self, category_id: int) -> CategoryEntry:
        return self._entries[category_id]

    def split_of(self, category_id: int) -> str:
        return self._entries[category_id].split

    def ids_in_split(self, split: str) -> list[int]:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return [cid for cid, e in self._entries.items() if e.split == split]

    def prototype_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (ids, prototypes), rows in ascending-id order, built once.

        Raises when any category lacks a prototype; classification needs a
        full bank even though evaluation does not.
        """
        if self._matrix is None:
            missing = [cid for cid, e in self._entries.items() if e.prototype is None]
            if missing:
                raise ValueError(f"categories without prototypes cannot classify: {missing}")
            ids = np.array(list(self._entries), dtype=np.int64)
            protos = np.stack([np.asarray(e.prototype, np.float64) for e in self._entries.values()])
            ids.setflags(write=False)
            protos.setflags(write=False)
            self._matrix = ids, protos
        return self._matrix


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A vector or each matrix row over its norm (0 or NaN: left zero), and whether the norm is 0;
    a norm outside (2**-500, 2**500) is retaken after an exact power-of-two scale of its row."""
    axis = 1 if x.ndim == 2 else None
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(x, axis=axis, keepdims=True)
        if 2.0**-500 < norm.min(initial=1.0) and norm.max(initial=1.0) < 2.0**500:
            return x / norm, norm == 0.0
        odd = ~((norm > 2.0**-500) & (norm < 2.0**500))
        _, e = np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))
        x = np.ldexp(x, np.where(odd, -e, 0))
        norm = np.linalg.norm(x, axis=axis, keepdims=True)
    return np.divide(x, norm, out=np.zeros_like(x), where=norm > 0.0), norm == 0.0


def classify_detection(
    cls_emb: np.ndarray,
    bank: CategoryBank,
    diagnostics: "Diagnostics | None" = None,
) -> tuple[int, float]:
    """Nearest-prototype label for one class embedding.

    Returns (category_id, cosine similarity).  Equidistant prototypes tie
    to the smallest id.  A zero-norm embedding cannot be oriented, so it
    falls back to (smallest id, 0.0) and bumps the diagnostics counter.
    """
    if len(bank) == 0:
        raise ValueError("cannot classify against an empty category bank")
    ids, protos = bank.prototype_matrix()
    emb = np.asarray(cls_emb, dtype=np.float64)
    if emb.ndim != 1 or emb.size != protos.shape[1]:
        raise ValueError(
            f"cls_emb has shape {emb.shape}, bank prototypes have dimension {protos.shape[1]}"
        )
    unit, zero = unit_rows(emb)
    if zero[0]:
        if diagnostics is not None:
            diagnostics.zero_norm_cls_emb += 1
        return int(ids[0]), 0.0
    sims = protos @ unit
    best = int(np.argmax(sims))  # first maximum = smallest id, ids are sorted
    return int(ids[best]), float(sims[best])


def nearest_prototypes(cls_embs: np.ndarray, bank: CategoryBank) -> tuple[list[int], np.ndarray]:
    """``classify_detection``'s labels for the rows of ``cls_embs``, from one
    product, and the rows they are sure for; the rest (near ties, zero or
    extreme norms, a wrong dimension) must go through ``classify_detection``."""
    embs = np.asarray(cls_embs, dtype=np.float64)
    undecided = [0] * len(embs), np.zeros(len(embs), dtype=bool)
    if len(bank) == 0 or embs.ndim != 2 or embs.shape[1] != bank.prototype_matrix()[1].shape[1]:
        return undecided
    ids, protos = bank.prototype_matrix()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = np.linalg.norm(embs, axis=1)
        sure = (norms > 2.0**-500) & (norms < 2.0**500)
        sims = np.divide(embs, norms[:, None], out=np.zeros_like(embs), where=sure[:, None]) @ protos.T
    if len(protos) > 1:
        # Higham (Accuracy and Stability, 2nd ed., ch. 3): with a norm whose
        # squares neither overflow nor underflow, each similarity is a common
        # positive factor times (cosine + e), |e| <= g = gamma_(d+1) * (1 + 1e-6),
        # in any summation order.  So the per-row product has this argmax when
        # the top two differ by over 4 g; 8 * gamma_(d+4) leaves a 2x margin.
        u = (protos.shape[1] + 4) * 2.0**-53
        top2 = np.partition(sims, -2, axis=1)[:, -2:]
        sure &= top2[:, 1] - top2[:, 0] > 8.0 * u / (1.0 - u)
    return ids[sims.argmax(axis=1)].tolist(), sure


def vote(track: "TrackState", category_id: int) -> dict[int, int]:
    """Add one vote for category_id; returns the updated vote map."""
    track.category_votes[category_id] = track.category_votes.get(category_id, 0) + 1
    return track.category_votes


def track_label(track: "TrackState") -> int:
    """Majority vote over the track's observations; ties to smallest id."""
    if not track.category_votes:
        raise ValueError(f"track {track.track_id} has no votes, cannot label")
    return min(track.category_votes, key=lambda cid: (-track.category_votes[cid], cid))


def vote_fraction(track: "TrackState") -> float:
    """Fraction of votes held by the winning category; the track's score."""
    label = track_label(track)
    total = sum(track.category_votes.values())
    return track.category_votes[label] / total
