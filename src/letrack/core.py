"""Shared domain types for sequences, detections, and tracks.

Construction is deliberately dumb: the dataclasses here hold whatever they
are given, and :func:`validate_sequence` is the single gate that decides
whether a sequence's detections satisfy every invariant.  It returns the
complete list of violations instead of stopping at the first, so a caller
can report everything wrong with a file in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .maskops import RleMask

__all__ = [
    "BBox",
    "Detection",
    "InternalInvariantError",
    "SequenceMeta",
    "TrackState",
    "TrackStatus",
    "validate_sequence",
]


class InternalInvariantError(RuntimeError):
    """A library invariant broke.  This is a bug, not bad input."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in continuous pixel coordinates.

    (x, y) is the top-left corner, w/h extend right/down.  Coordinates are
    open-interval: a unit-area box at integer coordinates covers exactly one
    pixel and two boxes that only share an edge do not intersect.
    """

    x: float
    y: float
    w: float
    h: float

    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True, eq=False)
class Detection:
    """One class-agnostic detection in one frame.

    app_emb is the appearance embedding used for association; cls_emb is the
    class-exemplar embedding used for gating and classification.  The two
    spaces are independent and may have different dimensions.  mask is
    optional; geometry falls back to the box when it is absent.
    """

    frame_index: int
    box: BBox
    objectness: float
    app_emb: np.ndarray
    cls_emb: np.ndarray
    mask: Optional["RleMask"] = None


class TrackStatus(Enum):
    ACTIVE = "active"
    LOST = "lost"
    DEAD = "dead"


@dataclass(eq=False)
class TrackState:
    """Mutable per-track state owned by a single tracker instance."""

    track_id: int
    app_emb_smoothed: np.ndarray
    last_frame: int
    observations: list[tuple[int, Detection]]
    status: TrackStatus = TrackStatus.ACTIVE
    category_votes: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SequenceMeta:
    name: str
    height: int
    width: int
    num_frames: int


def _check_box(box: BBox, where: str, issues: list[str]) -> None:
    vals = (box.x, box.y, box.w, box.h)
    if not all(np.isfinite(v) for v in vals):
        issues.append(f"{where}: box coordinates must be finite, got {vals}")
        return
    if box.w < 0 or box.h < 0:
        issues.append(f"{where}: box width/height must be >= 0, got w={box.w} h={box.h}")


def validate_sequence(meta: SequenceMeta, detections: Sequence[Detection]) -> list[str]:
    """Check every detection of a sequence against the type invariants.

    Returns the complete list of violation messages; an empty list means the
    sequence is valid.  Embedding dimensions are data-driven: the first
    detection fixes the appearance and class dimensions and every later
    detection must agree.
    """
    issues: list[str] = []
    if meta.height < 1 or meta.width < 1:
        issues.append(f"meta: frame size must be >= 1x1, got {meta.height}x{meta.width}")
    if meta.num_frames < 1:
        issues.append(f"meta: num_frames must be >= 1, got {meta.num_frames}")

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
