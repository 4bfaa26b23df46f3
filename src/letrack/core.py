"""Shared domain types for sequences, detections, and tracks.

Construction is deliberately dumb: the dataclasses here hold whatever they
are given, and :func:`validate_sequence` is the single gate that decides
whether a sequence's detections satisfy every invariant, each invariant
once, in array passes over the whole sequence.  It returns the complete
list of violations instead of stopping at the first, so a caller can
report everything wrong with a file in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

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


# Quotes are cut to this many characters.  An int of over 4 bits per such digit
# (2**4 > 10) is described by its size, never turned into (quadratic) text.
_QUOTE_CHARS = 500


def _quote(v: Any, show: Callable[[Any], str] = repr) -> str:
    """``show(v)`` for a message, cut past ``_QUOTE_CHARS`` characters; a tuple member by member."""
    if isinstance(v, tuple):
        return f"({', '.join(_quote(x, show) for x in v)})"
    if isinstance(v, int) and not isinstance(v, bool) and v.bit_length() > 4 * _QUOTE_CHARS:
        return f"{'a negative' if v < 0 else 'an'} integer of {v.bit_length()} bits"
    try:
        text = show(v)
    except ValueError:  # an array or object holding an int past Python's 4,300 digits
        text = f"a {type(v).__name__} holding a huge integer"
    return text if len(text) <= _QUOTE_CHARS else text[:_QUOTE_CHARS] + "..."


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


def _embedding_checks(detections: Sequence[Detection], name: str) -> tuple[list, tuple]:
    """(flags, message) for the form checks of one embedding kind (1-D,
    non-empty, finite) and for its dimension, that of the first 1-D,
    non-empty one.  One shape for the whole kind needs no per-embedding pass."""
    embs = list(map(attrgetter(name), detections))
    n = len(embs)
    if len(set(map(attrgetter("shape"), embs))) == 1:
        ndim, size = np.full(n, embs[0].ndim), np.full(n, embs[0].size)
    else:
        ndim = np.fromiter(map(attrgetter("ndim"), embs), np.int64, n)
        size = np.fromiter(map(attrgetter("size"), embs), np.int64, n)
    one_d = ndim == 1
    ok = one_d & (size > 0)
    ok_idx = np.flatnonzero(ok)
    dim = int(size[ok_idx[0]]) if ok_idx.size else None
    nonfinite = np.zeros(n, dtype=bool)
    if ok_idx.size:
        # One concatenate of the 1-D, non-empty embeddings; the k-th of them
        # owns the values before ends[k].
        ok_embs = embs if ok_idx.size == n else [embs[i] for i in ok_idx]
        finite = np.isfinite(np.concatenate(ok_embs))
        if not finite.all():
            ends = np.cumsum(size[ok_idx])
            nonfinite[ok_idx[np.searchsorted(ends, np.flatnonzero(~finite), side="right")]] = True
    form = [
        (~one_d, f"{name} must be 1-D, got shape {{d.{name}.shape}}"),
        (one_d & (size == 0), f"{name} must be non-empty"),
        (nonfinite, f"{name} has non-finite values"),
    ]
    mismatch = f"{name} embedding dimension mismatch, got {{d.{name}.size}}, expected {dim}"
    return form, (ok & (size != dim), mismatch)


def validate_sequence(meta: SequenceMeta, detections: Sequence[Detection]) -> list[str]:
    """Check every detection of a sequence against the type invariants.

    Returns the complete list of violation messages; an empty list means the
    sequence is valid.  Embedding dimensions are data-driven: the first 1-D,
    non-empty embedding fixes the appearance (or class) dimension and every
    other must agree.  Each invariant is decided once, for every detection
    in one array pass; messages are then written for the flagged detections
    only, in detection order.
    """
    issues: list[str] = []
    if meta.height < 1 or meta.width < 1:
        issues.append(f"meta: frame size must be >= 1x1, got {meta.height}x{meta.width}")
    if meta.num_frames < 1:
        issues.append(f"meta: num_frames must be >= 1, got {meta.num_frames}")
    elif meta.num_frames >= 2**63:  # every frame index of a valid sequence fits an int64
        issues.append(f"meta: num_frames must be <= 2**63 - 1, got {_quote(meta.num_frames, str)}")

    # An empty list would make a float array, which cannot compare with a huge num_frames.
    frames = np.array(list(map(attrgetter("frame_index"), detections)) or np.zeros(0, np.int64))
    bad_frame = ~((0 <= frames) & (frames < meta.num_frames))
    objectness = np.array(list(map(attrgetter("objectness"), detections)))
    bad_objectness = ~((0.0 <= objectness) & (objectness <= 1.0))
    # One list per coordinate: a 4-tuple per detection would leave the
    # allocator's arenas fragmented and raise the process's peak RSS.
    bboxes = list(map(attrgetter("box"), detections))
    boxes = np.array([list(map(attrgetter(c), bboxes)) for c in "xywh"])
    box_finite = np.isfinite(boxes).all(axis=0)
    bad_extent = box_finite & (boxes[2:] < 0).any(axis=0)
    app_form, app_dim = _embedding_checks(detections, "app_emb")
    cls_form, cls_dim = _embedding_checks(detections, "cls_emb")
    # Each distinct mask size is decided once; per-detection flags only when one is wrong.
    masks = [d.mask for d in detections if d.mask is not None]
    wrong = set(map(tuple, map(attrgetter("size"), masks))) - {(meta.height, meta.width)}
    bad_mask = np.zeros(len(detections), dtype=bool)
    if wrong:
        bad_mask[:] = [d.mask is not None and tuple(d.mask.size) in wrong for d in detections]

    # (flags, message) per invariant, in the order of a detection's messages.
    # A message is a template filled from the detection ``d``, ``meta``, the
    # box tuple and the mask size.
    checks = [
        (bad_frame, "frame_index out of range, got {frame} for {meta.num_frames} frames"),
        (bad_objectness, "objectness out of range [0, 1], got {d.objectness}"),
        (~box_finite, "box coordinates must be finite, got {box}"),
        (bad_extent, "box width/height must be >= 0, got w={d.box.w} h={d.box.h}"),
        *app_form,
        *cls_form,
        app_dim,
        cls_dim,
        (bad_mask, "mask size {mask} does not match sequence size ({meta.height}, {meta.width})"),
    ]
    flags, texts = zip(*checks)
    hits = np.array(flags, dtype=bool)
    for i in np.flatnonzero(hits.any(axis=0)):
        d = detections[i]
        fields = dict(d=d, meta=meta, frame=_quote(d.frame_index, str), box=d.box.as_tuple(),
                      mask=d.mask and tuple(d.mask.size))
        issues += [f"detections[{i}]: {texts[k].format(**fields)}" for k in np.flatnonzero(hits[:, i])]
    return issues
