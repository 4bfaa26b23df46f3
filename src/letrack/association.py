"""Appearance-only association and track lifecycle.

Matching happens purely in embedding space: no motion model, no spatial
prior, no NMS.  Per frame the tracker

1. scores every (detection, candidate track) pair with a bi-directional
   softmax over raw appearance dot products,
2. gates pairs whose class-exemplar cosine falls below a threshold,
3. solves the gated assignment exactly,
4. updates matched tracks (observation, EMA embedding, one category vote),
5. spawns tracks from confident unmatched detections, and
6. marks unmatched tracks lost, then dead once they have been unmatched
   longer than the re-identification window.

Lost tracks stay in the matchable pool until they die, which is what makes
re-identification after occlusion work.  Dead tracks are kept (a finished
run reports every track ever spawned) but never matched again.  The pool is
kept between frames as rows (smoothed embedding, last class exemplar),
appended on spawn and compacted on death; all matched rows take their EMA
update at once.  A frame's votes come from one ``nearest_prototypes``
product; a row within its rounding bound of a tie, or of zero norm, goes
through ``classify_detection``, so every label is the per-detection one.

``track_sequence`` is the one way to run a sequence: it steps one Tracker
over every frame index and returns tracks-file records.  ``Tracker.step``
is the per-frame entry.  Thresholds and momentum live in TrackerConfig;
the operations never hard-code them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .assignment import hungarian_max
from .classification import (
    CategoryBank, classify_detection, nearest_prototypes, track_label, unit_rows, vote, vote_fraction,
)
from .core import Detection, InternalInvariantError, TrackState, TrackStatus
from .io import (
    SequenceDetections,
    SequenceTracks,
    TrackObservation,
    TrackRecord,
    config_from_mapping,
)

__all__ = [
    "Diagnostics",
    "FrameAssignment",
    "Tracker",
    "TrackerConfig",
    "bisoftmax_scores",
    "cem_gate",
    "track_sequence",
]


@dataclass(frozen=True)
class TrackerConfig:
    """Association thresholds and lifecycle constants.

    match_threshold: minimum bi-softmax score for a feasible pair.
    new_track_threshold: minimum objectness for an unmatched detection to
        spawn a track.
    cem_gate_threshold: minimum class-exemplar cosine for a feasible pair.
    embedding_momentum: weight of the incoming embedding in the EMA update.
    max_lost_frames: frames a track may stay unmatched before going dead.
    """

    match_threshold: float = 0.5
    new_track_threshold: float = 0.7
    cem_gate_threshold: float = 0.5
    embedding_momentum: float = 0.8
    max_lost_frames: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.match_threshold < 1.0):
            raise ValueError(f"match_threshold must be in (0, 1), got {self.match_threshold}")
        for name, lo in (("new_track_threshold", 0), ("cem_gate_threshold", -1), ("embedding_momentum", 0)):
            if not (lo <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [{lo}, 1], got {getattr(self, name)}")
        if self.max_lost_frames < 0:
            raise ValueError(f"max_lost_frames must be >= 0, got {self.max_lost_frames}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "TrackerConfig":
        """Build from flat string key/value pairs (the config file form)."""
        return config_from_mapping(cls, mapping, "tracker")


@dataclass
class Diagnostics:
    """Soft-failure counters; these never raise, only record."""

    zero_norm_cls_emb: int = 0


@dataclass(frozen=True)
class FrameAssignment:
    """Outcome of one tracker step.

    matches: (detection_index, track_id, bi-softmax score) per matched pair.
    new_tracks: (detection_index, track_id) per spawned track.
    unmatched_tracks: ids of candidate tracks that matched nothing.
    """

    matches: tuple[tuple[int, int, float], ...]
    new_tracks: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]


def bisoftmax_scores(det_embs: np.ndarray, track_embs: np.ndarray) -> np.ndarray:
    """Bi-directional softmax similarity over raw dot products.

    S[i, j] averages the softmax of detection i's dots over all tracks and
    the softmax of track j's dots over all detections.  Dot products are
    used exactly as given: no normalization and no temperature, the data
    producer controls the embedding scale.  Each softmax subtracts its
    max before exponentiating, so arbitrarily large dots are safe.
    """
    q = np.asarray(det_embs, dtype=np.float64)
    k = np.asarray(track_embs, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shapes {q.shape} and {k.shape}")
    n, m = q.shape[0], k.shape[0]
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=np.float64)
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"embedding dimension mismatch: {q.shape[1]} vs {k.shape[1]}")
    dots = q @ k.T
    row = np.exp(dots - dots.max(axis=1, keepdims=True))
    row /= row.sum(axis=1, keepdims=True)
    col = np.exp(dots - dots.max(axis=0, keepdims=True))
    col /= col.sum(axis=0, keepdims=True)
    return 0.5 * (row + col)


def cem_gate(
    det_cls: np.ndarray,
    track_cls: np.ndarray,
    threshold: float,
    diagnostics: Diagnostics | None = None,
) -> np.ndarray:
    """Class-exemplar gate: cosine(det, track) >= threshold.

    A zero-norm embedding has no direction; its similarities are defined as
    0 (so it gates closed for any threshold > 0) and each such vector bumps
    the diagnostics counter once per call.
    """
    q = np.asarray(det_cls, dtype=np.float64)
    k = np.asarray(track_cls, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shapes {q.shape} and {k.shape}")
    n, m = q.shape[0], k.shape[0]
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=bool)
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"embedding dimension mismatch: {q.shape[1]} vs {k.shape[1]}")
    (qu, q_zero), (ku, k_zero) = unit_rows(q), unit_rows(k)
    if diagnostics is not None:
        diagnostics.zero_norm_cls_emb += int(q_zero.sum()) + int(k_zero.sum())
    return (qu @ ku.T) >= threshold


def _ema(smoothed: np.ndarray, incoming: np.ndarray, momentum: float) -> np.ndarray:
    return (1.0 - momentum) * smoothed + momentum * incoming


class Tracker:
    """Stateful per-sequence tracker; step frames in ascending order.

    Live track k, in spawn order, owns row k of ``_app`` and of ``_cls``."""

    def __init__(self, cfg: TrackerConfig | None = None, bank: CategoryBank | None = None):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        self.bank = bank
        self.diagnostics = Diagnostics()
        self._tracks: list[TrackState] = []
        self._live: list[TrackState] = []
        self._app = self._cls = np.zeros((0, 0))
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def tracks(self) -> list[TrackState]:
        """Every track ever spawned, in spawn order (dead ones included)."""
        return list(self._tracks)

    def step(self, frame_index: int, detections: Sequence[Detection]) -> FrameAssignment:
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"out-of-order frame_index {frame_index}, already stepped {self._last_frame}"
            )
        for i, det in enumerate(detections):
            if det.frame_index != frame_index:
                raise ValueError(
                    f"detections[{i}] carries frame_index {det.frame_index}, stepping {frame_index}"
                )
        self._last_frame = frame_index

        pool = self._live
        n, m = len(detections), len(pool)
        if n > 0:
            det_app = np.array([d.app_emb for d in detections], dtype=np.float64)
            det_cls = np.array([d.cls_emb for d in detections], dtype=np.float64)
        pairs: list[tuple[int, int]] = []
        if n > 0 and m > 0:
            scores = bisoftmax_scores(det_app, self._app)
            # The gate compares against each track's most recent exemplar.
            gate = cem_gate(det_cls, self._cls, self.cfg.cem_gate_threshold, self.diagnostics)
            pairs = hungarian_max(scores, gate & (scores >= self.cfg.match_threshold))

        dets, rows = [i for i, _ in pairs], [j for _, j in pairs]
        if pairs:
            smoothed = _ema(self._app[rows], det_app[dets], self.cfg.embedding_momentum)
            self._app[rows], self._cls[rows] = smoothed, det_cls[dets]
        for k, (i, j) in enumerate(pairs):
            track = pool[j]
            track.observations.append((frame_index, detections[i]))
            track.app_emb_smoothed = smoothed[k]
            track.last_frame = frame_index
            track.status = TrackStatus.ACTIVE

        matched_dets = set(dets)
        spawned = [
            i for i, det in enumerate(detections)
            if i not in matched_dets and det.objectness >= self.cfg.new_track_threshold
        ]
        born = [
            TrackState(self._next_id + k, det_app[i], frame_index, [(frame_index, detections[i])])
            for k, i in enumerate(spawned)
        ]
        self._next_id += len(born)
        self._tracks += born

        # One vote per matched or spawned detection.  The rows one product
        # cannot decide go through classify_detection: every label is its own.
        voters = dets + spawned
        if self.bank is not None and voters:
            labels, decided = nearest_prototypes(det_cls[voters], self.bank)
            for k in np.flatnonzero(~decided):
                labels[k], _ = classify_detection(detections[voters[k]].cls_emb, self.bank, self.diagnostics)
            for track, category_id in zip([pool[j] for j in rows] + born, labels):
                vote(track, category_id)

        matched_rows = set(rows)
        unmatched_tracks = [t for j, t in enumerate(pool) if j not in matched_rows]
        for track in unmatched_tracks:
            track.status = TrackStatus.LOST
        dying = [t for t in unmatched_tracks if frame_index - t.last_frame > self.cfg.max_lost_frames]
        if dying:
            for track in dying:
                track.status = TrackStatus.DEAD
            live = [j for j, t in enumerate(pool) if t.status is not TrackStatus.DEAD]
            self._live, self._app, self._cls = [pool[j] for j in live], self._app[live], self._cls[live]
        if born:
            # With no live row left, the new rows may bring new dimensions.
            old = (self._app, self._cls) if self._live else (det_app[:0], det_cls[:0])
            self._live = self._live + born
            self._app = np.concatenate([old[0], det_app[spawned]])
            self._cls = np.concatenate([old[1], det_cls[spawned]])

        result = FrameAssignment(
            matches=tuple((i, pool[j].track_id, float(scores[i, j])) for i, j in pairs),
            new_tracks=tuple((i, t.track_id) for i, t in zip(spawned, born)),
            unmatched_tracks=tuple(t.track_id for t in unmatched_tracks),
        )
        _check_assignment(result, n)
        return result


def _check_assignment(fa: FrameAssignment, num_detections: int) -> None:
    det_indices = [i for i, _, _ in fa.matches] + [i for i, _ in fa.new_tracks]
    if len(det_indices) != len(set(det_indices)):
        raise InternalInvariantError("a detection index was assigned twice in one frame")
    if any(not (0 <= i < num_detections) for i in det_indices):
        raise InternalInvariantError("assignment referenced a detection index out of range")
    matched_ids = [tid for _, tid, _ in fa.matches]
    if len(matched_ids) != len(set(matched_ids)):
        raise InternalInvariantError("a track was matched twice in one frame")


def track_sequence(
    seq: SequenceDetections,
    cfg: TrackerConfig | None = None,
    bank: CategoryBank | None = None,
) -> tuple[SequenceTracks, Diagnostics]:
    """Track one sequence into tracks-file records, every track ever spawned.

    Every frame index in [0, seq.meta.num_frames) is stepped, with an empty
    detection list where the sequence has no frame, so the lost-track window
    ages in real frames rather than in frames-with-detections.  A frame index
    out of range or given twice raises ValueError.  Only with a bank are
    tracks labeled (``track_label``, ``vote_fraction``).
    """
    num_frames = seq.meta.num_frames
    frames: dict[int, list[Detection]] = {}
    for fr in seq.frames:
        if not (0 <= fr.index < num_frames):
            raise ValueError(f"frame index {fr.index} out of range for {num_frames}-frame sequence")
        if fr.index in frames:
            raise ValueError(f"frame index {fr.index} appears twice")
        frames[fr.index] = fr.detections
    tracker = Tracker(cfg, bank)
    for idx in range(num_frames):
        tracker.step(idx, frames.get(idx, ()))
    records = [
        TrackRecord(
            track_id=st.track_id,
            observations=[
                TrackObservation(frame=f, box=d.box, mask=d.mask) for f, d in st.observations
            ],
            category_id=track_label(st) if st.category_votes else None,
            score=vote_fraction(st) if st.category_votes else None,
        )
        for st in tracker.tracks
    ]
    return SequenceTracks(meta=seq.meta, tracks=records), tracker.diagnostics
