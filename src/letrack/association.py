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
run reports every track ever spawned) but never matched again.

Thresholds and momentum live in TrackerConfig; the operations never
hard-code them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .assignment import hungarian_max
from .classification import CategoryBank, classify_detection, track_label, vote, vote_fraction
from .core import Detection, InternalInvariantError, SequenceMeta, TrackState, TrackStatus
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
    "run_sequence",
    "track_sequence",
    "update_embedding",
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
        if not (0.0 <= self.new_track_threshold <= 1.0):
            raise ValueError(
                f"new_track_threshold must be in [0, 1], got {self.new_track_threshold}"
            )
        if not (-1.0 <= self.cem_gate_threshold <= 1.0):
            raise ValueError(
                f"cem_gate_threshold must be in [-1, 1], got {self.cem_gate_threshold}"
            )
        if not (0.0 <= self.embedding_momentum <= 1.0):
            raise ValueError(
                f"embedding_momentum must be in [0, 1], got {self.embedding_momentum}"
            )
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

    def as_dict(self) -> dict[str, int]:
        return {"zero_norm_cls_emb": self.zero_norm_cls_emb}


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
    qn = np.linalg.norm(q, axis=1)
    kn = np.linalg.norm(k, axis=1)
    if diagnostics is not None:
        diagnostics.zero_norm_cls_emb += int((qn == 0.0).sum()) + int((kn == 0.0).sum())
    qu = np.divide(q, qn[:, None], out=np.zeros_like(q), where=qn[:, None] > 0.0)
    ku = np.divide(k, kn[:, None], out=np.zeros_like(k), where=kn[:, None] > 0.0)
    return (qu @ ku.T) >= threshold


def update_embedding(track: TrackState, det: Detection, momentum: float) -> np.ndarray:
    """EMA of the track's smoothed appearance embedding with the detection's."""
    if not (0.0 <= momentum <= 1.0):
        raise ValueError(f"momentum must be in [0, 1], got {momentum}")
    return (1.0 - momentum) * track.app_emb_smoothed + momentum * np.asarray(
        det.app_emb, dtype=np.float64
    )


class Tracker:
    """Stateful per-sequence tracker; step frames in ascending order."""

    def __init__(self, cfg: TrackerConfig | None = None, bank: CategoryBank | None = None):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        self.bank = bank
        self.diagnostics = Diagnostics()
        self._tracks: list[TrackState] = []
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def tracks(self) -> list[TrackState]:
        """Every track ever spawned, in spawn order (dead ones included)."""
        return list(self._tracks)

    def _cast_vote(self, track: TrackState, det: Detection) -> None:
        if self.bank is not None:
            category_id, _ = classify_detection(det.cls_emb, self.bank, self.diagnostics)
            vote(track, category_id)

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

        pool = [t for t in self._tracks if t.status is not TrackStatus.DEAD]
        n, m = len(detections), len(pool)
        if n > 0 and m > 0:
            det_app = np.stack([np.asarray(d.app_emb, np.float64) for d in detections])
            det_cls = np.stack([np.asarray(d.cls_emb, np.float64) for d in detections])
            pool_app = np.stack([t.app_emb_smoothed for t in pool])
            # The gate compares against each track's most recent exemplar.
            pool_cls = np.stack(
                [np.asarray(t.observations[-1][1].cls_emb, np.float64) for t in pool]
            )
            scores = bisoftmax_scores(det_app, pool_app)
            gate = cem_gate(det_cls, pool_cls, self.cfg.cem_gate_threshold, self.diagnostics)
            feasible = gate & (scores >= self.cfg.match_threshold)
            pairs = hungarian_max(scores, feasible)
        else:
            scores = np.zeros((n, m), dtype=np.float64)
            pairs = []

        matched_dets: set[int] = set()
        matched_pool: set[int] = set()
        matches: list[tuple[int, int, float]] = []
        for i, j in pairs:
            det, track = detections[i], pool[j]
            track.observations.append((frame_index, det))
            track.app_emb_smoothed = update_embedding(track, det, self.cfg.embedding_momentum)
            track.last_frame = frame_index
            track.status = TrackStatus.ACTIVE
            self._cast_vote(track, det)
            matches.append((i, track.track_id, float(scores[i, j])))
            matched_dets.add(i)
            matched_pool.add(j)

        new_tracks: list[tuple[int, int]] = []
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
            self._tracks.append(track)
            self._cast_vote(track, det)
            new_tracks.append((i, track.track_id))

        unmatched_tracks: list[int] = []
        for j, track in enumerate(pool):
            if j in matched_pool:
                continue
            track.status = TrackStatus.LOST
            if frame_index - track.last_frame > self.cfg.max_lost_frames:
                track.status = TrackStatus.DEAD
            unmatched_tracks.append(track.track_id)

        result = FrameAssignment(
            matches=tuple(matches),
            new_tracks=tuple(new_tracks),
            unmatched_tracks=tuple(unmatched_tracks),
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


def run_sequence(
    meta: SequenceMeta,
    frames: Mapping[int, Sequence[Detection]] | Iterable[tuple[int, Sequence[Detection]]],
    cfg: TrackerConfig | None = None,
    bank: CategoryBank | None = None,
) -> list[TrackState]:
    """Track one full sequence and return every track ever spawned.

    Every frame index in [0, meta.num_frames) is stepped, with an empty
    detection list where the input has none, so the lost-track window ages
    in real frames rather than in frames-with-detections.
    """
    return _run(meta, frames, cfg, bank).tracks


def track_sequence(
    seq: SequenceDetections,
    cfg: TrackerConfig | None = None,
    bank: CategoryBank | None = None,
) -> tuple[SequenceTracks, Diagnostics]:
    """Track one sequence as run_sequence does, into tracks-file records.

    Only with a bank are tracks labeled (``track_label``, ``vote_fraction``).
    """
    tracker = _run(seq.meta, [(fr.index, fr.detections) for fr in seq.frames], cfg, bank)
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


def _run(
    meta: SequenceMeta,
    frames: Mapping[int, Sequence[Detection]] | Iterable[tuple[int, Sequence[Detection]]],
    cfg: TrackerConfig | None,
    bank: CategoryBank | None,
) -> Tracker:
    frame_map = dict(frames)
    for idx in frame_map:
        if not (0 <= idx < meta.num_frames):
            raise ValueError(
                f"frame index {idx} out of range for {meta.num_frames}-frame sequence"
            )
    tracker = Tracker(cfg, bank)
    for idx in range(meta.num_frames):
        tracker.step(idx, frame_map.get(idx, ()))
    return tracker
