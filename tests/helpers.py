"""Builders shared across the test modules."""

from __future__ import annotations

import numpy as np

from letrack.classification import CategoryBank, CategoryEntry
from letrack.core import BBox, Detection, SequenceMeta
from letrack.io import SequenceTracks, TrackObservation, TrackRecord


def unit(*vals: float) -> np.ndarray:
    v = np.asarray(vals, dtype=np.float64)
    return v / np.linalg.norm(v)


def det(
    frame: int,
    box: tuple = (0, 0, 10, 10),
    objectness: float = 0.9,
    app: tuple = (1.0, 0.0),
    cls: tuple = (1.0, 0.0),
    mask=None,
) -> Detection:
    return Detection(
        frame_index=frame,
        box=BBox(*[float(v) for v in box]),
        objectness=objectness,
        app_emb=np.asarray(app, dtype=np.float64),
        cls_emb=np.asarray(cls, dtype=np.float64),
        mask=mask,
    )


def box_track(track_id: int, frames_boxes, category_id=None, score=None) -> TrackRecord:
    obs = [
        TrackObservation(frame=f, box=BBox(*[float(v) for v in b]))
        for f, b in frames_boxes
    ]
    return TrackRecord(
        track_id=track_id, observations=obs, category_id=category_id, score=score
    )


def meta(name: str = "seq", h: int = 64, w: int = 64, n: int = 10) -> SequenceMeta:
    return SequenceMeta(name=name, height=h, width=w, num_frames=n)


def seq_tracks(tracks, name: str = "seq", h: int = 64, w: int = 64, n: int = 10) -> SequenceTracks:
    return SequenceTracks(meta=meta(name, h, w, n), tracks=list(tracks))


def two_split_bank(dim: int = 2) -> CategoryBank:
    protos = np.eye(dim, dtype=np.float64)
    return CategoryBank(
        [
            CategoryEntry(category_id=1, name="cat_a", split="common", prototype=protos[0]),
            CategoryEntry(category_id=2, name="cat_b", split="uncommon", prototype=protos[1]),
        ]
    )


def burst_doc() -> dict:
    """A BURST dump of one 4x4 clip: track 1 is a 2x2 square at the origin in
    frames 0 and 1, track 2 sits at the opposite corner in frame 0.  Runs are
    column-major and the first counts zeros; track 1's mask is wrapped in
    ``rle`` and track 2's leaves its size to the sequence."""
    sq1 = {"rle": {"counts": [0, 2, 2, 2, 10], "size": [4, 4]}}
    sq2 = {"counts": [10, 2, 2, 2]}
    return {
        "sequences": [
            {
                "seq_name": "clip01",
                "height": 4,
                "width": 4,
                "segmentations": [{"1": sq1, "2": sq2}, {"1": sq1}],
                "track_category_ids": {"1": 3, "2": 7},
            }
        ]
    }
