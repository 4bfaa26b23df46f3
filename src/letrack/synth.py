"""Seeded synthetic sequences with known ground truth.

One call to :func:`generate` produces a matched triple (ground-truth tracks,
per-frame detections, category bank) for a single sequence of rectangles
drifting across the frame.  Everything is drawn from one
:class:`~letrack.rng.SplitMix64` stream in a pinned order, so a config maps
to byte-identical output files on every platform.

Draw order (any change here is a format break):

1. Per category, ascending id: ``cls_emb_dim`` gaussians, normalized, as the
   prototype.
2. Per track, ascending id: ``app_emb_dim`` gaussians normalized then scaled
   to ``APP_EMB_SCALE`` as the appearance identity; category index
   ``randint(num_categories)``; box width, height, x0, y0 randints; vx and
   vy each ``uniform_in(-2, 2)``.
3. Per frame ascending, per track ascending: one uniform (the detection is
   emitted iff it is ``>= p_drop``); if emitted, four jitter gaussians, then
   ``app_emb_dim`` noise gaussians, then ``cls_emb_dim`` noise gaussians
   (taken as one ``gauss_vec`` block and sliced, which is the same stream).
   The noise draws happen even when the sigmas are zero, so the stream
   position never depends on the noise settings.  After the real tracks,
   one uniform per spurious slot (``num_tracks`` slots, each firing with
   probability ``p_fp / num_tracks``); a firing slot draws a random box,
   a unit appearance vector, a unit class vector, and an objectness
   ``uniform_in(0.3, 0.8)``.

Appearance identities are scaled to norm ``APP_EMB_SCALE`` rather than unit
norm: association scores pairs with a bi-softmax over raw dot products, and
with unit vectors the self-pair score tops out near ``e / (e + n - 1)``,
which sits below any usable match threshold once a frame holds more than a
handful of objects.  Dot products of ~36 put self pairs within float
rounding of 1.0 while keeping cross pairs near 0.  Class embeddings stay
unit norm; the gate is a cosine, so their scale carries no information.

Ground truth contains every track in every frame; ``p_drop`` only removes
detections.  Noise-free settings therefore reproduce ground truth exactly,
which pins the full pipeline's fixed point: track the clean detections,
evaluate against the ground truth, and every score is 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .classification import CategoryBank, CategoryEntry
from .core import BBox, Detection, SequenceMeta
from .io import (
    FrameDetections,
    SequenceDetections,
    SequenceTracks,
    TrackObservation,
    TrackRecord,
    config_from_mapping,
)
from .maskops import RleMask
from .rng import SplitMix64

__all__ = [
    "APP_EMB_SCALE",
    "ID_REMAP_OFFSET",
    "SynthConfig",
    "SynthResult",
    "generate",
    "perfect_tracker",
]

# Norm of the per-track appearance identity vectors (see module docstring).
APP_EMB_SCALE = 6.0

# perfect_tracker shifts track ids by this much so gt and pred id spaces
# visibly never collide.
ID_REMAP_OFFSET = 1000


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 1
    num_frames: int = 20
    num_tracks: int = 5
    num_categories: int = 4
    frame_height: int = 64
    frame_width: int = 96
    fraction_common: float = 0.5
    p_drop: float = 0.0
    p_fp: float = 0.0
    box_jitter_sigma: float = 0.0
    app_noise_sigma: float = 0.0
    cls_noise_sigma: float = 0.0
    app_emb_dim: int = 32
    cls_emb_dim: int = 16

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {self.num_frames}")
        if self.num_tracks < 0:
            raise ValueError(f"num_tracks must be >= 0, got {self.num_tracks}")
        if self.num_categories < 1:
            raise ValueError(f"num_categories must be >= 1, got {self.num_categories}")
        if self.frame_height < 4 or self.frame_width < 4:
            raise ValueError(
                f"frame size must be at least 4x4, got "
                f"{self.frame_height}x{self.frame_width}"
            )
        if not (0.0 <= self.fraction_common <= 1.0):
            raise ValueError(f"fraction_common must be in [0, 1], got {self.fraction_common}")
        for name in ("p_drop", "p_fp"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("box_jitter_sigma", "app_noise_sigma", "cls_noise_sigma"):
            v = getattr(self, name)
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if self.app_emb_dim < 1 or self.cls_emb_dim < 1:
            raise ValueError("embedding dimensions must be >= 1")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "SynthConfig":
        """Build from flat string key/value pairs (the config file form)."""
        return config_from_mapping(cls, mapping, "synth")


@dataclass
class SynthResult:
    gt: list[SequenceTracks]
    detections: list[SequenceDetections]
    bank: CategoryBank


@dataclass
class _Body:
    identity: np.ndarray
    category_id: int
    w: int
    h: int
    x0: int
    y0: int
    vx: float
    vy: float


def _rect_mask(height: int, width: int, x0: int, y0: int, w: int, h: int) -> RleMask:
    """Column-major runs of the in-frame rectangle, written without a grid.

    Equal to ``rle_encode`` of the painted rectangle: a lead run of zeros,
    then per column ``h`` ones and ``height - h`` zeros, the last column's
    gap merging into the tail.  Full-height columns join into one run; a
    zero tail run is dropped.
    """
    total = height * width
    if w == 0 or h == 0:
        return RleMask(size=(height, width), counts=(total,))
    lead = x0 * height + y0
    if h == height:
        counts = [lead, h * w]
    else:
        counts = [lead, *[h, height - h] * (w - 1), h]
    tail = total - lead - (w - 1) * height - h
    if tail:
        counts.append(tail)
    return RleMask(size=(height, width), counts=tuple(counts))


def _rasterize(box: BBox, height: int, width: int) -> RleMask:
    # Round each edge to the nearest pixel boundary, then clamp to the frame.
    x0 = int(math.floor(box.x + 0.5))
    y0 = int(math.floor(box.y + 0.5))
    x1 = int(math.floor(box.x + box.w + 0.5))
    y1 = int(math.floor(box.y + box.h + 0.5))
    x0 = max(0, min(x0, width))
    y0 = max(0, min(y0, height))
    x1 = max(x0, min(x1, width))
    y1 = max(y0, min(y1, height))
    return _rect_mask(height, width, x0, y0, x1 - x0, y1 - y0)


def _draw_extent(rng: SplitMix64, limit: int) -> int:
    return min(2 + rng.randint(max(1, limit // 4)), limit)


def _draw_rect(rng: SplitMix64, cfg: SynthConfig) -> tuple[int, int, int, int]:
    """Width, height and an in-frame top-left corner (x0, y0), in that draw order."""
    w = _draw_extent(rng, cfg.frame_width)
    h = _draw_extent(rng, cfg.frame_height)
    return w, h, rng.randint(cfg.frame_width - w + 1), rng.randint(cfg.frame_height - h + 1)


def _draw_body(rng: SplitMix64, cfg: SynthConfig) -> _Body:
    identity = rng.unit_vector(cfg.app_emb_dim) * APP_EMB_SCALE
    category_id = rng.randint(cfg.num_categories) + 1
    w, h, x0, y0 = _draw_rect(rng, cfg)
    vx = rng.uniform_in(-2.0, 2.0)
    vy = rng.uniform_in(-2.0, 2.0)
    return _Body(identity, category_id, w, h, x0, y0, vx, vy)


def _position(body: _Body, frame: int, cfg: SynthConfig) -> tuple[int, int]:
    x = min(max(body.x0 + body.vx * frame, 0.0), float(cfg.frame_width - body.w))
    y = min(max(body.y0 + body.vy * frame, 0.0), float(cfg.frame_height - body.h))
    return int(math.floor(x + 0.5)), int(math.floor(y + 0.5))


def generate(cfg: SynthConfig) -> SynthResult:
    """One synthetic sequence; see the module docstring for the draw order."""
    rng = SplitMix64(cfg.seed)

    n_common = int(math.floor(cfg.fraction_common * cfg.num_categories + 0.5))
    prototypes = []
    entries = []
    for c in range(cfg.num_categories):
        proto = rng.unit_vector(cfg.cls_emb_dim)
        prototypes.append(proto)
        entries.append(
            CategoryEntry(
                category_id=c + 1,
                name=f"category_{c + 1:02d}",
                split="common" if c < n_common else "uncommon",
                prototype=proto,
            )
        )
    bank = CategoryBank(entries)

    bodies = [_draw_body(rng, cfg) for _ in range(cfg.num_tracks)]

    gt_obs: list[list[TrackObservation]] = [[] for _ in bodies]
    frames: list[FrameDetections] = []
    for t in range(cfg.num_frames):
        dets: list[Detection] = []
        for k, body in enumerate(bodies):
            xi, yi = _position(body, t, cfg)
            gt_box = BBox(float(xi), float(yi), float(body.w), float(body.h))
            gt_obs[k].append(
                TrackObservation(
                    frame=t,
                    box=gt_box,
                    mask=_rect_mask(cfg.frame_height, cfg.frame_width, xi, yi, body.w, body.h),
                )
            )
            if rng.uniform() < cfg.p_drop:
                continue
            noise = rng.gauss_vec(4 + cfg.app_emb_dim + cfg.cls_emb_dim)
            jitter = noise[:4].tolist()
            app_noise = noise[4 : 4 + cfg.app_emb_dim]
            cls_noise = noise[4 + cfg.app_emb_dim :]
            s = cfg.box_jitter_sigma
            det_box = BBox(
                gt_box.x + jitter[0] * s,
                gt_box.y + jitter[1] * s,
                max(gt_box.w + jitter[2] * s, 0.0),
                max(gt_box.h + jitter[3] * s, 0.0),
            )
            dets.append(
                Detection(
                    frame_index=t,
                    box=det_box,
                    objectness=0.95,
                    app_emb=body.identity + app_noise * cfg.app_noise_sigma,
                    cls_emb=prototypes[body.category_id - 1]
                    + cls_noise * cfg.cls_noise_sigma,
                    mask=_rasterize(det_box, cfg.frame_height, cfg.frame_width),
                )
            )
        for _ in range(cfg.num_tracks):
            if rng.uniform() >= cfg.p_fp / cfg.num_tracks:
                continue
            w, h, x0, y0 = _draw_rect(rng, cfg)
            app_emb = rng.unit_vector(cfg.app_emb_dim)
            cls_emb = rng.unit_vector(cfg.cls_emb_dim)
            objectness = rng.uniform_in(0.3, 0.8)
            dets.append(
                Detection(
                    frame_index=t,
                    box=BBox(float(x0), float(y0), float(w), float(h)),
                    objectness=objectness,
                    app_emb=app_emb,
                    cls_emb=cls_emb,
                    mask=_rect_mask(cfg.frame_height, cfg.frame_width, x0, y0, w, h),
                )
            )
        frames.append(FrameDetections(index=t, detections=dets))

    meta = SequenceMeta(
        name=f"synth_{cfg.seed:04d}",
        height=cfg.frame_height,
        width=cfg.frame_width,
        num_frames=cfg.num_frames,
    )
    gt_tracks = [
        TrackRecord(
            track_id=k + 1,
            observations=gt_obs[k],
            category_id=bodies[k].category_id,
        )
        for k in range(cfg.num_tracks)
    ]
    return SynthResult(
        gt=[SequenceTracks(meta=meta, tracks=gt_tracks)],
        detections=[SequenceDetections(meta=meta, frames=frames)],
        bank=bank,
    )


def perfect_tracker(gt: list[SequenceTracks]) -> list[SequenceTracks]:
    """Ground truth re-labeled as a prediction (ids shifted, score 1.0)."""
    out = []
    for seq in gt:
        tracks = [
            TrackRecord(
                track_id=t.track_id + ID_REMAP_OFFSET,
                observations=list(t.observations),
                category_id=t.category_id,
                score=1.0,
            )
            for t in seq.tracks
        ]
        out.append(SequenceTracks(meta=seq.meta, tracks=tracks))
    return out
