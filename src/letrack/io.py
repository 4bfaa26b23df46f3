"""File formats: detections, tracks, category banks, flat configs.

All JSON emitted by this package goes through one canonical serializer:
keys sorted, compact separators, floats rendered with ``%.9g`` (at most 9
significant digits, no trailing zeros).  Canonical output is a fixed point:
loading a canonically saved file and saving it again reproduces the bytes
exactly, which is what makes determinism checks as simple as comparing
files.

Loaders validate structure exhaustively and report every problem, each
prefixed with the JSON path of the offending value, e.g.
``sequences[0].frames[2].detections[0].box: expected 4 numbers``.  In
strict mode (the default) unknown fields are errors; in lax mode they are
collected as warnings instead.

``tracks_from_burst`` converts a BURST annotation dump (Athar et al., WACV
2023) to tracks::

    {"sequences": [{
      "seq_name": "clip01", "height": 4, "width": 4,
      "segmentations": [{"1": {"rle": {"counts": [0, 2, 2, 2, 10], "size": [4, 4]}}}, {}],
      "track_category_ids": {"1": 3}
    }]}

``segmentations`` holds one object per frame, keyed by track id.  A mask is
COCO RLE with integer run counts, bare or wrapped in ``rle``; a missing
``size`` means the sequence's.  ``name`` may stand for ``seq_name``.  It is
lenient where the loaders are strict: whatever cannot be converted (COCO's
compressed string counts, a bad size, a second key for one track id in a
frame, a repeated sequence name) is skipped with a warning.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

from .classification import SPLITS, CategoryBank, CategoryEntry
from .core import BBox, Detection, SequenceMeta, validate_sequence
from .maskops import RleMask, mask_to_box, validate_rle

__all__ = [
    "ConfigError",
    "FrameDetections",
    "SchemaError",
    "SequenceDetections",
    "SequenceTracks",
    "TrackObservation",
    "TrackRecord",
    "bank_from_jsonable",
    "bank_to_jsonable",
    "detections_from_jsonable",
    "detections_to_jsonable",
    "dumps_canonical",
    "load_bank",
    "load_burst",
    "load_detections",
    "load_tracks",
    "parse_flat_config",
    "save_bank",
    "save_detections",
    "save_tracks",
    "tracks_from_burst",
    "tracks_from_jsonable",
    "tracks_to_jsonable",
    "write_json_files",
]


class SchemaError(ValueError):
    """Input data violated the file schema; carries the full issue list."""

    def __init__(self, issues: list[str]):
        super().__init__("\n".join(issues))
        self.issues = list(issues)


class ConfigError(ValueError):
    """A flat config file or config value was malformed."""


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return "%.9g" % (x,)


def dumps_canonical(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, compact, %.9g floats."""
    parts: list[str] = []
    _dump(obj, parts)
    return "".join(parts)


def _dump(obj: Any, out: list[str]) -> None:
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
            _dump(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _dump(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _dump(obj.tolist(), out)
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def write_json_files(rendered: list[tuple[str, str]]) -> None:
    """Write each (path, canonical JSON text) pair, with a trailing newline.

    Each text goes to a temp file beside its target; once all are written,
    each is moved into place with ``os.replace``.  A failed write removes
    only these temp files, so no new file is left and no existing one is
    touched, and the ``OSError`` raised names the target, not its temp
    file.  A target that is not a regular file (say /dev/stdout) is written
    in place, as a rename would replace the device or pipe itself.
    """
    moves: list[tuple[str, str]] = []
    try:
        for i, (path, text) in enumerate(rendered):
            in_place = os.path.exists(path) and not os.path.isfile(path)
            tmp = path if in_place else f"{path}.{os.getpid()}.{i}.tmp"
            with open(tmp, "w" if in_place else "x", encoding="utf-8", newline="") as f:
                if not in_place:
                    moves.append((tmp, path))
                f.write(text + "\n")
        for tmp, path in moves:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in moves:
            with suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc  # name the target
        raise


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite JSON constant {name} is not allowed")


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise SchemaError([f"{path}: invalid JSON: {exc}"]) from exc


# ---------------------------------------------------------------------------
# containers


@dataclass
class FrameDetections:
    index: int
    detections: list[Detection]


@dataclass
class SequenceDetections:
    meta: SequenceMeta
    frames: list[FrameDetections]

    def all_detections(self) -> list[Detection]:
        return [d for fr in self.frames for d in fr.detections]


@dataclass
class TrackObservation:
    frame: int
    box: BBox
    mask: Optional[RleMask] = None


@dataclass
class TrackRecord:
    track_id: int
    observations: list[TrackObservation]
    category_id: Optional[int] = None
    score: Optional[float] = None


@dataclass
class SequenceTracks:
    meta: SequenceMeta
    tracks: list[TrackRecord]


# ---------------------------------------------------------------------------
# validation plumbing


@dataclass
class _Ctx:
    lax: bool
    issues: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def issue(self, path: str, msg: str) -> None:
        self.issues.append(f"{path}: {msg}")

    def check_keys(self, obj: dict, path: str, known: tuple[str, ...]) -> None:
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


def _parse_box(v: Any, path: str, ctx: _Ctx) -> BBox | None:
    if not (isinstance(v, list) and len(v) == 4 and all(_is_num(x) for x in v)):
        ctx.issue(path, "expected 4 numbers")
        return None
    return BBox(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


def _parse_vector(v: Any, path: str, ctx: _Ctx) -> np.ndarray | None:
    if not (isinstance(v, list) and len(v) > 0 and all(_is_num(x) for x in v)):
        ctx.issue(path, "expected a non-empty array of numbers")
        return None
    return np.asarray(v, dtype=np.float64)


_MASK_KEYS = ("counts", "size")


def _parse_mask(v: Any, path: str, ctx: _Ctx, seq_size: tuple[int, int]) -> RleMask | None:
    """The mask at ``path``, or None if any issue was filed against it."""
    n_issues = len(ctx.issues)
    obj = _get_obj(v, path, ctx)
    if obj is None:
        return None
    ctx.check_keys(obj, path, _MASK_KEYS)
    size_v = obj.get("size")
    counts_v = obj.get("counts")
    if not (isinstance(size_v, list) and len(size_v) == 2 and all(_is_int(x) for x in size_v)):
        ctx.issue(f"{path}.size", "expected [height, width] integers")
        return None
    if not (isinstance(counts_v, list) and all(_is_int(x) for x in counts_v)):
        ctx.issue(f"{path}.counts", "expected an array of integers")
        return None
    mask = RleMask(size=(size_v[0], size_v[1]), counts=tuple(counts_v))
    for msg in validate_rle(mask):
        ctx.issue(path, msg)
    if tuple(mask.size) != seq_size:
        ctx.issue(
            f"{path}.size",
            f"mask size {tuple(mask.size)} does not match sequence size {seq_size}",
        )
    return mask if len(ctx.issues) == n_issues else None


def _parse_meta(obj: dict, path: str, ctx: _Ctx) -> SequenceMeta | None:
    name = _get_str(obj, "name", path, ctx)
    height = _get_int(obj, "height", path, ctx, minimum=1)
    width = _get_int(obj, "width", path, ctx, minimum=1)
    num_frames = _get_int(obj, "num_frames", path, ctx, minimum=1)
    if None in (name, height, width, num_frames):
        return None
    return SequenceMeta(name=name, height=height, width=width, num_frames=num_frames)


def _sequences(obj: Any, ctx: _Ctx, body_key: str) -> Iterator[tuple[str, SequenceMeta, list]]:
    """Yield (path, meta, body) for each sequence whose shared fields parse.

    Checks what every sequence document shares, filing issues on ``ctx``:
    the root object, the ``sequences`` array, each sequence's unknown keys,
    its meta, its ``body_key`` array and duplicate sequence names.
    """
    root = _get_obj(obj, "$", ctx)
    if root is None:
        return
    ctx.check_keys(root, "$", ("sequences",))
    if "sequences" not in root:
        ctx.issue("sequences", "missing required field")
        return
    seq_list = _get_list(root["sequences"], "sequences", ctx)
    if seq_list is None:
        return
    known = ("name", "height", "width", "num_frames", body_key)
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


def _seq_to_jsonable(meta: SequenceMeta, body_key: str, body: list) -> dict:
    return {
        "name": meta.name,
        "height": meta.height,
        "width": meta.width,
        "num_frames": meta.num_frames,
        body_key: body,
    }


# ---------------------------------------------------------------------------
# detections file

_DET_KEYS = ("box", "score", "mask", "app_emb", "cls_emb")
_FRAME_KEYS = ("index", "detections")


def detections_from_jsonable(
    obj: Any, lax: bool = False
) -> tuple[list[SequenceDetections], list[str]]:
    """Parse and fully validate a detections document.

    Returns (sequences, warnings); raises SchemaError with every issue when
    anything is invalid.
    """
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
            ctx.check_keys(fr_obj, fpath, _FRAME_KEYS)
            index = _get_int(fr_obj, "index", fpath, ctx, minimum=0)
            dets_list = _get_list(fr_obj.get("detections"), f"{fpath}.detections", ctx)
            if "detections" not in fr_obj:
                ctx.issue(f"{fpath}.detections", "missing required field")
            if index is None or dets_list is None:
                continue
            if index >= meta.num_frames:
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
                ctx.check_keys(det_obj, dpath, _DET_KEYS)
                for req in ("box", "score", "app_emb", "cls_emb"):
                    if req not in det_obj:
                        ctx.issue(f"{dpath}.{req}", "missing required field")
                box = _parse_box(det_obj.get("box"), f"{dpath}.box", ctx)
                score_v = det_obj.get("score")
                if score_v is not None and not _is_num(score_v):
                    ctx.issue(f"{dpath}.score", f"expected a number, got {score_v!r}")
                    score_v = None
                app = _parse_vector(det_obj.get("app_emb"), f"{dpath}.app_emb", ctx)
                cls = _parse_vector(det_obj.get("cls_emb"), f"{dpath}.cls_emb", ctx)
                mask = None
                if det_obj.get("mask") is not None:
                    mask = _parse_mask(det_obj["mask"], f"{dpath}.mask", ctx, seq_size)
                if box is None or score_v is None or app is None or cls is None:
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
        for msg in validate_sequence(meta, seq.all_detections()):
            ctx.issue(spath, msg)
        sequences.append(seq)
    return sequences, ctx.finish()


def detections_to_jsonable(sequences: list[SequenceDetections]) -> dict:
    out_seqs = []
    for seq in sequences:
        frames = []
        for fr in seq.frames:
            dets = []
            for d in fr.detections:
                item: dict[str, Any] = {
                    "box": [d.box.x, d.box.y, d.box.w, d.box.h],
                    "score": d.objectness,
                    "app_emb": [float(x) for x in d.app_emb],
                    "cls_emb": [float(x) for x in d.cls_emb],
                }
                if d.mask is not None:
                    item["mask"] = {"size": list(d.mask.size), "counts": list(d.mask.counts)}
                dets.append(item)
            frames.append({"index": fr.index, "detections": dets})
        out_seqs.append(_seq_to_jsonable(seq.meta, "frames", frames))
    return {"sequences": out_seqs}


# ---------------------------------------------------------------------------
# tracks file

_OBS_KEYS = ("frame", "box", "mask")
_TRACK_KEYS = ("track_id", "category_id", "score", "observations")


def tracks_from_jsonable(obj: Any, lax: bool = False) -> tuple[list[SequenceTracks], list[str]]:
    """Parse and fully validate a tracks document (ground truth or predictions)."""
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
            ctx.check_keys(tr_obj, tpath, _TRACK_KEYS)
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
                if not _is_num(sv) or not math.isfinite(float(sv)):
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
                ctx.check_keys(ob_obj, opath, _OBS_KEYS)
                frame = _get_int(ob_obj, "frame", opath, ctx, minimum=0)
                if "box" not in ob_obj:
                    ctx.issue(f"{opath}.box", "missing required field")
                box = _parse_box(ob_obj.get("box"), f"{opath}.box", ctx)
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


def tracks_to_jsonable(sequences: list[SequenceTracks]) -> dict:
    out_seqs = []
    for seq in sequences:
        tracks = []
        for tr in seq.tracks:
            item: dict[str, Any] = {
                "track_id": tr.track_id,
                "observations": [_obs_to_jsonable(ob) for ob in tr.observations],
            }
            if tr.category_id is not None:
                item["category_id"] = tr.category_id
            if tr.score is not None:
                item["score"] = tr.score
            tracks.append(item)
        out_seqs.append(_seq_to_jsonable(seq.meta, "tracks", tracks))
    return {"sequences": out_seqs}


def _obs_to_jsonable(ob: TrackObservation) -> dict:
    item: dict[str, Any] = {
        "frame": ob.frame,
        "box": [ob.box.x, ob.box.y, ob.box.w, ob.box.h],
    }
    if ob.mask is not None:
        item["mask"] = {"size": list(ob.mask.size), "counts": list(ob.mask.counts)}
    return item


# ---------------------------------------------------------------------------
# BURST annotation dumps


def tracks_from_burst(obj: Any, source: str = "$") -> tuple[list[SequenceTracks], list[str]]:
    """Convert a BURST annotation dump to tracks, skipping what cannot be used.

    Returns (sequences, warnings): every sequence, frame, track key or mask
    that cannot be converted is left out with a warning, and a sequence left
    with no track is dropped.  Raises SchemaError only when ``obj`` is not an
    object with a ``sequences`` array; ``source`` names it in that message.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("sequences"), list):
        raise SchemaError([f"{source}: expected an object with a 'sequences' array"])
    warnings: list[str] = []
    sequences: list[SequenceTracks] = []
    names: set[str] = set()
    for si, seq in enumerate(obj["sequences"]):
        where = f"sequences[{si}]"
        if not isinstance(seq, dict):
            warnings.append(f"{where}: not an object, skipped")
            continue
        name = seq.get("seq_name") or seq.get("name")
        height, width = seq.get("height"), seq.get("width")
        segmentations = seq.get("segmentations")
        if not isinstance(name, str) or not name:
            warnings.append(f"{where}: missing sequence name, skipped")
            continue
        where = f"{where} ({name})"
        if name in names:
            warnings.append(f"{where}: duplicate sequence name, skipped")
            continue
        if not (_is_int(height) and _is_int(width) and height >= 1 and width >= 1):
            warnings.append(f"{where}: missing or invalid height/width, skipped")
            continue
        if not isinstance(segmentations, list) or not segmentations:
            warnings.append(f"{where}: missing 'segmentations' frames, skipped")
            continue
        categories = seq.get("track_category_ids")
        categories = categories if isinstance(categories, dict) else {}

        per_track: dict[int, list[TrackObservation]] = {}
        for frame, frame_obj in enumerate(segmentations):
            if not isinstance(frame_obj, dict):
                warnings.append(f"{where}: segmentations[{frame}] not an object, skipped")
                continue
            seen: set[int] = set()
            for key, payload in frame_obj.items():
                try:
                    tid = int(key)
                except ValueError:
                    warnings.append(f"{where}: non-numeric track id {key!r}, skipped")
                    continue
                if tid < 1:
                    warnings.append(f"{where}: track id {tid} < 1, skipped")
                    continue
                if tid in seen:
                    warnings.append(
                        f"{where}: track {tid} frame {frame}: key {key!r} repeats "
                        "an earlier key's track id, skipped"
                    )
                    continue
                seen.add(tid)
                # A mask is {"counts", "size"}, optionally wrapped in {"rle": ...};
                # a missing size means the sequence's.
                inner = payload.get("rle", payload) if isinstance(payload, dict) else payload
                if isinstance(inner, dict) and "size" not in inner:
                    inner = dict(inner, size=[height, width])
                mask = _parse_mask(inner, "", _Ctx(lax=True), (height, width))
                if mask is None:
                    warnings.append(
                        f"{where}: track {tid} frame {frame}: unsupported "
                        "mask encoding (integer run counts required), skipped"
                    )
                    continue
                per_track.setdefault(tid, []).append(
                    TrackObservation(frame=frame, box=mask_to_box(mask), mask=mask)
                )

        tracks = []
        for tid in sorted(per_track):
            cat = categories.get(str(tid))
            if not _is_int(cat):
                warnings.append(f"{where}: track {tid} has no category id; left unlabeled")
                cat = None
            tracks.append(TrackRecord(track_id=tid, observations=per_track[tid], category_id=cat))
        if not tracks:
            warnings.append(f"{where}: no usable tracks, sequence skipped")
            continue
        meta = SequenceMeta(name=name, height=height, width=width, num_frames=len(segmentations))
        names.add(name)
        sequences.append(SequenceTracks(meta=meta, tracks=tracks))
    return sequences, warnings


# ---------------------------------------------------------------------------
# category bank file

_BANK_ENTRY_KEYS = ("id", "name", "split", "prototype")


def bank_from_jsonable(obj: Any, lax: bool = False) -> tuple[CategoryBank, list[str]]:
    ctx = _Ctx(lax=lax)
    root = _get_obj(obj, "$", ctx)
    entries: list[CategoryEntry] = []
    if root is not None:
        ctx.check_keys(root, "$", ("categories",))
        if "categories" not in root:
            ctx.issue("categories", "missing required field")
        cat_list = _get_list(root.get("categories"), "categories", ctx) if "categories" in root else None
        if cat_list is not None:
            for ci, cat_v in enumerate(cat_list):
                cpath = f"categories[{ci}]"
                cat_obj = _get_obj(cat_v, cpath, ctx)
                if cat_obj is None:
                    continue
                ctx.check_keys(cat_obj, cpath, _BANK_ENTRY_KEYS)
                cid = _get_int(cat_obj, "id", cpath, ctx)
                name = _get_str(cat_obj, "name", cpath, ctx)
                split = _get_str(cat_obj, "split", cpath, ctx)
                if split is not None and split not in SPLITS:
                    ctx.issue(f"{cpath}.split", f"expected one of {SPLITS}, got {split!r}")
                    split = None
                proto = None
                if cat_obj.get("prototype") is not None:
                    proto = _parse_vector(cat_obj["prototype"], f"{cpath}.prototype", ctx)
                if cid is None or name is None or split is None:
                    continue
                entries.append(
                    CategoryEntry(category_id=cid, name=name, split=split, prototype=proto)
                )
    if ctx.issues:
        raise SchemaError(ctx.issues)
    try:
        bank = CategoryBank(entries)
    except ValueError as exc:
        raise SchemaError([f"categories: {exc}"]) from exc
    warnings = ctx.finish()
    return bank, warnings


def bank_to_jsonable(bank: CategoryBank) -> dict:
    cats = []
    for cid in bank.ids():
        e = bank.get(cid)
        item: dict[str, Any] = {"id": e.category_id, "name": e.name, "split": e.split}
        if e.prototype is not None:
            item["prototype"] = [float(x) for x in e.prototype]
        cats.append(item)
    return {"categories": cats}


# ---------------------------------------------------------------------------
# file wrappers


def load_detections(path: str, lax: bool = False) -> tuple[list[SequenceDetections], list[str]]:
    return detections_from_jsonable(_read_json(path), lax=lax)


def save_detections(path: str, sequences: list[SequenceDetections]) -> None:
    write_json_files([(path, dumps_canonical(detections_to_jsonable(sequences)))])


def load_tracks(path: str, lax: bool = False) -> tuple[list[SequenceTracks], list[str]]:
    return tracks_from_jsonable(_read_json(path), lax=lax)


def load_burst(path: str) -> tuple[list[SequenceTracks], list[str]]:
    return tracks_from_burst(_read_json(path), source=path)


def save_tracks(path: str, sequences: list[SequenceTracks]) -> None:
    write_json_files([(path, dumps_canonical(tracks_to_jsonable(sequences)))])


def load_bank(path: str, lax: bool = False) -> tuple[CategoryBank, list[str]]:
    return bank_from_jsonable(_read_json(path), lax=lax)


def save_bank(path: str, bank: CategoryBank) -> None:
    write_json_files([(path, dumps_canonical(bank_to_jsonable(bank)))])


# ---------------------------------------------------------------------------
# flat config files


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' comments and blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_flat_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_flat_config(f.read())
