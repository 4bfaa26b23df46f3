"""File formats: detections, tracks, category banks, flat configs.

All JSON emitted by this package goes through one canonical serializer:
keys sorted, compact separators, floats rendered with ``%.9g`` (at most 9
significant digits, no trailing zeros).  Canonical output is a fixed point:
loading a canonically saved file and saving it again reproduces the bytes
exactly, which is what makes determinism checks as simple as comparing
files.

Loaders validate structure exhaustively and report every fault once,
prefixed with the JSON path of the offending value, e.g.
``sequences[0].frames[2].detections[0].box: expected 4 numbers``.  Every
field is read by one reader, ``_field``, the one place that files a missing
required field; every number must fit a double, and an integer beyond that
range is a fault at its field, not a crash.  In strict mode (the default)
unknown fields are errors; in lax mode they are collected as warnings
instead.

A clean unit, one frame of a detections file or one sequence of a tracks
file, is decided in column passes: every rule the walk checks, applied to
columns gathered across the unit's records, from which its objects are
then built.  A unit the passes cannot prove clean is walked record by
record through ``_field``, and that walk alone writes issues and warnings,
so both paths build the same objects and the input alone picks the path.

``tracks_from_burst`` converts a BURST annotation dump (Athar et al., WACV
2023) to tracks::

    {"sequences": [{
      "seq_name": "clip01", "height": 4, "width": 4,
      "segmentations": [{"1": {"rle": {"counts": [0, 2, 2, 2, 10], "size": [4, 4]}}}, {}],
      "track_category_ids": {"1": 3}
    }]}

``segmentations`` holds one object per frame, keyed by track id, a string
of ASCII digits.  A mask is COCO RLE, bare or wrapped in ``rle``; its
counts are integer runs or COCO's compressed string, and BURST's own files
give that string alone as ``"rle": "..."``.  A missing ``size`` means the
sequence's.  ``name`` may stand for ``seq_name``.  It is lenient where the
loaders are strict: whatever cannot be converted (a track key that is not
all digits, a string that does not decode, runs that do not fit the size, a
second key for one track id in a frame, a repeated sequence name) is
skipped with a warning.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, methodcaller
from typing import Any, Callable, Iterator, Mapping, Optional, TypeVar

import numpy as np

from .classification import SPLITS, CategoryBank, CategoryEntry
from .core import BBox, Detection, SequenceMeta, _quote, validate_sequence
from .maskops import RleMask, mask_to_box, rle_counts_from_string, validate_rle

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
    "config_from_mapping",
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

# Whole-list type screens: ``set(map(type, v))`` takes a list's element
# types in one C-level pass, and comparing it with these sets excludes bool
# and every other subclass.  The writer joins an all-int or all-float list
# at once; a loader gives a list that fails the screen the per-element
# ``_is_num`` / ``_is_int`` check, which accepts subclasses such as numpy
# scalars and is the one place that decides.
_INT = frozenset({int})
_FLOAT = frozenset({float})
_NUM = frozenset({int, float})
_STR = frozenset({str})
_DICT = frozenset({dict})
_LIST = frozenset({list})


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
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        _dump_dict(obj, out)
    elif isinstance(obj, (list, tuple)):
        _dump_list(obj, out)
    elif isinstance(obj, np.ndarray):
        _dump(obj.tolist(), out)
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def _dump_dict(obj: dict, out: list[str]) -> None:
    """Keys are checked before they are sorted, so a key of another type is
    named, not left to ``sorted`` to trip on.  An exact-int, finite-float or
    str value is written inline; a dict or list by its writer; bools, numpy
    scalars, non-finite floats and anything else by ``_dump``."""
    if not set(map(type, obj)) <= _STR:
        for key in obj:
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
    sep = "{"
    for key in sorted(obj):
        v = obj[key]
        kind = type(v)
        if kind is int:
            out.append(f"{sep}{encode_basestring_ascii(key)}:{v}")
        elif kind is float and math.isfinite(v):
            out.append(f"{sep}{encode_basestring_ascii(key)}:{'%.9g' % v}")
        elif kind is str:
            out.append(f"{sep}{encode_basestring_ascii(key)}:{encode_basestring_ascii(v)}")
        else:
            out.append(f"{sep}{encode_basestring_ascii(key)}:")
            if kind is dict:
                _dump_dict(v, out)
            elif kind is list:
                _dump_list(v, out)
            else:
                _dump(v, out)
        sep = ","
    out.append("}" if obj else "{}")


def _dump_list(v: list | tuple, out: list[str]) -> None:
    """An all-int list, or an all-float one whose sum is finite, is joined in
    one operation; a list of dicts is walked here.  Any other list, a float
    one with a non-finite sum too, goes to ``_dump`` element by element,
    where _format_float names the non-finite value (or renders an
    overflowing sum)."""
    kinds = set(map(type, v))
    if kinds == _INT:
        out.append(repr(list(v)).replace(" ", ""))  # "[1, 2]": no int's repr has a space
    elif kinds == _FLOAT and math.isfinite(sum(v)):
        out.append(f"[{','.join(['%.9g'] * len(v)) % tuple(v)}]")
    else:
        write = _dump_dict if kinds == _DICT else _dump
        sep = "["
        for item in v:
            out.append(sep)
            write(item, out)
            sep = ","
        out.append("]" if v else "[]")


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

    def check_keys(self, obj: dict, path: str, known: frozenset[str]) -> None:
        if obj.keys() <= known:
            return
        for key in sorted(obj.keys() - known):
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


def _all_int(v: list) -> bool:
    return set(map(type, v)) <= _INT or all(map(_is_int, v))


def _doubles(v: list) -> list | None:
    """``v`` as floats, or None unless every member is a number that fits a
    double.  An all-float list is returned as it is; any other list of
    numbers is converted by ``float()``, which raises ``OverflowError`` for
    an integer beyond double range (RFC 8259 section 6)."""
    kinds = set(map(type, v))
    if kinds <= _FLOAT:
        return v
    try:
        return list(map(float, v)) if kinds <= _NUM or all(map(_is_num, v)) else None
    except OverflowError:
        return None


def _field(
    obj: dict, key: str, path: str, ctx: _Ctx, parse: Callable[..., Any], arg: Any = None,
    required: bool = True,
) -> Any:
    """``obj[key]`` as ``parse(value, field_path, ctx[, arg])`` reads it, or None.

    The one place that files "missing required field".  A missing optional
    field, or one set to null, gives None; any other value goes to ``parse``,
    which files its own issue and gives None when the value is unusable.  A
    root field's path is its key alone (``path`` empty).  One optional
    ``arg``, not ``*args``: forwarding ``*args`` doubles the cost of a read.
    """
    if key in obj:
        v = obj[key]
        if v is not None or required:
            fpath = f"{path}.{key}" if path else key
            return parse(v, fpath, ctx) if arg is None else parse(v, fpath, ctx, arg)
    elif required:
        ctx.issue(f"{path}.{key}" if path else key, "missing required field")
    return None


# Field parsers: (value, path, ctx[, arg]) -> the parsed value, or None with
# one issue filed at ``path``.


def _typed(kind: type, what: str) -> Callable[[Any, str, _Ctx], Any]:
    """The parser of a field that must be a ``kind``, named ``what``."""

    def parse(v: Any, path: str, ctx: _Ctx) -> Any:
        if isinstance(v, kind):
            return v
        ctx.issue(path, f"expected {what}, got {type(v).__name__}")
        return None

    return parse


_obj, _list, _str = _typed(dict, "an object"), _typed(list, "an array"), _typed(str, "a string")


def _int(v: Any, path: str, ctx: _Ctx, minimum: int | None = None) -> int | None:
    if not _is_int(v):
        ctx.issue(path, f"expected an integer, got {_quote(v)}")
        return None
    if minimum is not None and v < minimum:
        ctx.issue(path, f"expected an integer >= {minimum}, got {_quote(v)}")
        return None
    return v


def _number(v: Any, path: str, ctx: _Ctx, finite: bool = False) -> float | None:
    x = _doubles([v])
    if x is None or (finite and not math.isfinite(x[0])):
        ctx.issue(path, f"expected a {'finite ' if finite else ''}number, got {_quote(v)}")
        return None
    return x[0]


def _box(v: Any, path: str, ctx: _Ctx) -> BBox | None:
    xs = _doubles(v) if isinstance(v, list) and len(v) == 4 else None
    if xs is None:
        ctx.issue(path, "expected 4 numbers")
        return None
    return BBox(*xs)


def _vector(v: Any, path: str, ctx: _Ctx) -> np.ndarray | None:
    xs = _doubles(v) if isinstance(v, list) and v else None
    if xs is None:
        ctx.issue(path, "expected a non-empty array of numbers")
        return None
    return np.asarray(xs, dtype=np.float64)


_MASK_KEYS = frozenset({"counts", "size"})


def _mask(v: Any, path: str, ctx: _Ctx, seq_size: tuple[int, int]) -> RleMask | None:
    """The mask at ``path``, or None if any issue was filed against it."""
    n_issues = len(ctx.issues)
    obj = _obj(v, path, ctx)
    if obj is None:
        return None
    ctx.check_keys(obj, path, _MASK_KEYS)
    size_v = obj.get("size")
    counts_v = obj.get("counts")
    if not (isinstance(size_v, list) and len(size_v) == 2 and _all_int(size_v)):
        ctx.issue(f"{path}.size", "expected [height, width] integers")
        return None
    if not (isinstance(counts_v, list) and _all_int(counts_v)):
        ctx.issue(f"{path}.counts", "expected an array of integers")
        return None
    mask = RleMask(size=(size_v[0], size_v[1]), counts=tuple(counts_v))
    for msg in validate_rle(mask):
        ctx.issue(path, msg)
    if tuple(mask.size) != seq_size:
        ctx.issue(
            f"{path}.size",
            f"mask size {_quote(tuple(mask.size))} does not match sequence size {_quote(seq_size)}",
        )
    return mask if len(ctx.issues) == n_issues else None


# ---------------------------------------------------------------------------
# column passes
#
# A clean unit (one frame of a detections file, one sequence of a tracks
# file) is decided in passes over columns gathered across its records, and
# built straight from them.  A pass files nothing: each helper gives None as
# soon as it cannot prove its columns clean, and its caller then walks the
# unit record by record with the field parsers above, which write every
# issue and warning.  Exact types are screened before numpy converts a
# column, as numpy reads True or "1" as 1.0.

_INT_OR_NONE = frozenset({int, type(None)})


def _records(v: Any, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> list[list] | None:
    """One column per key of ``required + optional``, a missing optional key
    read as None; None unless ``v`` is a list of exact dicts that each hold
    every required key and no other key."""
    if type(v) is not list or not set(map(type, v)) <= _DICT:
        return None
    try:
        cols = [list(map(itemgetter(k), v)) for k in required]
    except KeyError:
        return None
    n_keys = len(required) * len(v)
    for k in optional:
        n = sum(map(dict.__contains__, v, repeat(k)))
        n_keys += n
        cols.append(list(map(methodcaller("get", k), v)) if n else [None] * len(v))
    return cols if sum(map(len, v)) == n_keys else None


def _box_column(boxes: list) -> list | None:
    """Every coordinate of ``boxes``, 4 per box, as ``_box`` reads them; None
    unless each is a list of 4 numbers that fit a double."""
    if not (set(map(type, boxes)) <= _LIST and set(map(len, boxes)) <= {4}):
        return None
    return _doubles(list(chain.from_iterable(boxes)))


def _bboxes(xs: list) -> list[BBox]:
    return list(map(BBox, xs[0::4], xs[1::4], xs[2::4], xs[3::4]))


def _vector_rows(vectors: list) -> list[np.ndarray] | None:
    """``vectors``, a non-empty column, as the rows of one float64 matrix;
    None unless each is a list of one same, non-zero count of numbers that
    fit a double."""
    if not set(map(type, vectors)) <= _LIST or len(dims := set(map(len, vectors))) != 1 or 0 in dims:
        return None
    xs = _doubles(list(chain.from_iterable(vectors)))
    return None if xs is None else list(np.array(xs, dtype=np.float64).reshape(len(vectors), -1))


def _mask_column(masks: list, size: tuple[int, int]) -> list | None:
    """``masks`` with each non-null one built as ``_mask`` builds it; None
    unless each is a valid RLE mask of ``size`` with its exact keys."""
    present = [m for m in masks if m is not None]
    cols = _records(present, ("counts", "size"))
    if not present or cols is None:
        return None if present else masks
    counts, sizes = cols
    if not (
        set(map(type, sizes)) <= _LIST
        and set(map(type, chain.from_iterable(sizes))) <= _INT
        and set(map(tuple, sizes)) == {size}
        and set(map(type, counts)) <= _LIST
        and min(map(len, counts)) >= 1
        and set(map(type, chain.from_iterable(counts))) <= _INT
    ):
        return None
    # Python ints, so no sum wraps: runs >= 0 that fill the frame, with a
    # zero only as a mask's first run.
    if (
        min(map(min, counts)) < 0
        or set(map(sum, counts)) != {size[0] * size[1]}
        or sum(map(list.count, counts, repeat(0))) != list(map(itemgetter(0), counts)).count(0)
    ):
        return None
    built = map(RleMask, repeat(size), map(tuple, counts))
    if len(present) == len(masks):
        return list(built)
    return [m if m is None else next(built) for m in masks]


def _frame_columns(fr_v: Any, meta: SequenceMeta, prev_index: int | None) -> FrameDetections | None:
    """The frame ``fr_v`` of a detections sequence built from its columns, or
    None unless it is clean; ``prev_index`` is the index of the frame before."""
    frame = _records([fr_v], ("index", "detections"))
    if frame is None:
        return None
    (index,), (dets_v,) = frame
    if type(index) is not int or not (-1 if prev_index is None else prev_index) < index < meta.num_frames:
        return None
    cols = _records(dets_v, ("box", "score", "app_emb", "cls_emb"), ("mask",))
    if cols is None or not dets_v:
        return None if cols is None else FrameDetections(index, [])
    boxes, scores, apps, clss, masks = cols
    xs = _box_column(boxes)
    scores = _doubles(scores)
    apps, clss = _vector_rows(apps), _vector_rows(clss)
    masks = _mask_column(masks, (meta.height, meta.width))
    if xs is None or scores is None or apps is None or clss is None or masks is None:
        return None
    dets = list(map(Detection, repeat(index), _bboxes(xs), scores, apps, clss, masks))
    return FrameDetections(index, dets)


def _tracks_columns(tracks_v: list, meta: SequenceMeta) -> list[TrackRecord] | None:
    """The tracks of one sequence built from their columns, or None unless
    every track and observation is clean."""
    cols = _records(tracks_v, ("track_id", "observations"), ("category_id", "score"))
    if cols is None or not tracks_v:
        return None if cols is None else []
    ids, obs_lists, cats, scores = cols
    if not (
        set(map(type, ids)) <= _INT
        and min(ids) >= 1
        and len(set(ids)) == len(ids)
        and set(map(type, cats)) <= _INT_OR_NONE
        and set(map(type, obs_lists)) <= _LIST
    ):
        return None
    present = _doubles([s for s in scores if s is not None])
    if present is None or not all(map(math.isfinite, present)):
        return None
    lens = list(map(len, obs_lists))
    obs = _records(list(chain.from_iterable(obs_lists)), ("frame", "box"), ("mask",))
    if min(lens) < 1 or obs is None:
        return None
    frames, boxes, masks = obs
    if not (
        set(map(type, frames)) <= _INT
        and min(frames) >= 0
        and max(frames) < min(meta.num_frames, 2**63)
    ):
        return None
    ascending = np.diff(np.array(frames, dtype=np.int64)) > 0
    ascending[np.cumsum(lens)[:-1] - 1] = True  # each track's first frame follows no frame
    xs = _box_column(boxes)
    if not ascending.all() or xs is None:
        return None
    coords = np.array(xs, dtype=np.float64).reshape(-1, 4)
    masks = _mask_column(masks, (meta.height, meta.width))
    if not np.isfinite(coords).all() or (coords[:, 2:] < 0).any() or masks is None:
        return None
    observations = list(map(TrackObservation, frames, _bboxes(xs), masks))
    present_it = iter(present)
    tracks: list[TrackRecord] = []
    start = 0
    for track_id, n, category_id, score in zip(ids, lens, cats, scores):
        score = None if score is None else next(present_it)
        tracks.append(TrackRecord(track_id, observations[start:start + n], category_id, score))
        start += n
    return tracks


def _root_list(obj: Any, ctx: _Ctx, key: str) -> list | None:
    """The array under ``key`` of a root object whose only field is ``key``;
    None, with the issue filed on ``ctx``, when either is malformed."""
    root = _obj(obj, "$", ctx)
    if root is None:
        return None
    ctx.check_keys(root, "$", frozenset({key}))
    return _field(root, key, "", ctx, _list)


def _sequences(obj: Any, ctx: _Ctx, body_key: str) -> Iterator[tuple[str, SequenceMeta, list]]:
    """Yield (path, meta, body) for each sequence whose shared fields parse.

    Checks what every sequence document shares, filing issues on ``ctx``:
    the root object, the ``sequences`` array, each sequence's unknown keys,
    its meta, its ``body_key`` array and duplicate sequence names.
    """
    known = frozenset({"name", "height", "width", "num_frames", body_key})
    names: set[str] = set()
    for si, seq_v in enumerate(_root_list(obj, ctx, "sequences") or ()):
        path = f"sequences[{si}]"
        seq_obj = _obj(seq_v, path, ctx)
        if seq_obj is None:
            continue
        ctx.check_keys(seq_obj, path, known)
        name = _field(seq_obj, "name", path, ctx, _str)
        dims = [_field(seq_obj, k, path, ctx, _int, 1) for k in ("height", "width", "num_frames")]
        body = _field(seq_obj, body_key, path, ctx, _list)
        if name is None or None in dims or body is None:
            continue
        if name in names:
            ctx.issue(f"{path}.name", f"duplicate sequence name {name!r}")
        names.add(name)
        yield path, SequenceMeta(name, *dims), body


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

_DET_KEYS = frozenset({"box", "score", "mask", "app_emb", "cls_emb"})
_FRAME_KEYS = frozenset({"index", "detections"})


def detections_from_jsonable(
    obj: Any, lax: bool = False
) -> tuple[list[SequenceDetections], list[str]]:
    """Parse and fully validate a detections document; ``obj`` is not changed.

    Returns (sequences, warnings); raises SchemaError with every issue when
    anything is invalid.
    """
    return _detections(obj, lax, release=False)


def _detections(
    obj: Any, lax: bool, release: bool
) -> tuple[list[SequenceDetections], list[str]]:
    """``detections_from_jsonable``; with ``release``, each frame of ``obj`` is
    replaced by None once it is parsed, so a document owned by the caller
    (``load_detections``) is freed while its detections are built."""
    ctx = _Ctx(lax=lax)
    sequences: list[SequenceDetections] = []
    for spath, meta, frames_list in _sequences(obj, ctx, "frames"):
        seq_size = (meta.height, meta.width)
        frames: list[FrameDetections] = []
        prev_index: int | None = None
        for fi, fr_v in enumerate(frames_list):
            if release:
                frames_list[fi] = None
            frame = _frame_columns(fr_v, meta, prev_index)
            if frame is not None:
                frames.append(frame)
                prev_index = frame.index
                continue
            fpath = f"{spath}.frames[{fi}]"
            fr_obj = _obj(fr_v, fpath, ctx)
            if fr_obj is None:
                continue
            ctx.check_keys(fr_obj, fpath, _FRAME_KEYS)
            index = _field(fr_obj, "index", fpath, ctx, _int, 0)
            dets_list = _field(fr_obj, "detections", fpath, ctx, _list)
            if index is None or dets_list is None:
                continue
            # A frame out of range still has its detections checked, but
            # builds none: the fault is filed once, here.
            in_range = index < meta.num_frames
            if not in_range:
                ctx.issue(
                    f"{fpath}.index",
                    f"frame index {_quote(index)} out of range for {meta.num_frames} frames",
                )
            if prev_index is not None and index <= prev_index:
                ctx.issue(f"{fpath}.index", "frame indices must be strictly ascending")
            prev_index = index
            dets: list[Detection] = []
            for di, det_v in enumerate(dets_list):
                dpath = f"{fpath}.detections[{di}]"
                det_obj = _obj(det_v, dpath, ctx)
                if det_obj is None:
                    continue
                ctx.check_keys(det_obj, dpath, _DET_KEYS)
                box = _field(det_obj, "box", dpath, ctx, _box)
                score = _field(det_obj, "score", dpath, ctx, _number)
                app = _field(det_obj, "app_emb", dpath, ctx, _vector)
                cls = _field(det_obj, "cls_emb", dpath, ctx, _vector)
                mask = _field(det_obj, "mask", dpath, ctx, _mask, seq_size, required=False)
                if not in_range or box is None or score is None or app is None or cls is None:
                    continue
                dets.append(Detection(index, box, score, app, cls, mask))
            frames.append(FrameDetections(index=index, detections=dets))
        seq = SequenceDetections(meta=meta, frames=frames)
        for msg in validate_sequence(meta, seq.all_detections()):
            ctx.issue(spath, msg)
        sequences.append(seq)
    return sequences, ctx.finish()


def _floats(v: np.ndarray) -> list[float]:
    """A 1-D vector as a list of Python floats, which ``_dump`` joins at once."""
    return np.asarray(v, dtype=np.float64).tolist()


def _shape_to_jsonable(box: BBox, mask: RleMask | None, **item: Any) -> dict:
    """The record ``item``, a fresh dict, plus the ``box`` and ``mask`` every record has."""
    item["box"] = [box.x, box.y, box.w, box.h]
    if mask is not None:
        item["mask"] = {"size": list(mask.size), "counts": list(mask.counts)}
    return item


def detections_to_jsonable(sequences: list[SequenceDetections]) -> dict:
    out_seqs = []
    for seq in sequences:
        frames = []
        for fr in seq.frames:
            dets = [
                _shape_to_jsonable(
                    d.box, d.mask, score=d.objectness, app_emb=_floats(d.app_emb),
                    cls_emb=_floats(d.cls_emb),
                )
                for d in fr.detections
            ]
            frames.append({"index": fr.index, "detections": dets})
        out_seqs.append(_seq_to_jsonable(seq.meta, "frames", frames))
    return {"sequences": out_seqs}


# ---------------------------------------------------------------------------
# tracks file

_OBS_KEYS = frozenset({"frame", "box", "mask"})
_TRACK_KEYS = frozenset({"track_id", "category_id", "score", "observations"})


def tracks_from_jsonable(obj: Any, lax: bool = False) -> tuple[list[SequenceTracks], list[str]]:
    """Parse and fully validate a tracks document (ground truth or predictions)."""
    ctx = _Ctx(lax=lax)
    sequences: list[SequenceTracks] = []
    for spath, meta, tracks_list in _sequences(obj, ctx, "tracks"):
        clean = _tracks_columns(tracks_list, meta)
        if clean is not None:
            sequences.append(SequenceTracks(meta=meta, tracks=clean))
            continue
        seq_size = (meta.height, meta.width)
        tracks: list[TrackRecord] = []
        seen_ids: set[int] = set()
        for ti, tr_v in enumerate(tracks_list):
            tpath = f"{spath}.tracks[{ti}]"
            tr_obj = _obj(tr_v, tpath, ctx)
            if tr_obj is None:
                continue
            ctx.check_keys(tr_obj, tpath, _TRACK_KEYS)
            track_id = _field(tr_obj, "track_id", tpath, ctx, _int, 1)
            if track_id is not None:
                if track_id in seen_ids:
                    ctx.issue(f"{tpath}.track_id", f"duplicate track id {_quote(track_id)}")
                seen_ids.add(track_id)
            category_id = _field(tr_obj, "category_id", tpath, ctx, _int, required=False)
            score = _field(tr_obj, "score", tpath, ctx, _number, True, required=False)
            obs_list = _field(tr_obj, "observations", tpath, ctx, _list)
            if obs_list is None or track_id is None:
                continue
            if len(obs_list) == 0:
                ctx.issue(f"{tpath}.observations", "a track needs at least one observation")
            observations: list[TrackObservation] = []
            prev_frame: int | None = None
            for oi, ob_v in enumerate(obs_list):
                opath = f"{tpath}.observations[{oi}]"
                ob_obj = _obj(ob_v, opath, ctx)
                if ob_obj is None:
                    continue
                ctx.check_keys(ob_obj, opath, _OBS_KEYS)
                frame = _field(ob_obj, "frame", opath, ctx, _int, 0)
                box = _field(ob_obj, "box", opath, ctx, _box)
                mask = _field(ob_obj, "mask", opath, ctx, _mask, seq_size, required=False)
                if frame is None or box is None:
                    continue
                if frame >= meta.num_frames:
                    ctx.issue(
                        f"{opath}.frame",
                        f"frame {_quote(frame)} out of range for {meta.num_frames} frames",
                    )
                if prev_frame is not None and frame <= prev_frame:
                    ctx.issue(
                        f"{opath}.frame",
                        "observation frames must be strictly ascending "
                        "(one observation per frame)",
                    )
                prev_frame = frame
                if not all(map(math.isfinite, box.as_tuple())):
                    ctx.issue(f"{opath}.box", "box coordinates must be finite")
                elif box.w < 0 or box.h < 0:
                    ctx.issue(f"{opath}.box", "box width/height must be >= 0")
                observations.append(TrackObservation(frame=frame, box=box, mask=mask))
            tracks.append(TrackRecord(track_id, observations, category_id, score))
        sequences.append(SequenceTracks(meta=meta, tracks=tracks))
    return sequences, ctx.finish()


def tracks_to_jsonable(sequences: list[SequenceTracks]) -> dict:
    out_seqs = []
    for seq in sequences:
        tracks = []
        for tr in seq.tracks:
            item: dict[str, Any] = {
                "track_id": tr.track_id,
                "observations": [
                    _shape_to_jsonable(ob.box, ob.mask, frame=ob.frame) for ob in tr.observations
                ],
            }
            if tr.category_id is not None:
                item["category_id"] = tr.category_id
            if tr.score is not None:
                item["score"] = tr.score
            tracks.append(item)
        out_seqs.append(_seq_to_jsonable(seq.meta, "tracks", tracks))
    return {"sequences": out_seqs}


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
    lenient = _Ctx(lax=True)  # an issue filed here only marks a value to skip, with a warning
    for si, seq in enumerate(obj["sequences"]):
        where = f"sequences[{si}]"
        if not isinstance(seq, dict):
            warnings.append(f"{where}: not an object, skipped")
            continue
        name = seq.get("seq_name") or seq.get("name")
        height, width = (_field(seq, k, where, lenient, _int, 1) for k in ("height", "width"))
        segmentations = seq.get("segmentations")
        if not isinstance(name, str) or not name:
            warnings.append(f"{where}: missing sequence name, skipped")
            continue
        where = f"{where} ({name})"
        if name in names:
            warnings.append(f"{where}: duplicate sequence name, skipped")
            continue
        if height is None or width is None:
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
                if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                    warnings.append(f"{where}: non-numeric track id {key!r}, skipped")
                    continue
                tid = int(key)
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
                # a missing size means the sequence's.  Counts may be COCO's
                # compressed string, which may also stand alone as "rle".
                inner = payload.get("rle", payload) if isinstance(payload, dict) else payload
                if isinstance(inner, str):
                    inner = {"counts": inner}
                if isinstance(inner, dict):
                    inner = {"size": [height, width], **inner}
                    if isinstance(inner.get("counts"), str):
                        with suppress(ValueError):
                            inner["counts"] = rle_counts_from_string(inner["counts"])
                mask = _mask(inner, where, _Ctx(lax=True), (height, width))
                if mask is None:
                    warnings.append(
                        f"{where}: track {tid} frame {frame}: mask is not "
                        "valid COCO RLE for the frame size, skipped"
                    )
                    continue
                per_track.setdefault(tid, []).append(
                    TrackObservation(frame=frame, box=mask_to_box(mask), mask=mask)
                )

        tracks = []
        for tid in sorted(per_track):
            cat = _field(categories, str(tid), where, lenient, _int, required=False)
            if cat is None:
                warnings.append(f"{where}: track {tid} has no category id; left unlabeled")
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

_BANK_ENTRY_KEYS = frozenset({"id", "name", "split", "prototype"})


def bank_from_jsonable(obj: Any, lax: bool = False) -> tuple[CategoryBank, list[str]]:
    ctx = _Ctx(lax=lax)
    entries: list[CategoryEntry] = []
    for ci, cat_v in enumerate(_root_list(obj, ctx, "categories") or ()):
        cpath = f"categories[{ci}]"
        cat_obj = _obj(cat_v, cpath, ctx)
        if cat_obj is None:
            continue
        ctx.check_keys(cat_obj, cpath, _BANK_ENTRY_KEYS)
        cid = _field(cat_obj, "id", cpath, ctx, _int)
        name = _field(cat_obj, "name", cpath, ctx, _str)
        split = _field(cat_obj, "split", cpath, ctx, _str)
        if split is not None and split not in SPLITS:
            ctx.issue(f"{cpath}.split", f"expected one of {SPLITS}, got {_quote(split)}")
            split = None
        proto = _field(cat_obj, "prototype", cpath, ctx, _vector, required=False)
        if cid is None or name is None or split is None:
            continue
        entries.append(CategoryEntry(category_id=cid, name=name, split=split, prototype=proto))
    warnings = ctx.finish()
    try:
        return CategoryBank(entries), warnings
    except ValueError as exc:
        raise SchemaError([f"categories: {exc}"]) from exc


def bank_to_jsonable(bank: CategoryBank) -> dict:
    cats = []
    for cid in bank.ids():
        e = bank.get(cid)
        item: dict[str, Any] = {"id": e.category_id, "name": e.name, "split": e.split}
        if e.prototype is not None:
            item["prototype"] = _floats(e.prototype)
        cats.append(item)
    return {"categories": cats}


# ---------------------------------------------------------------------------
# file wrappers


def load_detections(path: str, lax: bool = False) -> tuple[list[SequenceDetections], list[str]]:
    return _detections(_read_json(path), lax, release=True)


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

_Config = TypeVar("_Config")


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


def config_from_mapping(cls: type[_Config], mapping: Mapping[str, str], kind: str) -> _Config:
    """Build the dataclass ``cls`` from flat string key/value pairs: an
    ``int`` field parses with ``int()``, every other with ``float()``, and a
    key that names no field is an "unknown <kind> config key" error."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs: dict[str, object] = {}
    for key, raw in mapping.items():
        if key not in types:
            raise ValueError(f"unknown {kind} config key {key!r}")
        kwargs[key] = int(raw) if types[key] in (int, "int") else float(raw)
    return cls(**kwargs)


def load_flat_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_flat_config(f.read())
