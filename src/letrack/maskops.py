"""Run-length encoded masks and IoU geometry.

RLE convention (matching the common COCO/BURST layout): pixels are scanned
in column-major order (down column 0, then column 1, ...), and ``counts``
holds alternating run lengths starting with a run of ZEROS.  A mask whose
first pixel is set therefore starts with ``counts[0] == 0``; a zero-length
run is legal only at index 0.  ``sum(counts) == height * width`` always.

Masks are held as plain integer runs.  COCO's compressed string form of
the same runs (as stored in BURST annotation files) is read by
``rle_counts_from_string``; nothing here writes it.

IoU is computed on bitmaps: a list of masks is packed once into rows of
64-bit words in column-major pixel order, and the IoU of index pairs of
rows is one pass of exact popcounts of ANDed rows, both in chunks of at
most ``_CHUNK_BYTES``.  Intersection and union are exact integer pixel
counts and the returned ratio is their exact float64 quotient, which makes
the result bit-identical to a brute-force bitmap computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import BBox

__all__ = [
    "RleMask",
    "box_iou",
    "box_iou_matrix",
    "mask_iou",
    "mask_iou_matrix",
    "mask_to_box",
    "rle_counts_from_string",
    "rle_decode",
    "rle_encode",
    "validate_rle",
]

# Bytes of pixels decoded, or of words per side ANDed, at once; the pool
# build packs about this much of masks per pass.
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class RleMask:
    """Column-major run-length mask: size is (height, width)."""

    size: tuple[int, int]
    counts: tuple[int, ...]

    def area(self) -> int:
        """Number of set pixels (sum of the odd-index runs)."""
        return int(sum(self.counts[1::2]))


def validate_rle(mask: RleMask) -> list[str]:
    """Complete list of RLE invariant violations; empty means valid."""
    issues: list[str] = []
    h, w = mask.size
    if h < 0 or w < 0:
        issues.append(f"size must be non-negative, got ({h}, {w})")
        return issues
    total = h * w
    counts = mask.counts
    if total > 0 and len(counts) == 0:
        issues.append(f"counts is empty for a {h}x{w} mask")
        return issues
    # Walk the runs only when one is negative or an interior one is zero;
    # ``not min >= 0`` also walks when a NaN count comes first.
    if counts and (not min(counts) >= 0 or 0 in counts[1:]):
        for i, c in enumerate(counts):
            if c < 0:
                issues.append(f"counts[{i}] is negative: {c}")
            elif c == 0 and i != 0:
                issues.append(f"counts[{i}] is a zero-length interior run")
    got = sum(counts)
    if got != total:
        issues.append(f"counts sum to {got} pixels, expected {total} for size ({h}, {w})")
    return issues


def rle_encode(bitmap: np.ndarray) -> RleMask:
    """Encode a 2-D bitmap (height, width) into column-major runs."""
    arr = np.asarray(bitmap)
    if arr.ndim != 2:
        raise ValueError(f"bitmap must be 2-D, got shape {arr.shape}")
    h, w = arr.shape
    flat = arr.astype(bool).reshape(-1, order="F")
    n = flat.size
    if n == 0:
        return RleMask(size=(h, w), counts=())
    # Boundaries between runs, plus the two ends.
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [n]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return RleMask(size=(h, w), counts=tuple(int(r) for r in runs))


def _decode_flat(mask: RleMask) -> np.ndarray:
    """Column-major boolean pixels of a mask, checked against its size."""
    h, w = mask.size
    runs = np.asarray(mask.counts, dtype=np.int64)
    got = int(runs.sum())
    if got != h * w:
        raise ValueError(
            f"rle decode: counts sum to {got} pixels, expected {h * w} for size ({h}, {w})"
        )
    return np.repeat(np.arange(runs.size) % 2 == 1, runs)


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode runs back into a (height, width) boolean bitmap."""
    return _decode_flat(mask).reshape(mask.size, order="F")


def rle_counts_from_string(s: str) -> list[int]:
    """Run counts of a COCO compressed RLE string (cocoapi ``rleFrString``).

    Each count is a little-endian series of 5-bit groups, one character
    (``chr(48 + group)``) per group, with bit 0x20 set while more follow and
    bit 0x10 of the last one the sign.  From the fourth count on, each is
    stored as its difference from the count two places back.  Raises
    ValueError on a character outside '0'..'o' or a truncated last count;
    the counts are not checked against any size.
    """
    counts: list[int] = []
    p, n = 0, len(s)
    while p < n:
        x = k = 0
        more = True
        while more:
            if p == n:
                raise ValueError("compressed RLE string ends inside a count")
            c = ord(s[p]) - 48
            if not 0 <= c < 64:
                raise ValueError(f"compressed RLE string has invalid character {s[p]!r}")
            x |= (c & 0x1F) << (5 * k)
            more = bool(c & 0x20)
            p += 1
            k += 1
            if not more and c & 0x10:
                x |= -1 << (5 * k)
        if len(counts) > 2:
            x += counts[-2]
        counts.append(x)
    return counts


def _pack(masks: list[RleMask]) -> np.ndarray:
    """Column-major bitmaps of masks as rows of uint64 words, zero-padded to
    the widest mask (at least one word).

    Each mask's runs get an empty ones run if their count is odd, then its
    padding as a zero run and an empty ones run: every mask starts on an even
    run, so a chunk of rows, at most ``_CHUNK_BYTES`` of pixels, is one
    ``np.repeat`` of one parity pattern.
    """
    totals = [h * w for h, w in (mask.size for mask in masks)]
    bits = max(1, -(-max(totals, default=0) // 64)) * 64
    tails = [(0,) * (len(mask.counts) % 2) + (bits - total, 0) for mask, total in zip(masks, totals)]
    pieces = [piece for mask, tail in zip(masks, tails) for piece in (mask.counts, tail)]
    lens = np.fromiter(map(len, pieces), np.int64, len(pieces)).reshape(-1, 2).sum(axis=1)
    runs = np.fromiter(chain.from_iterable(pieces), np.int64, lens.sum())
    end = np.cumsum(lens)
    start = end - lens
    for k in np.flatnonzero(np.add.reduceat(runs, start) != bits)[:1]:
        _decode_flat(masks[k])  # raises the counts-sum ValueError
    out = np.empty((len(masks), bits // 64), dtype=np.uint64)
    step = max(1, _CHUNK_BYTES // bits)
    for r0 in range(0, len(masks), step):
        s, e = start[r0], end[min(r0 + step, len(masks)) - 1]
        flat = np.repeat(np.tile((False, True), (e - s) // 2), runs[s:e]).reshape(-1, bits)
        out[r0 : r0 + step] = np.packbits(flat, axis=1).view(np.uint64)
    return out


def _pair_iou(words: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Exact IoU of rows ``ia[k]`` and ``ib[k]`` of packed ``words``, each pair
    two masks of one size.

    A pair whose spans of nonzero words do not meet shares no pixel; the
    others are ANDed and popcounted, ``_CHUNK_BYTES`` of words per side at a
    time.  Both-empty pairs give 0.0.
    """
    nonzero = words != 0
    area = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    first = nonzero.argmax(axis=1)
    # An empty row's last word is -1, so its span meets none.
    last = np.where(area > 0, words.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
    inter = np.zeros(len(ia), dtype=np.int64)
    todo = np.flatnonzero((first[ia] <= last[ib]) & (first[ib] <= last[ia]))
    step = max(1, _CHUNK_BYTES // (8 * words.shape[1]))
    for k in (todo[k0 : k0 + step] for k0 in range(0, todo.size, step)):
        inter[k] = np.bitwise_count(words[ia[k]] & words[ib[k]]).sum(axis=1)
    union = area[ia] + area[ib] - inter
    return np.divide(inter, union, out=np.zeros(len(ia)), where=union > 0)


def _one_size(masks: list[RleMask]) -> tuple[int, int]:
    """The size all masks share, (0, 0) for none; ValueError naming every
    size when they differ."""
    sizes = {tuple(mask.size) for mask in masks}
    if len(sizes) > 1:
        raise ValueError(f"mask size mismatch: {' vs '.join(map(str, sorted(sizes)))}")
    return sizes.pop() if sizes else (0, 0)


def mask_iou_matrix(masks_a: list[RleMask], masks_b: list[RleMask]) -> np.ndarray:
    """Pairwise mask IoU, shape (len(a), len(b)); every mask has one size.

    Both sides are packed once, together, and the cross product goes through
    the one pair pass: beyond the packed masks and arrays of the result's
    size, no temporary exceeds ``_CHUNK_BYTES``.  Both-empty pairs give 0.0.
    """
    masks = [*masks_a, *masks_b]
    _one_size(masks)
    ia, ib = np.indices((len(masks_a), len(masks_b))).reshape(2, -1)
    return _pair_iou(_pack(masks), ia, len(masks_a) + ib).reshape(len(masks_a), len(masks_b))


def mask_iou(a: RleMask, b: RleMask) -> float:
    """IoU of two masks of identical size; both-empty masks give 0.0."""
    return float(mask_iou_matrix([a], [b])[0, 0])


def box_iou(a: BBox, b: BBox) -> float:
    """Open-interval IoU of two boxes; 0.0 when both have zero area."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area() + b.area() - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_iou_matrix(boxes_a: list[BBox] | np.ndarray, boxes_b: list[BBox] | np.ndarray) -> np.ndarray:
    """Pairwise open-interval box IoU, shape (len(a), len(b)).  A side is a list of
    boxes or, as the evaluator passes it, an (n, 4) float array of (x, y, w, h) rows."""
    a, b = (
        v if isinstance(v, np.ndarray) else np.array([bb.as_tuple() for bb in v], np.float64).reshape(-1, 4)
        for v in (boxes_a, boxes_b)
    )
    ax2, ay2 = a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]
    bx2, by2 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]
    ix = np.minimum(ax2[:, None], bx2) - np.maximum(a[:, 0, None], b[:, 0])
    iy = np.minimum(ay2[:, None], by2) - np.maximum(a[:, 1, None], b[:, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    out = np.zeros(union.shape)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def mask_to_box(mask: RleMask) -> BBox:
    """Tightest integer-pixel box covering the set pixels; empty gives (0, 0, 0, 0)."""
    grid = rle_decode(mask)
    rows, cols = np.flatnonzero(grid.any(axis=1)), np.flatnonzero(grid.any(axis=0))
    if rows.size == 0:
        return BBox(0.0, 0.0, 0.0, 0.0)
    return BBox(
        float(cols[0]),
        float(rows[0]),
        float(cols[-1] - cols[0] + 1),
        float(rows[-1] - rows[0] + 1),
    )
