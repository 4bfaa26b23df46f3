import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack import maskops
from letrack.core import BBox
from letrack.maskops import (
    RleMask,
    _decode_flat,
    _pack,
    _pair_iou,
    box_iou,
    box_iou_matrix,
    mask_iou,
    mask_iou_matrix,
    mask_to_box,
    rle_counts_from_string,
    rle_decode,
    rle_encode,
    validate_rle,
)

from oracles import rle_to_string


def brute_iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = int(np.logical_and(a, b).sum())
    union = int(np.logical_or(a, b).sum())
    return 0.0 if union == 0 else inter / union


# ---------------------------------------------------------------------------
# encoding


def test_encode_column_major_first_run_is_zeros():
    bitmap = np.array([[1, 0], [1, 0]], dtype=bool)  # column 0 all ones
    m = rle_encode(bitmap)
    assert m.size == (2, 2)
    assert m.counts == (0, 2, 2)
    assert m.area() == 2


def test_decode_frozen_grid():
    m = RleMask(size=(2, 2), counts=(1, 2, 1))
    assert np.array_equal(rle_decode(m), np.array([[0, 1], [1, 0]], dtype=bool))


def test_empty_and_full():
    empty = rle_encode(np.zeros((3, 4), dtype=bool))
    assert empty.counts == (12,)
    assert empty.area() == 0
    full = rle_encode(np.ones((3, 4), dtype=bool))
    assert full.counts == (0, 12)
    assert full.area() == 12


def test_roundtrip_all_3x3_bitmaps():
    for bits in itertools.product((False, True), repeat=9):
        bitmap = np.array(bits, dtype=bool).reshape(3, 3)
        m = rle_encode(bitmap)
        assert validate_rle(m) == []
        assert np.array_equal(rle_decode(m), bitmap)
        assert m.area() == int(bitmap.sum())


def test_roundtrip_random_64x64():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        bitmap = rng.random((64, 64)) < rng.uniform(0.0, 1.0)
        m = rle_encode(bitmap)
        assert validate_rle(m) == []
        assert np.array_equal(rle_decode(m), bitmap)


def test_validate_rle_violations():
    assert any("negative" in s for s in validate_rle(RleMask((2, 2), (0, -1, 5))))
    assert any("zero-length" in s for s in validate_rle(RleMask((2, 2), (1, 0, 3))))
    bad_sum = validate_rle(RleMask((2, 2), (1, 2)))
    assert any("counts sum to 3 pixels, expected 4 for size (2, 2)" in s for s in bad_sum)
    # leading zero-length run is how an initially-set pixel is encoded: legal
    assert validate_rle(RleMask((2, 2), (0, 4))) == []


def test_decode_rejects_wrong_total():
    with pytest.raises(ValueError, match="expected"):
        rle_decode(RleMask((2, 2), (1, 2)))


# ---------------------------------------------------------------------------
# mask IoU


def test_mask_iou_frozen_quarter():
    grid_a = np.zeros((10, 10), dtype=bool)
    grid_a[:, 0:5] = True
    grid_b = np.zeros((10, 10), dtype=bool)
    grid_b[:, 3:8] = True
    assert mask_iou(rle_encode(grid_a), rle_encode(grid_b)) == 0.25


def test_mask_iou_identical_and_disjoint():
    g = np.zeros((6, 6), dtype=bool)
    g[1:3, 1:3] = True
    m = rle_encode(g)
    assert mask_iou(m, m) == 1.0
    h = np.zeros((6, 6), dtype=bool)
    h[4:6, 4:6] = True
    assert mask_iou(m, rle_encode(h)) == 0.0


def test_mask_iou_both_empty_is_zero():
    e = rle_encode(np.zeros((4, 4), dtype=bool))
    assert mask_iou(e, e) == 0.0


def test_mask_iou_size_mismatch():
    with pytest.raises(ValueError, match="size"):
        mask_iou(rle_encode(np.zeros((2, 2), dtype=bool)), rle_encode(np.zeros((3, 3), dtype=bool)))


def test_mask_iou_equals_bitmap_brute_force_exactly():
    rng = np.random.default_rng(77)
    for _ in range(300):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        a = rng.random((h, w)) < rng.uniform(0.0, 1.0)
        b = rng.random((h, w)) < rng.uniform(0.0, 1.0)
        got = mask_iou(rle_encode(a), rle_encode(b))
        assert got == brute_iou(a, b)  # exact: both are ratios of equal ints


@pytest.mark.parametrize("h, w", [(1, 1), (7, 5), (8, 8), (16, 12), (3, 70), (64, 96), (65, 67)])
def test_mask_iou_matrix_equals_bitmap_brute_force_exactly(h, w):
    # h * w a multiple of 64 (8x8, 16x12, 64x96) and not, plus one size
    # above 64x64; every list carries an empty and a full mask.
    rng = np.random.default_rng(h * 1000 + w)
    grids = [np.zeros((h, w), dtype=bool), np.ones((h, w), dtype=bool)]
    grids += [rng.random((h, w)) < rng.uniform(0.0, 1.0) for _ in range(6)]
    a, b = grids[:5], grids[3:]
    got = mask_iou_matrix([rle_encode(g) for g in a], [rle_encode(g) for g in b])
    assert got.dtype == np.float64 and got.shape == (5, 5)
    for i, ga in enumerate(a):
        for j, gb in enumerate(b):
            assert got[i, j] == brute_iou(ga, gb)  # exact, not approx


def test_mask_iou_matrix_empty_sides():
    m = rle_encode(np.ones((4, 4), dtype=bool))
    assert mask_iou_matrix([m, m], []).shape == (2, 0)
    assert mask_iou_matrix([], [m, m, m]).shape == (0, 3)


def test_mask_iou_matrix_size_mismatch_anywhere():
    small = rle_encode(np.zeros((2, 2), dtype=bool))
    big = rle_encode(np.zeros((3, 3), dtype=bool))
    for a, b in (([small, big], [small]), ([small], [small, big]), ([big, big], [small]),
                 ([small, big], [])):
        with pytest.raises(ValueError, match="size"):
            mask_iou_matrix(a, b)


def test_mask_iou_matrix_zero_pixel_size_is_zero():
    e = RleMask((0, 5), ())
    assert mask_iou_matrix([e, e], [e]).tolist() == [[0.0], [0.0]]


# ---------------------------------------------------------------------------
# batched pack and the pair pass


def _pack_reference(masks):
    """Each mask decoded alone, zero-padded to the widest, then np.packbits."""
    bits = max(1, -(-max((h * w for h, w in (m.size for m in masks)), default=0) // 64)) * 64
    rows = [np.pad(_decode_flat(m), (0, bits - m.size[0] * m.size[1])) for m in masks]
    return np.packbits(np.array(rows, dtype=bool).reshape(len(masks), bits), axis=1).view(np.uint64)


def _run_patterns(h, w):
    n = h * w
    return [
        RleMask((h, w), (n,)),  # empty
        RleMask((h, w), (0, n)),  # full: a leading zero run
        RleMask((h, w), (1,) * n),  # one run per pixel, first pixel clear
        RleMask((h, w), (0,) + (1,) * n),  # one run per pixel, first pixel set
        RleMask((h, w), (n - 1, 1)),  # last pixel only
        RleMask((h, w), (0, 1, n - 1)),  # first pixel only
    ]


def test_pack_matches_per_mask_decode_and_packbits():
    masks = _run_patterns(7, 9) + _run_patterns(3, 5) + [RleMask((0, 5), ())] + _run_patterns(9, 8)
    for part in (masks, _run_patterns(7, 9), [RleMask((0, 5), ())], []):
        assert np.array_equal(_pack(part), _pack_reference(part))
    assert _pack([RleMask((0, 5), ()), RleMask((5, 0), ())]).tolist() == [[0], [0]]


def test_pack_crosses_chunk_boundaries():
    h, w = 100, 100  # 157 words a row
    rows_per_chunk = maskops._CHUNK_BYTES // (157 * 64)
    rng = np.random.default_rng(16)
    masks = [rle_encode(rng.random((h, w)) < rng.uniform(0.0, 1.0)) for _ in range(2 * rows_per_chunk + 3)]
    masks[rows_per_chunk - 1 : rows_per_chunk + 1] = _run_patterns(h, w)[2:4]  # around the boundary
    assert np.array_equal(_pack(masks), _pack_reference(masks))
    # The cross product is larger than one chunk of pairs too.
    grids = np.array([rle_decode(m).reshape(-1) for m in masks], dtype=np.int64)
    inter = grids @ grids.T
    union = grids.sum(axis=1)[:, None] + grids.sum(axis=1) - inter
    assert len(masks) ** 2 > maskops._CHUNK_BYTES // (157 * 8)
    assert mask_iou_matrix(masks, masks).tolist() == (inter / union).tolist()


def test_pack_counts_sum_mismatch_names_the_first_bad_mask():
    good, bad = RleMask((2, 2), (0, 4)), RleMask((2, 3), (1, 2))
    with pytest.raises(ValueError, match=r"^rle decode: counts sum to 3 pixels, expected 6 for size \(2, 3\)$"):
        _pack([good, bad, RleMask((2, 2), (5,))])


def _span_mask(n, *ranges):
    flat = np.zeros(n, dtype=bool)
    for lo, hi in ranges:
        flat[lo:hi] = True
    return rle_encode(flat.reshape(1, n))


def test_pair_iou_prescreen_touching_and_missing_spans():
    # One row of 192 pixels: words 0, 1 and 2 hold pixels 0-63, 64-127, 128-191.
    n = 192
    masks = [
        _span_mask(n, (0, 64)),  # word 0
        _span_mask(n, (64, 128)),  # word 1: spans just miss word 0's
        _span_mask(n, (0, 65)),  # words 0-1: touches word 1 and shares pixel 64
        _span_mask(n, (60, 66)),  # words 0-1: touches (66, 70) in word 1, no shared pixel
        _span_mask(n, (66, 70)),  # word 1
        _span_mask(n, (127, 128)),  # last pixel of word 1
        _span_mask(n, (128, 129)),  # first pixel of word 2: just misses the one above
        _span_mask(n, (0, 1), (191, 192)),  # words 0-2, nothing between
        _span_mask(n),  # empty: its span meets none
    ]
    ia, ib = np.indices((len(masks), len(masks))).reshape(2, -1)
    got = _pair_iou(_pack(masks), ia, ib)
    want = [brute_iou(rle_decode(masks[i]), rle_decode(masks[j])) for i, j in zip(ia, ib)]
    assert got.tolist() == want
    assert got[1 * len(masks) + 2] == 1 / 128 and got[3 * len(masks) + 4] == 0.0


# ---------------------------------------------------------------------------
# boxes


def test_box_iou_frozen_third():
    assert box_iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=0)


def test_box_iou_disjoint_touching_degenerate():
    assert box_iou(BBox(0, 0, 2, 2), BBox(10, 10, 2, 2)) == 0.0
    # open interval: sharing an edge is not intersecting
    assert box_iou(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)) == 0.0
    assert box_iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0


def test_box_iou_contained():
    assert box_iou(BBox(0, 0, 4, 4), BBox(1, 1, 2, 2)) == 4 / 16


def test_box_iou_matrix_matches_scalar_exactly():
    rng = np.random.default_rng(5)
    boxes_a = [BBox(*(rng.random(4) * 20 - 5)) for _ in range(7)]
    boxes_b = [BBox(*(rng.random(4) * 20 - 5)) for _ in range(5)]
    mat = box_iou_matrix(boxes_a, boxes_b)
    assert mat.shape == (7, 5)
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert mat[i, j] == box_iou(a, b)


def test_box_iou_matrix_empty_sides():
    assert box_iou_matrix([], [BBox(0, 0, 1, 1)]).shape == (0, 1)
    assert box_iou_matrix([BBox(0, 0, 1, 1)], []).shape == (1, 0)


# ---------------------------------------------------------------------------
# mask_to_box


def test_mask_to_box_single_pixel():
    g = np.zeros((4, 4), dtype=bool)
    g[2, 1] = True
    assert mask_to_box(rle_encode(g)) == BBox(1.0, 2.0, 1.0, 1.0)


def test_mask_to_box_empty():
    assert mask_to_box(rle_encode(np.zeros((3, 3), dtype=bool))) == BBox(0.0, 0.0, 0.0, 0.0)


def test_mask_to_box_multi_column_run_spans_all_rows():
    # one run covering the tail of column 0 and head of column 2 passes
    # through all of column 1, so rows must span the full height
    g = np.zeros((4, 3), dtype=bool, order="F")
    flat = g.ravel(order="F")
    flat[2:10] = True  # col0 rows 2-3, col1 all, col2 rows 0-1
    g = flat.reshape((4, 3), order="F")
    box = mask_to_box(rle_encode(g))
    assert box == BBox(0.0, 0.0, 3.0, 4.0)


def test_mask_to_box_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(300):
        h, w = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        g = rng.random((h, w)) < rng.uniform(0.0, 0.6)
        box = mask_to_box(rle_encode(g))
        rows, cols = np.nonzero(g)
        if rows.size == 0:
            assert box == BBox(0.0, 0.0, 0.0, 0.0)
        else:
            expected = BBox(
                float(cols.min()),
                float(rows.min()),
                float(cols.max() - cols.min() + 1),
                float(rows.max() - rows.min() + 1),
            )
            assert box == expected


def test_mask_to_box_rect_identity():
    g = np.zeros((8, 9), dtype=bool)
    g[2:5, 3:7] = True
    assert mask_to_box(rle_encode(g)) == BBox(3.0, 2.0, 4.0, 3.0)


# ---------------------------------------------------------------------------
# COCO compressed strings


def test_compressed_string_known_values():
    assert rle_counts_from_string("02208") == [0, 2, 2, 2, 10]
    assert rle_counts_from_string("") == []
    assert rle_counts_from_string("M") == [-3]  # sign bit 0x10 of the last group


@pytest.mark.parametrize("s", ["0a", "0~", "0/", "0é"])
def test_compressed_string_malformed_raises(s):
    with pytest.raises(ValueError):
        rle_counts_from_string(s)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.lists(st.booleans(), min_size=1, max_size=9), min_size=1, max_size=9))
def test_compressed_string_roundtrips_encoded_bitmaps(bits):
    width = min(map(len, bits))
    mask = rle_encode(np.array([row[:width] for row in bits]))
    assert rle_counts_from_string(rle_to_string(mask.counts)) == list(mask.counts)


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(-(2**40), 2**40), max_size=12))
def test_compressed_string_roundtrips_any_integer_runs(counts):
    assert rle_counts_from_string(rle_to_string(counts)) == counts
