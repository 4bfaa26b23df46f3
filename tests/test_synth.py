import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import letrack.synth
from letrack.core import BBox
from letrack.io import bank_to_jsonable, detections_to_jsonable, dumps_canonical, tracks_to_jsonable
from letrack.maskops import mask_to_box, rle_decode, rle_encode, validate_rle
from letrack.synth import (
    APP_EMB_SCALE,
    ID_REMAP_OFFSET,
    SynthConfig,
    _jitter_boxes,
    _rasterize,
    _rect_mask,
    generate,
    perfect_tracker,
)

from oracles import generate_reference, rect_mask_reference


def render(result):
    return (
        dumps_canonical(tracks_to_jsonable(result.gt)),
        dumps_canonical(detections_to_jsonable(result.detections)),
        dumps_canonical(bank_to_jsonable(result.bank)),
    )


def test_same_seed_same_bytes():
    cfg = SynthConfig(seed=3, p_drop=0.2, p_fp=0.5, box_jitter_sigma=1.0)
    assert render(generate(cfg)) == render(generate(cfg))


def test_different_seeds_differ():
    a = render(generate(SynthConfig(seed=1)))
    b = render(generate(SynthConfig(seed=2)))
    assert a[0] != b[0]
    assert a[2] != b[2]  # prototypes are seed-dependent too


def test_config_validation():
    with pytest.raises(ValueError, match="seed"):
        SynthConfig(seed=-1)
    with pytest.raises(ValueError, match="num_frames"):
        SynthConfig(num_frames=0)
    with pytest.raises(ValueError, match="num_categories"):
        SynthConfig(num_categories=0)
    with pytest.raises(ValueError, match="4x4"):
        SynthConfig(frame_height=2)
    with pytest.raises(ValueError, match="fraction_common"):
        SynthConfig(fraction_common=1.5)
    with pytest.raises(ValueError, match="p_drop"):
        SynthConfig(p_drop=-0.1)
    with pytest.raises(ValueError, match="box_jitter_sigma"):
        SynthConfig(box_jitter_sigma=-1.0)
    with pytest.raises(ValueError, match="dimensions"):
        SynthConfig(app_emb_dim=0)
    SynthConfig(num_tracks=0)  # allowed: an empty scene


def test_from_mapping():
    cfg = SynthConfig.from_mapping({"seed": "7", "p_drop": "0.25", "num_tracks": "3"})
    assert cfg.seed == 7
    assert cfg.p_drop == 0.25
    assert cfg.num_tracks == 3
    assert cfg.num_frames == 20  # untouched default
    with pytest.raises(ValueError, match="unknown synth config key"):
        SynthConfig.from_mapping({"frames": "9"})
    with pytest.raises(ValueError):
        SynthConfig.from_mapping({"seed": "1.5"})
    with pytest.raises(ValueError, match="could not convert string to float"):
        SynthConfig.from_mapping({"p_drop": "often"})


def test_gt_structure():
    cfg = SynthConfig(seed=5)
    res = generate(cfg)
    assert len(res.gt) == 1 and len(res.detections) == 1
    seq = res.gt[0]
    assert seq.meta.name == "synth_0005"
    assert seq.meta.height == cfg.frame_height
    assert seq.meta.width == cfg.frame_width
    assert seq.meta.num_frames == cfg.num_frames
    assert res.detections[0].meta == seq.meta

    assert [t.track_id for t in seq.tracks] == list(range(1, cfg.num_tracks + 1))
    bank_ids = set(res.bank.ids())
    for t in seq.tracks:
        assert t.category_id in bank_ids
        assert [ob.frame for ob in t.observations] == list(range(cfg.num_frames))
        for ob in t.observations:
            b = ob.box
            assert b.x == int(b.x) and b.y == int(b.y)
            assert b.w >= 2 and b.h >= 2
            assert 0 <= b.x and b.x + b.w <= cfg.frame_width
            assert 0 <= b.y and b.y + b.h <= cfg.frame_height
            assert ob.mask is not None
            assert mask_to_box(ob.mask).as_tuple() == b.as_tuple()
            grid = rle_decode(ob.mask)
            assert grid.sum() == int(b.w) * int(b.h)  # solid rectangle


def test_bank_splits_follow_fraction_common():
    res = generate(SynthConfig(seed=1, num_categories=4, fraction_common=0.5))
    assert [res.bank.split_of(c) for c in (1, 2, 3, 4)] == [
        "common", "common", "uncommon", "uncommon",
    ]
    assert [res.bank.get(c).name for c in (1, 2)] == ["category_01", "category_02"]
    for c in res.bank.ids():
        proto = res.bank.get(c).prototype
        assert proto is not None
        assert np.linalg.norm(proto) == pytest.approx(1.0, abs=1e-12)

    res_none = generate(SynthConfig(seed=1, fraction_common=0.0))
    assert all(res_none.bank.split_of(c) == "uncommon" for c in res_none.bank.ids())
    # 0.9 * 4 rounds to 4: everything common
    res_all = generate(SynthConfig(seed=1, fraction_common=0.9))
    assert all(res_all.bank.split_of(c) == "common" for c in res_all.bank.ids())


def test_noise_free_detections_mirror_gt():
    cfg = SynthConfig(seed=2, num_frames=6, num_tracks=3)
    res = generate(cfg)
    seq = res.gt[0]
    for fr in res.detections[0].frames:
        gt_here = {t.track_id: t.observations[fr.index] for t in seq.tracks}
        assert len(fr.detections) == len(gt_here)
        matched_boxes = {ob.box.as_tuple() for ob in gt_here.values()}
        for d in fr.detections:
            assert d.frame_index == fr.index
            assert d.objectness == 0.95
            assert d.box.as_tuple() in matched_boxes
            assert np.linalg.norm(d.app_emb) == pytest.approx(APP_EMB_SCALE, abs=1e-9)
            assert np.linalg.norm(d.cls_emb) == pytest.approx(1.0, abs=1e-12)
            assert d.mask is not None
            assert mask_to_box(d.mask).as_tuple() == d.box.as_tuple()


def test_cls_emb_matches_category_prototype_when_noise_free():
    cfg = SynthConfig(seed=4, num_frames=2, num_tracks=4)
    res = generate(cfg)
    protos = {c: res.bank.get(c).prototype for c in res.bank.ids()}
    track_cat = {t.track_id: t.category_id for t in res.gt[0].tracks}
    box_to_track = {
        (ob.frame,) + ob.box.as_tuple(): t.track_id
        for t in res.gt[0].tracks
        for ob in t.observations
    }
    for fr in res.detections[0].frames:
        for d in fr.detections:
            tid = box_to_track[(d.frame_index,) + d.box.as_tuple()]
            np.testing.assert_array_equal(d.cls_emb, protos[track_cat[tid]])


def test_p_drop_removes_detections():
    base = generate(SynthConfig(seed=6, num_frames=30))
    dropped = generate(SynthConfig(seed=6, num_frames=30, p_drop=0.4))
    n_base = sum(len(f.detections) for f in base.detections[0].frames)
    n_drop = sum(len(f.detections) for f in dropped.detections[0].frames)
    assert n_base == 30 * 5
    assert 0 < n_drop < n_base
    # gt is unaffected by drops
    assert render(base)[0] == render(dropped)[0]


def test_p_drop_one_leaves_no_detections():
    res = generate(SynthConfig(seed=6, p_drop=1.0))
    assert all(f.detections == [] for f in res.detections[0].frames)
    assert len(res.detections[0].frames) == 20  # frames stay enumerated


def test_spurious_detections():
    res = generate(SynthConfig(seed=7, p_drop=1.0, p_fp=1.0, num_frames=40))
    spurious = [d for f in res.detections[0].frames for d in f.detections]
    assert len(spurious) > 0
    for d in spurious:
        assert 0.3 <= d.objectness < 0.8
        assert np.linalg.norm(d.app_emb) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(d.cls_emb) == pytest.approx(1.0, abs=1e-12)
        assert d.mask is not None


def test_sigma_values_do_not_shift_the_stream():
    """Noise draws are consumed whenever a detection is emitted, so changing a
    sigma rescales that field without moving any other draw."""
    clean = generate(SynthConfig(seed=9))
    noisy = generate(SynthConfig(seed=9, app_noise_sigma=2.0))
    for fc, fn in zip(clean.detections[0].frames, noisy.detections[0].frames):
        assert len(fc.detections) == len(fn.detections)
        for dc, dn in zip(fc.detections, fn.detections):
            assert dc.box.as_tuple() == dn.box.as_tuple()
            np.testing.assert_array_equal(dc.cls_emb, dn.cls_emb)
            assert not np.array_equal(dc.app_emb, dn.app_emb)


def test_jitter_moves_boxes_but_not_gt():
    clean = generate(SynthConfig(seed=8))
    noisy = generate(SynthConfig(seed=8, box_jitter_sigma=1.5))
    assert render(clean)[0] == render(noisy)[0]
    clean_boxes = [d.box.as_tuple() for f in clean.detections[0].frames for d in f.detections]
    noisy_boxes = [d.box.as_tuple() for f in noisy.detections[0].frames for d in f.detections]
    assert clean_boxes != noisy_boxes
    assert all(b[2] >= 0 and b[3] >= 0 for b in noisy_boxes)


def test_perfect_tracker_relabels():
    res = generate(SynthConfig(seed=1))
    pred = perfect_tracker(res.gt)
    assert len(pred) == 1
    assert pred[0].meta == res.gt[0].meta
    for orig, remapped in zip(res.gt[0].tracks, pred[0].tracks):
        assert remapped.track_id == orig.track_id + ID_REMAP_OFFSET
        assert remapped.category_id == orig.category_id
        assert remapped.score == 1.0
        assert remapped.observations == orig.observations


def test_empty_scene():
    res = generate(SynthConfig(seed=1, num_tracks=0))
    assert res.gt[0].tracks == []
    assert all(f.detections == [] for f in res.detections[0].frames)


def test_config_is_frozen():
    cfg = SynthConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 2


# ---------------------------------------------------------------------------
# batched noise against the one-detection-at-a-time reference


def _floats(*xs) -> bytes:
    """Bytes of the doubles, so -0.0, 0.0 and NaN payloads all count."""
    return np.array(xs, dtype=np.float64).tobytes()


def _assert_vector_equal(got, want):
    assert isinstance(got, np.ndarray)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _assert_same_result(got, want):
    assert render(got) == render(want)
    (g_gt,), (w_gt,) = got.gt, want.gt
    assert g_gt.meta == w_gt.meta
    assert [(t.track_id, t.category_id, t.score) for t in g_gt.tracks] == [
        (t.track_id, t.category_id, t.score) for t in w_gt.tracks]
    for gt_track, want_track in zip(g_gt.tracks, w_gt.tracks):
        assert gt_track.observations == want_track.observations
    (g_det,), (w_det,) = got.detections, want.detections
    assert g_det.meta == w_det.meta
    assert [f.index for f in g_det.frames] == [f.index for f in w_det.frames]
    for gf, wf in zip(g_det.frames, w_det.frames):
        assert len(gf.detections) == len(wf.detections)
        for g, w in zip(gf.detections, wf.detections):
            assert type(g.frame_index) is int and g.frame_index == w.frame_index
            assert all(type(v) is float for v in g.box.as_tuple())
            assert _floats(*g.box.as_tuple()) == _floats(*w.box.as_tuple())
            assert _floats(g.objectness) == _floats(w.objectness)
            assert g.mask == w.mask
            _assert_vector_equal(g.app_emb, w.app_emb)
            _assert_vector_equal(g.cls_emb, w.cls_emb)
    assert got.bank.ids() == want.bank.ids()
    for c in want.bank.ids():
        g, w = got.bank.get(c), want.bank.get(c)
        assert (g.name, g.split) == (w.name, w.split)
        _assert_vector_equal(g.prototype, w.prototype)


_SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(2**64 - 64, 2**64 - 1),
    st.sampled_from([0, 1, 2**64 - 1]),
)
_PROBS = st.sampled_from([0.0, 1.0, 0.3])
_SIGMAS = st.sampled_from([0.0, 0.05, 0.7, 6.0])


@settings(max_examples=150, deadline=None)
@given(
    seed=_SEEDS,
    num_frames=st.integers(1, 5),
    num_tracks=st.integers(0, 5),
    num_categories=st.integers(1, 3),
    frame_height=st.integers(4, 12),
    frame_width=st.integers(4, 12),
    p_drop=_PROBS,
    p_fp=_PROBS,
    box_jitter_sigma=_SIGMAS,
    app_noise_sigma=_SIGMAS,
    cls_noise_sigma=_SIGMAS,
    app_emb_dim=st.integers(1, 5),
    cls_emb_dim=st.integers(1, 5),
)
# The edges, always run: no tracks; every detection dropped; every spurious
# slot firing with zero sigmas, 1-dimensional embeddings, a 4x4 frame and
# the state wrapping mod 2**64.
@example(seed=0, num_frames=3, num_tracks=0, num_categories=1, frame_height=4, frame_width=4,
         p_drop=0.0, p_fp=1.0, box_jitter_sigma=0.0, app_noise_sigma=0.0, cls_noise_sigma=0.0,
         app_emb_dim=1, cls_emb_dim=1)
@example(seed=2**64 - 1, num_frames=4, num_tracks=3, num_categories=2, frame_height=4, frame_width=4,
         p_drop=1.0, p_fp=1.0, box_jitter_sigma=0.7, app_noise_sigma=0.0, cls_noise_sigma=0.0,
         app_emb_dim=1, cls_emb_dim=1)
@example(seed=2**64 - 2, num_frames=5, num_tracks=4, num_categories=3, frame_height=4, frame_width=4,
         p_drop=0.0, p_fp=0.0, box_jitter_sigma=6.0, app_noise_sigma=0.0, cls_noise_sigma=0.0,
         app_emb_dim=1, cls_emb_dim=1)
def test_generate_equals_per_detection_reference(**fields):
    cfg = SynthConfig(**fields)
    _assert_same_result(generate(cfg), generate_reference(cfg))


def test_generate_equals_reference_on_a_bench_sized_cut():
    cfg = SynthConfig(seed=2**64 - 3, num_frames=10, num_tracks=30, frame_height=240,
                      frame_width=320, p_drop=0.1, p_fp=1.0, box_jitter_sigma=0.5,
                      app_noise_sigma=0.2, cls_noise_sigma=0.05)
    _assert_same_result(generate(cfg), generate_reference(cfg))


def test_generate_makes_one_noise_pass_per_sequence(monkeypatch):
    """A count guard, not a timing gate: the noise of every kept detection
    comes from one ``gauss_blocks`` call, and ``gauss_vec`` runs only for the
    unit vectors (prototypes, identities, two per spurious detection)."""
    passes, vec_calls = [], [0]
    real_blocks, real_vec = letrack.synth.gauss_blocks, letrack.synth.SplitMix64.gauss_vec

    def blocks(starts, n):
        passes.append(len(starts))
        return real_blocks(starts, n)

    def vec(self, n):
        vec_calls[0] += 1
        return real_vec(self, n)

    monkeypatch.setattr(letrack.synth, "gauss_blocks", blocks)
    monkeypatch.setattr(letrack.synth.SplitMix64, "gauss_vec", vec)
    cfg = SynthConfig(seed=5, num_frames=12, num_tracks=9, p_drop=0.2, p_fp=0.6)
    res = generate(cfg)
    dets = [d for f in res.detections[0].frames for d in f.detections]
    spurious = sum(d.objectness != 0.95 for d in dets)
    assert passes == [len(dets) - spurious] and passes[0] > 50
    assert vec_calls[0] == cfg.num_categories + cfg.num_tracks + 2 * spurious


@pytest.mark.parametrize("v", [-0.0, 0.0, -1e-300, -2.5, 3.0, float("nan"), float("-inf")])
def test_jitter_clamp_is_max_with_zero(v):
    """w and h go through ``max(v, 0.0)``: -0.0 and NaN stay, negatives become 0.0."""
    gt = np.array([[1.5, -2.0, v, v]])
    for jitter, sigma in (([[0.0, 0.0, 0.0, 0.0]], 1.0), ([[0.25, 1.0, -0.0, 0.0]], 0.0)):
        got = _jitter_boxes(gt, np.array(jitter), sigma)
        want = [x + j * sigma for x, j in zip(gt[0], jitter[0])]
        want[2:] = [max(x, 0.0) for x in want[2:]]
        assert got.tobytes() == _floats(*want)


# ---------------------------------------------------------------------------
# rectangle masks in closed form


def test_rect_mask_equals_painted_grid_on_every_small_frame():
    # Every in-frame rectangle, empty ones included, on frames up to 6x6:
    # this reaches h == height, the full frame and both far edges.
    cases = 0
    for height in range(1, 7):
        for width in range(1, 7):
            for x0 in range(width + 1):
                for y0 in range(height + 1):
                    for w in range(width - x0 + 1):
                        for h in range(height - y0 + 1):
                            got = _rect_mask(height, width, x0, y0, w, h)
                            assert got == rect_mask_reference(height, width, x0, y0, w, h), (
                                height, width, x0, y0, w, h)
                            assert validate_rle(got) == []
                            cases += 1
    assert cases == 83 * 83  # (sum of (n + 1)(n + 2) / 2 over n = 1..6) squared


def _painted_box(box: BBox, height: int, width: int) -> np.ndarray:
    """Pixels whose centre lies in (x, x + w] x (y, y + h], inside the frame."""
    cx = np.arange(width) + 0.5
    cy = np.arange(height) + 0.5
    in_x = (cx > box.x) & (cx <= box.x + box.w)
    in_y = (cy > box.y) & (cy <= box.y + box.h)
    return in_y[:, None] & in_x[None, :]


# Quarter-pixel steps keep every edge and sum exact.
_QUARTERS = st.integers(-40, 40).map(lambda k: k / 4)
_EXTENTS = st.integers(0, 48).map(lambda k: k / 4)


@settings(max_examples=400, deadline=None)
@given(
    height=st.integers(1, 6),
    width=st.integers(1, 6),
    x=_QUARTERS,
    y=_QUARTERS,
    w=_EXTENTS,
    h=_EXTENTS,
)
def test_rasterize_equals_painted_grid(height, width, x, y, w, h):
    box = BBox(x, y, w, h)
    assert _rasterize(box, height, width) == rle_encode(_painted_box(box, height, width))


@pytest.mark.parametrize(
    "box",
    [
        BBox(-9.0, 1.0, 3.0, 2.0),  # wholly left of the frame
        BBox(6.5, 1.0, 3.0, 2.0),  # wholly right
        BBox(1.0, -7.25, 2.0, 3.0),  # wholly above
        BBox(1.0, 9.0, 2.0, 3.0),  # wholly below
        BBox(2.0, 2.0, 0.0, 3.0),  # zero width
        BBox(2.25, 2.0, 0.5, 3.0),  # rounds to zero width
        BBox(-1.0, -1.0, 3.0, 3.0),  # clipped at the top-left corner
        BBox(4.0, 3.0, 5.0, 5.0),  # clipped at the bottom-right corner
        BBox(-2.0, -2.0, 20.0, 20.0),  # covers the frame
        BBox(1.0, -3.0, 2.0, 30.0),  # full height, partial width
    ],
)
def test_rasterize_outside_and_clamped_boxes(box):
    height, width = 5, 6
    got = _rasterize(box, height, width)
    assert got == rle_encode(_painted_box(box, height, width))
    assert validate_rle(got) == []
