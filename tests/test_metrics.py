import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack.classification import CategoryBank, CategoryEntry
from letrack.io import SchemaError, SequenceTracks, TrackObservation, TrackRecord, dumps_canonical
from letrack import metrics
from letrack.core import BBox
from letrack.maskops import RleMask, mask_iou_matrix, mask_to_box, rle_encode
from letrack.metrics import (
    DEFAULT_ALPHAS,
    EvalConfig,
    _build_pool,
    evaluate,
    hota_alpha,
    match_frames,
)
from letrack.rng import SplitMix64

from helpers import box_track, meta, seq_tracks, two_split_bank
from oracles import hota_oracle, pool_reference, rect_mask_reference

BOX = (0, 0, 10, 10)
FAR = (40, 40, 10, 10)


def test_default_alphas():
    assert DEFAULT_ALPHAS == tuple(k / 20 for k in range(1, 20))
    assert len(DEFAULT_ALPHAS) == 19


def test_eval_config_validation():
    with pytest.raises(ValueError, match="mode"):
        EvalConfig(mode="both")
    with pytest.raises(ValueError, match="geometry"):
        EvalConfig(geometry="pixels")
    with pytest.raises(ValueError, match="strictly inside"):
        EvalConfig(alphas=(0.0, 0.5))
    with pytest.raises(ValueError, match="strictly increasing"):
        EvalConfig(alphas=(0.5, 0.5))
    with pytest.raises(ValueError, match="empty"):
        EvalConfig(alphas=())
    gt, pred = id_switch_pool()
    with pytest.raises(ValueError, match="geometry"):
        hota_alpha(gt, pred, 0.5, geometry="pixels")
    with pytest.raises(ValueError, match="geometry"):
        match_frames(gt, pred, 0.5, geometry="pixels")


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, float("nan")])
def test_single_pool_functions_reject_alphas_outside_unit_interval(alpha):
    # alpha <= 0 would admit pairs with IoU 0; the pool only keeps pairs
    # with similarity > 0, as EvalConfig's alphas require.
    gt, pred = id_switch_pool()
    with pytest.raises(ValueError, match="strictly inside"):
        EvalConfig(alphas=(alpha,))
    with pytest.raises(ValueError, match="strictly inside"):
        hota_alpha(gt, pred, alpha)
    with pytest.raises(ValueError, match="strictly inside"):
        match_frames(gt, pred, alpha)


# ---------------------------------------------------------------------------
# single-pool fixtures


def id_switch_pool():
    gt = [box_track(1, [(0, BOX), (1, BOX)])]
    pred = [box_track(1, [(0, BOX)]), box_track(2, [(1, BOX)])]
    return gt, pred


def test_id_switch_fixture_every_alpha():
    gt, pred = id_switch_pool()
    for alpha in DEFAULT_ALPHAS:
        det, ass, hota = hota_alpha(gt, pred, alpha, mode="closed", geometry="box")
        assert det == 1.0
        assert ass == 0.5
        assert hota == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_id_switch_plus_fp_fixture():
    gt, pred = id_switch_pool()
    pred = pred + [box_track(3, [(0, FAR), (1, FAR)])]
    for alpha in (0.25, 0.5, 0.75):
        det, ass, hota = hota_alpha(gt, pred, alpha, mode="closed", geometry="box")
        assert det == 0.5  # TP=2 FN=0 FP=2
        assert ass == 0.5
        assert hota == 0.5
        detre, ass_o, owta = hota_alpha(gt, pred, alpha, mode="open", geometry="box")
        assert detre == 1.0  # FPs do not touch recall
        assert ass_o == 0.5
        assert owta == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_perfect_pool():
    gt = [box_track(1, [(f, BOX) for f in range(5)])]
    pred = [box_track(9, [(f, BOX) for f in range(5)])]
    det, ass, hota = hota_alpha(gt, pred, 0.5, mode="closed", geometry="box")
    assert (det, ass, hota) == (1.0, 1.0, 1.0)


def test_match_frames_fixture():
    gt, pred = id_switch_pool()
    matches, fn, fp = match_frames(gt, pred, 0.5, geometry="box")
    assert matches == {0: [(1, 1)], 1: [(1, 2)]}
    assert (fn, fp) == (0, 0)


def test_match_frames_respects_alpha():
    gt = [box_track(1, [(0, (0, 0, 10, 10))])]
    pred = [box_track(1, [(0, (5, 0, 10, 10))])]  # IoU 1/3
    matches, fn, fp = match_frames(gt, pred, 0.3, geometry="box")
    assert matches == {0: [(1, 1)]}
    matches, fn, fp = match_frames(gt, pred, 0.4, geometry="box")
    assert matches == {}
    assert (fn, fp) == (1, 1)


def test_global_alignment_decides_over_single_frame_iou():
    # pred 1 follows gt on every frame; pred 2 overlaps slightly better on
    # frame 0 only.  The pass-two weight is dominated by global alignment,
    # so frame 0 must still go to pred 1.
    gt = [box_track(1, [(f, BOX) for f in range(5)])]
    pred = [
        box_track(1, [(f, (1, 0, 10, 10)) for f in range(5)]),  # IoU 9/11 everywhere
        box_track(2, [(0, BOX)]),  # IoU 1.0 on frame 0 alone
    ]
    matches, _, _ = match_frames(gt, pred, 0.5, geometry="box")
    assert matches[0] == [(1, 1)]


def test_hota_alpha_rejects_bad_mode():
    with pytest.raises(ValueError, match="mode"):
        hota_alpha([], [], 0.5, mode="weird")


def test_zero_observation_track_rejected():
    with pytest.raises(SchemaError, match="no observations"):
        hota_alpha([TrackRecord(track_id=1, observations=[])], [], 0.5)


def test_duplicate_frame_rejected():
    bad = box_track(1, [(0, BOX), (0, BOX)])
    with pytest.raises(SchemaError, match="duplicate observation"):
        hota_alpha([bad], [], 0.5)


@pytest.mark.parametrize("single_pool", [hota_alpha, match_frames])
def test_single_pool_functions_list_every_faulty_track_on_both_sides(single_pool):
    gt = [
        TrackRecord(track_id=4, observations=[]),
        box_track(1, [(0, BOX)]),
        box_track(2, [(1, BOX), (1, FAR), (3, BOX), (3, BOX)]),
    ]
    pred = [box_track(7, [(0, BOX), (0, FAR)]), TrackRecord(track_id=5, observations=[])]
    with pytest.raises(SchemaError) as err:
        single_pool(gt, pred, 0.5, geometry="box")
    assert err.value.issues == [
        "track 4 has no observations",
        "track 2 has duplicate observations for frame(s) 1, 3",
        "track 7 has duplicate observations for frame(s) 0",
        "track 5 has no observations",
    ]


def test_evaluate_lists_every_empty_or_duplicate_frame_track():
    bank = two_split_bank()
    gt = [
        seq_tracks(
            [
                box_track(1, [(0, BOX)], category_id=1),
                TrackRecord(track_id=2, observations=[], category_id=1),
            ],
            name="a",
        )
    ]
    pred = [seq_tracks([box_track(7, [(0, BOX), (0, FAR), (1, BOX)])], name="a")]
    with pytest.raises(SchemaError) as err:
        evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box"))
    assert err.value.issues == [
        "ground truth sequence 'a': track 2 has no observations",
        "prediction sequence 'a': track 7 has duplicate observations for frame(s) 0",
    ]


def id_switch_category_inputs():
    """Six gt tracks of one category, each covered by several preds in turn.

    Each gt track's frames are cut into runs of 1-6 and every run goes to a
    seeded pred id, so pred ids are not in gt order and preds switch between
    gt tracks; gt-major and pred-major pair orders then differ.  Pred boxes
    shift by 0-3 px, so the matches thin out as alpha rises.
    """
    rng = SplitMix64(11)
    n_frames = 24
    gt = [
        box_track(g, [(f, (16 * g, 0, 10, 10)) for f in range(n_frames)], category_id=1)
        for g in range(1, 7)
    ]
    gt.append(box_track(7, [(f, (0, 30, 10, 10)) for f in range(8)], category_id=2))
    followed: dict[int, dict[int, int]] = {}  # pred id -> {frame: gt id}
    for g in range(1, 7):
        f = 0
        while f < n_frames:
            run = range(f, min(n_frames, f + 1 + rng.randint(6)))
            pid = 1 + rng.randint(12)
            while any(fr in followed.get(pid, {}) for fr in run):
                pid += 1
            followed.setdefault(pid, {}).update({fr: g for fr in run})
            f = run.stop
    pred = [
        box_track(
            pid,
            [(fr, (16 * g + rng.randint(4), 0, 10, 10)) for fr, g in sorted(fg.items())],
            category_id=1,
        )
        for pid, fg in sorted(followed.items())
    ]
    pred.append(box_track(99, [(f, (1, 30, 10, 10)) for f in range(1, 6)], category_id=2))
    return [seq_tracks(gt, w=128, n=n_frames)], [seq_tracks(pred, w=128, n=n_frames)], two_split_bank()


# Per-alpha AssA of the "all" split for `id_switch_category_inputs`; pred
# shifts of 0-3 px give four IoU levels, so four runs of equal values.
# Closed mode sums A(c) over a category's (gt, pred) pairs in gt-major
# order: the same sum in pred-major order differs in the last bits.
PINNED_ID_SWITCH_ASSA = {
    "closed": (0.413619218988267,) * 10
    + (0.39688290657718134,) * 3
    + (0.3607194115543535,) * 3
    + (0.03749405365463568,) * 3,
    "open": (0.21642506757463686,) * 10
    + (0.18860208214765115,) * 3
    + (0.1303209498325079,) * 3
    + (0.07498810730927137,) * 3,
}


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_id_switch_category_assa_is_pinned(mode):
    gt, pred, bank = id_switch_category_inputs()
    rep = evaluate(gt, pred, bank, EvalConfig(mode=mode, geometry="box"))
    assert rep.splits["all"].per_alpha["AssA"] == PINNED_ID_SWITCH_ASSA[mode]


# ---------------------------------------------------------------------------
# evaluate: closed world


def make_two_category_inputs():
    """Category 1 (common) tracked perfectly; category 2 (uncommon) missed."""
    gt = [
        seq_tracks(
            [
                box_track(1, [(f, BOX) for f in range(4)], category_id=1),
                box_track(2, [(f, FAR) for f in range(4)], category_id=2),
            ]
        )
    ]
    pred = [
        seq_tracks([box_track(11, [(f, BOX) for f in range(4)], category_id=1, score=1.0)])
    ]
    return gt, pred, two_split_bank()


def test_closed_two_category_fixture_exact():
    gt, pred, bank = make_two_category_inputs()
    rep = evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))
    assert rep.splits["common"].combined == 1.0
    assert rep.splits["uncommon"].combined == 0.0
    assert rep.splits["all"].combined == 0.5  # mean_alpha sqrt(0.5 * 0.5)
    assert rep.splits["all"].det == 0.5
    assert rep.splits["all"].ass == 0.5
    per_cat = {c.category_id: c for c in rep.per_category}
    assert per_cat[1].combined == 1.0 and per_cat[1].split == "common"
    assert per_cat[2].combined == 0.0 and per_cat[2].split == "uncommon"


def test_closed_counts_and_loc():
    gt, pred, bank = make_two_category_inputs()
    rep = evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box", alphas=(0.5,)))
    s = rep.splits["all"]
    assert s.counts["tp"] == (4,)
    assert s.counts["fn"] == (4,)
    assert s.counts["fp"] == (0,)
    assert rep.splits["common"].loc == 1.0
    assert rep.splits["uncommon"].loc == 0.0  # no TPs: 0/0 := 0


def test_closed_report_invariant_combined_is_mean_sqrt():
    gt, pred, bank = make_two_category_inputs()
    rep = evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))
    for s in rep.splits.values():
        if s is None:
            continue
        name = "HOTA" if "HOTA" in s.per_alpha else "OWTA"
        det = np.array(s.per_alpha["DetA"])
        ass = np.array(s.per_alpha["AssA"])
        assert s.per_alpha[name] == tuple(np.sqrt(det * ass))
        assert s.combined == float(np.mean(np.sqrt(det * ass)))
        assert s.det == float(np.mean(det))
        assert s.ass == float(np.mean(ass))


def test_closed_cross_category_predictions_are_fps_in_their_own_pool():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)])]
    # right place, wrong label: classified as category 2
    pred = [seq_tracks([box_track(5, [(0, BOX)], category_id=2)])]
    rep = evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box", alphas=(0.5,)))
    # category 1 pool: 1 FN; category 2 has no gt anywhere so the stray
    # prediction is excluded from averaging entirely
    assert rep.splits["all"].combined == 0.0
    assert rep.splits["all"].counts["fp"] == (0,)
    assert rep.splits["uncommon"] is None


def test_closed_mode_requires_pred_categories():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)])]
    pred = [seq_tracks([box_track(2, [(0, BOX)])])]
    with pytest.raises(SchemaError, match="closed mode"):
        evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))


def test_gt_categories_always_required():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)])])]
    with pytest.raises(SchemaError, match="no category_id"):
        evaluate(gt, [], bank, EvalConfig(mode="open", geometry="box"))
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=77)])]
    with pytest.raises(SchemaError, match="unknown category_id"):
        evaluate(gt, [], bank, EvalConfig(mode="open", geometry="box"))


# ---------------------------------------------------------------------------
# evaluate: open world


def test_open_ignores_pred_labels():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX), (1, BOX)], category_id=1)])]
    pred_labeled = [seq_tracks([box_track(4, [(0, BOX), (1, BOX)], category_id=2)])]
    pred_unlabeled = [seq_tracks([box_track(4, [(0, BOX), (1, BOX)])])]
    cfg = EvalConfig(mode="open", geometry="box")
    a = evaluate(gt, pred_labeled, bank, cfg)
    b = evaluate(gt, pred_unlabeled, bank, cfg)
    assert a.splits["all"].combined == b.splits["all"].combined == 1.0


def test_open_split_filtering():
    bank = two_split_bank()
    gt = [
        seq_tracks(
            [
                box_track(1, [(f, BOX) for f in range(4)], category_id=1),
                box_track(2, [(f, FAR) for f in range(4)], category_id=2),
            ]
        )
    ]
    pred = [seq_tracks([box_track(9, [(f, BOX) for f in range(4)])])]
    rep = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box", alphas=(0.5,)))
    assert rep.splits["common"].combined == 1.0
    assert rep.splits["uncommon"].combined == 0.0
    # all: tp=4 of 8 gt detections -> DetRe 0.5, AssA 1 over the 4 TPs
    assert rep.splits["all"].det == 0.5
    assert rep.splits["all"].ass == 1.0
    assert rep.splits["all"].combined == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # FP count is class-agnostic: reported for all, absent per split
    assert rep.splits["all"].counts["fp"] == (0,)
    assert rep.splits["common"].counts["fp"] is None
    assert rep.splits["common"].counts["tp"] == (4,)
    assert rep.splits["uncommon"].counts["fn"] == (4,)


def test_open_has_no_loc():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)])]
    pred = [seq_tracks([box_track(2, [(0, BOX)])])]
    rep = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box"))
    assert rep.splits["all"].loc is None
    assert "LocA" not in rep.splits["all"].per_alpha


def test_open_pred_only_sequence_warns_and_counts_fp():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)], name="a")]
    pred = [
        seq_tracks([box_track(2, [(0, BOX)])], name="a"),
        seq_tracks([box_track(3, [(0, FAR)])], name="b"),
    ]
    rep = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box", alphas=(0.5,)))
    assert any("absent from ground truth" in w for w in rep.warnings)
    assert rep.splits["all"].counts["fp"] == (1,)
    assert rep.splits["all"].det == 1.0


def test_closed_pred_only_sequence_is_an_error():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)], name="a")]
    pred = [seq_tracks([box_track(2, [(0, BOX)], category_id=1)], name="b")]
    with pytest.raises(SchemaError, match="absent from ground truth"):
        evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))


# ---------------------------------------------------------------------------
# evaluate: input checking and edge cases


def test_duplicate_sequence_names_rejected():
    bank = two_split_bank()
    s = seq_tracks([box_track(1, [(0, BOX)], category_id=1)])
    with pytest.raises(SchemaError, match="duplicate sequence name"):
        evaluate([s, s], [], bank, EvalConfig(geometry="box"))


def test_meta_mismatch_rejected():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)], h=64)]
    pred = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)], h=32)]
    with pytest.raises(SchemaError, match="meta mismatch"):
        evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))


def test_zero_gt_reports_zeros_and_warns():
    bank = two_split_bank()
    pred = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)])]
    rep = evaluate([], pred, bank, EvalConfig(mode="open", geometry="box"))
    assert rep.splits["all"].combined == 0.0
    assert rep.splits["common"] is None
    assert rep.splits["uncommon"] is None
    assert rep.diagnostics["zero_gt"] is True
    assert any("zero tracks" in w for w in rep.warnings)


# Full canonical reports of a zero-gt evaluation (alphas 0.25, 0.5, 0.75).
_ZERO_GT_REPORTS = {
    "closed": (
        '{"alphas":[0.25,0.5,0.75],"category_averaging":"unweighted mean over categories with at '
        'least one gt track","diagnostics":{"box_fallback_pairs":0,"zero_gt":true},"geometry":"box",'
        '"mode":"closed","per_category":[],"splits":{"all":{"AssA":0,"DetA":0,"HOTA":0,"LocA":0,'
        '"counts":{"fn":[0,0,0],"fp":[0,0,0],"tp":[0,0,0]},"per_alpha":{"AssA":[0,0,0],'
        '"DetA":[0,0,0],"HOTA":[0,0,0],"LocA":[0,0,0]}},"common":null,"uncommon":null},'
        '"tie_break_weight":0.001,"warnings":["ground truth contains zero tracks; every metric is '
        'defined as 0"]}'
    ),
    "open": (
        '{"alphas":[0.25,0.5,0.75],"category_averaging":"unweighted mean over categories with at '
        'least one gt track","diagnostics":{"box_fallback_pairs":0,"zero_gt":true},"geometry":"box",'
        '"mode":"open","splits":{"all":{"AssA":0,"DetRe":0,"OWTA":0,'
        '"counts":{"fn":[0,0,0],"fp":[0,0,0],"tp":[0,0,0]},"per_alpha":{"AssA":[0,0,0],'
        '"DetRe":[0,0,0],"OWTA":[0,0,0]}},"common":null,"uncommon":null},'
        '"tie_break_weight":0.001,"warnings":["ground truth contains zero tracks; every metric is '
        'defined as 0"]}'
    ),
}


@pytest.mark.parametrize("mode", sorted(_ZERO_GT_REPORTS))
def test_zero_gt_report_is_pinned(mode):
    bank = two_split_bank()
    pred = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)])]
    cfg = EvalConfig(alphas=(0.25, 0.5, 0.75), mode=mode, geometry="box")
    rep = evaluate([seq_tracks([])], pred, bank, cfg)
    assert dumps_canonical(rep.to_jsonable()) == _ZERO_GT_REPORTS[mode]


def test_mask_geometry_uses_masks_when_present():
    bank = two_split_bank()
    h = w = 16

    def rect(x0, y0, rw, rh):
        g = np.zeros((h, w), dtype=bool)
        g[y0 : y0 + rh, x0 : x0 + rw] = True
        return rle_encode(g)

    # disjoint masks filed under the same box: box IoU 1, mask IoU 0
    left = rect(0, 0, 4, 8)
    right = rect(4, 0, 4, 8)
    gt = [
        SequenceTracks(
            meta=meta(h=h, w=w, n=1),
            tracks=[
                TrackRecord(
                    track_id=1,
                    observations=[
                        TrackObservation(frame=0, box=mask_to_box(left), mask=left)
                    ],
                    category_id=1,
                )
            ],
        )
    ]
    pred = [
        SequenceTracks(
            meta=meta(h=h, w=w, n=1),
            tracks=[
                TrackRecord(
                    track_id=1,
                    observations=[
                        TrackObservation(frame=0, box=mask_to_box(left), mask=right)
                    ],
                    category_id=1,
                )
            ],
        )
    ]
    cfg_mask = EvalConfig(mode="closed", geometry="mask", alphas=(0.5,))
    cfg_box = EvalConfig(mode="closed", geometry="box", alphas=(0.5,))
    assert evaluate(gt, pred, bank, cfg_mask).splits["all"].combined == 0.0
    assert evaluate(gt, pred, bank, cfg_box).splits["all"].combined == 1.0


def test_mask_geometry_falls_back_to_boxes_and_counts():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)], n=1)]
    pred = [seq_tracks([box_track(2, [(0, BOX)])], n=1)]
    rep = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="mask", alphas=(0.5,)))
    assert rep.splits["all"].combined == 1.0
    assert rep.diagnostics["box_fallback_pairs"] == 1
    rep_box = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box", alphas=(0.5,)))
    assert rep_box.diagnostics["box_fallback_pairs"] == 0
    # A maskless pair of different categories: closed mode never matches
    # it, so it is no fallback there.  The category-2 gt track on frame 1
    # keeps category 2 in the closed-mode averaging.
    gt = [
        seq_tracks(
            [box_track(1, [(0, BOX)], category_id=1), box_track(2, [(1, FAR)], category_id=2)],
            n=2,
        )
    ]
    pred = [seq_tracks([box_track(3, [(0, BOX)], category_id=2)], n=2)]
    for mode, fallbacks in (("closed", 0), ("open", 1)):
        rep = evaluate(gt, pred, bank, EvalConfig(mode=mode, geometry="mask", alphas=(0.5,)))
        assert rep.diagnostics["box_fallback_pairs"] == fallbacks, mode


# ---------------------------------------------------------------------------
# properties on random instances


_CROWDED_BOX = st.tuples(
    st.sampled_from([0, 2, 4]), st.sampled_from([0, 2, 4]),
    st.sampled_from([4, 6]), st.sampled_from([4, 6]),
)


def _draw_tracks(data, label, n_cats, min_size):
    out = []
    for tid in range(1, data.draw(st.integers(min_size, 4), label=f"{label} tracks") + 1):
        cat = data.draw(st.integers(1, n_cats), label=f"{label} {tid} category")
        frames = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        out.append(
            box_track(tid, [(f, data.draw(_CROWDED_BOX)) for f in sorted(frames)], category_id=cat)
        )
    return out


# One size per frame; no h * w is a multiple of 64, and the word counts
# differ (1, 1, 2, 3), so a sequence's masks pad to the widest.
_FRAME_SIZES = ((3, 5), (7, 9), (9, 8), (13, 11))


def _draw_mask(data, size):
    kind = data.draw(st.sampled_from(["none", "empty", "full", "random", "random"]))
    if kind == "none":
        return None
    if kind == "random":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        return rle_encode(rng.random(size) < rng.uniform(0.0, 1.0))
    return rle_encode(np.full(size, kind == "full"))


def _draw_masked_tracks(data, label, sizes, min_size):
    out = []
    for tid in range(1, data.draw(st.integers(min_size, 3), label=f"{label} tracks") + 1):
        # Frames from 0..5 with gaps.
        frames = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
        obs = [
            TrackObservation(
                frame=f, box=BBox(*map(float, data.draw(_CROWDED_BOX))), mask=_draw_mask(data, sizes[f])
            )
            for f in sorted(frames)
        ]
        out.append(TrackRecord(track_id=tid, observations=obs, category_id=data.draw(st.integers(1, 2))))
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_pool_matches_cell_by_cell_reference(data):
    sizes = data.draw(st.lists(st.sampled_from(_FRAME_SIZES), min_size=6, max_size=6), label="sizes")
    gt = _draw_masked_tracks(data, "gt", sizes, 1)
    pred = _draw_masked_tracks(data, "pred", sizes, 0)
    geometry = data.draw(st.sampled_from(["mask", "mask", "box"]), label="geometry")
    # 8 bytes scores each frame alone; the default, up to 256 KiB of masks.
    block_bytes = data.draw(st.sampled_from([8, metrics._CHUNK_BYTES]), label="block bytes")
    for same_category in (False, True):  # open mode, closed mode
        with mock.patch.object(metrics, "_CHUNK_BYTES", block_bytes):
            pool = _build_pool(gt, pred, geometry, same_category)
        want = pool_reference(gt, pred, geometry, same_category)
        for key in ("frame", "gt", "pred", "sim", "pair"):
            got = getattr(pool, key)
            assert got.dtype == (np.float64 if key == "sim" else np.int64), key
            assert got.tolist() == want[key], key  # exact, floats included
        assert pool.box_fallback_pairs == want["box_fallback_pairs"]


def _one_mask_track(track_id, frame_masks, category_id=1):
    obs = [TrackObservation(frame=f, box=BBox(0.0, 0.0, 2.0, 2.0), mask=m) for f, m in frame_masks]
    return TrackRecord(track_id=track_id, observations=obs, category_id=category_id)


def test_build_pool_sizes_may_differ_across_frames_not_within_one():
    small, big = RleMask((2, 2), (0, 4)), RleMask((3, 3), (0, 9))
    gt = [_one_mask_track(1, [(0, small), (1, big)])]
    pred = [_one_mask_track(1, [(0, small), (1, big)])]
    for same_category in (False, True):
        pool = _build_pool(gt, pred, "mask", same_category)
        assert pool.sim.tolist() == [1.0, 1.0] == pool_reference(gt, pred, "mask")["sim"]
    message = "mask size mismatch: (2, 2) vs (3, 3)"
    cases = [
        # a gt and a pred mask of one frame
        ([_one_mask_track(1, [(0, small)])], [_one_mask_track(1, [(0, big)])]),
        # two gt masks of one frame, no pred mask there
        ([_one_mask_track(1, [(0, small)]), _one_mask_track(2, [(0, big)])], [_one_mask_track(1, [(0, None)])]),
        # a pair of two categories, which closed mode never scores
        ([_one_mask_track(1, [(0, small)], 1)], [_one_mask_track(1, [(0, big)], 2)]),
    ]
    for gt, pred in cases:
        for same_category in (False, True):
            with pytest.raises(ValueError) as err:
                _build_pool(gt, pred, "mask", same_category)
            assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        mask_iou_matrix([small], [small, big])
    assert str(err.value) == message


def test_build_pool_counts_sum_mismatch_keeps_the_decode_message():
    bad = RleMask((2, 2), (1, 2))
    message = "rle decode: counts sum to 3 pixels, expected 4 for size (2, 2)"
    good = RleMask((2, 2), (0, 4))
    for gt_mask, pred_mask in ((bad, good), (good, bad)):
        with pytest.raises(ValueError) as err:
            _build_pool([_one_mask_track(1, [(0, gt_mask)])], [_one_mask_track(1, [(0, pred_mask)])], "mask")
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            mask_iou_matrix([gt_mask], [pred_mask])
        assert str(err.value) == message


def test_build_pool_packs_a_block_of_masks_not_the_whole_sequence():
    # 160 masks of 720 x 1280 pack to 18 MB; the pool build holds a block of
    # about 256 KiB of them at a time, plus one frame's.
    h, w = 720, 1280

    def track(track_id, x0):
        obs = [
            TrackObservation(frame=f, box=BBox(x0, 100.0, 200.0, 300.0),
                             mask=rect_mask_reference(h, w, x0 + f, 100, 200, 300))
            for f in range(40)
        ]
        return TrackRecord(track_id=track_id, observations=obs, category_id=1)

    gt, pred = [track(1, 100), track(2, 600)], [track(1, 110), track(2, 610)]
    tracemalloc.start()
    try:
        pool = _build_pool(gt, pred, "mask")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert pool.sim.tolist() == pool_reference(gt, pred, "mask")["sim"]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_closed_per_category_matches_oracle_on_its_own_tracks(data):
    # Boxes from a small grid overlap across categories, so a pair of
    # different categories often clears alpha on geometry alone; closed
    # mode must still score each category as if the others were absent.
    n_cats = data.draw(st.integers(2, 3), label="categories")
    bank = CategoryBank(
        [
            CategoryEntry(category_id=c, name=f"cat{c}", split=("common", "uncommon")[c % 2],
                          prototype=np.eye(3)[c - 1])
            for c in range(1, n_cats + 1)
        ]
    )
    gt = _draw_tracks(data, "gt", n_cats, 1)
    pred = _draw_tracks(data, "pred", n_cats, 0)
    alpha = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7]), label="alpha")
    rep = evaluate(
        [seq_tracks(gt)], [seq_tracks(pred)], bank,
        EvalConfig(mode="closed", geometry="box", alphas=(alpha,)),
    )
    assert [c.category_id for c in rep.per_category] == sorted({t.category_id for t in gt})
    for scores in rep.per_category:
        cat = scores.category_id
        want = hota_oracle(
            [t for t in gt if t.category_id == cat], [t for t in pred if t.category_id == cat], alpha
        )
        assert scores.det == want["det_a"]
        assert scores.ass == pytest.approx(want["ass_a"], rel=1e-12, abs=1e-15)
        assert scores.combined == pytest.approx(want["hota"], rel=1e-12, abs=1e-15)


def random_pool(rng, max_tracks=3, max_frames=5):
    def tracks(prefix):
        out = []
        for tid in range(1, int(rng.integers(1, max_tracks + 1)) + 1):
            frames = sorted(
                rng.choice(max_frames, size=int(rng.integers(1, max_frames + 1)), replace=False)
            )
            obs = [
                (int(f), tuple(rng.uniform(0, 20, 2)) + tuple(rng.uniform(2, 12, 2)))
                for f in frames
            ]
            out.append(box_track(tid, obs))
        return out

    return tracks("g"), tracks("p")


def test_detre_never_below_deta():
    rng = np.random.default_rng(123)
    for _ in range(60):
        gt, pred = random_pool(rng)
        for alpha in (0.1, 0.4, 0.7):
            det_c, ass_c, _ = hota_alpha(gt, pred, alpha, mode="closed", geometry="box")
            det_o, ass_o, _ = hota_alpha(gt, pred, alpha, mode="open", geometry="box")
            assert det_o >= det_c
            assert ass_o == ass_c  # association does not depend on the mode


def test_scores_in_unit_interval():
    rng = np.random.default_rng(321)
    for _ in range(40):
        gt, pred = random_pool(rng)
        for alpha in (0.2, 0.5, 0.8):
            for mode in ("closed", "open"):
                det, ass, comb = hota_alpha(gt, pred, alpha, mode=mode, geometry="box")
                assert 0.0 <= det <= 1.0
                assert 0.0 <= ass <= 1.0
                assert 0.0 <= comb <= 1.0


def test_pred_id_relabeling_is_invariant():
    rng = np.random.default_rng(55)
    for _ in range(40):
        gt, pred = random_pool(rng)
        relabeled = [
            TrackRecord(
                track_id=1000 - t.track_id,  # reverses the order
                observations=t.observations,
                category_id=t.category_id,
                score=t.score,
            )
            for t in pred
        ]
        for alpha in (0.3, 0.6):
            a = hota_alpha(gt, pred, alpha, mode="closed", geometry="box")
            b = hota_alpha(gt, relabeled, alpha, mode="closed", geometry="box")
            # det is count arithmetic (exact); ass re-sums the same terms in
            # a different order, so allow the last ulp
            assert b[0] == a[0]
            assert b[1] == pytest.approx(a[1], rel=1e-12)
            assert b[2] == pytest.approx(a[2], rel=1e-12)


def test_far_fp_track_open_invariant_closed_never_improves():
    rng = np.random.default_rng(99)
    for _ in range(30):
        gt, pred = random_pool(rng)
        fp = box_track(999, [(f, (500, 500, 5, 5)) for f in range(3)])
        for alpha in (0.25, 0.5):
            base_o = hota_alpha(gt, pred, alpha, mode="open", geometry="box")
            with_o = hota_alpha(gt, pred + [fp], alpha, mode="open", geometry="box")
            assert with_o == base_o
            base_c = hota_alpha(gt, pred, alpha, mode="closed", geometry="box")
            with_c = hota_alpha(gt, pred + [fp], alpha, mode="closed", geometry="box")
            assert with_c[0] <= base_c[0]
            assert with_c[2] <= base_c[2]


def test_evaluate_deterministic_repeat():
    gt, pred, bank = make_two_category_inputs()
    cfg = EvalConfig(mode="closed", geometry="box")
    a = evaluate(gt, pred, bank, cfg).to_jsonable()
    b = evaluate(gt, pred, bank, cfg).to_jsonable()
    assert a == b


# ---------------------------------------------------------------------------
# report formatting


def test_closed_table_layout():
    gt, pred, bank = make_two_category_inputs()
    rep = evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))
    table = rep.format_table(row_label="ours")
    lines = table.splitlines()
    header = lines[0].split()
    assert header == [
        "HOTAall", "DETAall", "AssAall",
        "HOTAcom", "DETAcom", "AssAcom",
        "HOTAunc", "DETAunc", "AssAunc",
    ]
    row = lines[1].split()
    assert row[0] == "ours"
    assert row[1:] == ["50.0", "50.0", "50.0", "100.0", "100.0", "100.0", "0.0", "0.0", "0.0"]
    assert lines[2].startswith("LocA:")


def test_open_table_layout():
    bank = two_split_bank()
    gt = [seq_tracks([box_track(1, [(0, BOX)], category_id=1)])]
    pred = [seq_tracks([box_track(2, [(0, BOX)])])]
    rep = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box"))
    lines = rep.format_table().splitlines()
    assert lines[0].split() == [
        "OWTAall", "DETReall", "AssAall",
        "OWTAcom", "DETRecom", "AssAcom",
        "OWTAunc", "DETReunc", "AssAunc",
    ]
    cells = lines[1].split()
    assert cells[-3:] == ["-", "-", "-"]  # no uncommon gt: null split
    assert len(lines) == 2  # no LocA line in open mode


def test_report_jsonable_shape():
    gt, pred, bank = make_two_category_inputs()
    rep = evaluate(gt, pred, bank, EvalConfig(mode="closed", geometry="box"))
    obj = rep.to_jsonable()
    assert obj["mode"] == "closed"
    assert obj["tie_break_weight"] == 0.001
    assert set(obj["splits"]) == {"all", "common", "uncommon"}
    assert obj["splits"]["all"]["HOTA"] == 0.5
    assert len(obj["splits"]["all"]["per_alpha"]["HOTA"]) == 19
    assert {c["category_id"] for c in obj["per_category"]} == {1, 2}

    rep_o = evaluate(gt, pred, bank, EvalConfig(mode="open", geometry="box"))
    obj_o = rep_o.to_jsonable()
    assert "OWTA" in obj_o["splits"]["all"]
    assert "per_category" not in obj_o
