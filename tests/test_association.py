import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack.association import (
    Diagnostics,
    Tracker,
    TrackerConfig,
    bisoftmax_scores,
    cem_gate,
    run_sequence,
    track_sequence,
)
from letrack.classification import classify_detection, track_label, vote_fraction
from letrack.core import TrackState, TrackStatus
from letrack.synth import SynthConfig, generate

from helpers import det, meta, two_split_bank, unit
from oracles import ReferenceTracker


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    cfg = TrackerConfig()
    assert cfg.match_threshold == 0.5
    assert cfg.new_track_threshold == 0.7
    assert cfg.cem_gate_threshold == 0.5
    assert cfg.embedding_momentum == 0.8
    assert cfg.max_lost_frames == 10


def test_config_validates_ranges():
    with pytest.raises(ValueError, match="match_threshold"):
        TrackerConfig(match_threshold=0.0)
    with pytest.raises(ValueError, match="cem_gate_threshold"):
        TrackerConfig(cem_gate_threshold=1.5)
    with pytest.raises(ValueError, match="max_lost_frames"):
        TrackerConfig(max_lost_frames=-1)


def test_config_from_mapping():
    cfg = TrackerConfig.from_mapping({"match_threshold": "0.4", "max_lost_frames": "3"})
    assert cfg.match_threshold == 0.4
    assert cfg.max_lost_frames == 3
    with pytest.raises(ValueError, match="unknown tracker config key"):
        TrackerConfig.from_mapping({"bogus": "1"})


def test_config_from_mapping_rejects_values_of_the_wrong_type():
    with pytest.raises(ValueError, match="invalid literal for int"):
        TrackerConfig.from_mapping({"max_lost_frames": "1.5"})
    with pytest.raises(ValueError, match="could not convert string to float"):
        TrackerConfig.from_mapping({"match_threshold": "high"})


# ---------------------------------------------------------------------------
# scoring primitives


def test_bisoftmax_single_pair_is_one():
    s = bisoftmax_scores(np.array([[3.0, 1.0]]), np.array([[0.1, 0.2]]))
    assert s.shape == (1, 1)
    assert s[0, 0] == 1.0


def test_bisoftmax_orthonormal_frozen():
    embs = np.eye(2)
    s = bisoftmax_scores(embs, embs)
    e = math.e
    assert s[0, 0] == pytest.approx(e / (e + 1), abs=1e-12)
    assert s[1, 1] == pytest.approx(e / (e + 1), abs=1e-12)
    assert s[0, 1] == pytest.approx(1 / (e + 1), abs=1e-12)


def test_bisoftmax_uses_raw_dots_no_normalization():
    # Scaling the embeddings must sharpen the softmax; a cosine-style score
    # would be scale invariant.
    embs = np.eye(2)
    mild = bisoftmax_scores(embs, embs)[0, 0]
    sharp = bisoftmax_scores(embs * 6.0, embs * 6.0)[0, 0]
    assert sharp > mild
    assert sharp == pytest.approx(1.0, abs=1e-9)


def test_bisoftmax_total_mass():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(4, 8))
    k = rng.normal(size=(6, 8))
    s = bisoftmax_scores(q, k)
    assert s.shape == (4, 6)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    # average of a row-stochastic and a column-stochastic matrix
    assert float(s.sum()) == pytest.approx((4 + 6) / 2, abs=1e-9)


def test_bisoftmax_huge_dots_are_stable():
    q = np.array([[1e6, 0.0]])
    k = np.array([[1e6, 0.0], [0.0, 1e6]])
    s = bisoftmax_scores(q, k)
    assert np.all(np.isfinite(s))
    assert s[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_bisoftmax_empty_and_errors():
    assert bisoftmax_scores(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)
    assert bisoftmax_scores(np.zeros((3, 4)), np.zeros((0, 4))).shape == (3, 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        bisoftmax_scores(np.zeros((1, 3)), np.zeros((1, 4)))


def test_cem_gate_frozen():
    g = cem_gate(np.array([[0.8, 0.6]]), np.array([[1.0, 0.0]]), 0.5)
    assert g.dtype == bool and bool(g[0, 0])
    g = cem_gate(np.array([[0.8, 0.6]]), np.array([[1.0, 0.0]]), 0.9)
    assert not bool(g[0, 0])


def test_cem_gate_is_scale_invariant():
    a = cem_gate(np.array([[0.8, 0.6]]), np.array([[2.0, 0.0]]), 0.5)
    b = cem_gate(np.array([[8.0, 6.0]]), np.array([[0.5, 0.0]]), 0.5)
    assert bool(a[0, 0]) and bool(b[0, 0])


def test_cem_gate_zero_norm_closes_and_counts():
    diag = Diagnostics()
    g = cem_gate(np.zeros((2, 3)), np.ones((1, 3)), 0.1, diag)
    assert not g.any()
    assert diag.zero_norm_cls_emb == 2
    diag2 = Diagnostics()
    cem_gate(np.zeros((1, 2)), np.zeros((1, 2)), 0.5, diag2)
    assert diag2.zero_norm_cls_emb == 2  # one per zero vector, either side


def test_cem_gate_nonpositive_threshold_passes_zero_sim():
    g = cem_gate(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.0)
    assert bool(g[0, 0])  # cosine 0 >= 0


def test_update_embedding_frozen():
    # A matched track's embedding becomes the EMA of its own and the
    # detection's: one Tracker step per momentum.
    for momentum, want in ((0.5, [0.5, 0.5]), (0.0, [1.0, 0.0]), (1.0, [0.0, 1.0])):
        tr = Tracker(TrackerConfig(embedding_momentum=momentum))
        tr.step(0, [det(0, app=(1.0, 0.0), objectness=0.9)])
        fa = tr.step(1, [det(1, app=(0.0, 1.0))])
        assert [(i, track_id) for i, track_id, _ in fa.matches] == [(0, 1)]
        assert np.array_equal(tr.tracks[0].app_emb_smoothed, np.array(want))


# ---------------------------------------------------------------------------
# tracker lifecycle


APP_A = tuple(6.0 * v for v in (1.0, 0.0, 0.0))
APP_B = tuple(6.0 * v for v in (0.0, 1.0, 0.0))
CLS_X = (1.0, 0.0)
CLS_Y = (0.0, 1.0)


def test_spawn_requires_objectness():
    tr = Tracker()
    fa = tr.step(0, [det(0, objectness=0.69, app=APP_A, cls=CLS_X)])
    assert fa.new_tracks == ()
    assert tr.tracks == []
    fa = tr.step(1, [det(1, objectness=0.7, app=APP_A, cls=CLS_X)])
    assert fa.new_tracks == ((0, 1),)


def test_ids_monotonic_from_one():
    tr = Tracker()
    tr.step(0, [det(0, app=APP_A, cls=CLS_X, objectness=0.9)])
    tr.step(1, [])
    tr.step(
        2,
        [
            det(2, app=APP_B, cls=CLS_Y, objectness=0.9, box=(20, 20, 5, 5)),
        ],
    )
    assert [t.track_id for t in tr.tracks] == [1, 2]


def test_match_updates_state_and_ema():
    tr = Tracker(TrackerConfig(embedding_momentum=0.5))
    tr.step(0, [det(0, app=(2.0, 0.0), cls=CLS_X, objectness=0.9)])
    fa = tr.step(1, [det(1, app=(0.0, 2.0), cls=CLS_X)])
    # single det vs single track: bi-softmax is exactly 1.0, cem cos 1.0
    assert len(fa.matches) == 1
    i, track_id, score = fa.matches[0]
    assert (i, track_id) == (0, 1)
    assert score == 1.0
    track = tr.tracks[0]
    assert track.status is TrackStatus.ACTIVE
    assert track.last_frame == 1
    assert len(track.observations) == 2
    assert np.array_equal(track.app_emb_smoothed, np.array([1.0, 1.0]))


def test_cem_gate_blocks_cross_class_match():
    tr = Tracker()
    tr.step(0, [det(0, app=APP_A, cls=CLS_X, objectness=0.9)])
    # same appearance, orthogonal class embedding: gate closes, new track
    fa = tr.step(1, [det(1, app=APP_A, cls=CLS_Y, objectness=0.9)])
    assert fa.matches == ()
    assert fa.new_tracks == ((0, 2),)
    assert fa.unmatched_tracks == (1,)


def test_lost_then_dead_counts_real_frames():
    tr = Tracker(TrackerConfig(max_lost_frames=2))
    tr.step(0, [det(0, app=APP_A, cls=CLS_X, objectness=0.9)])
    track = tr.tracks[0]
    tr.step(1, [])
    assert track.status is TrackStatus.LOST
    tr.step(2, [])
    assert track.status is TrackStatus.LOST  # 2 - 0 == max_lost_frames
    tr.step(3, [])
    assert track.status is TrackStatus.DEAD  # 3 - 0 > max_lost_frames


def test_lost_track_is_matchable_through_its_final_frame():
    tr = Tracker(TrackerConfig(max_lost_frames=2))
    tr.step(0, [det(0, app=APP_A, cls=CLS_X, objectness=0.9)])
    tr.step(1, [])
    tr.step(2, [])
    # frame 3 would kill it, but death is decided after matching
    fa = tr.step(3, [det(3, app=APP_A, cls=CLS_X)])
    assert len(fa.matches) == 1
    assert tr.tracks[0].status is TrackStatus.ACTIVE
    assert tr.tracks[0].last_frame == 3


def test_dead_track_is_never_matched_again():
    tr = Tracker(TrackerConfig(max_lost_frames=1))
    tr.step(0, [det(0, app=APP_A, cls=CLS_X, objectness=0.9)])
    tr.step(1, [])
    tr.step(2, [])
    assert tr.tracks[0].status is TrackStatus.DEAD
    fa = tr.step(3, [det(3, app=APP_A, cls=CLS_X, objectness=0.9)])
    assert fa.matches == ()
    assert fa.new_tracks == ((0, 2),)


def test_reid_restores_active_status():
    tr = Tracker(TrackerConfig(max_lost_frames=5))
    tr.step(0, [det(0, app=APP_A, cls=CLS_X, objectness=0.9)])
    tr.step(1, [])
    assert tr.tracks[0].status is TrackStatus.LOST
    fa = tr.step(2, [det(2, app=APP_A, cls=CLS_X)])
    assert len(fa.matches) == 1
    assert tr.tracks[0].status is TrackStatus.ACTIVE
    assert len(tr.tracks) == 1


def test_two_object_association_by_appearance():
    tr = Tracker()
    tr.step(
        0,
        [
            det(0, app=APP_A, cls=CLS_X, objectness=0.9, box=(0, 0, 5, 5)),
            det(0, app=APP_B, cls=CLS_X, objectness=0.9, box=(20, 0, 5, 5)),
        ],
    )
    # swap the detection order; identity must follow the embeddings
    fa = tr.step(
        1,
        [
            det(1, app=APP_B, cls=CLS_X, box=(21, 0, 5, 5)),
            det(1, app=APP_A, cls=CLS_X, box=(1, 0, 5, 5)),
        ],
    )
    assert sorted((i, tid) for i, tid, _ in fa.matches) == [(0, 2), (1, 1)]


def test_step_rejects_out_of_order_and_mislabeled_frames():
    tr = Tracker()
    tr.step(3, [])
    with pytest.raises(ValueError, match="out-of-order"):
        tr.step(3, [])
    with pytest.raises(ValueError, match="carries frame_index"):
        tr.step(4, [det(7)])


def test_match_score_meets_threshold():
    rng = np.random.default_rng(0)
    tr = Tracker()
    for frame in range(8):
        dets = [
            det(
                frame,
                app=tuple(6.0 * unit(*rng.normal(size=4))),
                cls=CLS_X,
                objectness=0.9,
                box=(rng.uniform(0, 50), 0, 5, 5),
            )
            for _ in range(int(rng.integers(0, 4)))
        ]
        fa = tr.step(frame, dets)
        for _, _, score in fa.matches:
            assert score >= tr.cfg.match_threshold
        det_idx = [i for i, _, _ in fa.matches] + [i for i, _ in fa.new_tracks]
        assert len(det_idx) == len(set(det_idx))


def test_voting_with_bank():
    bank = two_split_bank()
    tr = Tracker(bank=bank)
    tr.step(0, [det(0, app=APP_A, cls=(0.9, 0.1), objectness=0.9)])
    tr.step(1, [det(1, app=APP_A, cls=(0.8, 0.2))])
    # cosine vs the previous observation is ~0.78, so the class gate stays
    # open, but the nearest prototype flips to category 2
    tr.step(2, [det(2, app=APP_A, cls=(0.6, 0.8))])
    assert len(tr.tracks) == 1
    track = tr.tracks[0]
    assert track.category_votes == {1: 2, 2: 1}


def test_tracker_without_bank_casts_no_votes():
    tr = Tracker()
    tr.step(0, [det(0, app=APP_A, cls=CLS_X, objectness=0.9)])
    assert tr.tracks[0].category_votes == {}


# ---------------------------------------------------------------------------
# run_sequence


def test_run_sequence_steps_every_frame():
    m = meta(n=6)
    frames = {0: [det(0, app=APP_A, cls=CLS_X, objectness=0.9)]}
    tracks = run_sequence(m, frames, TrackerConfig(max_lost_frames=2))
    assert len(tracks) == 1
    # frames 1..5 were stepped with no detections: 5 - 0 > 2 means dead
    assert tracks[0].status is TrackStatus.DEAD


def test_run_sequence_accepts_pairs_and_validates_range():
    m = meta(n=4)
    tracks = run_sequence(m, [(1, [det(1, app=APP_A, cls=CLS_X, objectness=0.9)])])
    assert len(tracks) == 1
    with pytest.raises(ValueError, match="out of range"):
        run_sequence(m, {4: []})


def test_run_sequence_returns_dead_and_alive():
    m = meta(n=10)
    frames = {
        0: [det(0, app=APP_A, cls=CLS_X, objectness=0.9)],
        9: [det(9, app=APP_B, cls=CLS_Y, objectness=0.9)],
    }
    tracks = run_sequence(m, frames, TrackerConfig(max_lost_frames=3))
    assert len(tracks) == 2
    assert tracks[0].status is TrackStatus.DEAD
    assert tracks[1].status is TrackStatus.ACTIVE


def test_track_sequence_records_match_run_sequence():
    res = generate(SynthConfig(seed=2, num_frames=12, p_drop=0.2, p_fp=0.3, cls_noise_sigma=0.3))
    (seq,) = res.detections
    states = run_sequence(seq.meta, [(fr.index, fr.detections) for fr in seq.frames], bank=res.bank)

    labeled, diagnostics = track_sequence(seq, bank=res.bank)
    assert isinstance(diagnostics, Diagnostics)
    assert labeled.meta == seq.meta
    assert [(r.track_id, r.category_id, r.score) for r in labeled.tracks] == [
        (st.track_id, track_label(st), vote_fraction(st)) for st in states
    ]
    assert [[(o.frame, o.box, o.mask) for o in r.observations] for r in labeled.tracks] == [
        [(f, d.box, d.mask) for f, d in st.observations] for st in states
    ]

    unlabeled, _ = track_sequence(seq)
    assert [r.track_id for r in unlabeled.tracks] == [st.track_id for st in states]
    assert all(r.category_id is None and r.score is None for r in unlabeled.tracks)


def test_tracker_is_deterministic():
    rng = np.random.default_rng(17)
    frames = {}
    for f in range(10):
        frames[f] = [
            det(
                f,
                app=tuple(6.0 * unit(*rng.normal(size=6))),
                cls=tuple(unit(*rng.normal(size=4))),
                objectness=float(rng.uniform(0.5, 1.0)),
                box=(float(rng.uniform(0, 50)), 0, 5, 5),
            )
            for _ in range(int(rng.integers(0, 5)))
        ]
    m = meta(n=10)

    def snapshot():
        out = []
        for t in run_sequence(m, frames):
            out.append(
                (
                    t.track_id,
                    t.status,
                    t.last_frame,
                    tuple(f for f, _ in t.observations),
                    t.app_emb_smoothed.tobytes(),
                )
            )
        return out

    assert snapshot() == snapshot()


# ---------------------------------------------------------------------------
# the row pool against the per-row reference


def _state(t: TrackState) -> tuple:
    return (
        t.track_id,
        t.status,
        t.last_frame,
        t.category_votes,
        [(f, id(d)) for f, d in t.observations],
        t.app_emb_smoothed.dtype,
        t.app_emb_smoothed.shape,
        t.app_emb_smoothed.tobytes(),
    )


@settings(max_examples=150, deadline=None)
@given(
    synth=st.builds(
        SynthConfig,
        seed=st.integers(0, 2**20),
        num_frames=st.integers(1, 14),
        num_tracks=st.integers(0, 7),
        num_categories=st.integers(1, 5),
        p_drop=st.sampled_from([0.0, 0.2, 0.6]),
        p_fp=st.sampled_from([0.0, 0.3, 1.0]),
        app_noise_sigma=st.sampled_from([0.0, 0.2, 1.0]),
        cls_noise_sigma=st.sampled_from([0.0, 0.05, 0.5]),
        app_emb_dim=st.integers(1, 8),
        cls_emb_dim=st.integers(1, 6),
    ),
    cfg=st.builds(
        TrackerConfig,
        match_threshold=st.sampled_from([0.05, 0.3, 0.5, 0.9]),
        new_track_threshold=st.sampled_from([0.0, 0.5, 0.7, 1.0]),
        cem_gate_threshold=st.sampled_from([-1.0, 0.0, 0.5, 0.9]),
        embedding_momentum=st.sampled_from([0.0, 1.0, 0.8, 0.3]),
        max_lost_frames=st.integers(0, 3),
    ),
    with_bank=st.booleans(),
)
def test_tracker_matches_the_per_row_reference(synth, cfg, with_bank):
    res = generate(synth)
    (seq,) = res.detections
    bank = res.bank if with_bank else None
    frames = {fr.index: fr.detections for fr in seq.frames}
    fast, ref = Tracker(cfg, bank), ReferenceTracker(cfg, bank)
    for f in range(seq.meta.num_frames):
        dets = frames.get(f, [])
        assert fast.step(f, dets) == ref.step(f, dets)
    assert [_state(t) for t in fast.tracks] == [_state(t) for t in ref.tracks]
    assert fast.diagnostics == ref.diagnostics


def test_zero_norm_class_embeddings_count_as_the_reference_does():
    frames = [
        [det(0, app=APP_A, cls=(0.0, 0.0)), det(0, app=APP_B, cls=CLS_Y)],
        [det(1, app=APP_A, cls=(0.0, 0.0)), det(1, app=APP_B, cls=(0.0, 0.0))],
    ]
    cfg = TrackerConfig(cem_gate_threshold=-1.0)
    fast, ref = Tracker(cfg, two_split_bank()), ReferenceTracker(cfg, two_split_bank())
    for f, dets in enumerate(frames):
        assert fast.step(f, dets) == ref.step(f, dets)
    assert fast.diagnostics == ref.diagnostics
    assert fast.diagnostics.zero_norm_cls_emb > 0
    assert [t.category_votes for t in fast.tracks] == [t.category_votes for t in ref.tracks]


# ---------------------------------------------------------------------------
# embedding dimensions


def test_new_dimensions_are_accepted_once_every_track_has_died():
    cfg = TrackerConfig(max_lost_frames=0)
    tr = Tracker(cfg)
    tr.step(0, [det(0, app=APP_A, cls=CLS_X)])
    tr.step(1, [])
    assert [t.status for t in tr.tracks] == [TrackStatus.DEAD]
    wide_app, wide_cls = (0.0, 0.0, 0.0, 6.0), (0.0, 0.0, 1.0)
    fa = tr.step(2, [det(2, app=wide_app, cls=wide_cls)])
    assert fa.new_tracks == ((0, 2),)
    fa = tr.step(3, [det(3, app=wide_app, cls=wide_cls)])
    assert [tid for _, tid, _ in fa.matches] == [2]
    assert tr.tracks[1].app_emb_smoothed.shape == (4,)


def test_a_dimension_mismatch_against_a_live_pool_raises():
    tr = Tracker()
    tr.step(0, [det(0, app=APP_A, cls=CLS_X)])
    with pytest.raises(ValueError, match="embedding dimension mismatch: 4 vs 3"):
        tr.step(1, [det(1, app=(0.0, 0.0, 0.0, 6.0), cls=CLS_X)])
    tr = Tracker()
    tr.step(0, [det(0, app=APP_A, cls=CLS_X)])
    with pytest.raises(ValueError, match="embedding dimension mismatch: 3 vs 2"):
        tr.step(1, [det(1, app=APP_A, cls=(1.0, 0.0, 0.0))])


def test_a_bank_dimension_mismatch_raises_classify_detections_message():
    bank = two_split_bank()
    wide = det(0, app=APP_A, cls=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError) as expected:
        classify_detection(wide.cls_emb, bank)
    with pytest.raises(ValueError) as got:
        Tracker(bank=bank).step(0, [wide])
    assert str(got.value) == str(expected.value)
