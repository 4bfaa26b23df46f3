import numpy as np
import pytest

from letrack.association import Diagnostics
from letrack.classification import (
    CategoryBank,
    CategoryEntry,
    classify_detection,
    track_label,
    vote,
    vote_fraction,
)
from letrack.core import TrackState

from helpers import two_split_bank, unit


def make_track(votes: dict[int, int] | None = None) -> TrackState:
    return TrackState(
        track_id=1,
        app_emb_smoothed=np.zeros(2),
        last_frame=0,
        observations=[],
        category_votes=dict(votes or {}),
    )


# ---------------------------------------------------------------------------
# bank


def test_bank_sorts_and_indexes():
    bank = CategoryBank(
        [
            CategoryEntry(category_id=5, name="b", split="uncommon", prototype=unit(0, 1)),
            CategoryEntry(category_id=2, name="a", split="common", prototype=unit(1, 0)),
        ]
    )
    assert bank.ids() == [2, 5]
    assert len(bank) == 2
    assert 2 in bank and 5 in bank and 3 not in bank
    assert bank.get(5).name == "b"
    assert bank.split_of(2) == "common"
    assert bank.ids_in_split("uncommon") == [5]
    ids, protos = bank.prototype_matrix()
    assert list(ids) == [2, 5]
    assert protos.shape == (2, 2)
    assert bank.prototype_matrix()[1] is protos  # built once per bank
    assert not ids.flags.writeable and not protos.flags.writeable


def test_bank_rejects_duplicate_ids():
    e = CategoryEntry(category_id=1, name="x", split="common", prototype=unit(1, 0))
    with pytest.raises(ValueError, match="duplicate"):
        CategoryBank([e, e])


def test_bank_rejects_unknown_split():
    with pytest.raises(ValueError, match="split"):
        CategoryBank(
            [CategoryEntry(category_id=1, name="x", split="rare", prototype=unit(1, 0))]
        )


def test_bank_rejects_non_unit_prototype():
    with pytest.raises(ValueError, match="norm"):
        CategoryBank(
            [
                CategoryEntry(
                    category_id=1,
                    name="x",
                    split="common",
                    prototype=np.array([1.0, 1.0]),
                )
            ]
        )


def test_bank_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        CategoryBank(
            [
                CategoryEntry(category_id=1, name="x", split="common", prototype=unit(1, 0)),
                CategoryEntry(category_id=2, name="y", split="common", prototype=unit(1, 0, 0)),
            ]
        )


def test_prototype_matrix_requires_all_prototypes():
    bank = CategoryBank([CategoryEntry(category_id=1, name="x", split="common", prototype=None)])
    with pytest.raises(ValueError, match="prototype"):
        bank.prototype_matrix()


# ---------------------------------------------------------------------------
# classification


def test_classify_frozen():
    cid, sim = classify_detection(np.array([0.8, 0.6]), two_split_bank())
    assert cid == 1
    assert sim == pytest.approx(0.8, abs=1e-12)


def test_classify_normalizes_input_scale():
    big_cid, big_sim = classify_detection(np.array([80.0, 60.0]), two_split_bank())
    cid, sim = classify_detection(np.array([0.8, 0.6]), two_split_bank())
    assert big_cid == cid
    assert big_sim == pytest.approx(sim, abs=1e-12)


def test_classify_tie_goes_to_smallest_id():
    cid, sim = classify_detection(unit(1, 1), two_split_bank())
    assert cid == 1
    assert sim == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_classify_zero_norm_picks_smallest_with_zero_sim():
    diag = Diagnostics()
    cid, sim = classify_detection(np.zeros(2), two_split_bank(), diag)
    assert (cid, sim) == (1, 0.0)
    assert diag.zero_norm_cls_emb == 1


def test_classify_rejects_empty_bank_and_dim_mismatch():
    with pytest.raises(ValueError, match="empty"):
        classify_detection(np.ones(2), CategoryBank([]))
    with pytest.raises(ValueError, match="dimension"):
        classify_detection(np.ones(3), two_split_bank())


# ---------------------------------------------------------------------------
# voting


def test_vote_accumulates():
    t = make_track()
    vote(t, 3)
    vote(t, 3)
    vote(t, 1)
    assert t.category_votes == {3: 2, 1: 1}


def test_track_label_majority():
    assert track_label(make_track({2: 3, 7: 1})) == 2


def test_track_label_tie_smallest_id():
    assert track_label(make_track({9: 2, 4: 2})) == 4


def test_track_label_requires_votes():
    with pytest.raises(ValueError, match="has no votes"):
        track_label(make_track())


def test_vote_fraction():
    assert vote_fraction(make_track({2: 3, 7: 1})) == 0.75
    assert vote_fraction(make_track({5: 4})) == 1.0
