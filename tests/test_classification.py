import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack.association import Diagnostics, cem_gate
from letrack.classification import (
    CategoryBank,
    CategoryEntry,
    classify_detection,
    nearest_prototypes,
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


# Entries 0 or of magnitude in [2**-21, 1): times any 2**k with |k| <= 1000
# each stays a normal double, so a scaled row is exact.
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, sign: sign * m * 2.0**e,
              st.floats(0.5, 1.0, exclude_max=True), st.integers(-20, 0), st.sampled_from([1.0, -1.0])),
)
# Scales anywhere, and near the edges of the plain norm's range, where rows
# leave (2**-500, 2**500) and their squares turn subnormal or overflow.
_POW2 = st.one_of(st.integers(-1000, 1000), st.integers(-560, -480), st.integers(480, 560))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cosines_ignore_a_power_of_two_scale(data):
    """Labels, similarities and gate decisions of rows scaled by 2**k equal
    the unscaled ones, also where the plain norm overflows or underflows."""
    dim = data.draw(st.integers(1, 6))
    row = st.lists(_ENTRY, min_size=dim, max_size=dim).filter(any)
    bank = _bank([unit(*p) for p in data.draw(st.lists(row, min_size=1, max_size=4))])
    dets = np.array(data.draw(st.lists(row, min_size=1, max_size=5)))
    tracks = np.array(data.draw(st.lists(row, min_size=1, max_size=5)))
    k, j = data.draw(_POW2), data.draw(_POW2)
    for emb in dets:
        diag = Diagnostics()
        assert classify_detection(emb * 2.0**k, bank, diag) == classify_detection(emb, bank)
        assert diag.zero_norm_cls_emb == 0
    threshold = data.draw(st.floats(-1.0, 1.0))
    diag = Diagnostics()
    gate = cem_gate(dets * 2.0**k, tracks * 2.0**j, threshold, diag)
    assert np.array_equal(gate, cem_gate(dets, tracks, threshold))
    assert diag.zero_norm_cls_emb == 0


def test_only_zero_rows_count_as_zero_norm():
    bank = two_split_bank()
    for emb, want in (([5e-324, 0.0], (1, 1.0)), ([0.0, 1e308], (2, 1.0)), ([1e308, 1e308], (1, unit(1, 1)[0]))):
        diag = Diagnostics()
        assert classify_detection(np.array(emb), bank, diag) == want
        assert diag.zero_norm_cls_emb == 0
    diag = Diagnostics()
    gate = cem_gate(np.array([[0.0, 0.0], [5e-324, 0.0]]), np.array([[1e308, 0.0], [0.0, 0.0]]), 0.5, diag)
    assert gate.tolist() == [[False, False], [True, False]]
    assert diag.zero_norm_cls_emb == 2


# ---------------------------------------------------------------------------
# batched nearest prototype


def _labels_with_fallback(embs: np.ndarray, bank: CategoryBank, diag: Diagnostics) -> list[int]:
    """The tracker's use of ``nearest_prototypes``: undecided rows go through
    ``classify_detection``."""
    labels, decided = nearest_prototypes(embs, bank)
    for k in np.flatnonzero(~decided):
        labels[k], _ = classify_detection(embs[k], bank, diag)
    return labels


def _bank(protos) -> CategoryBank:
    return CategoryBank(
        [CategoryEntry(c + 1, f"c{c + 1}", "common", np.asarray(p)) for c, p in enumerate(protos)]
    )


def test_nearest_prototypes_decides_separated_rows():
    bank = _bank(np.eye(3))
    embs = np.array([[0.9, 0.1, 0.0], [0.0, -2.0, 5.0], [0.2, 0.7, 0.1]])
    labels, decided = nearest_prototypes(embs, bank)
    assert labels == [1, 3, 2]
    assert decided.tolist() == [True, True, True]
    assert isinstance(labels[0], int)


def test_nearest_prototypes_leaves_ties_zero_rows_and_extreme_norms():
    bank = _bank(np.eye(2))
    tie, near_tie = [1.0, 1.0], [1.0, np.nextafter(1.0, 2.0)]
    embs = np.array([tie, near_tie, [0.0, 0.0], [2.0**-510, 0.0], [2.0**510, 0.0], [3.0, 1.0]])
    labels, decided = nearest_prototypes(embs, bank)
    assert decided.tolist() == [False, False, False, False, False, True]
    assert labels[-1] == 1
    diag = Diagnostics()
    assert _labels_with_fallback(embs, bank, diag) == [1, 2, 1, 1, 1, 1]
    assert diag.zero_norm_cls_emb == 1


def test_nearest_prototypes_leaves_every_row_of_a_wrong_dimension_or_empty_bank():
    for bank in (two_split_bank(3), CategoryBank([])):
        labels, decided = nearest_prototypes(np.ones((4, 2)), bank)
        assert not decided.any() and len(labels) == 4


# Norms past both ends of the batched range, down to rows whose plain norm
# underflows to 0 and up to rows whose sum of squares overflows.
_SCALES = [1.0, 1e-5, 1e5, 1e150, 2.0**505, 1e-160, 2.0**-520, 1e-200, 1e-300, 1e300]


def _nudge(p: np.ndarray, data) -> np.ndarray:
    """``p`` with one component moved by 1 to 4 ulp."""
    q = p.copy()
    i = data.draw(st.integers(0, len(q) - 1))
    toward = data.draw(st.sampled_from([np.inf, -np.inf]))
    for _ in range(data.draw(st.integers(1, 4))):
        q[i] = np.nextafter(q[i], toward)
    return q


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_nearest_prototypes_with_fallback_matches_classify_detection(data):
    dim = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def fresh() -> np.ndarray:
        v = rng.normal(size=dim)
        return v / np.linalg.norm(v)

    protos = [fresh()]
    for _ in range(data.draw(st.integers(0, 5))):
        kind = data.draw(st.sampled_from(["fresh", "copy", "ulp"]))
        base = protos[data.draw(st.integers(0, len(protos) - 1))]
        protos.append(fresh() if kind == "fresh" else base.copy() if kind == "copy" else _nudge(base, data))
    order = data.draw(st.permutations(range(len(protos))))
    bank = _bank([protos[i] for i in order])

    rows = []
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["proto", "between", "near", "random", "zero"]))
        a, b = (protos[data.draw(st.integers(0, len(protos) - 1))] for _ in range(2))
        row = {
            "proto": a,
            "between": a + b,  # exactly tied between a and b, if both are unit
            "near": _nudge(a, data),
            "random": rng.normal(size=dim),
            "zero": np.zeros(dim),
        }[kind]
        rows.append(row * data.draw(st.sampled_from(_SCALES)))
    embs = np.array(rows)

    got_diag, want_diag = Diagnostics(), Diagnostics()
    got = _labels_with_fallback(embs, bank, got_diag)
    want = [classify_detection(row, bank, want_diag)[0] for row in embs]
    assert got == want
    assert got_diag == want_diag


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
