import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack.assignment import hungarian_max

from oracles import assignment_oracle


def test_frozen_two_by_two():
    assert hungarian_max(np.array([[0.9, 0.1], [0.2, 0.8]])) == [(0, 0), (1, 1)]


def test_prefers_total_score_over_diagonal():
    # 0.1 + 0.8 = 0.9 < 0.9 + 0.2 = 1.1 via the anti-diagonal
    assert hungarian_max(np.array([[0.1, 0.9], [0.2, 0.1]])) == [(0, 1), (1, 0)]


def test_zero_scores_matched_for_cardinality():
    assert hungarian_max(np.zeros((2, 2))) == [(0, 0), (1, 1)]


def test_negative_scores_never_matched():
    assert hungarian_max(np.array([[-1.0]])) == []
    assert hungarian_max(np.array([[-0.5, -0.1], [-0.2, -0.8]])) == []


def test_mixed_signs():
    got = hungarian_max(np.array([[0.5, -1.0], [-1.0, 0.0]]))
    assert got == [(0, 0), (1, 1)]  # the 0.0 cell rides along for cardinality


def test_cardinality_breaks_score_ties():
    # both {(0,1),(1,0)} and {(0,0)} ... total 2.0 needs two pairs here
    got = hungarian_max(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert got == [(0, 1), (1, 0)]


def test_lexicographic_breaks_full_ties():
    got = hungarian_max(np.ones((2, 2)))
    assert got == [(0, 0), (1, 1)]


def test_lexicographic_on_uniform_rectangles():
    assert hungarian_max(np.ones((2, 3))) == [(0, 0), (1, 1)]
    assert hungarian_max(np.ones((3, 2))) == [(0, 0), (1, 1)]


def test_feasibility_mask_is_hard():
    scores = np.array([[10.0, 0.1], [0.2, 10.0]])
    feasible = np.array([[False, True], [True, False]])
    assert hungarian_max(scores, feasible) == [(0, 1), (1, 0)]


def test_all_infeasible_gives_empty():
    assert hungarian_max(np.ones((3, 3)), np.zeros((3, 3), dtype=bool)) == []


def test_empty_matrices():
    assert hungarian_max(np.zeros((0, 5))) == []
    assert hungarian_max(np.zeros((5, 0))) == []


def test_single_row_and_column_fast_paths():
    assert hungarian_max(np.array([[0.1, 0.9, 0.5]])) == [(0, 1)]
    assert hungarian_max(np.array([[0.1], [0.9], [0.5]])) == [(1, 0)]


def test_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError, match="2-D"):
        hungarian_max(np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        hungarian_max(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="finite"):
        hungarian_max(np.array([[np.nan]]))


def test_infeasible_cells_may_be_nonfinite():
    scores = np.array([[np.inf, 0.5]])
    feasible = np.array([[False, True]])
    assert hungarian_max(scores, feasible) == [(0, 1)]


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for trial in range(400):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        kind = trial % 4
        if kind == 0:
            scores = rng.random((n, m))
        elif kind == 1:
            scores = rng.integers(0, 4, (n, m)) / 4.0  # tie-heavy lattice
        elif kind == 2:
            scores = rng.random((n, m)) * 2.0 - 0.5  # negatives in the mix
        else:
            scores = np.full((n, m), 0.5)  # everything ties
        feasible = rng.random((n, m)) < rng.uniform(0.2, 1.0)
        got = hungarian_max(scores, feasible)
        want = assignment_oracle(scores.tolist(), feasible.tolist())
        assert got == want, (scores, feasible)


def test_output_is_a_matching_and_feasible():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        scores = rng.random((n, m))
        feasible = rng.random((n, m)) < 0.5
        pairs = hungarian_max(scores, feasible)
        assert pairs == sorted(pairs)
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        assert all(feasible[i, j] for i, j in pairs)


def test_deterministic_across_calls():
    rng = np.random.default_rng(10)
    scores = rng.integers(0, 3, (6, 6)) / 2.0
    feasible = rng.random((6, 6)) < 0.7
    first = hungarian_max(scores, feasible)
    assert all(hungarian_max(scores, feasible) == first for _ in range(5))


_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, -0.25, 0.25, 0.5, 1.0]),
    st.floats(-1.0, 1.0, allow_nan=False, width=32),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_feasibility_with_single_cells_matches_oracle(data):
    # Sparse gates leave a mix of lone cells (peeled before the component
    # search) and larger components; ties and signed zeros probe the
    # cardinality and lexicographic rules on both paths.
    n = data.draw(st.integers(1, 8), label="rows")
    m = data.draw(st.integers(1, 8), label="cols")
    density = data.draw(st.floats(0.05, 0.35), label="density")
    draws = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n * m, max_size=n * m))
    feasible = np.array(draws).reshape(n, m) < density
    scores = np.array(data.draw(st.lists(_SCORES, min_size=n * m, max_size=n * m))).reshape(n, m)
    assert hungarian_max(scores, feasible) == assignment_oracle(scores, feasible)
