import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack import assignment
from letrack.assignment import assign_cells, hungarian_max

from oracles import assignment_oracle, solve_component_reference


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


# Scores that probe the array encoding: signed zeros, subnormals, and
# binary exponents more than 64 apart (1.0 beside 2**-80), whose mantissas
# shifted onto one denominator outgrow int64.
_EDGE_SCORES = [0.0, -0.0, 5e-324, 2.2e-308, -5e-324, 2.0**-80, -(2.0**-80), 1.0 + 2.0**-52]

_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, -0.25, 0.25, 0.5, 1.0]),
    st.sampled_from(_EDGE_SCORES),
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


# ---------------------------------------------------------------------------
# assign_cells: sparse cells with many independent problems


def _chosen(rows, cols, scores):
    take = assign_cells(np.array(rows), np.array(cols), np.array(scores))
    return sorted((r, c) for r, c, t in zip(rows, cols, take.tolist()) if t)


def _dense_cells(scores, feasible, row_keys, col_keys):
    """Feasible cells of a dense block as (row key, col key, score) triples."""
    return [
        (row_keys[i], col_keys[j], float(scores[i][j]))
        for i in range(len(row_keys))
        for j in range(len(col_keys))
        if feasible[i][j]
    ]


_TIE_SCORES = st.sampled_from([0.0, -0.0, -0.25, 0.25, 0.5, 1.0, *_EDGE_SCORES])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_assign_cells_blocks_match_oracle(data):
    # Independent blocks whose keys interleave with gaps (the pools are
    # drawn in no order), cells in shuffled order: each block must be solved
    # as if it were alone, with its rows and columns ranked by key.
    block = st.tuples(st.integers(1, 6), st.integers(1, 6))
    shapes = data.draw(st.lists(block, min_size=1, max_size=4), label="shapes")
    n_rows, n_cols = sum(n for n, _ in shapes), sum(m for _, m in shapes)
    row_pool = data.draw(st.lists(st.integers(-500, 500), min_size=n_rows, max_size=n_rows, unique=True))
    col_pool = data.draw(st.lists(st.integers(0, 10**9), min_size=n_cols, max_size=n_cols, unique=True))
    cells, want = [], []
    for n, m in shapes:
        row_keys, row_pool = sorted(row_pool[:n]), row_pool[n:]
        col_keys, col_pool = sorted(col_pool[:m]), col_pool[m:]
        density = data.draw(st.floats(0.2, 1.0), label="density")
        feasible = [[data.draw(st.floats(0.0, 1.0)) < density for _ in range(m)] for _ in range(n)]
        if data.draw(st.booleans(), label="equal scores"):
            scores = [[data.draw(_TIE_SCORES)] * m] * n
        else:
            scores = [[data.draw(_TIE_SCORES) for _ in range(m)] for _ in range(n)]
        cells += _dense_cells(scores, feasible, row_keys, col_keys)
        want += [(row_keys[i], col_keys[j]) for i, j in assignment_oracle(scores, feasible)]
    cells = data.draw(st.permutations(cells), label="order")
    rows, cols, scores = (list(v) for v in zip(*cells)) if cells else ([], [], [])
    assert _chosen(rows, cols, scores) == sorted(want)


def _spy_solver(monkeypatch) -> list[tuple[int, int]]:
    """The (rows, cols) shape of every exact solve from here on."""
    calls = []
    solve = assignment._min_cost_assignment

    def spy(cost):
        calls.append((len(cost), len(cost[0])))
        return solve(cost)

    monkeypatch.setattr(assignment, "_min_cost_assignment", spy)
    return calls


@pytest.mark.parametrize("k", [2, 5])
def test_assign_cells_single_row_and_single_column_components(k, monkeypatch):
    # Stars are decided by one vectorised rule: none reaches the solver.
    calls = _spy_solver(monkeypatch)
    scores = [0.25, 1.0, -0.25, 1.0, 0.5][:k]
    keys = [3 * j + 7 for j in range(k)]
    want = assignment_oracle([scores], [[True] * k])
    assert _chosen([4] * k, keys, scores) == [(4, keys[j]) for _, j in want]
    want = assignment_oracle([[v] for v in scores], [[True]] * k)
    assert _chosen(keys, [4] * k, scores) == [(keys[i], 4) for i, _ in want]
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_assign_cells_star_blocks_match_oracle(data):
    # Only 1 x k and k x 1 blocks with interleaved keys, tie-heavy scores,
    # signed zeros and negative cells: each takes its best cell if that is
    # >= 0, ties to the first, and no block reaches the solver.
    star = st.integers(2, 9).flatmap(lambda k: st.sampled_from([(1, k), (k, 1)]))
    shapes = data.draw(st.lists(star, min_size=1, max_size=5), label="shapes")
    n_rows, n_cols = sum(n for n, _ in shapes), sum(m for _, m in shapes)
    row_pool = data.draw(st.permutations(range(2 * n_rows)), label="row keys")
    col_pool = data.draw(st.permutations(range(2 * n_cols)), label="col keys")
    cells, want = [], []
    for n, m in shapes:
        row_keys, row_pool = sorted(row_pool[:n]), row_pool[n:]
        col_keys, col_pool = sorted(col_pool[:m]), col_pool[m:]
        scores = [[data.draw(_TIE_SCORES) for _ in range(m)] for _ in range(n)]
        feasible = [[True] * m for _ in range(n)]
        cells += _dense_cells(scores, feasible, row_keys, col_keys)
        want += [(row_keys[i], col_keys[j]) for i, j in assignment_oracle(scores, feasible)]
    cells = data.draw(st.permutations(cells), label="order")
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_solver(mp)
        assert _chosen(*zip(*cells)) == sorted(want)
    assert calls == []


def test_assign_cells_full_block_takes_the_exact_solver(monkeypatch):
    # A dense 5 x 5 block is one component, solved by one rows x cols call
    # of the rectangular solver; tie-heavy scores probe its tie-break.
    calls = _spy_solver(monkeypatch)
    rng = np.random.default_rng(5)
    scores = rng.choice([0.0, 0.25, 0.5, 1.0], (5, 5))
    feasible = np.ones((5, 5), dtype=bool)
    row_keys, col_keys = [2, 3, 5, 8, 13], [60, 70, 80, 90, 100]
    cells = _dense_cells(scores, feasible, row_keys, col_keys)
    want = [(row_keys[i], col_keys[j]) for i, j in assignment_oracle(scores, feasible)]
    assert _chosen(*zip(*cells)) == want
    assert calls == [(5, 5)]


# Square blocks up to 40 wide and skinny ones, beyond what the brute-force
# oracle can reach; the square-padded solver in oracles is the reference.
_WIDE = st.one_of(
    st.integers(1, 40).map(lambda k: (k, k)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.integers(1, 3), st.integers(30, 40)),
    st.tuples(st.integers(30, 40), st.integers(1, 3)),
)


def _wide_block(data, shape):
    """Feasible cells of a random block as row-major (row, col, score) triples.

    Scores come from a short drawn palette, so ties are common.
    """
    palette = data.draw(st.lists(_SCORES, min_size=1, max_size=12), label="palette")
    density = data.draw(st.floats(0.05, 1.0), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows, cols = np.nonzero(rng.random(shape) < density)
    picks = rng.integers(0, len(palette), len(rows))
    return [(i, j, palette[k]) for i, j, k in zip(rows.tolist(), cols.tolist(), picks.tolist())]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_wide_components_match_the_square_reference(data):
    # The block's local ranks are its keys.  The optimum is unique, so
    # assign_cells splitting the block into components cannot change it.
    n, m = data.draw(_WIDE, label="shape")
    cells = _wide_block(data, (n, m))
    got = _chosen(*zip(*cells)) if cells else []
    want = solve_component_reference(cells, n, m) if cells else []
    assert got == sorted(cells[k][:2] for k in want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_assign_cells_wide_blocks_match_the_square_reference(data):
    # Several wide blocks with interleaved keys, their cells shuffled
    # together: each block is solved as if it were alone.
    shapes = data.draw(st.lists(_WIDE, min_size=2, max_size=4), label="shapes")
    n_rows, n_cols = sum(n for n, _ in shapes), sum(m for _, m in shapes)
    row_pool = data.draw(st.permutations(range(2 * n_rows)), label="row keys")
    col_pool = data.draw(st.permutations(range(3 * n_cols)), label="col keys")
    cells, want = [], []
    for n, m in shapes:
        row_keys, row_pool = sorted(row_pool[:n]), row_pool[n:]
        col_keys, col_pool = sorted(col_pool[:m]), col_pool[m:]
        block = _wide_block(data, (n, m))
        cells += [(row_keys[i], col_keys[j], v) for i, j, v in block]
        for k in solve_component_reference(block, n, m) if block else []:
            want.append((row_keys[block[k][0]], col_keys[block[k][1]]))
    seed = data.draw(st.integers(0, 2**32 - 1), label="order seed")
    cells = [cells[k] for k in np.random.default_rng(seed).permutation(len(cells))]
    rows, cols, scores = (list(v) for v in zip(*cells)) if cells else ([], [], [])
    assert _chosen(rows, cols, scores) == sorted(want)


def test_assign_cells_empty_input():
    take = assign_cells(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    assert take.dtype == bool and take.shape == (0,)


def test_assign_cells_rejects_bad_input():
    with pytest.raises(ValueError, match="1-D"):
        assign_cells(np.zeros((2, 1), np.int64), np.zeros(2, np.int64), np.zeros(2))
    with pytest.raises(ValueError, match="1-D"):
        assign_cells(np.zeros(2, np.int64), np.zeros(2, np.int64), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="length"):
        assign_cells(np.arange(3), np.arange(2), np.zeros(3))
    with pytest.raises(ValueError, match="length"):
        assign_cells(np.arange(2), np.arange(2), np.zeros(3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            assign_cells(np.arange(2), np.arange(2), np.array([0.5, bad]))
    with pytest.raises(ValueError, match="duplicate"):
        assign_cells(np.array([0, 1, 0]), np.array([4, 4, 4]), np.array([0.5, 0.5, 0.25]))
    # Keys must be integers: two NaN rows would otherwise merge into one.
    good = np.array([1, 2])
    for bad in ([np.nan, np.nan], [0.0, 1.0], [True, False], ["a", "b"], np.array([1, 2], dtype=object)):
        bad = np.asarray(bad)
        with pytest.raises(ValueError, match=f"rows .*dtype {bad.dtype}"):
            assign_cells(bad, good, np.array([0.5, 0.9]))
        with pytest.raises(ValueError, match=f"cols .*dtype {bad.dtype}"):
            assign_cells(good, bad, np.array([0.5, 0.9]))
