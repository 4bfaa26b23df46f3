"""Exact maximum-score bipartite assignment with pinned tie-breaking.

``assign_cells`` solves the assignment over a sparse list of feasible
cells, each a (row key, column key, score) triple; ``hungarian_max`` is the
dense-matrix form and passes its feasible cells to it.  The chosen matching

1. maximizes the total score over the feasible pairs,
2. among score-optimal matchings has the largest cardinality, and
3. among those is lexicographically smallest when its pairs are sorted
   by (row, column).

Floating-point solvers cannot promise (2) and (3), and near-ties make their
output depend on summation order, so the solve here is exact.  Every float
is a dyadic rational; a component's scores are rescaled onto a common
power-of-two denominator, giving integers whose sums compare exactly like
the real score sums.  The preference rules are then folded into the low
bits: each selected cell contributes a cardinality bit and a distinct
lexicographic bit, with the score shifted far enough left that any nonzero
score difference dominates all preference bits combined.  Distinct
matchings always differ in their lexicographic bits, so the encoded optimum
is unique and any optimal solver must return it.

The feasibility graph falls apart into independent connected components,
and a cell list may hold many independent problems at once (one per frame,
say).  In tracking workloads the gating makes the graph extremely sparse,
so most components are single cells: those are decided by one vectorised
rule.  The rest are labelled by vectorised min-label propagation.  A star
(one row or one column) matches at most one cell, so stars are decided by
a second vectorised rule, as lone cells are.  Every other component's
cells are encoded in array passes over all of them at once, and each such
component then goes through one exact solve: a rows x cols Hungarian
method (shortest augmenting paths) that assigns every node of the shorter
side, O(n^2 m) for n <= m.  Negative cells are dropped from it, so every
encoded weight left is positive and a zero in the cost matrix can stand for
"unmatched": no dummy rows or columns are needed, and the assignment's real
cells are the unique optimal matching.
"""

from __future__ import annotations

import math

import numpy as np

from .core import InternalInvariantError

__all__ = ["assign_cells", "hungarian_max"]


def hungarian_max(
    scores: np.ndarray, feasible: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """Solve the assignment on an (N, M) score matrix.

    Args:
        scores: real-valued score matrix, rows index one side (detections /
            ground-truth tracks), columns the other.
        feasible: optional boolean matrix of the same shape; infeasible
            pairs can never be matched.  Defaults to all-feasible.

    Returns:
        The selected pairs as (row, column) tuples, sorted by row.  The
        empty matching is valid output: a pair with negative score is never
        taken, one with zero score is taken only when it does not displace
        positive score (cardinality preference).
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {s.shape}")
    n, m = s.shape
    if feasible is None:
        feas = np.ones((n, m), dtype=bool)
    else:
        feas = np.asarray(feasible, dtype=bool)
        if feas.shape != (n, m):
            raise ValueError(f"feasible shape {feas.shape} does not match scores shape {s.shape}")
    if n == 0 or m == 0 or not feas.any():
        return []
    if not np.all(np.isfinite(s[feas])):
        raise ValueError("feasible scores must all be finite")
    # The row and column indices are already dense ids, as assign_cells
    # would make them; np.nonzero is row-major, so the pairs come out
    # sorted by row.
    rows, cols = np.nonzero(feas)
    take = _assign_dense(rows, cols, n, m, s[rows, cols])
    return list(zip(rows[take].tolist(), cols[take].tolist()))


def assign_cells(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Solve the assignment over a sparse list of feasible cells.

    Cell k joins row key ``rows[k]`` and column key ``cols[k]`` with score
    ``scores[k]``.  The keys are integers that need not be contiguous, so
    one call may hold many independent problems (rows keyed by frame and gt
    track, say).  The result equals ``hungarian_max`` on the dense matrix
    whose rows and columns are the sorted distinct keys, with every other
    cell infeasible.  Keys of any non-integer dtype (float, bool, string)
    are rejected; empty input is accepted whatever its dtype.

    Returns:
        A boolean mask over the cells, true for the chosen ones.
    """
    r = np.asarray(rows)
    c = np.asarray(cols)
    s = np.asarray(scores, dtype=np.float64)
    if r.ndim != 1 or c.ndim != 1 or s.ndim != 1:
        raise ValueError(f"rows, cols and scores must be 1-D, got {r.ndim}, {c.ndim}, {s.ndim} dims")
    if not len(r) == len(c) == len(s):
        raise ValueError(f"rows, cols and scores differ in length: {len(r)}, {len(c)}, {len(s)}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must all be finite")
    if len(s) == 0:
        return np.zeros(0, dtype=bool)
    for name, keys in (("rows", r), ("cols", c)):
        if not np.issubdtype(keys.dtype, np.integer):
            raise ValueError(f"{name} must hold integer keys, got dtype {keys.dtype}")
    row_keys, ri = np.unique(r, return_inverse=True)
    col_keys, ci = np.unique(c, return_inverse=True)
    return _assign_dense(ri, ci, len(row_keys), len(col_keys), s)


def _assign_dense(
    ri: np.ndarray, ci: np.ndarray, n_rows: int, n_cols: int, s: np.ndarray
) -> np.ndarray:
    """``assign_cells`` on row ids in [0, n_rows) and column ids in [0, n_cols).

    The ids order rows and columns as their keys do.
    """
    take = np.zeros(len(s), dtype=bool)
    # A cell alone in its row and its column is a component of its own: it
    # is taken iff its score is >= 0 (a zero-score cell is pure cardinality
    # gain, a negative one only lowers the total), which is exactly what the
    # general rules reduce to for 1x1 components.  A duplicate cell shares
    # its row, so it is never lone and is caught below.
    lone = (np.bincount(ri)[ri] == 1) & (np.bincount(ci)[ci] == 1)
    take[lone] = s[lone] >= 0.0
    rest = np.flatnonzero(~lone)
    if len(rest) == 0:
        return take

    # Components by min-label propagation over row nodes [0, n_rows) and
    # column nodes [n_rows, n_rows + n_cols).  Every label is a node of its
    # own component and never exceeds it, so the pointer jump keeps both
    # properties; the loop ends once every edge joins equal labels.
    rr, cc = ri[rest], ci[rest] + n_rows
    label = np.arange(n_rows + n_cols)
    while True:
        low = np.minimum(label[rr], label[cc])
        np.minimum.at(label, rr, low)
        np.minimum.at(label, cc, low)
        label = label[label]
        comp = label[rr]
        if np.array_equal(comp, label[cc]):
            break

    # Sorted by (component, row, column), each component's cells are
    # contiguous and row-major.  Sorted by (component, column) they fill the
    # same ranges, so one pass over each order ranks every cell's row and
    # column among the distinct ones of its component.
    order = np.lexsort((cc, rr, comp))
    comp, rr, cc, cell = comp[order], rr[order], cc[order], rest[order]
    same_comp = comp[1:] == comp[:-1]
    same_row = same_comp & (rr[1:] == rr[:-1])
    if np.any(same_row & (cc[1:] == cc[:-1])):
        raise ValueError("cells must be distinct, got a duplicate (row, col) cell")
    first = np.concatenate(([True], ~same_comp))
    seg = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    i_loc = _local_rank(same_row, seg, starts)
    by_col = np.lexsort((cc, comp))
    cc_by_col = cc[by_col]
    j_loc = np.empty_like(i_loc)
    j_loc[by_col] = _local_rank(same_comp & (cc_by_col[1:] == cc_by_col[:-1]), seg, starts)

    rows = np.maximum.reduceat(i_loc, starts) + 1
    cols = np.maximum.reduceat(j_loc, starts) + 1
    sc = s[cell]

    # A star takes its best cell if that scores >= 0, ties to the first in
    # row-major order (0.0 and -0.0 tie): the general rules reduced to it.
    wide = np.minimum(rows, cols) > 1
    k = np.flatnonzero(~wide[seg])
    k = k[np.lexsort((k, -sc[k], seg[k]))]
    best = k[np.diff(seg[k], prepend=-1) != 0]
    take[cell[best[sc[best] >= 0.0]]] = True

    # The encoding, from high to low bits: [scaled score][cardinality bit]
    # [lex bit].  With R = rows * cols, cell rank r = i * cols + j adds 2**R
    # for being matched and 2**(R - 1 - r) for its place; the lex bits sum
    # to < 2**R.  A score is mant * 2**ex with mant * 2**53 an exact int64:
    # over its component's least ex it is that int shifted left by
    # ex - ex_min, then past the largest preference sum (frexp of the
    # shorter side gives its bit_length).
    mant, ex = np.frexp(sc)
    r_total = rows * cols
    width = r_total + np.frexp(np.minimum(rows, cols))[1] + 1
    lift = ex - np.minimum.reduceat(ex, starts)[seg] + width[seg]
    rank = i_loc * cols[seg] + j_loc
    # A cell's key, its rank past every earlier component's ranks, grows
    # along the sorted cells, so a chosen cell is found from its key.
    offset = np.cumsum(r_total) - r_total
    key = offset[seg] + rank
    # A negative cell only lowers any sum it joins: it stays out of the cost.
    solve = wide[seg] & (sc >= 0.0)
    weight = [
        -((m << a) + (1 << t) + (1 << (t - 1 - r)))
        for m, a, t, r in zip(
            np.ldexp(mant[solve], 53).astype(np.int64).tolist(), lift[solve].tolist(),
            r_total[seg[solve]].tolist(), rank[solve].tolist(),
        )
    ]
    i_list, j_list = i_loc[solve].tolist(), j_loc[solve].tolist()
    bounds = np.cumsum(np.add.reduceat(solve, starts)[wide]).tolist()
    chosen: list[int] = []
    for lo, hi, n, m, off in zip(
        [0, *bounds], bounds, rows[wide].tolist(), cols[wide].tolist(), offset[wide].tolist()
    ):
        # The shorter side's nodes are the rows; every real cost is < 0, so
        # the best row-perfect assignment, restricted to real cells, is the
        # best matching, and the encoding makes that matching unique.
        a, b = (j_list, i_list) if n > m else (i_list, j_list)
        cost = [[0] * max(n, m) for _ in range(min(n, m))]
        for c in range(lo, hi):
            cost[a[c]][b[c]] = weight[c]
        col_of_row = _min_cost_assignment(cost)
        # One column per row makes the chosen cells distinct, with distinct
        # rows and columns.
        if len(set(col_of_row)) < len(col_of_row):
            raise InternalInvariantError("assignment gave two rows one column")
        chosen += [off + (y * m + x if n > m else x * m + y) for x, y in enumerate(col_of_row) if cost[x][y]]
    take[cell[np.searchsorted(key, chosen)]] = True
    return take


def _local_rank(same_as_prev: np.ndarray, seg: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Rank of each sorted cell's key among the distinct keys of its component.

    ``same_as_prev[k]`` says cell k + 1 has cell k's key in the same
    component; ``seg`` maps each cell to its component and ``starts`` holds
    each component's first position.
    """
    rank = np.cumsum(np.concatenate(([True], ~same_as_prev))) - 1
    return rank - rank[starts][seg]


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Min-cost assignment of every row of an n x m integer matrix, n <= m.

    Shortest augmenting paths with row and column potentials, the
    rectangular form of Jonker & Volgenant (Computing 1987) that Crouse
    (IEEE TAES 2016) gives: one Dijkstra-like search per row, O(n^2 m) in
    all.  Runs on arbitrary-precision integers, so it is exact.  Returns,
    for each row, the column it is assigned to.

    With n <= m a free column always remains, so every search ends; its
    first scan reaches every column, so no ``inf`` enters the potentials.
    """
    n, m = len(cost), len(cost[0])
    u, v = [0] * n, [0] * m
    col_of_row, row_of_col = [-1] * n, [-1] * m
    prev = [0] * m  # the row before each column on its shortest path
    for start in range(n):
        dist = [math.inf] * m  # shortest reduced path cost to each column
        todo = list(range(m))  # columns not yet settled
        settled = []
        i, d = start, 0
        while True:
            row, base = cost[i], d - u[i]
            best, j_best = math.inf, -1
            for j in todo:
                r = base + row[j] - v[j]
                if r < dist[j]:
                    dist[j], prev[j] = r, i
                    if r < best:
                        best, j_best = r, j
                elif dist[j] < best:
                    best, j_best = dist[j], j
            todo.remove(j_best)
            settled.append(j_best)
            d = best
            i = row_of_col[j_best]
            if i < 0:
                break
        u[start] += d
        for j in settled:
            gain = d - dist[j]
            v[j] -= gain
            if row_of_col[j] >= 0:
                u[row_of_col[j]] += gain
        j = j_best
        while True:
            i = prev[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == start:
                break
    return col_of_row
