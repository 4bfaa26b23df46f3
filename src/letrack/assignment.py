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
rule.  The rest are labelled by vectorised min-label propagation, and only
then does each component go through the exact solve, which is O(n^3) only
on the rare dense cluster.
"""

from __future__ import annotations

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
    cell infeasible.

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

    ends = np.append(starts[1:], len(cell))
    n_loc_rows = (i_loc[ends - 1] + 1).tolist()
    n_loc_cols = (np.maximum.reduceat(j_loc, starts) + 1).tolist()
    i_list, j_list, s_list = i_loc.tolist(), j_loc.tolist(), s[cell].tolist()
    chosen: list[int] = []
    for k, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        cells = list(zip(i_list[lo:hi], j_list[lo:hi], s_list[lo:hi]))
        chosen.extend(lo + x for x in _solve_component(cells, n_loc_rows[k], n_loc_cols[k]))
    take[cell[chosen]] = True
    return take


def _local_rank(same_as_prev: np.ndarray, seg: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Rank of each sorted cell's key among the distinct keys of its component.

    ``same_as_prev[k]`` says cell k + 1 has cell k's key in the same
    component; ``seg`` maps each cell to its component and ``starts`` holds
    each component's first position.
    """
    rank = np.cumsum(np.concatenate(([True], ~same_as_prev))) - 1
    return rank - rank[starts][seg]


def _encode_cells(
    cells: list[tuple[int, int, float]], n_rows: int, n_cols: int
) -> list[int]:
    """Map each feasible cell's score to the exact preference-carrying integer.

    Layout, from high to low bits: [scaled score][cardinality bit][lex bit].
    With R = n_rows * n_cols ranks, cell rank r contributes 2**R for being
    matched at all and 2**(R - 1 - r) for its position; the sum of every lex
    bit is < 2**R, so one extra matched cell beats any lex rearrangement,
    and the score is shifted left past the largest possible preference sum.
    """
    r_total = n_rows * n_cols
    k = min(n_rows, n_cols)
    shift = r_total + k.bit_length() + 1
    ratios = [float(v).as_integer_ratio() for (_, _, v) in cells]
    common_den = max(den for _, den in ratios)
    out = []
    for (i_loc, j_loc, _), (num, den) in zip(cells, ratios):
        scaled = num * (common_den // den)
        rank = i_loc * n_cols + j_loc
        out.append((scaled << shift) + (1 << r_total) + (1 << (r_total - 1 - rank)))
    return out


def _solve_component(cells: list[tuple[int, int, float]], n_rows: int, n_cols: int) -> list[int]:
    """Exact solve of one component given as row-major (row, col, score) cells.

    Rows and columns are local ranks in [0, n_rows) and [0, n_cols); the
    result holds the positions in ``cells`` of the chosen ones.
    """
    encoded = _encode_cells(cells, n_rows, n_cols)

    if n_rows == 1 or n_cols == 1:
        # At most one pair can be selected; argmax over encoded weights.
        best = None
        for k, enc in enumerate(encoded):
            if enc > 0 and (best is None or enc > best[0]):
                best = (enc, k)
        return [] if best is None else [best[1]]

    # Tiny components: enumerate matchings outright.  The encoding gives
    # every distinct matching a distinct integer sum whose order embeds the
    # full preference chain, so the argmax over sums is the same matching
    # the O(n^3) solve would return, without the big-integer machinery.
    row_cells: list[list[tuple[int, int, int]]] = [[] for _ in range(n_rows)]
    for k, ((i_loc, j_loc, _), enc) in enumerate(zip(cells, encoded)):
        row_cells[i_loc].append((j_loc, enc, k))
    work = 1
    for rc in row_cells:
        work *= len(rc) + 1
        if work > 200:
            break
    if work <= 200:
        best_sum = 0
        best_cells: tuple[int, ...] = ()
        chosen: list[int] = []

        def walk(idx: int, used: int, acc: int) -> None:
            nonlocal best_sum, best_cells
            if idx == n_rows:
                if acc > best_sum:
                    best_sum = acc
                    best_cells = tuple(chosen)
                return
            walk(idx + 1, used, acc)
            for j_loc, enc, k in row_cells[idx]:
                bit = 1 << j_loc
                if not used & bit:
                    chosen.append(k)
                    walk(idx + 1, used | bit, acc + enc)
                    chosen.pop()

        walk(0, 0, 0)
        return list(best_cells)

    cell_at = {(i_loc, j_loc): k for k, (i_loc, j_loc, _) in enumerate(cells)}
    big = sum(abs(e) for e in encoded) + 1
    size = n_rows + n_cols
    # Square min-cost matrix: real cells negated, each real row/column gets
    # a private zero-cost dummy ("stay unmatched"), dummy-dummy is free, and
    # everything else costs `big` so the optimum provably avoids it.
    cost = [[big] * size for _ in range(size)]
    for (i_loc, j_loc, _), enc in zip(cells, encoded):
        cost[i_loc][j_loc] = -enc
    for i_loc in range(n_rows):
        cost[i_loc][n_cols + i_loc] = 0
    for j_loc in range(n_cols):
        dummy_row = cost[n_rows + j_loc]
        dummy_row[j_loc] = 0
        for i_loc in range(n_rows):
            dummy_row[n_cols + i_loc] = 0
    col_of_row = _min_cost_perfect(cost, inf=(big + 1) << 72)

    out = []
    for i_loc in range(n_rows):
        j_loc = col_of_row[i_loc]
        if j_loc < n_cols:
            k = cell_at.get((i_loc, j_loc))
            if k is None:
                raise InternalInvariantError("assignment selected a forbidden cell")
            out.append(k)
    return out


def _min_cost_perfect(cost: list[list[int]], inf: int) -> list[int]:
    """Min-cost perfect assignment on a square integer matrix.

    Classic Hungarian algorithm with row/column potentials, O(n^3).  Runs on
    arbitrary-precision integers, so it is exact; `inf` must exceed every
    reachable reduced cost and only seeds the minima.  Returns, for each
    row, the column it is matched to.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: 1-based row matched to column j; p[0] is scratch
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            u_i0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u_i0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    col_of_row = [0] * n
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row
