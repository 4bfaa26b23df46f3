"""Exact maximum-score bipartite assignment with pinned tie-breaking.

``hungarian_max`` returns the matching that

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

The feasibility graph is split into connected components first; in tracking
workloads the gating makes it extremely sparse, so components are almost
always single cells and the O(n^3) exact solve only runs on the rare dense
cluster.
"""

from __future__ import annotations

import numpy as np

from .core import InternalInvariantError

__all__ = ["hungarian_max"]


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

    # A feasible cell alone in its row and its column is a component of its
    # own: it is taken iff its score is >= 0 (a zero-score cell is pure
    # cardinality gain, a negative one only lowers the total), which is
    # exactly what the general path reduces to for 1x1 components.  Gated
    # matrices are mostly such cells; only the rest go to the search.
    single = feas & (feas.sum(axis=1) == 1)[:, None] & (feas.sum(axis=0) == 1)[None, :]
    fr, fc = np.nonzero(single & (s >= 0.0))
    pairs = list(zip(fr.tolist(), fc.tolist()))
    rest = feas & ~single
    if rest.any():
        for rows, cols in _components(rest):
            pairs.extend(_solve_component(s, rest, rows, cols))
        pairs.sort()
    return pairs


def _components(feas: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Connected components of the bipartite feasibility graph."""
    n, m = feas.shape
    row_adj: list[list[int]] = [[] for _ in range(n)]
    col_adj: list[list[int]] = [[] for _ in range(m)]
    nz_rows, nz_cols = np.nonzero(feas)
    for i, j in zip(nz_rows.tolist(), nz_cols.tolist()):
        row_adj[i].append(j)
        col_adj[j].append(i)
    seen_row = [False] * n
    seen_col = [False] * m
    comps: list[tuple[list[int], list[int]]] = []
    for start in range(n):
        if seen_row[start] or not row_adj[start]:
            continue
        seen_row[start] = True
        rows, cols = [], []
        stack: list[tuple[bool, int]] = [(True, start)]
        while stack:
            is_row, idx = stack.pop()
            if is_row:
                rows.append(idx)
                for j in row_adj[idx]:
                    if not seen_col[j]:
                        seen_col[j] = True
                        stack.append((False, int(j)))
            else:
                cols.append(idx)
                for i in col_adj[idx]:
                    if not seen_row[i]:
                        seen_row[i] = True
                        stack.append((True, int(i)))
        comps.append((sorted(rows), sorted(cols)))
    return comps


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


def _solve_component(
    s: np.ndarray, feas: np.ndarray, rows: list[int], cols: list[int]
) -> list[tuple[int, int]]:
    n_rows, n_cols = len(rows), len(cols)
    cells: list[tuple[int, int, float]] = []
    for i_loc, gi in enumerate(rows):
        for j_loc, gj in enumerate(cols):
            if feas[gi, gj]:
                cells.append((i_loc, j_loc, float(s[gi, gj])))
    encoded = _encode_cells(cells, n_rows, n_cols)

    if n_rows == 1 or n_cols == 1:
        # At most one pair can be selected; argmax over encoded weights.
        best = None
        for (i_loc, j_loc, _), enc in zip(cells, encoded):
            if enc > 0 and (best is None or enc > best[0]):
                best = (enc, i_loc, j_loc)
        if best is None:
            return []
        return [(rows[best[1]], cols[best[2]])]

    # Tiny components: enumerate matchings outright.  The encoding gives
    # every distinct matching a distinct integer sum whose order embeds the
    # full preference chain, so the argmax over sums is the same matching
    # the O(n^3) solve would return, without the big-integer machinery.
    row_cells: list[list[tuple[int, int]]] = [[] for _ in range(n_rows)]
    for (i_loc, j_loc, _), enc in zip(cells, encoded):
        row_cells[i_loc].append((j_loc, enc))
    work = 1
    for rc in row_cells:
        work *= len(rc) + 1
        if work > 200:
            break
    if work <= 200:
        best_sum = 0
        best_pairs: tuple[tuple[int, int], ...] = ()
        chosen: list[tuple[int, int]] = []

        def walk(idx: int, used: int, acc: int) -> None:
            nonlocal best_sum, best_pairs
            if idx == n_rows:
                if acc > best_sum:
                    best_sum = acc
                    best_pairs = tuple(chosen)
                return
            walk(idx + 1, used, acc)
            for j_loc, enc in row_cells[idx]:
                bit = 1 << j_loc
                if not used & bit:
                    chosen.append((idx, j_loc))
                    walk(idx + 1, used | bit, acc + enc)
                    chosen.pop()

        walk(0, 0, 0)
        return [(rows[i_loc], cols[j_loc]) for i_loc, j_loc in best_pairs]

    enc_map = {(i_loc, j_loc): enc for (i_loc, j_loc, _), enc in zip(cells, encoded)}
    big = sum(abs(e) for e in encoded) + 1
    size = n_rows + n_cols
    # Square min-cost matrix: real cells negated, each real row/column gets
    # a private zero-cost dummy ("stay unmatched"), dummy-dummy is free, and
    # everything else costs `big` so the optimum provably avoids it.
    cost = [[big] * size for _ in range(size)]
    for i_loc in range(n_rows):
        for j_loc in range(n_cols):
            enc = enc_map.get((i_loc, j_loc))
            if enc is not None:
                cost[i_loc][j_loc] = -enc
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
            if (i_loc, j_loc) not in enc_map:
                raise InternalInvariantError("assignment selected a forbidden cell")
            out.append((rows[i_loc], cols[j_loc]))
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
