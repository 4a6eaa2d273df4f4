"""Minimum-cost bipartite assignment.

One kernel serves every solve. It is the rectangular shortest-augmenting-
path method of Jonker & Volgenant (Computing 38, 1987) in the form given
by Crouse (IEEE TAES 52(4), 2016): Dijkstra searches start from the short
side of the bid matrix (beams when M >= N) and scan the long side with
numpy masks, so a solve costs O(N^2 M) and never builds a square matrix.
Forbidden pairs are +inf entries. When they leave no assignment that
serves the whole short side, the solve is re-run as an explicit
maximum-cardinality fallback whose searches start from every free vertex
at once; it returns the cheapest assignment of the largest feasible size.

Tie-breaking is deterministic: among equal-cost optima, the assignment
whose (beam, terminal) pairs, sorted by beam, compare lexicographically
smallest is returned, a beam left unserved ranking after every terminal.
The dual potentials make this exact. An assignment is optimal exactly
when it uses only zero-reduced-cost ("tight") edges, has the optimal
cardinality and serves every vertex whose potential is strictly below
its side's slack level, so the canonical optimum is the lexicographically
smallest such matching of the tight graph. Tightness is judged up to the
rounding the potential updates can accumulate, and a tie-break swap that
would raise the re-summed total is refused. When the kernel's matching
serves the whole short side and is the only tight edge of every
short-side vertex, the optimum is forced and is returned as it is.

A total is ``math.fsum`` of the matched bids, the correctly rounded sum,
so optima holding the same bids in different cells have equal totals and
no caller needs to know an order to reproduce one. The paper's matrix,
padded to square with a dummy cost above every bid, has the same optimum
for every such cost, so :func:`solve_rectangular` validates a given
``dummy_cost`` and otherwise ignores it.

``brute_force_min_assignment`` is the enumeration oracle used by the
test suite; it shares the tie-break but nothing else with the solver.
"""

from __future__ import annotations

import math
from typing import Collection, Sequence

import numpy as np

from .model import Assignment, BidMatrix, as_bid_matrix

__all__ = [
    "default_dummy_cost",
    "solve_square",
    "solve_rectangular",
    "solve_rectangular_forbidden",
    "brute_force_min_assignment",
]

_INF = float("inf")

_ORACLE_MAX_DIM = 8
_ORACLE_MAX_SIDE = 512  # column recursion depth; stays clear of the stack limit


def default_dummy_cost(bids: BidMatrix | np.ndarray | Sequence) -> float:
    """Smallest conforming integer dummy cost, floor(max bid) + 1.

    Above 2**53 that sum rounds back onto the largest bid, so the next
    float above the largest bid is returned instead.
    """
    top = as_bid_matrix(bids).max_bid
    return max(float(math.floor(top) + 1), math.nextafter(top, _INF))


def _shortest_augmenting_paths(
    cost: np.ndarray, max_cardinality: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Cheapest matching of an n x m matrix, n <= m, of the largest size.

    Rows are the short side; ``+inf`` marks a forbidden pair. Each
    Dijkstra search starts from the next free row and ends at the nearest
    free column. If one finds no free column, no matching serves every
    row, and the solve restarts with ``max_cardinality`` set: then every
    search starts from all free rows at once, which sit at a common
    potential ``level``, and the first search that finds no free column
    ends the solve with the cheapest matching of the largest feasible
    size. The one-row start is kept for the common case because it is
    one row scan: starting every search from all free rows made this
    kernel about 4x slower on a 40 x 8 matrix and 40x on 10000 x 32.

    Returns ``(col4row, row4col, u, v, level)``: the matching (-1 where
    unmatched) and dual potentials with ``u[i] + v[j] <= cost[i, j]``,
    equality on matched pairs, ``v <= 0`` with ``v == 0`` on free
    columns, and ``u <= level`` with equality on free rows.
    """
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m)
    col4row = [-1] * n
    row4col = [-1] * m
    free_rows = list(range(n))
    level = 0.0
    while free_rows:
        # Distances of the unscanned columns from the source rows; a
        # scanned column's entry is +inf and its distance is in ``dists``.
        if max_cardinality:
            sources = np.array(free_rows)
            block = cost[sources]
            pick = block.argmin(axis=0)
            pending = block[pick, np.arange(m)] - level - v
            path = sources[pick]
        else:
            pending = cost[free_rows[0]] - v
            path = None  # every column is reached from the source row
        scanned: list[int] = []
        dists: list[float] = []
        while True:
            j = int(pending.argmin())
            delta = float(pending[j])
            if delta == _INF:  # no free column is reachable
                if not max_cardinality:
                    return _shortest_augmenting_paths(cost, max_cardinality=True)
                u[free_rows] = level
                return np.array(col4row), np.array(row4col), u, v, level
            i = row4col[j]
            if i < 0:
                break
            scanned.append(j)
            dists.append(delta)
            pending[j] = _INF
            reduced = cost[i] - v
            reduced += delta - u[i]
            reduced[scanned] = _INF
            if path is None:  # built on first use: most searches end at once
                path = np.full(m, free_rows[0])
            path[reduced < pending] = i
            np.minimum(pending, reduced, out=pending)

        for c, dist in zip(scanned, dists):
            v[c] -= delta - dist
            u[row4col[c]] += delta - dist
        while True:
            i = free_rows[0] if path is None else int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if j < 0:
                break
        # ``i`` is the source row the path started from.
        free_rows.remove(i)
        if max_cardinality:
            level += delta
            u[i] = level
        else:
            u[i] = delta
    return np.array(col4row), np.array(row4col), u, v, level


def _resum(values: np.ndarray, term: Sequence[int]) -> float:
    """Correctly rounded total of the matched bids, whatever their order."""
    return math.fsum(values[i, j] for j, i in enumerate(term) if i >= 0)


def _handover_tree(
    tight: np.ndarray,
    rows: dict[int, list[bool]],
    term: list[int],
    served_t: np.ndarray,
    optional_t: list[bool],
    optional_b: list[bool],
    fixed_b: list[bool],
    target: int,
) -> dict[int, int]:
    """Breadth-first search, backwards from beam ``target``, over handovers.

    Node ``n`` stands for every dummy beam: as in the padded formulation,
    an unserved terminal sits on a dummy beam and an unserved beam on a
    dummy terminal. Beam node ``x`` hands over to node ``y`` when ``x``
    takes ``y``'s partner, which leaves ``y`` to find a new one. ``x`` may
    take a terminal over a tight edge (a dummy beam may take any optional
    terminal) and, if ``x`` is optional, a dummy terminal.

    Returns, for every node whose chain of handovers can end by taking
    ``target``'s partner, the node it hands over to first.
    """
    m, n = tight.shape
    nxt = {target: target}
    queue = [target]
    dummy_beams = not served_t.all()
    dummy_terminals_seen = False
    for y in queue:
        if y == n:
            takers = tight[~served_t].any(axis=0).nonzero()[0].tolist()
        elif term[y] >= 0:
            x_t = term[y]
            if x_t not in rows:
                rows[x_t] = tight[x_t].tolist()
            row = rows[x_t]
            takers = [x for x in range(n) if row[x]]
            if optional_t[x_t] and dummy_beams:
                takers.append(n)
        elif dummy_terminals_seen:
            continue  # every unserved beam has the same takers
        else:
            dummy_terminals_seen = True
            takers = [x for x in range(n) if optional_b[x]]
        for x in takers:
            if x not in nxt and (x == n or not fixed_b[x]):
                nxt[x] = y
                queue.append(x)
    return nxt


def _lex_min_matching(
    values: np.ndarray,
    tight: np.ndarray,
    term_of: np.ndarray,
    optional_t: np.ndarray,
    optional_b: np.ndarray,
) -> list[int]:
    """Rearrange an optimal matching into the canonical equal-cost one.

    ``tight`` is the M x N tight graph, ``term_of`` the terminal serving
    each beam (-1 when unserved), and ``optional_t`` / ``optional_b`` mark
    the vertices an optimal matching may leave unserved. Beams are fixed
    in ascending order, each to the smallest terminal that still admits
    an optimal completion, else to no terminal. Completions are found by
    one iterative breadth-first search per beam over the beams, not the
    terminals; a swap that would raise the re-summed total is refused.
    """
    m, n = tight.shape
    term = term_of.tolist()
    holder = [-1] * m
    for j, i in enumerate(term):
        if i >= 0:
            holder[i] = j
    served_t = np.zeros(m, dtype=bool)
    served_t[term_of[term_of >= 0]] = True
    optional_t, optional_b = optional_t.tolist(), optional_b.tolist()
    fixed_t: set[int] = set()
    fixed_b = [False] * n
    rows: dict[int, list[bool]] = {}
    total = _resum(values, term)

    for j in range(n):
        limit = term[j] if term[j] >= 0 else m
        candidates = [
            t for t in tight[:limit, j].nonzero()[0].tolist() if t not in fixed_t
        ]
        fixed_b[j] = True  # the beam being decided is no waypoint
        if candidates:
            nxt = _handover_tree(
                tight, rows, term, served_t, optional_t, optional_b, fixed_b, j
            )
        for t in candidates:
            x = holder[t] if holder[t] >= 0 else n
            if x not in nxt:
                continue
            old_term, old_holder = term.copy(), holder.copy()
            term[j], holder[t] = t, j
            changed = [t]
            while True:
                y = nxt[x]
                if x == n:  # a dummy beam takes y's terminal: it goes unserved
                    holder[old_term[y]] = -1
                    changed.append(old_term[y])
                elif y == n:  # x takes an unserved terminal
                    p = int((tight[:, x] & ~served_t).argmax())
                    term[x], holder[p] = p, x
                    changed.append(p)
                elif old_term[y] < 0:  # x takes y's dummy terminal
                    term[x] = -1
                else:
                    term[x], holder[old_term[y]] = old_term[y], x
                    changed.append(old_term[y])
                if y == j:
                    break
                x = y
            swapped = _resum(values, term)
            if swapped <= total:
                total = swapped
                for p in changed:
                    served_t[p] = holder[p] >= 0
                break
            term, holder = old_term, old_holder
        if term[j] >= 0:
            fixed_t.add(term[j])
    return term


def _solve(
    bids: BidMatrix,
    forbidden0: frozenset[tuple[int, int]] = frozenset(),
) -> Assignment:
    values = bids.values
    m, n = values.shape
    cost = values
    if forbidden0:
        cost = values.copy()
        rows, cols = zip(*forbidden0)
        cost[list(rows), list(cols)] = _INF
    flip = m >= n  # search from the beams when they are the short side
    short = np.ascontiguousarray(cost.T) if flip else cost
    col4row, row4col, u, v, level = _shortest_augmenting_paths(short)
    term_of = col4row if flip else row4col

    size = int((col4row >= 0).sum())
    # Each potential moves once per augmentation, by a difference of
    # values no larger than ``scale``; this bounds their rounding.
    scale = max(bids.max_bid, float(u.max()), -float(v.min()))  # u >= 0 >= v
    eps = (2 * size + 2) * math.ulp(scale)
    tight = (short - u[:, None] - v) <= eps
    if size == len(col4row) == tight.sum() and tight[np.arange(size), col4row].all():
        term = term_of.tolist()  # each short row's one tight edge: forced
    else:
        optional_short = (
            u >= level - eps if size < short.shape[0] else np.zeros_like(u, dtype=bool)
        )
        optional_long = v >= -eps
        if flip:
            tight, optional_t, optional_b = tight.T, optional_long, optional_short
        else:
            optional_t, optional_b = optional_short, optional_long
        term = _lex_min_matching(values, tight, term_of, optional_t, optional_b)
    pairs = tuple((i + 1, j + 1) for j, i in enumerate(term) if i >= 0)
    return Assignment(pairs, _resum(values, term))


def solve_square(
    costs: np.ndarray | Sequence,
) -> tuple[list[tuple[int, int]], float]:
    """Minimum-cost perfect matching of a square non-negative matrix.

    Returns the matching as 1-based ``(row, col)`` pairs sorted by
    column, plus the total cost. Ties between equal-cost optima break
    toward the lexicographically smallest (col, row) sequence.
    """
    bids = as_bid_matrix(costs)
    if bids.n_terminals != bids.n_beams:
        raise ValueError(
            f"cost matrix must be square, got {bids.n_terminals}x{bids.n_beams}"
        )
    result = _solve(bids)
    return list(result.pairs), result.total_cost


def solve_rectangular(
    bids: BidMatrix | np.ndarray | Sequence, dummy_cost: float | None = None
) -> Assignment:
    """Optimal beam-saturating assignment of a rectangular bid matrix.

    When M >= N every beam is assigned; when N > M every terminal is.
    ``dummy_cost``, the paper's padding constant, must be finite and
    strictly exceed every bid if given; the result does not depend on it.
    """
    bids = as_bid_matrix(bids)
    if dummy_cost is not None and not bids.max_bid < float(dummy_cost) < _INF:
        raise ValueError(
            f"dummy cost {dummy_cost} must be finite and strictly greater "
            f"than the largest bid {bids.max_bid}"
        )
    return _solve(bids)


def solve_rectangular_forbidden(
    bids: BidMatrix | np.ndarray | Sequence,
    forbidden: Collection[tuple[int, int]],
) -> Assignment:
    """Like :func:`solve_rectangular` but ``forbidden`` pairs cannot win.

    If the forbidden pairs leave no assignment that serves the whole
    short side, the best assignment of the largest feasible cardinality
    is returned (possibly empty).
    """
    bids = as_bid_matrix(bids)
    return _solve(bids, frozenset(bids._cell(i, j) for i, j in forbidden))


def _max_matching_size(allowed: list[list[bool]], m: int, n: int) -> int:
    match_row_of_col: list[int | None] = [None] * n

    def augment(i: int, seen: list[bool]) -> bool:
        for j in range(n):
            if not allowed[i][j] or seen[j]:
                continue
            seen[j] = True
            if match_row_of_col[j] is None or augment(match_row_of_col[j], seen):
                match_row_of_col[j] = i
                return True
        return False

    size = 0
    for i in range(m):
        if augment(i, [False] * n):
            size += 1
    return size


def brute_force_min_assignment(
    bids: BidMatrix | np.ndarray | Sequence,
    forbidden: Collection[tuple[int, int]] = (),
) -> Assignment:
    """Exhaustive oracle: best maximum-cardinality assignment.

    Enumerates every injective assignment of maximum feasible cardinality
    that avoids ``forbidden`` and keeps the cheapest, breaking ties
    exactly like the solver. Enumeration is factorial, so the smaller
    dimension is capped at 8; this exists for testing, not production.
    """
    bids = as_bid_matrix(bids)
    m, n = bids.values.shape
    if min(m, n) > _ORACLE_MAX_DIM or max(m, n) > _ORACLE_MAX_SIDE:
        raise ValueError(
            f"brute-force enumeration supports min(M, N) <= {_ORACLE_MAX_DIM} "
            f"and max(M, N) <= {_ORACLE_MAX_SIDE}, got {m}x{n}"
        )
    forbidden0 = frozenset(bids._cell(i, j) for i, j in forbidden)
    values = bids.values
    allowed = [
        [(i, j) not in forbidden0 for j in range(n)] for i in range(m)
    ]
    target = _max_matching_size(allowed, m, n)

    best_total: float | None = None
    best_pairs: tuple[tuple[int, int], ...] = ()
    used = [False] * m
    chosen: list[tuple[int, int]] = []

    # Columns ascending, terminals ascending before skipping: candidates
    # are visited in canonical lexicographic order, so the first optimum
    # found is the tie-broken one and equal-cost revisits can be pruned.
    # Bids are non-negative and rounding is monotone, so a branch whose
    # partial total already reaches the best can only total as much.
    def search(j: int, count: int) -> None:
        nonlocal best_total, best_pairs
        total = math.fsum(values[r - 1, c - 1] for r, c in chosen)
        if best_total is not None and total >= best_total:
            return
        if j == n:
            if count == target:
                best_total = total
                best_pairs = tuple(chosen)
            return
        if count + (n - j) < target:
            return
        for i in range(m):
            if used[i] or not allowed[i][j]:
                continue
            used[i] = True
            chosen.append((i + 1, j + 1))
            search(j + 1, count + 1)
            chosen.pop()
            used[i] = False
        if count + (n - j - 1) >= target:
            search(j + 1, count)

    search(0, 0)
    if best_total is None:  # pragma: no cover - target is always reachable
        raise AssertionError("enumeration failed to reach the matching bound")
    return Assignment(best_pairs, best_total)
