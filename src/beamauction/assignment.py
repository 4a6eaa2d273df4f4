"""Minimum-cost bipartite assignment.

One kernel serves every solve. It is the rectangular shortest-augmenting-
path method of Jonker & Volgenant (Computing 38, 1987) in the form given
by Crouse (IEEE TAES 52(4), 2016): Dijkstra searches start from the short
side of the bid matrix (beams when M >= N), from each vertex a row-minimum
start leaves free, and scan the long side with numpy masks, so a solve
costs O(N^2 M) and never builds a square matrix.
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
would raise the re-summed total is refused. The tie-break only moves a
beam to a tight terminal below its own (to any tight terminal, if the
beam is unserved), so when no beam has one the kernel's matching is
already canonical and is returned as it is.

A total is ``math.fsum`` of the matched bids, the correctly rounded sum,
so optima holding the same bids in different cells have equal totals and
no caller needs to know an order to reproduce one. The paper's matrix,
padded to square with a dummy cost above every bid, has the same optimum
for every such cost, so :func:`solve_rectangular` validates a given
``dummy_cost`` and otherwise ignores it.

The same potentials price every winning pair of an auction at once:
each pair's exclusion optimum is the cheapest cycle through it in one
exchange graph over the winners (``_exclusion_totals``).

``brute_force_min_assignment`` is the enumeration oracle used by the
test suite; it shares the tie-break but nothing else with the solver.
"""

from __future__ import annotations

import math
from typing import Collection, NamedTuple, Sequence

import numpy as np

from .model import Assignment, BidMatrix, _pair, as_bid_matrix

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
) -> tuple[list[int], list[int], np.ndarray, np.ndarray, float]:
    """Cheapest matching of an n x m matrix, n <= m, of the largest size.

    Rows are the short side; ``+inf`` marks a forbidden pair. Each row in
    turn first takes its cheapest column if that is still free, with ``u``
    that bid and ``v == 0`` (Jonker & Volgenant's row-reduction start).
    Each row left free then runs a Dijkstra search to the nearest free
    column. If one finds no free column, no matching serves every row,
    and the solve restarts with ``max_cardinality`` set, skipping that
    start: every search then starts from all free rows at once, which sit
    at a common potential ``level``, and the first that finds no free
    column ends the solve with the cheapest matching of the largest
    feasible size. One-row searches are kept for the common case: each
    starts from one row, not a block of all free rows, and measured faster.

    Returns ``(col4row, row4col, u, v, level)``: the matching as lists (-1
    where unmatched) and dual potentials with ``u[i] + v[j] <= cost[i, j]``,
    equality on matched pairs, ``v <= 0`` exactly, even after rounding,
    with ``v == 0`` on free columns and, only when the restart left rows
    free, ``u <= level`` with equality on those rows.
    """
    n, m = cost.shape
    v = np.zeros(m)
    col4row = [-1] * n
    row4col = [-1] * m
    if max_cardinality:
        u = np.zeros(n)
    else:  # each row takes its cheapest column while it is free
        best = cost.argmin(axis=1)
        u = cost[np.arange(n), best]
        for i, (j, low) in enumerate(zip(best.tolist(), u.tolist())):
            if row4col[j] < 0 and low < _INF:
                row4col[j], col4row[i] = i, j
    free_rows = [i for i, j in enumerate(col4row) if j < 0]
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
            path = np.full(m, free_rows[0])
        scanned: list[int] = []
        dists: list[float] = []
        while True:
            j = int(pending.argmin())
            delta = float(pending[j])
            if delta == _INF:  # no free column is reachable
                if not max_cardinality:
                    return _shortest_augmenting_paths(cost, max_cardinality=True)
                u[free_rows] = level
                return col4row, row4col, u, v, level
            i = row4col[j]
            if i < 0:
                break
            scanned.append(j)
            dists.append(delta)
            pending[j] = _INF
            reduced = cost[i] - v
            reduced += delta - u[i]
            reduced[scanned] = _INF
            path[reduced < pending] = i
            np.minimum(pending, reduced, out=pending)

        for c, dist in zip(scanned, dists):
            # A later pop can land one ulp below an earlier one; skipping
            # those steps (a no-op in exact arithmetic) keeps ``v <= 0``.
            if dist < delta:
                v[c] -= delta - dist
                u[row4col[c]] += delta - dist
        while True:
            i = int(path[j])
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
    return col4row, row4col, u, v, level


def _resum(values: np.ndarray, term: Sequence[int]) -> float:
    """Correctly rounded total of the matched bids, whatever their order."""
    return math.fsum(values[i, j] for j, i in enumerate(term) if i >= 0)


def _lex_min_matching(
    values: np.ndarray,
    tight: np.ndarray,
    term_of: list[int],
    optional_t: np.ndarray,
    optional_b: np.ndarray,
) -> list[int]:
    """Rearrange an optimal matching into the canonical equal-cost one.

    ``tight`` is the M x N tight graph, ``term_of`` the terminal serving
    each beam (-1 when unserved), and ``optional_t`` / ``optional_b`` mark
    the vertices an optimal matching may leave unserved. Beams are fixed
    in ascending order, each to the smallest terminal that still admits
    an optimal completion, else to none; a swap that would raise the
    re-summed total is refused. A completion is a chain of handovers that
    a breadth-first search finds back from the beam being decided over
    the later beams: ``nxt[x] == y`` when ``x`` can take ``y``'s partner,
    a terminal over a tight edge or, if ``x`` is optional, the dummy
    terminal of an unserved ``y``. Node ``n`` is every dummy beam; it holds
    the unserved terminals and may take any optional one. A beam's takers
    are read only when the search reaches it, and only the first unserved
    beam is expanded, as all have the same takers. Each unserved beam is a
    node of its own, so this is not the payments' exchange graph, which
    merges free beams into one node when terminals are the short side.
    """
    m, n = tight.shape
    term = term_of.copy()
    holder = np.full(m, -1)
    holder[[t for t in term if t >= 0]] = [j for j, t in enumerate(term) if t >= 0]
    optional_b = optional_b.nonzero()[0].tolist()
    fixed_t: set[int] = set()  # a tie-heavy fast path, not a correctness filter
    total = _resum(values, term)

    for j in range(n):
        limit = term[j] if term[j] >= 0 else m
        candidates = [
            t for t in tight[:limit, j].nonzero()[0].tolist() if t not in fixed_t
        ]
        if candidates:
            free = holder < 0  # the terminals on dummy beams
            nxt = {j: j}
            queue = [j]
            dummy_takers = optional_b
            for y in queue:
                if y == n:
                    takers = tight[free].any(axis=0).nonzero()[0].tolist()
                elif term[y] >= 0:
                    takers = tight[term[y]].nonzero()[0].tolist()
                    if optional_t[term[y]]:  # n has no takers if none is free
                        takers.append(n)
                else:  # every unserved beam has the same takers
                    takers, dummy_takers = dummy_takers, []
                for x in takers:
                    if x > j and x not in nxt:  # beams up to j are fixed
                        nxt[x] = y
                        queue.append(x)
        for t in candidates:
            x = int(holder[t]) if holder[t] >= 0 else n
            if x not in nxt:
                continue
            old_term, old_holder = term.copy(), holder.copy()
            term[j], holder[t] = t, j
            while True:
                y = nxt[x]
                if x == n:  # a dummy beam takes y's terminal: it goes unserved
                    holder[old_term[y]] = -1
                elif y == n:  # x takes an unserved terminal
                    p = int((tight[:, x] & free).argmax())
                    term[x], holder[p] = p, x
                elif old_term[y] < 0:  # x takes y's dummy terminal
                    term[x] = -1
                else:
                    term[x], holder[old_term[y]] = old_term[y], x
                if y == j:
                    break
                x = y
            swapped = _resum(values, term)
            if swapped <= total:
                total = swapped
                break
            term, holder = old_term, old_holder
        if term[j] >= 0:
            fixed_t.add(term[j])
    return term


class _Solved(NamedTuple):
    """One solve: the canonical matching and the kernel's reduced costs.

    ``term`` is the 0-based terminal serving each beam (-1 when unserved).
    ``short`` is the cost matrix as the kernel saw it, short side first
    (its transpose when ``flip``); ``reduced`` is ``short - u - v`` for
    the potentials ``u`` / ``v`` of its rows / columns.
    """

    term: list[int]
    reduced: np.ndarray
    v: np.ndarray
    flip: bool
    short: np.ndarray


def _assignment(bids: BidMatrix, solved: _Solved) -> Assignment:
    """The public result of a solve: 1-based pairs and their total."""
    term = solved.term
    pairs = tuple((i + 1, j + 1) for j, i in enumerate(term) if i >= 0)
    return Assignment._trusted(pairs, _resum(bids.values, term))


def _solve(
    bids: BidMatrix,
    forbidden0: frozenset[tuple[int, int]] = frozenset(),
) -> _Solved:
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
    term = col4row if flip else row4col

    size = n - term.count(-1)
    # Each potential moves once per augmentation, by a difference of
    # values no larger than ``scale``; this bounds their rounding.
    scale = max(bids.max_bid, max(u.tolist()), -float(v.min()))  # u >= 0 >= v
    eps = (2 * size + 2) * math.ulp(scale)
    reduced = short - u[:, None]
    reduced -= v
    tight = (reduced.T if flip else reduced) <= eps  # terminals by beams
    first = tight.argmax(axis=0).tolist()  # each beam's first tight terminal, else 0
    # A candidate is a tight terminal below the beam's own; an unserved beam
    # ranks last. With none, the tie-break would keep the kernel's matching.
    if any(
        (t < own or own < 0) and tight[t, j]
        for j, (t, own) in enumerate(zip(first, term))
    ):
        optional_short = (
            u >= level - eps if size < short.shape[0] else np.zeros_like(u, dtype=bool)
        )
        optional_long = v >= -eps
        optional_t, optional_b = (
            (optional_long, optional_short) if flip else (optional_short, optional_long)
        )
        term = _lex_min_matching(values, tight, term, optional_t, optional_b)
    return _Solved(term, reduced, v, flip, short)


def _exclusion_totals(solved: _Solved) -> dict[tuple[int, int], float]:
    """Each winning pair's exclusion total, from one exchange graph.

    ``solved`` must come from a solve without forbidden pairs, so its
    matching serves the whole short side. Excluding a winning pair moves
    the matching along the cheapest alternating cycle through that pair's
    short-side vertex, and the exclusion optimum's extra cost is that
    cycle's length in ``solved.reduced``, clamped at 0 and taken against
    the canonical partners. As the record's last reader, this masks the
    partner columns of ``solved.reduced`` in place.

    The graph has one node per short-side vertex plus node ``n``, which
    stands for every free long-side vertex. Edge ``a -> b`` means ``a``
    takes ``b``'s partner; ``a -> n`` means ``a`` takes its cheapest free
    long-side vertex; ``n -> b`` frees ``b``'s partner, at cost ``-v`` of
    it since free vertices have ``v == 0``; when M == N every ``a -> n``
    edge is +inf. One min-plus closure (Floyd-Warshall) with a +inf
    diagonal finds every shortest cycle: ``dist[a, a]`` is the one through
    ``a``, and ``pred[a, x]`` the node before ``x`` on a shortest path from
    ``a``. Every weight is >= 0 exactly: reduced costs are clamped at 0,
    and ``-v >= 0`` as the kernel keeps ``v <= 0`` exactly. Float addition
    of non-negative numbers never decreases and updates are strict ``<``,
    so each walk back along ``pred[a]`` closes within n + 1 hops; the walk
    raises if one does not. Each cycle rebuilds its exclusion matching,
    whose total is ``math.fsum`` of its bids, as a re-solve would report it.

    Costs O(MN + N^3) for all pairs. Returns ``{(terminal, beam): total}``
    with 1-based ids.
    """
    term, reduced, v, flip, short = solved
    n = len(short)
    partner = np.array(term)
    if not flip:  # the beam of each terminal; the -1s of free beams sort first
        partner = partner.argsort()[-n:]
    size = n + 1
    dist = np.full((size, size), _INF)
    dist[:n, :n] = np.maximum(reduced[:, partner], 0.0)
    np.fill_diagonal(dist, _INF)
    reduced[:, partner] = _INF
    free = reduced.argmin(axis=1)
    dist[:n, n] = np.maximum(reduced[np.arange(n), free], 0.0)
    dist[n, :n] = -v[partner]

    pred = np.arange(size).repeat(size).reshape(size, size)
    through, better = np.empty_like(dist), np.empty(dist.shape, dtype=bool)
    for k in range(size):  # row and column k never improve: dist[k, k] >= 0
        np.add(dist[:, k, None], dist[k], out=through)
        np.less(through, dist, out=better)
        np.copyto(dist, through, where=better)
        np.copyto(pred, pred[k], where=better)

    matched = short[np.arange(n), partner].tolist()
    partner, free, pred = partner.tolist(), free.tolist(), pred.tolist()
    cycle = dist.diagonal().tolist()
    totals = {}
    for a in range(n):
        if cycle[a] == _INF:  # only 1 x 1 has no cycle: nothing is left
            total = 0.0
        else:
            held = matched.copy()
            x, back = a, pred[a]
            for _ in range(size):
                p = back[x]
                if p < n:  # p takes x's partner, or its free vertex if x == n
                    held[p] = float(short[p, partner[x] if x < n else free[p]])
                if p == a:
                    break
                x = p
            else:
                raise RuntimeError(f"exchange cycle through {a} did not close")
            total = math.fsum(held)
        t, b = (partner[a], a) if flip else (a, partner[a])
        totals[t + 1, b + 1] = total
    return totals


def _forbidden_cells(bids: BidMatrix, forbidden: Collection) -> frozenset:
    """The 0-based cells of 1-based (terminal, beam) pairs, checked one by one."""
    return frozenset(_pair(pair, "forbidden entry", bids._cell) for pair in forbidden)


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
    result = _assignment(bids, _solve(bids))
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
    return _assignment(bids, _solve(bids))


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
    forbidden0 = _forbidden_cells(bids, forbidden)
    return _assignment(bids, _solve(bids, forbidden0))


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
    forbidden0 = _forbidden_cells(bids, forbidden)
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
    # Every branch keeps count + (n - j) >= target, so each leaf holds a
    # maximum matching, and the branch that follows one always gets there.
    def search(j: int, count: int) -> None:
        nonlocal best_total, best_pairs
        total = math.fsum(values[r - 1, c - 1] for r, c in chosen)
        if best_total is not None and total >= best_total:
            return
        if j == n:
            best_total = total
            best_pairs = tuple(chosen)
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
    return Assignment(best_pairs, best_total)
