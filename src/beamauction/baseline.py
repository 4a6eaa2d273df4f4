"""Greedy comparison mechanism.

Beams are processed in availability order; each newly available beam is
handed to the still-unassigned terminal with the smallest bid for it.
Locally optimal, globally not: the optimal assignment never totals more,
and strictly less on instances where an early beam steals the terminal a
later beam needed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import Assignment, BidMatrix, _whole, as_bid_matrix

__all__ = ["greedy_allocate"]


def greedy_allocate(
    bids: BidMatrix | np.ndarray | Sequence, beam_order: Sequence[int]
) -> Assignment:
    """Assign beams greedily in ``beam_order`` (a permutation of 1..N).

    Each beam takes the unassigned terminal with the minimum bid for it,
    ties broken toward the smallest terminal id. Terminals are never
    reused; when terminals run out the remaining beams stay unserved.
    """
    bids = as_bid_matrix(bids)
    m, n = bids.values.shape
    order = [_whole("beam_order entry", j) for j in beam_order]
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"beam_order must be a permutation of 1..{n}, got {order}")

    # One row per served beam, in order; a taken terminal's column is +inf,
    # and argmin's first minimum is the smallest terminal id.
    remaining = bids.values.T[[j - 1 for j in order[:m]]]
    pairs: list[tuple[int, int]] = []
    for j, row in zip(order, remaining):
        i = int(row.argmin())
        remaining[:, i] = np.inf
        pairs.append((i + 1, j))

    pairs.sort(key=lambda p: p[1])
    total = 0.0
    for i, j in pairs:
        total += float(bids.values[i - 1, j - 1])
    return Assignment(tuple(pairs), total)
