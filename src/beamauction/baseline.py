"""Greedy comparison mechanism.

Beams are processed in availability order; each newly available beam is
handed to the still-unassigned terminal with the smallest bid for it.
Locally optimal, globally not: the optimal assignment never totals more,
and strictly less on instances where an early beam steals the terminal a
later beam needed.

Argmin-first: one ``argmin`` over the served beams' columns gives each
served beam's first minimum (smallest terminal id among its cheapest),
which the beam takes if it is free; on a wide matrix most beams go
unserved, so their columns are not scanned. Only a beam whose first
minimum is taken scans its column again, with +inf added at every taken
terminal; that only raises bids, so both scans pick the same first
minimum among the free terminals.
"""

from __future__ import annotations

import math
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
    values = bids.values
    m, n = values.shape
    entries = None if isinstance(beam_order, str | bytes) else beam_order
    try:  # text would give one beam per character, so it is not iterated
        order = [_whole("beam_order entry", j) for j in entries]
    except TypeError:  # not a sequence: refused below
        order = beam_order
    if type(order) is not list or sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"beam_order must be a permutation of 1..{n}, got {order!r}")

    served = [j - 1 for j in order[:m]]
    terms, total = _greedy(values, served)
    pairs = tuple((i + 1, j + 1) for j, i in sorted(zip(served, terms)))
    return Assignment._trusted(pairs, total)


def _greedy(values: np.ndarray, served: list[int]) -> tuple[list[int], float]:
    """The 0-based terminal each of the ``served`` columns takes, in that
    order, and the total of their bids.

    ``served`` lists distinct 0-based columns, no more than there are
    terminals, in the order the beams are offered.
    """
    first = values.take(served, axis=1).argmin(axis=0).tolist()
    taken = np.zeros(values.shape[0])  # +inf at each taken terminal
    terms, costs = [], []
    for j, i in zip(served, first):
        if taken[i]:
            i = int((values[:, j] + taken).argmin())
        taken[i] = np.inf
        terms.append(i)
        costs.append(values[i, j])
    return terms, math.fsum(costs)
