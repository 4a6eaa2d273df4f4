"""Sealed-bid VCG mechanism over a spare-capacity bid matrix.

Winner determination picks the beam-saturating assignment with the
smallest total bid. Each winning pair then pays its opportunity cost:
the best total the rest of the system could reach if that pair were
unavailable, minus the winning total without the pair's own bid. Losing
pairs pay nothing, because removing a losing bid changes nothing.

:func:`run_auction` prices every winning pair at once: in the assignment
game, VCG prices are shortest-path distances in the optimal matching's
exchange graph (Leonard, J. Political Economy 91(3), 1983; Demange, Gale
& Sotomayor, "Multi-item auctions", J. Political Economy 94(4), 1986).
With N the smaller side, all N payments then cost O(MN + N^3) on top of
the winners' solve, instead of N re-solves of O(N^2 M) each.
:func:`payment` keeps the per-pair re-solve, the independent check of
the graph.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .assignment import (
    _assignment,
    _exclusion_totals,
    _solve,
    solve_rectangular,
)
from .model import Assignment, AuctionOutcome, BidMatrix, _whole, as_bid_matrix

__all__ = ["determine_winners", "payment", "run_auction", "utility_of_report"]


def determine_winners(bids: BidMatrix | np.ndarray | Sequence) -> Assignment:
    """The minimum-total beam-saturating assignment of the bid matrix."""
    return solve_rectangular(bids)


def payment(
    bids: BidMatrix | np.ndarray | Sequence,
    winners: Assignment,
    terminal: int,
    beam: int,
) -> float:
    """Opportunity-cost payment for one (terminal, beam) pair.

    For a winning pair, re-solves the auction with the pair excluded and
    returns that total minus the winning total without the pair's own
    bid; it is at least the pair's bid whenever the re-solve can still
    serve every beam. A non-winning pair pays exactly zero: excluding it
    leaves the optimum unchanged, so no re-solve is run.

    This is the definition :func:`run_auction`'s exchange graph computes
    for every pair at once, kept as one full re-solve per call so that
    each payment can be checked against it independently.
    """
    bids = as_bid_matrix(bids)
    i, j = bids._cell(terminal, beam)  # the one check of the pair
    if (i + 1, j + 1) not in winners.pair_set:
        return 0.0
    without = _assignment(bids, _solve(bids, frozenset({(i, j)}))).total_cost
    return without - (winners.total_cost - float(bids.values[i, j]))


def run_auction(bids: BidMatrix | np.ndarray | Sequence) -> AuctionOutcome:
    """Determine winners and compute every winning pair's payment.

    The winners are :func:`determine_winners`'. The cheapest alternating
    cycle through a winning pair in the winners' exchange graph rebuilds
    the matching its exclusion leaves, and that matching's ``math.fsum``
    total is what :func:`payment`'s re-solve reports. So the payments
    equal :func:`payment`'s, up to an ulp or two where two exclusion
    matchings' exact totals differ by less than the potentials' rounding.
    """
    bids = as_bid_matrix(bids)
    solved = _solve(bids)
    winners = _assignment(bids, solved)
    excluded = _exclusion_totals(solved)
    total = winners.total_cost
    payments = {
        (i, j): excluded[i, j] - (total - float(bids.values[i - 1, j - 1]))
        for i, j in winners.pairs
    }
    return AuctionOutcome._trusted(winners, payments)


def utility_of_report(
    true_bids: BidMatrix | np.ndarray | Sequence,
    reported_row: Sequence[float] | np.ndarray,
    terminal: int,
) -> float:
    """Procurement utility of submitting ``reported_row`` for ``terminal``.

    Substitutes the row, runs the auction, and returns payment received
    minus the terminal's *true* bid over its winning pairs; zero when it
    wins nothing. Reporting the true row is not a dominant strategy under
    the per-pair payment rule: a terminal that bids on several beams can
    gain by misreporting (README; demo 04).
    """
    true_bids = as_bid_matrix(true_bids)
    terminal = _whole("terminal", terminal)
    if not 1 <= terminal <= true_bids.n_terminals:
        raise ValueError(
            f"terminal {terminal} out of bounds for a matrix with "
            f"{true_bids.n_terminals} terminals"
        )
    row = np.asarray(reported_row, dtype=float)
    if row.shape != (true_bids.n_beams,):
        raise ValueError(
            f"reported row must have one entry per beam "
            f"({true_bids.n_beams}), got shape {row.shape}"
        )

    reported = true_bids.values.copy()
    reported[terminal - 1, :] = row
    # Only the substituted row is unchecked; a refused one gets the located error.
    bids = BidMatrix._trusted(reported) if (row >= 0).all() else BidMatrix(reported)
    outcome = run_auction(bids)
    utility = 0.0
    for (i, j), paid in outcome.payments.items():
        if i == terminal:
            utility += paid - float(true_bids.values[i - 1, j - 1])
    return utility
