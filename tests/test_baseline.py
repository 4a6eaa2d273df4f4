"""Greedy baseline: behavior, tie-breaks, and dominance by the optimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamauction import determine_winners, greedy_allocate, solve_rectangular
from helpers import draw_bids, draw_dims, draw_tie_heavy_bids, seeded_rng


def reference_greedy(bids, order):
    """Per-terminal scan: each beam in order takes the first cheapest free terminal."""
    m = bids.shape[0]
    taken = [False] * m
    pairs = []
    for j in order:
        best_i, best_bid = -1, np.inf
        for i in range(m):
            if not taken[i] and bids[i, j - 1] < best_bid:
                best_i, best_bid = i, float(bids[i, j - 1])
        if best_i < 0:
            break
        taken[best_i] = True
        pairs.append((best_i + 1, j))
    pairs.sort(key=lambda p: p[1])
    return tuple(pairs), math.fsum(bids[i - 1, j - 1] for i, j in pairs)


class TestGreedyAllocate:
    def test_canonical_suboptimality_witness(self):
        # Beam 1 greedily takes terminal 1 (bid 1), forcing beam 2 onto
        # terminal 2's bid of 100; the optimum crosses them for 5.
        bids = [[1.0, 2.0], [3.0, 100.0]]
        greedy = greedy_allocate(bids, [1, 2])
        assert greedy.pairs == ((1, 1), (2, 2))
        assert greedy.total_cost == 101.0
        assert determine_winners(bids).total_cost == 5.0

    def test_single_cell_matches_optimum(self):
        greedy = greedy_allocate([[5.0]], [1])
        assert greedy.pairs == ((1, 1),)
        assert greedy.total_cost == 5.0

    def test_row_minima_in_distinct_columns_match_optimum(self):
        # When each beam's cheapest terminal is distinct and forms the
        # optimal matching, greedy reproduces it exactly; this is the
        # small-beam-count regime where both mechanisms coincide.
        bids = [[1.0, 50.0], [50.0, 2.0], [60.0, 60.0]]
        greedy = greedy_allocate(bids, [1, 2])
        optimal = determine_winners(bids)
        assert greedy.pairs == optimal.pairs == ((1, 1), (2, 2))
        assert greedy.total_cost == optimal.total_cost == 3.0

    def test_beam_order_changes_the_result(self):
        bids = [[1.0, 2.0], [3.0, 100.0]]
        assert greedy_allocate(bids, [1, 2]).total_cost == 101.0
        # Processing beam 2 first lets it grab terminal 1's bid of 2.
        assert greedy_allocate(bids, [2, 1]).total_cost == 5.0

    def test_ties_prefer_the_smallest_terminal(self):
        greedy = greedy_allocate([[4.0], [4.0], [4.0]], [1])
        assert greedy.pairs == ((1, 1),)

    def test_terminals_are_never_reused(self):
        greedy = greedy_allocate([[1.0, 1.0, 1.0]], [1, 2, 3])
        assert greedy.pairs == ((1, 1),)
        assert greedy.total_cost == 1.0

    def test_matches_the_reference_scan_on_tie_heavy_bids(self):
        rng = seeded_rng(302)
        for _ in range(300):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))  # N > M too
            bids = draw_tie_heavy_bids(rng, m, n, levels=3)
            order = [int(j) for j in rng.permutation(n) + 1]
            greedy = greedy_allocate(bids, order)
            assert (greedy.pairs, greedy.total_cost) == reference_greedy(bids, order)
            assert len(greedy) == min(m, n)

    def test_rejects_non_permutation_order(self):
        with pytest.raises(ValueError, match="permutation"):
            greedy_allocate([[1.0, 2.0]], [1, 1])
        with pytest.raises(ValueError, match="permutation"):
            greedy_allocate([[1.0, 2.0]], [1])
        with pytest.raises(ValueError, match="permutation"):
            greedy_allocate([[1.0, 2.0]], [0, 1])
        # A fractional entry is refused, not truncated to a permutation.
        with pytest.raises(ValueError, match="whole number"):
            greedy_allocate([[1, 3], [2, 5]], [1.5, 2])
        whole = greedy_allocate([[1, 3], [2, 5]], [np.float64(1), "2"])
        assert whole == greedy_allocate([[1, 3], [2, 5]], [1, 2])


class TestDominance:
    def test_optimum_never_beaten_on_random_instances(self):
        rng = seeded_rng(301)
        for _ in range(200):
            m, n = draw_dims(rng, 8)
            bids = draw_bids(rng, m, n)
            order = list(rng.permutation(n) + 1)
            greedy = greedy_allocate(bids, order)
            optimal = solve_rectangular(bids)
            assert optimal.total_cost <= greedy.total_cost + 1e-9
            assert len(greedy) == min(m, n)

    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.integers(1, m),
                st.lists(st.integers(0, 9), min_size=m * 5, max_size=m * 5),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_optimum_never_beaten_property(self, case):
        m, n, flat = case
        bids = np.array(flat[: m * n], dtype=float).reshape(m, n)
        greedy = greedy_allocate(bids, range(1, n + 1))
        assert solve_rectangular(bids).total_cost <= greedy.total_cost + 1e-9

    def test_strictness_witness_exists(self):
        bids = [[1.0, 2.0], [3.0, 100.0]]
        gap = (
            greedy_allocate(bids, [1, 2]).total_cost
            - determine_winners(bids).total_cost
        )
        assert gap >= 1.0
