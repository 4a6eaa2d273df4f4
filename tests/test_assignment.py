"""Assignment solvers: square, rectangular, forbidden pairs, oracle.

Derived expected values below were computed with the brute-force
enumeration oracle and frozen; the property tests then hammer the solver
against the oracle on random instances, including tie-heavy integer
matrices where the lexicographic tie-break does real work.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamauction import (
    brute_force_min_assignment,
    default_dummy_cost,
    greedy_allocate,
    payment,
    solve_rectangular,
    solve_rectangular_forbidden,
    solve_square,
)
from helpers import draw_bids, draw_dims, draw_tie_heavy_bids, seeded_rng


class TestSolveSquare:
    def test_all_zero_matrix_breaks_ties_to_the_diagonal(self):
        pairs, total = solve_square([[0.0, 0.0], [0.0, 0.0]])
        assert pairs == [(1, 1), (2, 2)]
        assert total == 0.0

    def test_two_by_two(self):
        pairs, total = solve_square([[1.0, 3.0], [2.0, 5.0]])
        assert pairs == [(2, 1), (1, 2)]
        assert total == 5.0

    def test_three_by_three_with_expensive_column(self):
        pairs, total = solve_square([[4, 2, 100], [1, 3, 100], [5, 6, 100]])
        assert pairs == [(2, 1), (1, 2), (3, 3)]
        assert total == 103.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve_square([[1.0, 2.0]])

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_square([[-1.0]])
        with pytest.raises(ValueError, match="finite"):
            solve_square([[np.inf]])


class TestPadToSquare:
    def test_dummy_cost_must_strictly_exceed_every_bid(self):
        with pytest.raises(ValueError, match="strictly greater"):
            solve_rectangular([[1, 6], [2, 3]], dummy_cost=6.0)
        with pytest.raises(ValueError, match="strictly greater"):
            solve_rectangular([[1, 6], [2, 3]], dummy_cost=5.0)
        with pytest.raises(ValueError):
            solve_rectangular([[1.0]], dummy_cost=np.inf)

    def test_default_dummy_cost_exceeds_bids_beyond_two_to_the_53(self):
        # floor(1e16) + 1 rounds back to 1e16 in floating point.
        bids = [[1e16], [0.0]]
        z = default_dummy_cost(bids)
        assert z > 1e16
        assert solve_rectangular(bids, z) == solve_rectangular(bids)
        assert default_dummy_cost([[4.5, 2.0]]) == 5.0


class TestSolveRectangular:
    def test_three_terminals_two_beams(self):
        # Oracle: min over the 6 beam-saturating assignments is 1 + 2 = 3.
        result = solve_rectangular([[4, 2], [1, 3], [5, 6]])
        assert result.pairs == ((2, 1), (1, 2))
        assert result.total_cost == 3.0

    def test_single_cell(self):
        result = solve_rectangular([[5.0]])
        assert result.pairs == ((1, 1),)
        assert result.total_cost == 5.0

    def test_square_input(self):
        result = solve_rectangular([[1, 3], [2, 5]])
        assert result.pairs == ((2, 1), (1, 2))
        assert result.total_cost == 5.0

    def test_more_beams_than_terminals_saturates_terminals(self):
        result = solve_rectangular([[3.0, 1.0, 2.0]])
        assert result.pairs == ((1, 2),)
        assert result.total_cost == 1.0

    def test_explicit_dummy_cost_must_be_valid(self):
        for dummy_cost in (6.0, np.nan):
            with pytest.raises(ValueError, match="strictly greater"):
                solve_rectangular([[4, 2], [1, 3], [5, 6]], dummy_cost=dummy_cost)

    def test_bids_beyond_two_to_the_53_are_solved(self):
        result = solve_rectangular([[1e16], [0.0]])
        assert result.pairs == ((2, 1),)
        assert result.total_cost == 0.0

    def test_near_tie_at_large_scale_keeps_the_cheaper_matching(self):
        # The two matchings differ by 1e-7 on a 1e6 scale; a tie tolerance
        # proportional to the bids would swap in the costlier one.
        bids = [[1e6, 1e6 - 1e-7], [0.0, 0.0]]
        result = solve_rectangular(bids)
        assert result.pairs == ((2, 1), (1, 2))
        assert result.total_cost == 999999.9999999
        assert result == brute_force_min_assignment(bids)

    def test_free_terminal_with_nonzero_potential_stays_served(self):
        # Terminal 4 must keep a beam in every optimum; a tie-break that
        # frees it over tight edges returns total 2.0.
        bids = [[3, 3], [1, 2], [2, 1], [0, 0], [1, 1], [2, 1]]
        result = solve_rectangular(bids)
        assert result == brute_force_min_assignment(bids)
        assert result.pairs == ((2, 1), (4, 2))
        assert result.total_cost == 1.0


class TestSolveRectangularForbidden:
    def test_forbidding_a_winning_pair_forces_the_alternative(self):
        result = solve_rectangular_forbidden([[1, 3], [2, 5]], {(1, 2)})
        assert result.pairs == ((1, 1), (2, 2))
        assert result.total_cost == 6.0

    def test_fully_blocked_cell_yields_empty_assignment(self):
        result = solve_rectangular_forbidden([[5.0]], {(1, 1)})
        assert result.pairs == ()
        assert result.total_cost == 0.0

    def test_tie_break_picks_lexicographically_smallest(self):
        # Avoiding (2,1), totals 7 are achievable as {(1,1),(2,2)} and
        # {(3,1),(1,2)}; sorted by beam the former compares smaller.
        result = solve_rectangular_forbidden([[4, 2], [1, 3], [5, 6]], {(2, 1)})
        assert result.pairs == ((1, 1), (2, 2))
        assert result.total_cost == 7.0

    def test_out_of_bounds_forbidden_pair(self):
        with pytest.raises(ValueError, match="out of bounds"):
            solve_rectangular_forbidden([[1.0]], {(1, 2)})
        with pytest.raises(ValueError, match="out of bounds"):
            solve_rectangular_forbidden([[1, 3], [2, 5]], {(1.5, 2)})

    def test_whole_number_forbidden_pairs_of_any_type(self):
        expected = solve_rectangular_forbidden([[1, 3], [2, 5]], {(2, 1)})
        assert expected.pairs == ((1, 1), (2, 2))
        for pair in [(2.0, 1.0), (np.int64(2), np.int32(1)), (np.float64(2), 1)]:
            assert solve_rectangular_forbidden([[1, 3], [2, 5]], [pair]) == expected


class TestBruteForceOracle:
    def test_two_by_two(self):
        assert brute_force_min_assignment([[1, 3], [2, 5]]).total_cost == 5.0

    def test_single_cell(self):
        assert brute_force_min_assignment([[7.0]]).total_cost == 7.0

    def test_all_zero(self):
        result = brute_force_min_assignment(np.zeros((3, 3)))
        assert result.total_cost == 0.0
        assert result.pairs == ((1, 1), (2, 2), (3, 3))

    def test_enumeration_scope_is_capped(self):
        with pytest.raises(ValueError, match="min\\(M, N\\) <= 8"):
            brute_force_min_assignment(np.zeros((9, 9)))

    def test_max_cardinality_with_forbidden_pairs(self):
        # Beam 1 is fully blocked; the best the oracle can do is serve
        # beam 2 alone.
        result = brute_force_min_assignment(
            [[3.0, 1.0], [2.0, 4.0]], {(1, 1), (2, 1)}
        )
        assert result.pairs == ((1, 2),)
        assert result.total_cost == 1.0


class TestSolverAgainstOracle:
    def test_totals_match_on_continuous_instances(self):
        rng = seeded_rng(101)
        for _ in range(300):
            m, n = draw_dims(rng, 6)
            bids = draw_bids(rng, m, n)
            got = solve_rectangular(bids)
            want = brute_force_min_assignment(bids)
            assert abs(got.total_cost - want.total_cost) <= 1e-9

    def test_pairs_match_exactly_on_tie_heavy_instances(self):
        # The continuous draws mostly take the forced-optimum return.
        rng = seeded_rng(102)
        for draw in (draw_tie_heavy_bids, draw_bids):
            for _ in range(300):
                m, n = draw_dims(rng, 6)
                bids = draw(rng, m, n)
                got = solve_rectangular(bids)
                want = brute_force_min_assignment(bids)
                assert got.pairs == want.pairs
                assert got.total_cost == want.total_cost

    def test_forced_optimum_skips_the_tie_break(self, monkeypatch):
        from beamauction import assignment

        tie_break = assignment._lex_min_matching
        calls = []

        def counted(*args):
            calls.append(args)
            return tie_break(*args)

        monkeypatch.setattr(assignment, "_lex_min_matching", counted)
        rng = seeded_rng(107)
        for transpose in (False, True):  # beams short side, then terminals
            before = len(calls)
            for _ in range(100):
                bids = draw_bids(rng, *draw_dims(rng, 6))
                bids = bids.T if transpose else bids
                got = solve_rectangular(bids)
                want = brute_force_min_assignment(bids)
                assert got.pairs == want.pairs
                assert got.total_cost == want.total_cost
            assert len(calls) - before < 100
        # Exact ties leave more than one optimum: the tie-break must run.
        before = len(calls)
        assert solve_rectangular([[1.0, 1.0], [1.0, 1.0]]).pairs == ((1, 1), (2, 2))
        assert len(calls) == before + 1

    def test_decimal_ties_match_the_oracle(self):
        # Decimal bids put equal bids in different cells of equal-cost
        # optima; summed in different orders, their totals could round one
        # ulp apart and split the solver from the oracle.
        fixed = [
            [0.7, 0.3, 0.3, 0.1, 0.3],
            [0.3, 0.1, 0.1, 0.1, 0.1],
            [0.1, 0.3, 0.2, 0.2, 0.7],
            [0.7, 0.2, 0.1, 0.2, 0.2],
            [0.1, 0.3, 0.1, 0.1, 0.2],
        ]
        got = solve_rectangular(fixed)
        assert got.pairs == ((3, 1), (2, 2), (4, 3), (1, 4), (5, 5))
        assert got.total_cost == 0.6000000000000001
        assert brute_force_min_assignment(fixed) == got
        rng = seeded_rng(114)
        cases = [np.array(fixed)]
        for _ in range(300):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, m + 1))
            cases.append(rng.choice([0.1, 0.2, 0.3, 0.7], size=(m, n)))
        for bids in cases:
            got = solve_rectangular(bids)
            want = brute_force_min_assignment(bids)
            assert got.pairs == want.pairs
            assert got.total_cost == want.total_cost
            for i, j in got.pairs:
                relaxed = brute_force_min_assignment(bids, [(i, j)]).total_cost
                expected = relaxed - (want.total_cost - bids[i - 1, j - 1])
                assert payment(bids, got, i, j) == expected

    def test_forbidden_resolves_match_oracle(self):
        rng = seeded_rng(103)
        for _ in range(200):
            m, n = draw_dims(rng, 5)
            bids = draw_tie_heavy_bids(rng, m, n, levels=5)
            cells = [(i + 1, j + 1) for i in range(m) for j in range(n)]
            k = int(rng.integers(0, len(cells) + 1))
            picked = rng.choice(len(cells), size=k, replace=False)
            forbidden = {cells[t] for t in picked}
            got = solve_rectangular_forbidden(bids, forbidden)
            want = brute_force_min_assignment(bids, forbidden)
            assert got.pairs == want.pairs
            assert got.total_cost == want.total_cost

    def test_matches_scipy_reference(self):
        # Third route, independent of both the solver and the oracle.
        from scipy.optimize import linear_sum_assignment

        rng = seeded_rng(104)
        for _ in range(200):
            m, n = draw_dims(rng, 8)
            bids = draw_bids(rng, m, n)
            got = solve_rectangular(bids).total_cost
            rows, cols = linear_sum_assignment(bids)
            assert abs(got - float(bids[rows, cols].sum())) <= 1e-9


class TestKernelAgainstScipy:
    """Sizes beyond the oracle's reach, checked against scipy's solver."""

    @pytest.mark.parametrize("shape", [(300, 16), (1000, 16), (16, 300)])
    def test_totals_at_large_sizes(self, shape):
        from scipy.optimize import linear_sum_assignment

        rng = seeded_rng(110, *shape)
        bids = draw_bids(rng, *shape)
        result = solve_rectangular(bids)
        rows, cols = linear_sum_assignment(bids)
        assert len(result) == min(shape)
        assert abs(result.total_cost - float(bids[rows, cols].sum())) <= 1e-9

    def test_forbidden_cell_resolves_at_40x8(self):
        from scipy.optimize import linear_sum_assignment

        rng = seeded_rng(111)
        for _ in range(40):
            bids = draw_tie_heavy_bids(rng, 40, 8, levels=20)
            i, j = int(rng.integers(40)), int(rng.integers(8))
            blocked = bids.copy()
            blocked[i, j] = np.inf
            rows, cols = linear_sum_assignment(blocked)
            want = float(blocked[rows, cols].sum())
            got = solve_rectangular_forbidden(bids, {(i + 1, j + 1)})
            assert got.total_cost == want
            assert (i + 1, j + 1) not in got.pair_set

    def test_tall_tie_heavy_matrix_stays_within_the_recursion_limit(self):
        from scipy.optimize import linear_sum_assignment

        rng = seeded_rng(112)
        bids = draw_tie_heavy_bids(rng, 3000, 8)
        limit = sys.getrecursionlimit()
        result = solve_rectangular(bids)
        assert sys.getrecursionlimit() == limit
        rows, cols = linear_sum_assignment(bids)
        assert result.total_cost == float(bids[rows, cols].sum())
        assert len(result) == 8


class TestBidScale:
    """Exact results at every bid scale, not only for bids in [0, 150]."""

    @pytest.mark.parametrize("exponent", range(-6, 13, 2))
    def test_matches_oracle_at_scale(self, exponent):
        rng = seeded_rng(113, exponent + 6)
        scale = 10.0**exponent
        for _ in range(60):
            m, n = draw_dims(rng, 6)
            for bids in (draw_bids(rng, m, n), draw_tie_heavy_bids(rng, m, n)):
                bids = bids * scale
                assert solve_rectangular(bids) == brute_force_min_assignment(bids)

    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.integers(1, m),
                st.lists(st.integers(0, 2**12), min_size=m * 5, max_size=m * 5),
            )
        ),
        st.integers(-20, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scaling_is_exact(self, case, k):
        # Multiplying by 2**k is exact in floating point, so it must scale
        # the total exactly and keep the pairs.
        m, n, flat = case
        bids = np.array(flat[: m * n], dtype=float).reshape(m, n) / 64.0
        base = solve_rectangular(bids)
        scaled = solve_rectangular(bids * 2.0**k)
        assert scaled.pairs == base.pairs
        assert scaled.total_cost == base.total_cost * 2.0**k


class TestSolverProperties:
    def test_dummy_cost_invariance(self):
        rng = seeded_rng(105)
        for _ in range(150):
            m, n = draw_dims(rng, 6)
            bids = (
                draw_tie_heavy_bids(rng, m, n)
                if rng.integers(2)
                else draw_bids(rng, m, n)
            )
            z1 = default_dummy_cost(bids)
            first = solve_rectangular(bids, z1)
            second = solve_rectangular(bids, 10.0 * z1)
            assert first.pairs == second.pairs
            assert first.total_cost == second.total_cost

    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.integers(1, m),
                st.lists(st.integers(0, 20), min_size=m * 5, max_size=m * 5),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_beam_saturation_and_feasibility(self, case):
        m, n, flat = case
        bids = np.array(flat[: m * n], dtype=float).reshape(m, n)
        result = solve_rectangular(bids)
        assert len(result) == min(m, n)  # every beam served when M >= N
        terminals = [i for i, _ in result.pairs]
        beams = [j for _, j in result.pairs]
        assert len(set(terminals)) == len(terminals)
        assert len(set(beams)) == len(beams)
        assert all(1 <= i <= m for i in terminals)
        assert all(1 <= j <= n for j in beams)

    def test_row_permutation_equivariance(self):
        # Continuous entries: the optimum is a.s. unique, so the pair set
        # must map under any row permutation and the total never changes.
        rng = seeded_rng(106)
        for _ in range(100):
            m, n = draw_dims(rng, 6)
            bids = draw_bids(rng, m, n)
            perm = rng.permutation(m)
            base = solve_rectangular(bids)
            shuffled = solve_rectangular(bids[perm])
            assert abs(base.total_cost - shuffled.total_cost) <= 1e-9
            # perm maps new row position -> old row index; invert it.
            inverse = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
            mapped = {(inverse[i], j) for i, j in base.pairs}
            assert mapped == set(shuffled.pairs)

    def test_total_is_sum_of_matched_entries(self):
        # A total is the correctly rounded sum of its bids, in any order.
        rng = seeded_rng(107)
        for _ in range(100):
            m, n = draw_dims(rng, 6)
            bids = draw_bids(rng, m, n)
            order = [int(j) for j in rng.permutation(n) + 1]
            for result in (solve_rectangular(bids), greedy_allocate(bids, order)):
                matched = [bids[i - 1, j - 1] for i, j in result.pairs]
                assert result.total_cost == math.fsum(matched)
