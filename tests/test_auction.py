"""VCG winner determination, opportunity-cost payments, and utilities.

Payment expectations were derived by re-solving with the brute-force
oracle and frozen. The characterization tests at the bottom pin down the
mechanism's actual incentive behavior: per-pair bid removal is truthful
for single-beam auctions (where it reduces to a second-price auction)
but manipulable once a bidder holds several bids, because the re-solve
for an excluded pair may route through that bidder's other entries.
"""

import numpy as np
import pytest

from beamauction import (
    brute_force_min_assignment,
    determine_winners,
    payment,
    run_auction,
    utility_of_report,
)
from helpers import draw_bids, draw_dims, draw_tie_heavy_bids, seeded_rng


class TestDetermineWinners:
    def test_two_by_two(self):
        winners = determine_winners([[1, 3], [2, 5]])
        assert winners.pairs == ((2, 1), (1, 2))
        assert winners.total_cost == 5.0

    def test_single_cell(self):
        winners = determine_winners([[5.0]])
        assert winners.pairs == ((1, 1),)
        assert winners.total_cost == 5.0

    def test_oversubscribed_terminals_leave_one_unserved(self):
        winners = determine_winners([[4, 2], [1, 3], [5, 6]])
        assert winners.pairs == ((2, 1), (1, 2))
        assert winners.total_cost == 3.0
        assert 3 not in winners.terminals


class TestPayment:
    def test_winning_pair_payments(self):
        bids = [[1.0, 3.0], [2.0, 5.0]]
        winners = determine_winners(bids)
        # Excluding (1,2) leaves {(1,1),(2,2)} at 6: p = 6 - (5 - 3) = 4.
        assert payment(bids, winners, 1, 2) == 4.0
        # Excluding (2,1) also leaves 6: p = 6 - (5 - 2) = 3.
        assert payment(bids, winners, 2, 1) == 3.0
        # Any whole-number form of a winning pair is that pair.
        assert payment(bids, winners, "1", np.float64(2)) == 4.0

    def test_losing_pair_pays_exactly_zero(self):
        bids = [[1.0, 3.0], [2.0, 5.0]]
        winners = determine_winners(bids)
        assert payment(bids, winners, 1, 1) == 0.0
        assert payment(bids, winners, 2, 2) == 0.0

    def test_loser_pays_zero_when_an_equal_cost_optimum_sums_differently(self):
        # The winners (1,1),(2,2),(3,3) total 0.6; the equal-cost matching
        # (3,1),(2,2),(1,3) sums to 0.6000000000000001 in beam order, so a
        # re-solve that returned it would charge e.g. pair (2,1) 1.1e-16.
        bids = [[0.3, 9.0, 0.3], [9.0, 0.2, 9.0], [0.1, 9.0, 0.1]]
        winners = determine_winners(bids)
        assert winners.pairs == ((1, 1), (2, 2), (3, 3))
        for i in range(1, 4):
            for j in range(1, 4):
                if (i, j) not in winners.pair_set:
                    assert payment(bids, winners, i, j) == 0.0

    def test_out_of_bounds_pair(self):
        bids = [[1.0, 3.0], [2.0, 5.0]]
        winners = determine_winners(bids)
        with pytest.raises(ValueError, match="out of bounds"):
            payment(bids, winners, 3, 1)
        with pytest.raises(ValueError, match="out of bounds"):
            payment(bids, winners, 1, 0)
        with pytest.raises(ValueError, match="out of bounds"):
            payment(bids, winners, 1.5, 2)

    def test_degenerate_single_cell_pays_zero(self):
        # Excluding the only cell leaves nothing assignable, so the
        # re-solve totals 0 and the payment lands below the bid; this is
        # the one shape where the p >= b bound cannot hold.
        bids = [[5.0]]
        winners = determine_winners(bids)
        assert payment(bids, winners, 1, 1) == 0.0

    def test_single_beam_reduces_to_second_price(self):
        bids = [[7.0], [3.0], [9.0]]
        winners = determine_winners(bids)
        assert winners.pairs == ((2, 1),)
        assert payment(bids, winners, 2, 1) == 7.0  # runner-up's bid


class TestRunAuction:
    def test_two_by_two_outcome(self):
        outcome = run_auction([[1, 3], [2, 5]])
        assert outcome.assignment.pairs == ((2, 1), (1, 2))
        assert outcome.payments == {(1, 2): 4.0, (2, 1): 3.0}

    def test_degenerate_single_cell(self):
        outcome = run_auction([[5.0]])
        assert outcome.payments == {(1, 1): 0.0}

    def test_all_zero_matrix(self):
        outcome = run_auction(np.zeros((2, 2)))
        assert outcome.assignment.total_cost == 0.0
        assert set(outcome.payments.values()) == {0.0}

    def test_deterministic(self):
        rng = seeded_rng(201)
        bids = draw_bids(rng, 5, 4)
        first = run_auction(bids)
        second = run_auction(bids)
        assert first.assignment == second.assignment
        assert first.payments == second.payments


class TestUtilityOfReport:
    def test_truthful_report_earns_payment_minus_bid(self):
        assert utility_of_report([[1, 3], [2, 5]], [1.0, 3.0], 1) == 1.0

    def test_priced_out_report_earns_nothing(self):
        # With a spare terminal available, a row of huge bids loses every
        # beam and the loser's utility is zero by definition.
        bids = [[1.0, 3.0], [2.0, 5.0], [4.0, 4.0]]
        assert utility_of_report(bids, [149.0, 149.0], 1) == 0.0

    def test_validates_report_shape_and_values(self):
        with pytest.raises(ValueError, match="one entry per beam"):
            utility_of_report([[1, 3], [2, 5]], [1.0], 1)
        with pytest.raises(ValueError, match="non-negative"):
            utility_of_report([[1, 3], [2, 5]], [1.0, -2.0], 1)
        with pytest.raises(ValueError, match="terminal"):
            utility_of_report([[1, 3], [2, 5]], [1.0, 2.0], 3)
        assert utility_of_report([[1, 3], [2, 5]], [1, 3], 1.0) == 1.0
        with pytest.raises(ValueError, match="terminal"):
            utility_of_report([[1, 3], [2, 5]], [1, 3], 1.5)


class TestPaymentProperties:
    def test_losers_pay_zero_exactly(self):
        rng = seeded_rng(202)
        for _ in range(60):
            m, n = draw_dims(rng, 6)
            bids = draw_bids(rng, m, n)
            winners = determine_winners(bids)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    if (i, j) not in winners.pair_set:
                        assert payment(bids, winners, i, j) == 0.0

    def test_winners_pay_at_least_their_bid(self):
        rng = seeded_rng(203)
        for _ in range(60):
            m, n = draw_dims(rng, 6, forbid_1x1=True)
            bids = draw_bids(rng, m, n)
            winners = determine_winners(bids)
            for i, j in winners.pairs:
                assert payment(bids, winners, i, j) >= bids[i - 1, j - 1] - 1e-9

    def test_payments_match_oracle_recomputation(self):
        rng = seeded_rng(204)
        for _ in range(40):
            m, n = draw_dims(rng, 5)
            bids = (
                draw_tie_heavy_bids(rng, m, n, levels=6)
                if rng.integers(2)
                else draw_bids(rng, m, n)
            )
            winners = determine_winners(bids)
            oracle_full = brute_force_min_assignment(bids)
            for i, j in winners.pairs:
                relaxed = brute_force_min_assignment(bids, [(i, j)])
                expected = relaxed.total_cost - (
                    oracle_full.total_cost - bids[i - 1, j - 1]
                )
                assert abs(payment(bids, winners, i, j) - expected) <= 1e-9


class TestPaymentScale:
    """Exact payments at every bid scale, not only for bids in [0, 150]."""

    @pytest.mark.parametrize("exponent", range(-6, 13, 2))
    def test_payments_match_oracle_at_scale(self, exponent):
        rng = seeded_rng(205, exponent + 6)
        scale = 10.0**exponent
        for _ in range(30):
            m, n = draw_dims(rng, 5)
            for bids in (draw_bids(rng, m, n), draw_tie_heavy_bids(rng, m, n)):
                bids = bids * scale
                winners = determine_winners(bids)
                oracle_full = brute_force_min_assignment(bids)
                for i, j in winners.pairs:
                    relaxed = brute_force_min_assignment(bids, [(i, j)])
                    expected = relaxed.total_cost - (
                        oracle_full.total_cost - bids[i - 1, j - 1]
                    )
                    assert payment(bids, winners, i, j) == expected


class TestIncentives:
    def test_single_beam_auction_is_truthful(self):
        # One bid per bidder: per-pair removal is exactly a second-price
        # auction, and no report beats the truth.
        rng = seeded_rng(205)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            bids = draw_bids(rng, m, 1)
            for i in range(1, m + 1):
                truthful = utility_of_report(bids, bids[i - 1], i)
                for report in np.linspace(0.0, 150.0, 9):
                    assert (
                        utility_of_report(bids, [report], i) <= truthful + 1e-9
                    )

    def test_multi_bid_rows_are_manipulable(self):
        # Characterization: with several bids per bidder, inflating a
        # non-winning entry inflates the excluded-pair re-solve (which may
        # still route through the same bidder's row) and with it the
        # winner's payment. Documented because it is why the
        # dominant-strategy acceptance check cannot pass against the
        # per-pair payment rule.
        bids = [[1.0, 3.0], [2.0, 5.0]]
        truthful = utility_of_report(bids, [1.0, 3.0], 1)
        assert truthful == 1.0
        # Reporting [1, 100] moves terminal 1 onto beam 1 and leaves its
        # inflated beam-2 entry inside C_{without (1,1)} = 100 + 2.
        manipulated = utility_of_report(bids, [1.0, 100.0], 1)
        assert manipulated == (102.0 - (6.0 - 1.0)) - 1.0 == 96.0
        assert manipulated > truthful
