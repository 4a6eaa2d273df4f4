"""Domain types and spare-capacity bid construction."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamauction import (
    Assignment,
    AuctionOutcome,
    BidMatrix,
    ConfigurationError,
    Scenario,
    SpotBeam,
    UserTerminal,
    as_bid_matrix,
    availability_order,
    build_bid_matrix,
    compute_bid,
)


def beam(j=1, capacity=150.0, available_at=1):
    return SpotBeam(id=j, capacity=capacity, available_at=available_at)


class TestComputeBid:
    def test_bid_is_spare_capacity(self):
        terminal = UserTerminal(id=1, demand={1: 100.0})
        assert compute_bid(terminal, beam(capacity=150.0)) == 50.0

    def test_zero_spare_capacity(self):
        terminal = UserTerminal(id=1, demand={1: 150.0})
        assert compute_bid(terminal, beam(capacity=150.0)) == 0.0

    def test_demand_above_capacity_clamps_to_zero(self):
        terminal = UserTerminal(id=1, demand={1: 200.0})
        assert compute_bid(terminal, beam(capacity=150.0)) == 0.0

    def test_missing_epoch_names_terminal_beam_and_epoch(self):
        terminal = UserTerminal(id=3, demand={1: 10.0})
        with pytest.raises(ConfigurationError, match=r"terminal 3.*epoch 7.*beam 2"):
            compute_bid(terminal, beam(j=2, available_at=7))

    @given(
        capacity=st.floats(1.0, 1000.0),
        demand=st.floats(0.0, 2000.0),
        extra=st.floats(0.0, 500.0),
    )
    def test_more_demand_never_raises_the_bid(self, capacity, demand, extra):
        b = beam(capacity=capacity)
        low = compute_bid(UserTerminal(id=1, demand={1: demand}), b)
        high = compute_bid(UserTerminal(id=1, demand={1: demand + extra}), b)
        assert high <= low
        assert high >= 0.0


class TestBuildBidMatrix:
    def test_single_entry(self):
        scenario = Scenario(
            terminals=(UserTerminal(id=1, demand={1: 100.0}),),
            beams=(beam(),),
            rng_seed=0,
        )
        assert build_bid_matrix(scenario).values.tolist() == [[50.0]]

    def test_time_varying_demands(self):
        # Beams read the demand at their own availability epoch, so the
        # same terminal bids differently per beam.
        scenario = Scenario(
            terminals=(
                UserTerminal(id=1, demand={1: 100.0, 2: 140.0}),
                UserTerminal(id=2, demand={1: 120.0, 2: 130.0}),
            ),
            beams=(beam(j=1, available_at=1), beam(j=2, available_at=2)),
            rng_seed=0,
        )
        expected = [[50.0, 10.0], [30.0, 20.0]]
        assert build_bid_matrix(scenario).values.tolist() == expected
        # Any whole-number form of an epoch reads the same sample.
        for epoch in ("2", 2.0, np.int64(2)):
            beams = (beam(j=1, available_at=1), beam(j=2, available_at=epoch))
            again = Scenario(terminals=scenario.terminals, beams=beams, rng_seed=0)
            assert build_bid_matrix(again).values.tolist() == expected

    def test_saturated_demand_gives_all_zero_matrix(self):
        scenario = Scenario(
            terminals=(
                UserTerminal(id=1, demand={1: 150.0, 2: 900.0}),
                UserTerminal(id=2, demand={1: 151.0, 2: 150.0}),
            ),
            beams=(beam(j=1, available_at=1), beam(j=2, available_at=2)),
            rng_seed=0,
        )
        assert np.all(build_bid_matrix(scenario).values == 0.0)

    def test_deterministic_bit_for_bit(self):
        scenario = Scenario(
            terminals=(
                UserTerminal(id=1, demand={1: 99.5, 2: 140.25}),
                UserTerminal(id=2, demand={1: 120.125, 2: 130.0}),
            ),
            beams=(beam(j=1, available_at=1), beam(j=2, available_at=2)),
            rng_seed=0,
        )
        first = build_bid_matrix(scenario).values
        second = build_bid_matrix(scenario).values
        assert np.array_equal(first, second)


    def test_equals_compute_bid_cell_by_cell(self):
        rng = np.random.default_rng(7)
        clamped = 0
        for case in range(100):
            n = int(rng.integers(1, 6))  # a single beam included
            m = int(rng.integers(n, 9))
            epochs = [int(e) for e in rng.permutation(n) * 3 + 1]  # not in id order
            capacities = rng.integers(1, 200, size=n).tolist()  # whole Mbps as ints
            if case % 2:
                capacities = [c + 0.5 for c in capacities]
            beams = tuple(
                SpotBeam(id=j + 1, capacity=capacities[j], available_at=epochs[j])
                for j in range(n)
            )
            terminals = tuple(
                UserTerminal(
                    id=i + 1,
                    # Up to twice the capacity, so some bids clamp to zero.
                    demand={e: float(rng.uniform(0, 400)) for e in epochs},
                )
                for i in range(m)
            )
            scenario = Scenario(terminals=terminals, beams=beams, rng_seed=0)
            values = build_bid_matrix(scenario).values
            expected = [[compute_bid(t, b) for b in beams] for t in terminals]
            assert values.tolist() == expected
            clamped += int((values == 0.0).sum())
        assert clamped > 0

    def test_missing_epoch_names_terminal_beam_and_epoch(self):
        scenario = Scenario(
            terminals=(
                UserTerminal(id=1, demand={1: 10.0, 7: 10.0}),
                UserTerminal(id=2, demand={7: 10.0}),
            ),
            beams=(beam(j=1, available_at=7), beam(j=2, available_at=1)),
            rng_seed=0,
        )
        with pytest.raises(ConfigurationError, match=r"terminal 2.*epoch 1.*beam 2"):
            build_bid_matrix(scenario)


class TestBidMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            BidMatrix(np.array([[1.0, -0.5]]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            BidMatrix(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            BidMatrix(np.array([[np.inf, 1.0]]))

    def test_rejects_bids_whose_sums_could_overflow(self):
        # The limit is the float maximum / (2 min(M, N) + 2).
        top = sys.float_info.max
        for shape in ((1, 1), (3, 2), (2, 5)):
            limit = top / (2 * min(shape) + 2)
            at_limit = np.full(shape, limit)
            assert BidMatrix(at_limit).max_bid == limit
            at_limit[-1, -1] = np.nextafter(limit, np.inf)
            message = re.escape(f"finite and <= {limit!r}")
            with pytest.raises(ValueError, match=message):
                BidMatrix(at_limit)

    def test_rejects_empty_or_non_2d(self):
        with pytest.raises(ValueError):
            BidMatrix(np.empty((0, 3)))
        with pytest.raises(ValueError):
            BidMatrix(np.array([1.0, 2.0]))

    def test_values_are_read_only(self):
        bids = as_bid_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            bids.values[0, 0] = 9.0

    def test_bid_accessor_is_one_based(self):
        bids = as_bid_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert bids.bid(2, 1) == 3.0
        with pytest.raises(ValueError, match="out of bounds"):
            bids.bid(0, 1)
        with pytest.raises(ValueError, match="out of bounds"):
            bids.bid(1, 3)

    def test_as_bid_matrix_passthrough(self):
        bids = as_bid_matrix([[1.0]])
        assert as_bid_matrix(bids) is bids


class TestTerminalAndBeam:
    def test_terminal_rejects_negative_demand(self):
        for rate in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="epoch 2.*non-negative finite"):
                UserTerminal(id=1, demand={1: 1.0, 2: rate})

    def test_terminal_rejects_fractional_epoch(self):
        # Truncating 1.5 to 1 would let the later sample overwrite it.
        with pytest.raises(ConfigurationError, match="epoch.*whole number"):
            UserTerminal(1, {1.5: 2.0, 1: 9.0})
        terminal = UserTerminal(1, {2.0: 2.0, np.int64(3): 3.0})
        assert terminal.demand == {2: 2.0, 3: 3.0}
        assert all(type(epoch) is int for epoch in terminal.demand)

    def test_terminal_rejects_bad_id(self):
        with pytest.raises(ConfigurationError):
            UserTerminal(id=0, demand={1: 1.0})
        with pytest.raises(ConfigurationError, match="id.*whole number"):
            UserTerminal(id=1.5, demand={1: 1.0})
        for whole in ("1", 1.0, np.int64(1)):
            terminal = UserTerminal(id=whole, demand={1: 5.0})
            assert terminal.id == 1 and type(terminal.id) is int

    def test_demand_at_missing_epoch(self):
        with pytest.raises(ConfigurationError, match="epoch 9"):
            UserTerminal(id=1, demand={1: 1.0}).demand_at(9)
        terminal = UserTerminal(id=1, demand={2: 5.0})
        assert [terminal.demand_at(e) for e in ("2", 2.0, np.int64(2))] == [5.0] * 3
        with pytest.raises(ConfigurationError, match="whole number"):
            terminal.demand_at(1.5)

    def test_beam_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            SpotBeam(id=1, capacity=0.0, available_at=1)

    def test_beam_id_and_epoch_are_whole_numbers(self):
        with pytest.raises(ConfigurationError, match="epoch.*whole number"):
            SpotBeam(id=1, capacity=150.0, available_at=1.5)
        with pytest.raises(ConfigurationError, match="id.*whole number"):
            SpotBeam(id=1.5, capacity=150.0, available_at=1)
        whole = SpotBeam(id="1", capacity=150.0, available_at=np.float64(2))
        assert (whole.id, whole.available_at) == (1, 2)
        assert type(whole.id) is int and type(whole.available_at) is int

    def test_availability_order_breaks_ties_by_id(self):
        beams = [
            SpotBeam(id=3, capacity=1.0, available_at=2),
            SpotBeam(id=1, capacity=1.0, available_at=5),
            SpotBeam(id=2, capacity=1.0, available_at=2),
        ]
        assert availability_order(beams) == [2, 3, 1]
        mixed = [SpotBeam(1, 150.0, "2"), SpotBeam(2, 150.0, 1)]
        assert availability_order(mixed) == [2, 1]


class TestScenario:
    def test_requires_contiguous_ids(self):
        with pytest.raises(ConfigurationError, match="contiguous"):
            Scenario(
                terminals=(UserTerminal(id=2, demand={1: 1.0}),),
                beams=(beam(),),
                rng_seed=0,
            )

    def test_rng_seed_is_a_whole_number(self):
        parts = {"terminals": (UserTerminal(id=1, demand={1: 1.0}),),
                 "beams": (beam(),)}
        with pytest.raises(ConfigurationError, match="rng_seed.*whole number"):
            Scenario(**parts, rng_seed=1.5)
        seed = Scenario(**parts, rng_seed="7").rng_seed
        assert seed == 7 and type(seed) is int

    def test_requires_oversubscribed_terminals(self):
        with pytest.raises(ConfigurationError, match="oversubscribed"):
            Scenario(
                terminals=(UserTerminal(id=1, demand={1: 1.0}),),
                beams=(beam(j=1), beam(j=2)),
                rng_seed=0,
            )


class TestAssignment:
    def test_pairs_normalize_to_beam_order(self):
        a = Assignment(pairs=((2, 2), (1, 1)), total_cost=0.0)
        assert a.pairs == ((1, 1), (2, 2))

    def test_rejects_duplicate_terminal(self):
        with pytest.raises(ValueError, match="terminal"):
            Assignment(pairs=((1, 1), (1, 2)), total_cost=0.0)
        with pytest.raises(ValueError, match="terminal.*whole number"):
            Assignment(pairs=((1.5, 2),), total_cost=0.0)
        whole = Assignment(pairs=((np.float64(1), np.int64(2)),), total_cost=0.0)
        assert whole.pairs == ((1, 2),)
        assert all(type(index) is int for index in whole.pairs[0])

    def test_rejects_duplicate_beam(self):
        with pytest.raises(ValueError, match="beam"):
            Assignment(pairs=((1, 1), (2, 1)), total_cost=0.0)

    def test_lookup_helpers(self):
        a = Assignment(pairs=((2, 1), (1, 2)), total_cost=3.0)
        assert len(a) == 2
        assert a.terminal_for(1) == 2
        assert a.terminal_for(3) is None
        assert a.terminal_for("2") == a.terminal_for(2.0) == 1
        with pytest.raises(ConfigurationError, match="whole number"):
            a.terminal_for(1.5)
        assert (1, 2) in a.pair_set
        assert a.terminals == {1, 2}
        assert a.beams == {1, 2}


class TestAuctionOutcome:
    def test_payments_must_cover_winning_pairs_exactly(self):
        a = Assignment(pairs=((1, 1),), total_cost=5.0)
        with pytest.raises(ValueError, match="exactly"):
            AuctionOutcome(assignment=a, payments={})
        with pytest.raises(ValueError, match="exactly"):
            AuctionOutcome(assignment=a, payments={(1, 1): 5.0, (2, 2): 1.0})
        # A fractional key is refused, not truncated onto a winning pair.
        b = Assignment(pairs=((1, 2),), total_cost=0.0)
        with pytest.raises(ValueError, match="whole number"):
            AuctionOutcome(assignment=b, payments={(1.5, 2): 3.0})
        assert AuctionOutcome(b, {(1.0, np.int64(2)): 3.0}).payments == {(1, 2): 3.0}
