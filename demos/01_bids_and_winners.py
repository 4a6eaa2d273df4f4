"""From demands to winners.

Three ground terminals report their aggregate demand rate for the two
epochs at which spot beams will free up. Each bid is the beam's spare
capacity if it served that terminal (capacity minus demand, never below
zero), so a low bid means a well-utilized beam. The paper pads the bid
matrix to square with a dummy cost larger than any bid and drops the
dummy pairs after solving. The demo prints that padded matrix, but the
solver never builds it: it reaches the same optimum on the rectangular
matrix, searching from the beams.
"""

import numpy as np

from beamauction import (
    Scenario,
    SpotBeam,
    UserTerminal,
    build_bid_matrix,
    default_dummy_cost,
    determine_winners,
)

scenario = Scenario(
    terminals=(
        UserTerminal(id=1, demand={1: 146.0, 2: 148.0}),
        UserTerminal(id=2, demand={1: 149.0, 2: 147.0}),
        UserTerminal(id=3, demand={1: 145.0, 2: 144.0}),
    ),
    beams=(
        SpotBeam(id=1, capacity=150.0, available_at=1),
        SpotBeam(id=2, capacity=150.0, available_at=2),
    ),
    rng_seed=0,
)

bids = build_bid_matrix(scenario)
print("bid matrix (rows = terminals, columns = beams):")
print(bids.values)

dummy = default_dummy_cost(bids)
size = max(bids.n_terminals, bids.n_beams)
padded = np.full((size, size), dummy)
padded[: bids.n_terminals, : bids.n_beams] = bids.values
print(f"\npadded to {size}x{size} with dummy cost {dummy}:")
print(padded)

winners = determine_winners(bids)
print("\nwinning pairs (terminal, beam):", winners.pairs)
print("total winning bid:", winners.total_cost)
unserved = set(range(1, scenario.n_terminals + 1)) - winners.terminals
print("unserved terminals:", sorted(unserved))

# By hand: beam 1's tightest fit is terminal 2 (1 Mbps spare), beam 2's
# is terminal 1 (2 Mbps spare), so terminal 3 -- the lightest user --
# waits for the wide beam.
assert winners.pairs == ((2, 1), (1, 2))
assert winners.total_cost == 3.0
assert np.isclose(
    winners.total_cost,
    sum(bids.bid(i, j) for i, j in winners.pairs),
)
