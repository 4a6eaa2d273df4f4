"""Auction-based spot-beam scheduling.

Spare-capacity bids, optimal terminal-to-beam assignment, opportunity-cost
payments, a greedy baseline, and a reproducible simulation harness.
"""

from .model import (
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
from .assignment import (
    brute_force_min_assignment,
    default_dummy_cost,
    solve_rectangular,
    solve_rectangular_forbidden,
    solve_square,
)
from .auction import determine_winners, payment, run_auction, utility_of_report
from .baseline import greedy_allocate
from .sim import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    generate_scenario,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AuctionOutcome",
    "BidMatrix",
    "ConfigurationError",
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentRow",
    "Scenario",
    "SpotBeam",
    "UserTerminal",
    "as_bid_matrix",
    "availability_order",
    "brute_force_min_assignment",
    "build_bid_matrix",
    "compute_bid",
    "default_dummy_cost",
    "determine_winners",
    "generate_scenario",
    "greedy_allocate",
    "payment",
    "run_auction",
    "run_experiment",
    "solve_rectangular",
    "solve_rectangular_forbidden",
    "solve_square",
    "utility_of_report",
]
