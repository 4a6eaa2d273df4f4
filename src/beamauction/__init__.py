"""Auction-based spot-beam scheduling.

Spare-capacity bids, optimal terminal-to-beam assignment, opportunity-cost
payments, a greedy baseline, and a reproducible simulation harness.
"""

from . import assignment, auction, baseline, model, sim
from .model import *
from .assignment import *
from .auction import *
from .baseline import *
from .sim import *

__version__ = "0.1.0"

__all__ = sorted(
    model.__all__ + assignment.__all__ + auction.__all__ + baseline.__all__
    + sim.__all__
)
