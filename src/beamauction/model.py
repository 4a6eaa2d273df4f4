"""Domain types for auction-based spot-beam scheduling.

Ground terminals compete for spot beams that become available at known
future epochs. A terminal's bid for a beam is the beam's *spare* data
capacity if it served that terminal: capacity minus the terminal's
aggregate demand rate at the beam's availability epoch, clamped at zero.
Lower bids mean better-utilized beams, so the auction minimizes the total
winning bid. All rates are in Mbps; ids are 1-based.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ConfigurationError",
    "UserTerminal",
    "SpotBeam",
    "BidMatrix",
    "Assignment",
    "AuctionOutcome",
    "Scenario",
    "as_bid_matrix",
    "availability_order",
    "compute_bid",
    "build_bid_matrix",
]


class ConfigurationError(ValueError):
    """Scenario data is inconsistent or incomplete."""


def _whole(name: str, value) -> int:
    """``value`` as an ``int``; the one rule for every index, count, epoch and seed.

    ``3``, ``3.0``, ``np.int64(3)``, ``"3"`` and ``"3.0"`` all mean 3. A
    value with a fractional part, NaN, infinity or text that is not a
    number raises :class:`ConfigurationError` naming ``name``. Text is read
    as an integer first, so a long seed given as text stays exact, and
    otherwise like a JSON number.
    """
    if type(value) is int:  # the common case, returned at once
        return value
    try:
        number = value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                number = float(value)
        if int(number) == number:
            return int(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class UserTerminal:
    """A bidder: one ground terminal with a time-varying demand rate.

    ``demand`` maps scheduling epochs to the aggregate demand rate (Mbps)
    the terminal has collected for that epoch.
    """

    id: int
    demand: Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", _whole("terminal id", self.id))
        if self.id < 1:
            raise ConfigurationError(f"terminal id must be >= 1, got {self.id}")
        demand = {}
        for epoch, rate in self.demand.items():
            epoch, rate = _whole("demand epoch", epoch), float(rate)
            if not 0.0 <= rate < math.inf:  # also rejects NaN
                raise ConfigurationError(
                    f"terminal {self.id}: demand at epoch {epoch} must be a "
                    f"non-negative finite rate, got {rate}"
                )
            demand[epoch] = rate
        object.__setattr__(self, "demand", demand)

    def demand_at(self, epoch: int) -> float:
        try:
            return self.demand[_whole("epoch", epoch)]
        except KeyError:
            raise ConfigurationError(
                f"terminal {self.id} has no demand sample at epoch {epoch}"
            ) from None


@dataclass(frozen=True)
class SpotBeam:
    """An auctioneer: a spot beam predicted to free up at ``available_at``."""

    id: int
    capacity: float
    available_at: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", _whole("beam id", self.id))
        object.__setattr__(self, "available_at", _whole("epoch", self.available_at))
        if self.id < 1:
            raise ConfigurationError(f"beam id must be >= 1, got {self.id}")
        if not math.isfinite(self.capacity) or self.capacity <= 0:
            raise ConfigurationError(
                f"beam {self.id}: capacity must be positive and finite, "
                f"got {self.capacity}"
            )

    @property
    def availability_key(self) -> tuple[int, int]:
        """Sort key for availability order (epoch first, id breaks ties)."""
        return (self.available_at, self.id)


def availability_order(beams: Iterable[SpotBeam]) -> list[int]:
    """Beam ids sorted by availability epoch, ties broken by id."""
    return [beam.id for beam in sorted(beams, key=lambda b: b.availability_key)]


@dataclass(frozen=True, eq=False)
class BidMatrix:
    """Non-negative bids: one row per terminal, one column per beam.

    ``values`` is an (M, N) read-only float array; entry (i-1, j-1) is
    terminal i's bid for beam j.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("bid matrix must be a non-empty 2-D array")
        # Bids up to the float maximum / (2 min(M, N) + 2) keep every total,
        # exclusion total and potential finite; NaN fails the comparison.
        limit = sys.float_info.max / (2 * min(values.shape) + 2)
        if not np.all(values <= limit):
            raise ValueError(f"bid matrix entries must be finite and <= {limit!r}")
        if np.any(values < 0):
            raise ValueError("bid matrix entries must be non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_terminals(self) -> int:
        return self.values.shape[0]

    @property
    def n_beams(self) -> int:
        return self.values.shape[1]

    @property
    def max_bid(self) -> float:
        return float(self.values.max())

    def bid(self, terminal: int, beam: int) -> float:
        """The bid of ``terminal`` for ``beam`` (both 1-based, whole numbers)."""
        return float(self.values[self._cell(terminal, beam)])

    def _cell(self, terminal: int, beam: int) -> tuple[int, int]:
        """The 0-based (row, column) of a 1-based pair inside the matrix."""
        m, n = self.values.shape
        try:
            i, j = _whole("terminal", terminal), _whole("beam", beam)
            if 1 <= i <= m and 1 <= j <= n:
                return i - 1, j - 1
        except ConfigurationError:
            pass
        raise ValueError(
            f"pair ({terminal}, {beam}) out of bounds for a {m}x{n} bid matrix"
        )


def as_bid_matrix(bids: BidMatrix | np.ndarray | Sequence) -> BidMatrix:
    """Coerce an array-like into a validated :class:`BidMatrix`."""
    return bids if isinstance(bids, BidMatrix) else BidMatrix(bids)


@dataclass(frozen=True)
class Assignment:
    """An injective terminal-to-beam matching and its total bid.

    ``pairs`` holds (terminal_id, beam_id) tuples, 1-based, normalized to
    beam-ascending order. ``total_cost`` is the sum of the matched bids.
    """

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    def __post_init__(self) -> None:
        pairs = [(_whole("terminal", i), _whole("beam", j)) for i, j in self.pairs]
        pairs = tuple(sorted(pairs, key=lambda p: (p[1], p[0])))
        terminals = [i for i, _ in pairs]
        beams = [j for _, j in pairs]
        if len(set(terminals)) != len(terminals):
            raise ValueError("each terminal may be assigned at most one beam")
        if len(set(beams)) != len(beams):
            raise ValueError("each beam may be assigned at most once")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.pairs)

    @property
    def terminals(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.pairs)

    @property
    def beams(self) -> frozenset[int]:
        return frozenset(j for _, j in self.pairs)

    def terminal_for(self, beam: int) -> int | None:
        """The terminal assigned to ``beam``, or None if the beam is unserved."""
        return {j: i for i, j in self.pairs}.get(_whole("beam", beam))


@dataclass(frozen=True)
class AuctionOutcome:
    """Winning assignment plus the payment owed for each winning pair."""

    assignment: Assignment
    payments: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        payments = {
            (_whole("terminal", i), _whole("beam", j)): float(p)
            for (i, j), p in self.payments.items()
        }
        if set(payments) != set(self.assignment.pair_set):
            raise ValueError("payments must cover exactly the winning pairs")
        object.__setattr__(self, "payments", payments)


@dataclass(frozen=True)
class Scenario:
    """A full auction instance: terminals, beams, and generation metadata.

    Scenarios keep terminals oversubscribed (M >= N); the solvers accept
    rectangular matrices either way.
    """

    terminals: tuple[UserTerminal, ...]
    beams: tuple[SpotBeam, ...]
    rng_seed: int

    def __post_init__(self) -> None:
        terminals, beams = tuple(self.terminals), tuple(self.beams)
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "beams", beams)
        object.__setattr__(self, "rng_seed", _whole("rng_seed", self.rng_seed))
        if not beams:
            raise ConfigurationError("a scenario needs at least one beam")
        if [t.id for t in terminals] != list(range(1, len(terminals) + 1)):
            raise ConfigurationError("terminal ids must be contiguous 1..M")
        if [b.id for b in beams] != list(range(1, len(beams) + 1)):
            raise ConfigurationError("beam ids must be contiguous 1..N")
        if len(terminals) < len(beams):
            raise ConfigurationError(
                f"scenarios keep terminals oversubscribed: need at least as many "
                f"terminals ({len(terminals)}) as beams ({len(beams)})"
            )

    @property
    def n_terminals(self) -> int:
        return len(self.terminals)

    @property
    def n_beams(self) -> int:
        return len(self.beams)


def compute_bid(terminal: UserTerminal, beam: SpotBeam) -> float:
    """Spare capacity the beam would have if it served this terminal.

    Evaluates ``max(0, capacity - demand)`` at the epoch the beam becomes
    available. Demand above capacity clamps the bid to zero rather than
    letting it go negative, which keeps the minimization well-posed.

    Raises :class:`ConfigurationError` if the terminal has no demand
    sample at the beam's availability epoch.
    """
    try:
        demand = terminal.demand_at(beam.available_at)
    except ConfigurationError as missing:
        raise ConfigurationError(f"{missing}, required by beam {beam.id}") from None
    return max(0.0, beam.capacity - demand)


def build_bid_matrix(scenario: Scenario) -> BidMatrix:
    """Every terminal's :func:`compute_bid` for every beam, as one array."""
    at_epochs = operator.itemgetter(*[beam.available_at for beam in scenario.beams])
    try:
        demand = [at_epochs(terminal.demand) for terminal in scenario.terminals]
    except KeyError:
        for terminal in scenario.terminals:
            for beam in scenario.beams:
                compute_bid(terminal, beam)  # raises for the first missing sample
        raise
    demand = np.array(demand, dtype=float).reshape(scenario.n_terminals, -1)
    capacities = np.array([beam.capacity for beam in scenario.beams], dtype=float)
    return BidMatrix(np.maximum(0.0, capacities - demand))
