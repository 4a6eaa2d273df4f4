"""Scenario generation and the beam-count sweep comparing VCG with greedy.

Each replication draws a fresh demand array from a generator state
derived from (base seed, beam count, replication index), so results are
reproducible bit-for-bit and independent of execution order. The state
is ``SeedSequence((base seed, beam count, replication))``'s first 64
bits, which seed the draw as the int they form; the sweep feeds both
``SeedSequence``s the 32-bit words numpy reads from those ints, so the
streams are the same without numpy's per-call int conversion. The swept
quantity is the average winning bid per beam: assignment total divided
by the number of beams. The sweep builds each bid matrix straight from
that draw and reads only the two totals from the mechanisms' cores;
:func:`generate_scenario` wraps the draw into the public and demo
:class:`Scenario`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import _resum, _solve
from .baseline import _greedy
from .model import (
    BidMatrix,
    ConfigurationError,
    Scenario,
    SpotBeam,
    UserTerminal,
    _whole,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentReport",
    "generate_scenario",
    "run_experiment",
]

REPORT_HEADER = "n_fasb,mechanism,mean_avg_sbsdc,stddev,replications"


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition: fixed terminal pool, varying number of beams."""

    n_terminals: int = 30
    beam_counts: tuple[int, ...] = tuple(range(2, 9))
    capacity: float = 150.0
    demand_low: float = 50.0
    demand_high: float = 150.0
    replications: int = 100
    rng_seed: int = 42

    def __post_init__(self) -> None:
        counts = None if isinstance(self.beam_counts, str | bytes) else self.beam_counts
        try:
            beam_counts = tuple(_whole("beam_counts", n) for n in counts)
        except TypeError:  # not iterable; text would give one count per character
            raise ConfigurationError(
                f"beam_counts must be a sequence, got {self.beam_counts!r}"
            ) from None
        object.__setattr__(self, "beam_counts", beam_counts)
        for name in ("n_terminals", "replications", "rng_seed"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if not beam_counts or min(beam_counts) < 1:
            raise ConfigurationError("beam_counts must be non-empty positive ints")
        if len(set(beam_counts)) != len(beam_counts):
            raise ConfigurationError("beam_counts must not repeat")
        if self.n_terminals < max(beam_counts):
            raise ConfigurationError(
                f"need at least as many terminals ({self.n_terminals}) as the "
                f"largest beam count ({max(beam_counts)})"
            )
        for name in ("capacity", "demand_low", "demand_high"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, float(value))
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(
                    f"{name} must be a number, got {value!r}"
                ) from None
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ConfigurationError(
                f"capacity must be positive and finite, got {self.capacity}"
            )
        low, high = self.demand_low, self.demand_high
        if not (math.isfinite(high) and 0 <= low <= high):
            raise ConfigurationError(
                f"demand bounds must be finite with 0 <= low <= high, got "
                f"[{low}, {high}]"
            )
        if self.replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregates for one beam count: mean/std of the per-beam average bid."""

    n_fasb: int
    vcg_mean: float
    vcg_std: float
    greedy_mean: float
    greedy_std: float
    replications: int


@dataclass(frozen=True)
class ExperimentReport:
    """Sweep results, one row per beam count, plus CSV serialization."""

    config: ExperimentConfig
    rows: tuple[ExperimentRow, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(REPORT_HEADER + "\n")
        for row in sorted(self.rows, key=lambda r: r.n_fasb):
            out.write(
                f"{row.n_fasb},greedy,{row.greedy_mean:.6f},"
                f"{row.greedy_std:.6f},{row.replications}\n"
            )
            out.write(
                f"{row.n_fasb},vcg,{row.vcg_mean:.6f},"
                f"{row.vcg_std:.6f},{row.replications}\n"
            )
        return out.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv())


def generate_scenario(
    n_terminals: int,
    n_beams: int,
    capacity: float = ExperimentConfig.capacity,
    demand_low: float = ExperimentConfig.demand_low,
    demand_high: float = ExperimentConfig.demand_high,
    seed: int = 0,
) -> Scenario:
    """Draw a random scenario from a seeded generator.

    Beams get capacity ``capacity`` and availability epochs 1..N; each
    terminal's demand at each epoch is an independent uniform draw from
    [demand_low, demand_high]. Identical seeds reproduce the scenario
    bit-for-bit. The arguments are checked by :class:`ExperimentConfig`
    as a sweep of the one beam count ``n_beams``, so an error names its
    field: ``beam_counts`` for ``n_beams`` and ``rng_seed`` for ``seed``.
    """
    config = ExperimentConfig(n_terminals, (n_beams,), capacity, demand_low,
                              demand_high, rng_seed=seed)
    epochs = range(1, config.beam_counts[0] + 1)
    demands = _draw_demands(config.n_terminals, len(epochs), config.demand_low,
                            config.demand_high, config.rng_seed)
    terminals = tuple(
        UserTerminal(id=i, demand=dict(zip(epochs, row)))
        for i, row in enumerate(demands.tolist(), start=1)
    )
    beams = tuple(SpotBeam(j, config.capacity, available_at=j) for j in epochs)
    return Scenario(terminals=terminals, beams=beams, rng_seed=config.rng_seed)


def _draw_demands(n_terminals, n_beams, demand_low, demand_high, seed) -> np.ndarray:
    """The (M, N) uniform demand draw behind every scenario and replication.

    ``seed`` is an int or its 32-bit words, low word first; both give the
    same generator.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(demand_low, demand_high, size=(n_terminals, n_beams))


def _words(n: int) -> list[int]:
    """The 32-bit words ``SeedSequence`` reads from a whole number ``n >= 0``,
    low word first; ``[0]`` for 0."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _replication_seed(base: list[int], n_beams: int, replication: int) -> np.ndarray:
    """The generator state of one replication, as two 32-bit words.

    ``base`` is ``_words(base seed)``. ``SeedSequence`` reads the tuple
    (base seed, ``n_beams``, ``replication``) as its ints' words end to
    end, so this array gives the tuple's state. The words are the low and
    high halves of its first 64 bits. A zero high word seeds the draw as
    the int below 2**32 does, because ``SeedSequence`` pads its entropy
    with zero words up to its four-word pool.
    """
    words = base + _words(n_beams) + _words(replication)
    seq = np.random.SeedSequence(np.array(words, np.uint32))
    return seq.generate_state(2, np.uint32)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sweep: per beam count, average-bid stats for both mechanisms.

    Bids are ``max(0, capacity - demand)`` straight from the draw that
    :func:`generate_scenario` wraps, and greedy takes that scenario's
    availability order, 1..N. Deterministic for a given config; the
    optimum never exceeds greedy per instance, so neither do the means.
    """
    counts, reps = config.beam_counts, config.replications
    base = _words(config.rng_seed)
    vcg_avg, greedy_avg = [], []
    for n_beams in counts:
        served = list(range(n_beams))  # availability order 1..N, every beam served
        for rep in range(reps):
            seed = _replication_seed(base, n_beams, rep)
            demand = _draw_demands(config.n_terminals, n_beams, config.demand_low,
                                   config.demand_high, seed)
            # The bounds keep bids finite and >= 0; _trusted checks the largest
            # against the size limit.
            bids = BidMatrix._trusted(np.maximum(0.0, config.capacity - demand))
            # The totals determine_winners and greedy_allocate report, from their cores.
            vcg_avg.append(_resum(bids.values, _solve(bids).term) / n_beams)
            greedy_avg.append(_greedy(bids.values, served)[1] / n_beams)
    # One mean and one std over every (mechanism, beam count) row.
    avg = np.array([vcg_avg, greedy_avg]).reshape(2, len(counts), reps)
    means, stds = avg.mean(axis=2).tolist(), avg.std(axis=2).tolist()
    stats = zip(counts, means[0], stds[0], means[1], stds[1])
    rows = tuple(ExperimentRow(*row, reps) for row in stats)
    return ExperimentReport(config=config, rows=rows)
