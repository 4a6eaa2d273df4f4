"""Scenario generation and the beam-count sweep comparing VCG with greedy.

Each replication draws a fresh demand array from a generator state
derived from (base seed, beam count, replication index), so results are
reproducible bit-for-bit and independent of execution order. The swept
quantity is the average winning bid per beam: assignment total divided
by the number of beams. The sweep builds each bid matrix straight from
that draw; :func:`generate_scenario` wraps it into the public and demo
:class:`Scenario`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .auction import determine_winners
from .baseline import greedy_allocate
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
    """The (M, N) uniform demand draw behind every scenario and replication."""
    rng = np.random.default_rng(seed)
    return rng.uniform(demand_low, demand_high, size=(n_terminals, n_beams))


def _replication_seed(base_seed: int, n_beams: int, replication: int) -> int:
    seq = np.random.SeedSequence((base_seed, n_beams, replication))
    return int(seq.generate_state(1, np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sweep: per beam count, average-bid stats for both mechanisms.

    Bids are ``max(0, capacity - demand)`` straight from the draw that
    :func:`generate_scenario` wraps, and greedy takes that scenario's
    availability order, 1..N. Deterministic for a given config; the
    optimum never exceeds greedy per instance, so neither do the means.
    """
    counts, reps = config.beam_counts, config.replications
    vcg_avg, greedy_avg = [], []
    for n_beams in counts:
        order = range(1, n_beams + 1)
        for rep in range(reps):
            seed = _replication_seed(config.rng_seed, n_beams, rep)
            bids = _draw_demands(config.n_terminals, n_beams, config.demand_low,
                                 config.demand_high, seed)
            # max(0, capacity - demand), in the draw's own array. The bounds keep
            # bids finite and >= 0; _trusted checks the largest against the size limit.
            np.subtract(config.capacity, bids, out=bids)
            bids = BidMatrix._trusted(np.maximum(0.0, bids, out=bids))
            vcg_avg.append(determine_winners(bids).total_cost / n_beams)
            greedy_avg.append(greedy_allocate(bids, order).total_cost / n_beams)
    # One mean and one std over every (mechanism, beam count) row.
    avg = np.array([vcg_avg, greedy_avg]).reshape(2, len(counts), reps)
    means, stds = avg.mean(axis=2).tolist(), avg.std(axis=2).tolist()
    stats = zip(counts, means[0], stds[0], means[1], stds[1])
    rows = tuple(ExperimentRow(*row, reps) for row in stats)
    return ExperimentReport(config=config, rows=rows)
