"""Scenario generation and the beam-count sweep comparing VCG with greedy.

Each replication draws a fresh scenario from a generator state derived
from (base seed, beam count, replication index), so results are
reproducible bit-for-bit and independent of execution order. The swept
quantity is the average winning bid per beam: assignment total divided
by the number of beams.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .auction import determine_winners
from .baseline import greedy_allocate
from .model import (
    ConfigurationError,
    Scenario,
    SpotBeam,
    UserTerminal,
    _whole,
    availability_order,
    build_bid_matrix,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentReport",
    "generate_scenario",
    "run_experiment",
]

REPORT_HEADER = "n_fasb,mechanism,mean_avg_sbsdc,stddev,replications"


def _check_draw(capacity: float, demand_low: float, demand_high: float) -> None:
    """Reject a beam capacity or demand bounds that no scenario can use."""
    if not (math.isfinite(capacity) and capacity > 0):
        raise ConfigurationError(
            f"capacity must be positive and finite, got {capacity}"
        )
    if not (math.isfinite(demand_high) and 0 <= demand_low <= demand_high):
        raise ConfigurationError(
            f"demand bounds must be finite with 0 <= low <= high, got "
            f"[{demand_low}, {demand_high}]"
        )


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
        beam_counts = tuple(_whole("beam_counts", n) for n in self.beam_counts)
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
        _check_draw(self.capacity, self.demand_low, self.demand_high)
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
    bit-for-bit.
    """
    n_terminals = _whole("n_terminals", n_terminals)
    n_beams, seed = _whole("n_beams", n_beams), _whole("seed", seed)
    if not n_terminals >= n_beams >= 1 or seed < 0:
        raise ConfigurationError(
            f"need n_terminals >= n_beams >= 1 and seed >= 0, got {n_terminals}, "
            f"{n_beams} and seed {seed}"
        )
    _check_draw(capacity, demand_low, demand_high)

    rng = np.random.default_rng(seed)
    demands = rng.uniform(demand_low, demand_high, size=(n_terminals, n_beams))
    epochs = range(1, n_beams + 1)
    terminals = tuple(
        UserTerminal(id=i, demand=dict(zip(epochs, row)))
        for i, row in enumerate(demands.tolist(), start=1)
    )
    beams = tuple(
        SpotBeam(id=j + 1, capacity=float(capacity), available_at=j + 1)
        for j in range(n_beams)
    )
    return Scenario(terminals=terminals, beams=beams, rng_seed=seed)


def _replication_seed(base_seed: int, n_beams: int, replication: int) -> int:
    seq = np.random.SeedSequence((base_seed, n_beams, replication))
    return int(seq.generate_state(1, np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sweep: per beam count, average-bid stats for both mechanisms.

    Deterministic for a given config; per-instance the optimal mechanism
    never exceeds greedy, so the means inherit the same ordering.
    """
    rows = []
    for n_beams in config.beam_counts:
        vcg_avg = np.empty(config.replications)
        greedy_avg = np.empty(config.replications)
        for rep in range(config.replications):
            scenario = generate_scenario(
                config.n_terminals,
                n_beams,
                capacity=config.capacity,
                demand_low=config.demand_low,
                demand_high=config.demand_high,
                seed=_replication_seed(config.rng_seed, n_beams, rep),
            )
            bids = build_bid_matrix(scenario)
            order = availability_order(scenario.beams)
            vcg_avg[rep] = determine_winners(bids).total_cost / n_beams
            greedy_avg[rep] = greedy_allocate(bids, order).total_cost / n_beams
        rows.append(
            ExperimentRow(
                n_fasb=n_beams,
                vcg_mean=float(vcg_avg.mean()),
                vcg_std=float(vcg_avg.std()),
                greedy_mean=float(greedy_avg.mean()),
                greedy_std=float(greedy_avg.std()),
                replications=config.replications,
            )
        )
    return ExperimentReport(config=config, rows=tuple(rows))
