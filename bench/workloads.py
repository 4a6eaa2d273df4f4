"""Benchmark workloads: their sizes, their inputs drawn from a seed, and
the properties of those inputs.

Each workload makes one layer do most of its work (see README.md):

* ``sweep``    ``run_experiment`` on the paper's default 30 terminals x
               beam counts 2..8 with a few replications per request; the
               only workload that runs ``sim``, ``model`` and ``baseline``.
* ``auction``  ``beamauction solve --payments`` on 40x8 matrices whose
               demand is whole Mbps, so per-beam minimum bids tie exactly;
               the only workload with payments and forbidden-pair solves.

Input generation runs in the harness, never inside a timed request.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

CAPACITY = 150.0
DEMAND_LOW = 50.0
DEMAND_HIGH = 150.0
SWEEP_TERMINALS = 30
SWEEP_BEAM_COUNTS = tuple(range(2, 9))
# Distinct sweep seeds drawn per run; a run that needs more cycles them.
SWEEP_SEEDS = 4096


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload: ``replications`` per ``sweep`` request, or
    the ``terminals`` x ``beams`` shape and the ``pool`` of distinct
    matrices an ``auction`` run cycles through."""

    name: str
    replications: int = 0
    terminals: int = 0
    beams: int = 0
    pool: int = 0


SPECS = {
    "sweep": Spec("sweep", replications=2),
    "auction": Spec("auction", terminals=40, beams=8, pool=8),
}

# Smallest sizes that still take every code path; used by the smoke test.
TINY = {
    "sweep": Spec("sweep", replications=1),
    "auction": Spec("auction", terminals=6, beams=3, pool=2),
}


def _rng(seed: int, spec: Spec) -> np.random.Generator:
    # The workload name is mixed in so two workloads never share inputs.
    salt = zlib.crc32(spec.name.encode())
    return np.random.default_rng(np.random.SeedSequence((seed, salt)))


def sweep_seeds(seed: int, spec: Spec) -> list[int]:
    """The ``rng_seed`` of every sweep request, in request order."""
    return _rng(seed, spec).integers(0, 2**31, size=SWEEP_SEEDS).tolist()


def sweep_matrices(rng_seed: int, replications: int):
    """Yield ``(n_beams, bids)`` for every scenario one sweep request draws.

    Re-derives the package's documented scenario draw (seed from
    ``(rng_seed, n_beams, replication)``, uniform demand, bid
    ``max(0, capacity - demand)``) without calling the package, so the
    oracle shares no code with the program under test.
    """
    for n_beams in SWEEP_BEAM_COUNTS:
        for rep in range(replications):
            seq = np.random.SeedSequence((rng_seed, n_beams, rep))
            state = int(seq.generate_state(1, np.uint64)[0])
            demand = np.random.default_rng(state).uniform(
                DEMAND_LOW, DEMAND_HIGH, size=(SWEEP_TERMINALS, n_beams)
            )
            yield n_beams, np.maximum(0.0, CAPACITY - demand)


def auction_matrices(seed: int, spec: Spec) -> list[np.ndarray]:
    """The pool of bid matrices an ``auction`` run cycles through.

    Demand is whole Mbps, as terminals report it, so bids tie exactly.
    """
    rng = _rng(seed, spec)
    shape = (spec.terminals, spec.beams)
    demand = rng.integers(int(DEMAND_LOW), int(DEMAND_HIGH) + 1, size=(spec.pool, *shape))
    return list(np.maximum(0.0, CAPACITY - demand.astype(float)))


def write_csv(path: str, bids: np.ndarray) -> None:
    """Headerless CSV that parses back to exactly ``bids``."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in bids:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def make_manifest(spec: Spec, seed: int, work_dir: str) -> tuple[dict, dict]:
    """Write a workload's inputs under ``work_dir``.

    Returns the manifest the worker reads and, for the oracle, the bid
    matrix behind every input file (empty for ``sweep``).
    """
    manifest = {"workload": spec.name}
    matrices: dict[str, np.ndarray] = {}
    if spec.name == "sweep":
        manifest["replications"] = spec.replications
        manifest["seeds"] = sweep_seeds(seed, spec)
    else:
        manifest["files"] = []
        for p, bids in enumerate(auction_matrices(seed, spec)):
            path = os.path.join(work_dir, f"{spec.name}-{p}.csv")
            write_csv(path, bids)
            manifest["files"].append(path)
            matrices[path] = bids
    return manifest, matrices


def input_properties(matrices: list[np.ndarray], per_request: int) -> dict:
    """Input traits a later speed claim may depend on.

    ``tied_min_share`` is the share of beams (columns) whose minimum bid
    is held by two or more terminals; ``zero_bid_share`` the share of
    cells clamped to zero because demand met capacity.
    """
    columns = [bids[:, j] for bids in matrices for j in range(bids.shape[1])]
    tied = sum(int(np.count_nonzero(col == col.min()) > 1) for col in columns)
    cells = sum(bids.size for bids in matrices)
    zeros = sum(int(np.count_nonzero(bids == 0.0)) for bids in matrices)
    shapes = sorted({f"{b.shape[0]}x{b.shape[1]}" for b in matrices})
    return {
        "shapes": shapes,
        "tied_min_share": tied / len(columns),
        "zero_bid_share": zeros / cells,
        "bid_min": float(min(b.min() for b in matrices)),
        "bid_max": float(max(b.max() for b in matrices)),
        "cells_per_request": per_request,
    }
