"""Shared draws for the randomized checks."""

from __future__ import annotations

import numpy as np


def seeded_rng(*key: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of ints."""
    return np.random.default_rng(np.random.SeedSequence(key))


def draw_dims(
    rng: np.random.Generator,
    max_m: int,
    max_n: int | None = None,
    forbid_1x1: bool = False,
) -> tuple[int, int]:
    """Draw (M, N) with N <= M; optionally excludes the degenerate 1x1."""
    while True:
        m = int(rng.integers(1, max_m + 1))
        hi = m if max_n is None else min(m, max_n)
        n = int(rng.integers(1, hi + 1))
        if forbid_1x1 and (m, n) == (1, 1):
            continue
        return m, n


def draw_bids(
    rng: np.random.Generator, m: int, n: int, high: float = 150.0
) -> np.ndarray:
    return rng.uniform(0.0, high, size=(m, n))


def draw_tie_heavy_bids(
    rng: np.random.Generator, m: int, n: int, levels: int = 4
) -> np.ndarray:
    """Small-integer bids: equal-cost optima are the norm, not the exception."""
    return rng.integers(0, levels, size=(m, n)).astype(float)


# Thirds whose solve once left the kernel's ``v`` one rounding above 0
# (5.55e-17) on the transposed matrix, which gave the exchange graph a
# negative edge.
THIRDS_NEAR_TIE = np.array(
    [
        [7, 6, 0, 8, 8, 6, 4],
        [2, 8, 8, 1, 0, 1, 8],
        [4, 3, 2, 3, 8, 4, 1],
        [3, 0, 7, 4, 7, 6, 6],
        [0, 2, 7, 3, 3, 0, 1],
        [6, 0, 0, 4, 3, 7, 1],
        [8, 7, 3, 8, 4, 2, 5],
        [7, 2, 1, 7, 6, 3, 2],
        [1, 4, 7, 5, 4, 3, 4],
        [1, 7, 5, 3, 7, 5, 8],
    ]
) / 3
