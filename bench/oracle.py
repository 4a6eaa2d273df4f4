"""Correctness checks against scipy's ``linear_sum_assignment``.

scipy implements Crouse, "On implementing 2D rectangular assignment
algorithms" (IEEE TAES 52(4), 2016) and shares no code with the package,
so it serves both as the oracle and as the speed yardstick. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import sweep_matrices

# Totals and payments are printed with six decimals.
PRINT_TOL = 1e-6
# Sweep means are returned as floats; only summation order differs.
MEAN_RTOL = 1e-9

# sha256 of ``beamauction simulate --out ref.csv`` with every default.
REFERENCE_SWEEP_SHA256 = (
    "db6817e4646ac46693866d397f5b83a95876b993936d48d48b09cdaef73d3cc2"
)


def lsa_total(bids: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(bids)
    return float(bids[rows, cols].sum())


class AuctionOracle:
    """Expected totals and payments for the matrices of an ``auction`` run.

    Results are cached per input file; ``scipy_s`` holds the scipy time
    one request's worth of assignment problems took on each file.
    """

    def __init__(self, matrices: dict[str, np.ndarray]) -> None:
        self.matrices = matrices
        self.scipy_s: dict[str, float] = {}
        self._total: dict[str, float] = {}
        self._excluded: dict[tuple[str, int, int], float] = {}

    def total(self, path: str) -> float:
        if path not in self._total:
            bids = self.matrices[path]
            start = perf_counter()
            rows, cols = linear_sum_assignment(bids)
            self._total[path] = float(bids[rows, cols].sum())
            for i, j in zip(rows, cols):  # a request re-solves each winning pair
                self.excluded(path, int(i) + 1, int(j) + 1)
            self.scipy_s[path] = perf_counter() - start
        return self._total[path]

    def excluded(self, path: str, i: int, j: int) -> float:
        """Optimal total with pair (i, j) (1-based) forbidden."""
        key = (path, i, j)
        if key not in self._excluded:
            bids = self.matrices[path].copy()
            bids[i - 1, j - 1] = np.inf
            self._excluded[key] = lsa_total(bids)
        return self._excluded[key]

    def check(self, path: str, text: str) -> list[str]:
        """Check the stdout of ``beamauction solve path --payments``."""
        bids = self.matrices[path]
        m, n = bids.shape
        pairs, payments, total = [], {}, None
        try:
            for line in text.splitlines():
                fields = line.split(",")
                if fields[0] == "total":
                    total = float(fields[1])
                elif fields[0] == "payment":
                    payments[(int(fields[1]), int(fields[2]))] = float(fields[3])
                else:
                    pairs.append((int(fields[0]), int(fields[1]), float(fields[2])))
        except (ValueError, IndexError):
            return [f"unparseable output line {line!r}"]
        if total is None:
            return ["no total line"]

        problems = []
        expected = self.total(path)
        if abs(total - expected) > PRINT_TOL:
            problems.append(f"total {total} != scipy {expected}")
        terminals = {i for i, _, _ in pairs}
        beams = {j for _, j, _ in pairs}
        if len(pairs) != min(m, n) or len(terminals) != len(pairs) or len(beams) != len(pairs):
            return problems + [f"pairs {pairs} are not a beam-saturating matching"]
        if not all(1 <= i <= m and 1 <= j <= n for i, j, _ in pairs):
            return problems + ["pair index out of range"]
        achieved = sum(bids[i - 1, j - 1] for i, j, _ in pairs)
        if abs(achieved - expected) > PRINT_TOL:
            problems.append(f"pairs sum to {achieved}, scipy optimum {expected}")
        if any(abs(bid - bids[i - 1, j - 1]) > PRINT_TOL for i, j, bid in pairs):
            problems.append("printed bid differs from the matrix")

        if set(payments) != {(i, j) for i, j, _ in pairs}:
            return problems + ["payment pairs differ from winning pairs"]
        for (i, j), paid in payments.items():
            want = self.excluded(path, i, j) - (expected - bids[i - 1, j - 1])
            if abs(paid - want) > PRINT_TOL:
                problems.append(f"payment ({i},{j}) {paid} != scipy {want}")
        return problems


def check_sweep(rows: list, rng_seed: int, replications: int) -> tuple[list[str], float]:
    """Check one ``run_experiment`` request's rows against scipy.

    Returns the problems and the scipy time for the request's solves.
    """
    vcg: dict[int, list[float]] = {}
    scipy_s = 0.0
    for n_beams, bids in sweep_matrices(rng_seed, replications):
        start = perf_counter()
        total = lsa_total(bids)
        scipy_s += perf_counter() - start
        vcg.setdefault(n_beams, []).append(total / n_beams)
    problems = []
    if sorted(row[0] for row in rows) != sorted(vcg):
        return [f"beam counts {[row[0] for row in rows]} != {sorted(vcg)}"], scipy_s
    for n_fasb, vcg_mean, greedy_mean, reps in rows:
        want = float(np.mean(vcg[n_fasb]))
        if reps != replications:
            problems.append(f"n_fasb {n_fasb}: {reps} replications")
        if abs(vcg_mean - want) > MEAN_RTOL * max(1.0, abs(want)):
            problems.append(f"n_fasb {n_fasb}: vcg mean {vcg_mean} != scipy {want}")
        if vcg_mean > greedy_mean + MEAN_RTOL * max(1.0, abs(greedy_mean)):
            problems.append(f"n_fasb {n_fasb}: vcg {vcg_mean} > greedy {greedy_mean}")
    return problems, scipy_s


def reference_sweep_sha256(cli, work_dir: str) -> str:
    """sha256 of the CSV ``beamauction simulate`` writes with all defaults."""
    path = os.path.join(work_dir, "reference-sweep.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["simulate", "--out", path])
    if status != 0:
        return f"simulate exited with {status}"
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
