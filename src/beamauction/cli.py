"""Command-line front end.

Subcommands:

* ``solve``     reads a CSV bid matrix and prints the winning pairs (and,
                  optionally, VCG payments).
* ``simulate``  runs the beam-count sweep and writes a plot-ready CSV
                  comparing VCG with the greedy baseline. Every setting
                  not given keeps its :class:`ExperimentConfig` default.
* ``verify``    cross-checks the solver, payments, and baseline against
                  the brute-force oracle on random instances.

All human-facing indices are 1-based; totals and payments print with six
decimal places. Exit status is 0 on success and nonzero on parse,
configuration, or verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

import numpy as np

from .assignment import (
    _ORACLE_MAX_DIM,
    brute_force_min_assignment,
    default_dummy_cost,
    solve_rectangular,
)
from .auction import determine_winners, payment, run_auction
from .baseline import greedy_allocate
from .model import BidMatrix, _whole
from .sim import ExperimentConfig, run_experiment

__all__ = [
    "BidMatrixParseError",
    "parse_bid_matrix",
    "format_bid_matrix",
    "main",
    "entry_point",
]

class BidMatrixParseError(ValueError):
    """A bid-matrix file could not be parsed; the message names the cell."""


def parse_bid_matrix(text: str) -> BidMatrix:
    """Parse headerless CSV (one row per terminal) into a bid matrix."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BidMatrixParseError("bid matrix file is empty")
    rows: list[list[float]] = []
    width = None
    for r, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise BidMatrixParseError(
                f"row {r} has {len(cells)} entries, expected {width}"
            )
        row = []
        for c, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise BidMatrixParseError(
                    f"row {r}, column {c}: cannot parse {cell.strip()!r} as a number"
                ) from None
            if not np.isfinite(value) or value < 0:
                raise BidMatrixParseError(
                    f"row {r}, column {c}: bids must be non-negative finite "
                    f"numbers, got {cell.strip()}"
                )
            row.append(value)
        rows.append(row)
    return BidMatrix(rows)


def format_bid_matrix(bids: BidMatrix) -> str:
    """Render a bid matrix as headerless CSV that re-parses exactly."""
    lines = [
        ",".join(repr(float(v)) for v in row) for row in bids.values
    ]
    return "\n".join(lines) + "\n"


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        with open(args.matrix, "r", encoding="utf-8-sig") as handle:  # skips a BOM
            bids = parse_bid_matrix(handle.read())
    except OSError as exc:
        print(f"error: cannot read {args.matrix}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # not UTF-8, a bad cell, or a bid above the limit
        print(f"error: {args.matrix}: {exc}", file=sys.stderr)
        return 1

    if bids.n_terminals < bids.n_beams:
        print(
            f"warning: matrix has more beams ({bids.n_beams}) than terminals "
            f"({bids.n_terminals}); scheduling scenarios normally keep "
            f"terminals oversubscribed",
            file=sys.stderr,
        )

    if args.payments:
        outcome = run_auction(bids)
        winners = outcome.assignment
    else:
        outcome = None
        winners = determine_winners(bids)

    for i, j in sorted(winners.pairs):
        print(f"{i},{j},{bids.bid(i, j):.6f}")
    print(f"total,{winners.total_cost:.6f}")
    if outcome is not None:
        for i, j in sorted(winners.pairs):
            print(f"payment,{i},{j},{outcome.payments[(i, j)]:.6f}")
    return 0


def _beam_counts(spec: str | Sequence) -> Sequence[int]:
    if isinstance(spec, (list, tuple)):
        return spec  # ExperimentConfig converts each count
    lo, _, hi = str(spec).partition("..")  # a single count is the range lo..lo
    return range(_whole("fasb_range", lo), _whole("fasb_range", hi or lo) + 1)


def _demand_bounds(spec: str | Sequence) -> dict[str, float]:
    parts = spec if isinstance(spec, (list, tuple)) else str(spec).split(",")
    if len(parts) != 2:
        raise ValueError(f"demand must be LOW,HIGH, got {spec!r}")
    return {"demand_low": float(parts[0]), "demand_high": float(parts[1])}


# Each simulate setting, given as a flag or a config key, as the
# ExperimentConfig fields it sets; a setting not given keeps the field's
# default.
_SIMULATE_SETTINGS = {
    "terminals": lambda v: {"n_terminals": v},
    "fasb_range": lambda v: {"beam_counts": _beam_counts(v)},
    "capacity": lambda v: {"capacity": float(v)},
    "demand": _demand_bounds,
    "reps": lambda v: {"replications": v},
    "seed": lambda v: {"rng_seed": v},
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                settings = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 1

    try:
        if not isinstance(settings, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
        unknown = ", ".join(sorted(set(settings) - set(_SIMULATE_SETTINGS)))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        for key in _SIMULATE_SETTINGS:
            if getattr(args, key) is not None:  # explicit flags override the file
                settings[key] = getattr(args, key)
        fields = {}
        for key, value in settings.items():
            if value is not None:
                fields.update(_SIMULATE_SETTINGS[key](value))
        config = ExperimentConfig(**fields)
    except (TypeError, ValueError, OverflowError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1

    report = run_experiment(config)
    try:
        report.write_csv(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1

    print(f"{'n_fasb':>6}  {'vcg mean':>12}  {'greedy mean':>12}  {'gap':>10}")
    for row in sorted(report.rows, key=lambda r: r.n_fasb):
        gap = row.greedy_mean - row.vcg_mean
        print(
            f"{row.n_fasb:>6}  {row.vcg_mean:>12.6f}  "
            f"{row.greedy_mean:>12.6f}  {gap:>10.6f}"
        )
    print(f"report written to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_dim > _ORACLE_MAX_DIM:
        print(
            f"error: --max-dim {args.max_dim} exceeds the brute-force oracle "
            f"limit of {_ORACLE_MAX_DIM}",
            file=sys.stderr,
        )
        return 2
    if args.max_dim < 1:
        print("error: --max-dim must be >= 1", file=sys.stderr)
        return 2
    if args.cases < 0:
        print("error: --cases must be >= 0", file=sys.stderr)
        return 2
    if args.cases == 0:
        print("warning: --cases 0 requested; nothing checked", file=sys.stderr)
        print("0/0 passed")
        return 0

    tol = 1e-9
    passed = 0
    failures: list[str] = []
    for case in range(args.cases):
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, case)))
        m = int(rng.integers(1, args.max_dim + 1))
        n = int(rng.integers(1, m + 1))
        bids = BidMatrix(rng.uniform(0.0, 150.0, size=(m, n)))
        problems = []

        winners = solve_rectangular(bids)
        oracle = brute_force_min_assignment(bids)
        if abs(winners.total_cost - oracle.total_cost) > tol:
            problems.append(
                f"solver total {winners.total_cost!r} != oracle "
                f"{oracle.total_cost!r}"
            )

        z1 = default_dummy_cost(bids)
        alt = solve_rectangular(bids, 10.0 * z1)
        if alt.pairs != winners.pairs or alt.total_cost != winners.total_cost:
            problems.append("padding-constant invariance violated")

        for i in range(1, m + 1):
            for j in range(1, n + 1):
                pay = payment(bids, winners, i, j)
                if (i, j) in winners.pair_set:
                    relaxed = brute_force_min_assignment(bids, [(i, j)])
                    expected = relaxed.total_cost - (
                        oracle.total_cost - bids.bid(i, j)
                    )
                    if abs(pay - expected) > tol:
                        problems.append(f"payment mismatch at ({i},{j})")
                    if (m, n) != (1, 1) and pay < bids.bid(i, j) - tol:
                        problems.append(f"payment below bid at ({i},{j})")
                elif pay != 0.0:
                    problems.append(f"losing pair ({i},{j}) pays {pay!r}")

        greedy = greedy_allocate(bids, range(1, n + 1))
        if winners.total_cost > greedy.total_cost + tol:
            problems.append("greedy beat the optimal assignment")

        if problems:
            failures.append(f"case {case} ({m}x{n}): " + "; ".join(problems))
        else:
            passed += 1

    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{passed}/{args.cases} passed")
    return 0 if passed == args.cases else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamauction",
        description=(
            "Auction-based spot-beam scheduling: solve bid matrices, sweep "
            "beam counts against a greedy baseline, verify against oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="solve a CSV bid matrix and print winners"
    )
    p_solve.add_argument("matrix", help="path to a headerless CSV bid matrix")
    p_solve.add_argument(
        "--payments",
        action="store_true",
        help="also print the VCG payment for each winning pair",
    )
    p_solve.set_defaults(func=_cmd_solve)

    sweep = ExperimentConfig()
    p_sim = sub.add_parser(
        "simulate", help="sweep beam counts and write a VCG-vs-greedy report"
    )
    p_sim.add_argument("--config", help="JSON config file (flags override it)")
    p_sim.add_argument(
        "--terminals", help=f"number of terminals (default {sweep.n_terminals})"
    )
    p_sim.add_argument(
        "--fasb-range",
        help=(
            f"beam counts to sweep, LOW..HIGH or a single count (default "
            f"{sweep.beam_counts[0]}..{sweep.beam_counts[-1]})"
        ),
    )
    p_sim.add_argument(
        "--capacity", help=f"beam capacity in Mbps (default {sweep.capacity:g})"
    )
    p_sim.add_argument(
        "--demand",
        help=(
            f"uniform demand bounds LOW,HIGH in Mbps (default "
            f"{sweep.demand_low:g},{sweep.demand_high:g})"
        ),
    )
    p_sim.add_argument(
        "--reps", help=f"replications per beam count (default {sweep.replications})"
    )
    p_sim.add_argument("--seed", help=f"base RNG seed (default {sweep.rng_seed})")
    p_sim.add_argument(
        "--out", default="report.csv", help="output CSV path (default report.csv)"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_verify = sub.add_parser(
        "verify", help="cross-check solver and payments against the oracle"
    )
    p_verify.add_argument(
        "--max-dim", type=int, default=5, help="largest terminal count (<= 8)"
    )
    p_verify.add_argument(
        "--cases", type=int, default=200, help="number of random instances"
    )
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


def entry_point() -> None:  # pragma: no cover - thin console-script wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
