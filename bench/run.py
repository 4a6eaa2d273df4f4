"""beamauction benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload {sweep,auction} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. The harness draws the workload's inputs
from ``--seed``, times the set-up of fresh worker processes, runs one
worker for ``--seconds`` with a single client that sends each request
when the previous one returned, checks every output against scipy, and
prints human-readable lines followed by one JSON line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced requests and reports per-layer metrics per traced
request, plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import os

# One process, one thread: keep BLAS pools out of the harness and worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from oracle import REFERENCE_SWEEP_SHA256, AuctionOracle, check_sweep, reference_sweep_sha256
from spans import summarise
from workloads import (
    SPECS,
    SWEEP_BEAM_COUNTS,
    SWEEP_TERMINALS,
    input_properties,
    make_manifest,
    sweep_matrices,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh worker processes whose set-up is timed besides the measuring one.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# Percentiles the tail may be reported at, highest first. A coarse,
# conventional grid keeps one workload on the same percentile from run to
# run; a fine one would move it with every run's sample count.
TAIL_GRID = (99.9, 99, 90, 50)
# (span, field) reported per traced request as metric "span.field".
LAYER_METRICS = (
    ("assignment.solve_rectangular", "calls"),
    ("assignment.solve_rectangular", "self_ms"),
    ("assignment.solve_rectangular_forbidden", "calls"),
    ("assignment.solve_rectangular_forbidden", "self_ms"),
    ("auction.payment", "calls"),
    ("auction.payment", "self_ms"),
    ("auction.run_auction", "self_ms"),
    ("model.build_bid_matrix", "self_ms"),
    ("model.build_bid_matrix", "cells"),
    ("sim.generate_scenario", "calls"),
    ("sim.generate_scenario", "self_ms"),
    ("sim.run_experiment", "self_ms"),
    ("baseline.greedy_allocate", "calls"),
    ("baseline.greedy_allocate", "self_ms"),
    ("cli.parse_bid_matrix", "self_ms"),
    ("cli.main", "self_ms"),
)
UNITS = {"calls": "count", "cells": "count", "self_ms": "ms"}


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the highest grid
    percentile with at least ten samples beyond it (nearest rank).

    With fewer than 20 samples no percentile qualifies and the median is
    returned with its true count beyond.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_GRID:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, ordered[rank - 1], n - rank


def run_worker(manifest: dict, work_dir: Path, tag: str, timeout: float) -> dict:
    manifest_path = work_dir / f"{tag}.manifest.json"
    result_path = work_dir / f"{tag}.result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(manifest_path), str(result_path)],
        cwd=ROOT,
        timeout=timeout,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"worker imported beamauction from {result['module']}")
    return result


def check_outputs(spec, manifest, matrices, records) -> tuple[int, list[str], list[float], dict]:
    """Check every request; return failures, sample problems, the scipy
    time per request and the input properties."""
    failed, problems, scipy_s = 0, [], []
    if spec.name == "sweep":
        seeds = manifest["seeds"]
        for k, (_latency, _traced, output, error) in enumerate(records):
            found = [error] if error else []
            if not error:
                found, spent = check_sweep(output, seeds[k % len(seeds)], spec.replications)
                scipy_s.append(spent)
            failed += bool(found)
            problems += [f"request {k}: {p}" for p in found]
        sample = [bids for _, bids in sweep_matrices(seeds[0], spec.replications)]
        cells = SWEEP_TERMINALS * sum(SWEEP_BEAM_COUNTS) * spec.replications
        return failed, problems, scipy_s, input_properties(sample, cells)

    oracle = AuctionOracle(matrices)
    files = manifest["files"]
    for k, (_latency, _traced, output, error) in enumerate(records):
        found = [error] if error else oracle.check(files[k % len(files)], output)
        failed += bool(found)
        problems += [f"request {k}: {p}" for p in found]
    for path in files:
        oracle.total(path)
    props = input_properties(list(matrices.values()), spec.terminals * spec.beams)
    return failed, problems, list(oracle.scipy_s.values()), props


def reference_pin(work_dir: Path) -> str:
    """Untimed: the default sweep still reproduces the pinned CSV."""
    sys.path.insert(0, str(SRC))
    import beamauction.cli

    return reference_sweep_sha256(beamauction.cli, str(work_dir))


def measure(spec, seed: int, seconds: float, trace: bool, work_dir: Path, pin: bool = True):
    """Run one workload; return ``(lines, result)`` where ``result`` is the
    JSON object the benchmark prints last."""
    manifest, matrices = make_manifest(spec, seed, str(work_dir))
    records_path = work_dir / "records.jsonl"
    manifest.update(
        src=str(SRC), seconds=seconds, trace=trace, setup_only=False, records=str(records_path)
    )

    setups = []
    if not trace:
        for probe in range(SETUP_PROBES):
            probed = run_worker(
                dict(manifest, setup_only=True), work_dir, f"probe{probe}", PROBE_TIMEOUT_S
            )
            setups.append(probed["setup_s"])
    measured = run_worker(manifest, work_dir, "run", seconds + 170)
    setups.append(measured["setup_s"])
    with open(records_path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    failed, problems, scipy_s, props = check_outputs(spec, manifest, matrices, records)

    n = len(records)
    lines = [
        f"workload {spec.name}: {n} requests in {measured['elapsed_s']:.3f} s, "
        "one closed-loop client",
        "inputs " + json.dumps(props),
        f"failed_share {failed / max(1, n):.6f} ({failed} of {n})",
    ]
    lines += [f"problem {p}" for p in problems[:10]]
    correct = failed == 0 and bool(records)
    if pin:
        digest = reference_pin(work_dir)
        pin_ok = digest == REFERENCE_SWEEP_SHA256
        correct = correct and pin_ok
        verdict = "matches" if pin_ok else "DIFFERS from"
        lines.append(f"reference sweep sha256 {digest} {verdict} the pin")
    scipy_ms = 1000 * statistics.median(scipy_s) if scipy_s else 0.0
    lines.append(
        f"yardstick scipy linear_sum_assignment {scipy_ms:.4f} ms "
        "per request's assignment problems"
    )
    lines.append("wait: none measured; a single closed-loop client never queues")

    untraced = [1000 * latency for latency, traced, _, _ in records if not traced]
    metrics = {}
    if not trace:
        p, value, beyond = tail(untraced)
        lines.append(f"latency_tail_ms is p{p} of {len(untraced)} samples, {beyond} beyond it")
        lines.append(f"setup_s samples {[round(s, 4) for s in setups]}")
        metrics = {
            "latency_p50_ms": (statistics.median(untraced), "ms"),
            "latency_tail_ms": (value, "ms"),
            "throughput_per_s": (n / measured["elapsed_s"], "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        }
    else:
        traced_ms = [1000 * latency for latency, traced, _, _ in records if traced]
        per_request = max(1, len(traced_ms))
        totals = summarise(measured["spans"])
        for span, field in LAYER_METRICS:
            entry = totals.get(span, {"calls": 0, "self_s": 0.0, "cells": 0})
            raw = 1000 * entry["self_s"] if field == "self_ms" else entry[field]
            metrics[f"{span}.{field}"] = (raw / per_request, UNITS[field])
        forbidden = totals.get("assignment.solve_rectangular_forbidden", {}).get("calls", 0)
        payments = totals.get("auction.payment", {}).get("calls", 0)
        resolves = forbidden / payments if payments else 0.0
        metrics["auction.resolves_per_payment"] = (resolves, "ratio")
        overhead = 0.0
        if traced_ms and untraced:
            overhead = 100 * (statistics.median(traced_ms) / statistics.median(untraced) - 1)
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["yardstick.scipy_lsa_ms"] = (scipy_ms, "ms")
        lines.append(f"traced {len(traced_ms)} of {n} requests, {len(measured['spans'])} spans")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value!r} {unit}")

    result = {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beamauction" / "__init__.py").is_file():
        print(f"error: no beamauction sources under {SRC}", file=sys.stderr)
        return 2
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        lines, result = measure(
            SPECS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
