"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Kept outside the tier-1 ``testpaths``: it checks the harness, not the
package.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
from oracle import AuctionOracle
from workloads import TINY, make_manifest

sys.path.insert(0, str(run.SRC))
import beamauction  # noqa: E402
import beamauction.cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Spans each workload must reach; every other traced span must stay unused.
EXPECTED_SPANS = {
    "sweep": {
        "assignment.solve_rectangular",
        "model.build_bid_matrix",
        "sim.generate_scenario",
        "sim.run_experiment",
        "baseline.greedy_allocate",
    },
    "auction": {
        "assignment.solve_rectangular",
        "assignment.solve_rectangular_forbidden",
        "auction.payment",
        "auction.run_auction",
        "cli.parse_bid_matrix",
        "cli.main",
    },
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    lines, result = run.measure(TINY[workload], 3, 0.3, trace, tmp_path, pin=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, entry in result["metrics"].items():
        assert f"{name} {entry['value']!r} {entry['unit']}" in lines
    if not trace:
        return
    values = {n: v["value"] for n, v in result["metrics"].items()}
    for span, field in run.LAYER_METRICS:
        metric = f"{span}.{field}"
        if span in EXPECTED_SPANS[workload]:
            assert values[metric] > 0, metric
        else:
            assert values[metric] == 0, metric


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert beamauction.cli.main(argv) == 0
    return out.getvalue()


def _corrupt(text, prefix, delta):
    """Add ``delta`` to the last field of the first line starting with ``prefix``."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    head, value = lines[k].rsplit(",", 1)
    lines[k] = f"{head},{float(value) + delta:.6f}"
    return "\n".join(lines) + "\n"


def test_auction_checker_counts_corrupted_answers(tmp_path):
    spec = TINY["auction"]
    manifest, matrices = make_manifest(spec, 5, str(tmp_path))
    path = manifest["files"][0]
    good = _cli_output(["solve", path, "--payments"])
    oracle = AuctionOracle(matrices)
    assert oracle.check(path, good) == []

    lines = good.splitlines()
    corrupted = [
        _corrupt(good, "total,", 0.5),
        "\n".join(line for line in lines if not line.startswith("total,")),
        "\n".join(lines[1:]),  # a winning pair dropped
        _corrupt(good, "payment,", 0.5),
        "\n".join(line for line in lines if not line.startswith("payment,")),
    ]
    for text in corrupted:
        assert oracle.check(path, text), text

    records = [(0.1, False, good, None), (0.1, False, corrupted[0], None)]
    records.append((0.1, False, None, "RuntimeError: boom"))
    failed, problems, _scipy, _props = run.check_outputs(spec, manifest, matrices, records)
    assert failed == 2, problems


def test_sweep_checker_counts_corrupted_answers(tmp_path):
    spec = TINY["sweep"]
    manifest, matrices = make_manifest(spec, 5, str(tmp_path))
    config = beamauction.ExperimentConfig(
        replications=spec.replications, rng_seed=manifest["seeds"][0]
    )
    good = [
        [r.n_fasb, r.vcg_mean, r.greedy_mean, r.replications]
        for r in beamauction.run_experiment(config).rows
    ]
    wrong_mean = [row.copy() for row in good]
    wrong_mean[0][1] += 0.5
    greedy_wins = [row.copy() for row in good]
    greedy_wins[-1][2] = greedy_wins[-1][1] - 1.0
    records = [(0.1, False, rows, None) for rows in (good, wrong_mean, greedy_wins, good[1:])]
    failed, problems, _scipy, _props = run.check_outputs(spec, manifest, matrices, records)
    assert failed == 3, problems


def test_command_line_contract():
    cmd = [sys.executable, "bench/run.py", "--workload", "auction", "--seed", "1"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
