"""Workload process: imports the package, warms up, then runs one
closed-loop client for a fixed time.

    python bench/worker.py MANIFEST RESULT

MANIFEST (written by ``run.py``) names the workload, its inputs, the run
time, whether to trace, the package's source directory and the file that
gets one JSON line per request: latency, traced or not, output, error.
RESULT gets the set-up time, the run time, peak RSS and, when tracing,
every span. Numpy is first imported by ``import beamauction``,
inside the set-up timer, because a user pays for it too.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter


def peak_rss_mb() -> float:
    """This process's peak resident memory (VmHWM).

    ``getrusage`` is not used: its ``ru_maxrss`` survives ``exec`` and so
    would report the harness's own peak from before the fork.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def make_request(package, manifest: dict):
    """Return ``request(k)``: run request ``k`` and return its output."""
    if manifest["workload"] == "sweep":
        seeds, reps = manifest["seeds"], manifest["replications"]

        def request(k: int):
            config = package.ExperimentConfig(
                replications=reps, rng_seed=seeds[k % len(seeds)]
            )
            report = package.run_experiment(config)
            return [
                [r.n_fasb, r.vcg_mean, r.greedy_mean, r.replications]
                for r in report.rows
            ]

        return request

    files = manifest["files"]
    cli = package.cli

    def request(k: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            # Looked up per call so that a traced run sees the wrapper.
            status = cli.main(["solve", files[k % len(files)], "--payments"])
        if status != 0:
            raise RuntimeError(f"beamauction solve exited with {status}")
        return out.getvalue()

    return request


def run(manifest: dict) -> dict:
    sys.path.insert(0, manifest["src"])
    start = perf_counter()
    import beamauction
    import beamauction.cli

    request = make_request(beamauction, manifest)
    request(0)  # warm-up, untimed apart from set-up
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s, "module": beamauction.__file__}
    if manifest["setup_only"]:
        return result

    tracer = None
    if manifest["trace"]:
        from spans import Tracer

        tracer = Tracer()
    # Records go straight to a file, so the worker's memory does not grow
    # with the number of requests and peak RSS stays the package's own.
    with open(manifest["records"], "w", encoding="utf-8") as records:
        k = 0
        begin = perf_counter()
        deadline = begin + manifest["seconds"]
        while perf_counter() < deadline:
            # Tracing alternates with untraced requests, so both see the
            # same machine conditions and their medians give its overhead.
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.request = k
                tracer.install()
            t0 = perf_counter()
            try:
                output, error = request(k), None
            except Exception as exc:  # a failed request is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            if traced:
                tracer.uninstall()
            records.write(json.dumps([latency, traced, output, error]) + "\n")
            k += 1
        result["elapsed_s"] = perf_counter() - begin
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def main(argv: list[str]) -> int:
    manifest_path, result_path = argv
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    result = run(manifest)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
