"""Benchmark of klm_teleport: closed-loop workloads, checked answers, traced layers.

Run from the repository root, one workload per run or all in turn:

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads are ``oracle``, ``polarization`` and ``optimize`` (see
``workloads.py`` for why each was chosen).  A run generates its inputs from
``--seed``, then spawns fresh worker processes (``worker.py``), each a single
closed-loop client.  With ``--trace 0`` the run reports the end-to-end
metrics: ``PROBES`` cold-start workers plus the loop worker give the set-up
and first-result samples, and the loop worker times warm requests for
``--seconds``.  Timings of the end-to-end metrics are calibrated to the
machine's current speed by a reference kernel run next to each of them (see
``reference.py``); the uncalibrated figures are kept beside them in the result
file.  With ``--trace 1`` a separate run of the loop worker traces every
second request and reports the per-layer metrics in wall seconds.

Every metric is printed by name and unit, a result file with provenance is
written to ``bench/out/``, and the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (with
``--workload all``, metric names are prefixed by the workload).  The exit code
is 0 when every answer passed its check and the repeated first request was
byte-identical, 1 otherwise, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import AROUND, REFERENCE_S, reference_times, scale
from tracing import LAYER_EXPECTATIONS, LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

WORKLOAD_NAMES = ("oracle", "polarization", "optimize")
#: Cold-start workers spawned around the loop worker on an untraced run.
PROBES = 6
#: Wall-time limit of one run, set-up included.
TIME_LIMIT_S = 170.0
#: Longest --seconds that fits in the time limit next to the set-up.
MAX_SECONDS = 120.0
#: Thread pools of the worker's BLAS and OpenMP libraries.  numpy and scipy
#: each load their own BLAS with its own pool, so each pool gets one thread:
#: the worker then runs one OS thread, within the CPU count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Warm requests that must lie beyond the tail percentile.
TAIL_BEYOND = 10

#: End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("first_result_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_rps", "req/s"),
    ("cpu_s_per_request", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_frac", "ratio"),
)
#: Printed and recorded, but reported to the last line only through
#: ``attempted`` and ``failed``: it reads 0 on a healthy run, so it cannot
#: serve as a metric whose regression bound is a share of its median.
UNBOUNDED = ("failed_frac",)


class BenchError(RuntimeError):
    """A worker crashed, timed out or ran the wrong package."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND beyond it.

    With fewer than TAIL_BEYOND + 1 samples the maximum is reported, and the
    count beyond it (0) says so.
    """
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    beyond = len(ordered) - index - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def _worker_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), **{var: "1" for var in THREAD_VARS}}


def spawn(config: dict, env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its report, stamped with its spawn time.

    The reference kernel runs here just before the spawn and in the worker
    just after its first answer, to calibrate the worker's cold start.
    """
    before = reference_times(AROUND)
    spawned = _now()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - _now(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    report = json.loads(out.decode().splitlines()[-1])
    if Path(report["package_file"]).resolve().parent.parent != SRC:
        raise BenchError(f"worker imported {report['package_file']}, not the package under {SRC}")
    report["spawned"] = spawned
    report["cold_references"] = before + report.pop("references_after")
    return report


def tally(probes: list[dict], loop_worker: dict) -> dict:
    """Count requests attempted, failed and wrongly answered across a run's workers.

    A request fails when it raised, exited non-zero, failed its output check,
    or (for probe first requests and the final repeat) answered with other
    bytes than the loop worker's first request.  ``wrong`` counts the answers
    that were produced but incorrect or not deterministic.
    """
    loop = loop_worker["loop"]
    reference = loop_worker["first"]["sha256"]
    attempted = len(probes) + 1 + loop["requests"] + 1
    failed, wrong = loop["failed"], loop["wrong"]
    failures = list(loop["failures"])
    mismatches = 0
    for report in [*probes, loop_worker]:
        first = report["first"]
        mismatch = report is not loop_worker and first["sha256"] != reference
        mismatches += mismatch
        if first["error"] is not None or first["problems"] or mismatch:
            failed += 1
            wrong += bool(first["problems"]) or (mismatch and first["sha256"] is not None)
            failures.append(f"first request: {first['error'] or first['problems'] or 'output differs'}")
    repeat = loop_worker["repeat"]
    if repeat["error"] is not None or repeat["problems"] or not loop_worker["repeat_identical"]:
        failed += 1
        wrong += repeat["sha256"] is not None
        failures.append(f"repeated first request: {repeat['error'] or repeat['problems'] or 'output differs'}")
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "probe_mismatches": mismatches,
    }


def end_to_end(probes: list[dict], loop_worker: dict, counts: dict) -> dict:
    """The end-to-end metrics, every timing in calibrated seconds (see reference.py).

    Each timing also records its sample count and, as ``wall_value``, the
    same statistic of the uncalibrated wall or CPU times.
    """
    workers = [*probes, loop_worker]
    loop = loop_worker["loop"]
    refs = loop["references"]
    # A request's scale comes from the kernel runs just before and after it.
    scales = [2.0 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    wall = {
        "setup": [w["imported"] - w["spawned"] for w in workers],
        "first": [w["first_done"] - w["spawned"] for w in workers],
        "latency": loop["latencies"],
        "cpu": loop["cpu_times"],
    }
    cold_scales = [scale(w["cold_references"]) for w in workers]
    calibrated = {
        "setup": [t * k for t, k in zip(wall["setup"], cold_scales)],
        "first": [t * k for t, k in zip(wall["first"], cold_scales)],
        "latency": [t * k for t, k in zip(wall["latency"], scales)],
        "cpu": [t * k for t, k in zip(wall["cpu"], scales)],
    }
    requests = len(wall["latency"])
    values = {}
    for name, times in (("calibrated", calibrated), ("wall", wall)):
        tail_value, percentile, beyond = tail(times["latency"])
        values[name] = {
            "setup_s": statistics.median(times["setup"]),
            "first_result_s": statistics.median(times["first"]),
            "latency_p50_s": statistics.median(times["latency"]),
            "latency_tail_s": tail_value,
            "throughput_rps": requests / math.fsum(times["latency"]),
            "cpu_s_per_request": math.fsum(times["cpu"]) / requests,
        }
    extra = {
        "setup_s": {"samples": len(workers)},
        "first_result_s": {"samples": len(workers)},
        "latency_p50_s": {"samples": requests},
        "latency_tail_s": {"samples": requests, "percentile": percentile, "samples_beyond": beyond},
        "throughput_rps": {"samples": requests},
        "cpu_s_per_request": {"samples": requests},
    }
    metrics = {
        name: {"value": values["calibrated"][name], "wall_value": values["wall"][name], **extra[name]}
        for name in extra
    }
    metrics["peak_rss_mb"] = {"value": loop_worker["peak_rss_mb"], "samples": 1}
    metrics["failed_frac"] = {"value": counts["failed"] / counts["attempted"], "samples": counts["attempted"]}
    return {name: {"unit": unit, **metrics[name]} for name, unit in END_TO_END}


def per_layer(loop_worker: dict) -> dict:
    loop = loop_worker["loop"]
    plain, traced = loop["latencies"], loop["traced_latencies"]
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0 if plain and traced else 0.0
    values = {
        **loop_worker["layers"],
        "import.modules": float(loop_worker["import_modules"]),
        "import.scipy_loaded": float(loop_worker["scipy_loaded"]),
        "trace.overhead_frac": overhead,
    }
    samples = {"traced_requests": len(traced), "untraced_requests": len(plain)}
    return {name: {"value": values[name], "unit": unit, **samples} for name, unit, _ in LAYER_METRICS}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(workload: str, args, env: dict, loop_worker: dict) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "klm_teleport").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": source.hexdigest(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "worker_thread_env": {var: env[var] for var in THREAD_VARS},
        "worker_os_threads": loop_worker.get("os_threads"),
        "probes": 0 if args.trace else PROBES,
        "reference_s": REFERENCE_S,
    }


def run_workload(workload: str, args) -> dict:
    """One run of one workload: inputs, workers, metrics, result file and printed table.

    Returns the summary line: ``correct``, ``attempted``, ``failed`` and the
    metrics listed in BENCHMARK.json.
    """
    from workloads import WORKLOADS

    started = _now()
    work_dir = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    records = WORKLOADS[workload].make_inputs(args.seed, work_dir)
    (work_dir / "inputs.json").write_text(json.dumps(records))

    env = _worker_env()
    config = {"workload": workload, "work_dir": str(work_dir), "seconds": args.seconds, "trace": args.trace}
    deadline = started + TIME_LIMIT_S
    # Half the probes run before the loop worker and half after it, so the
    # set-up samples span the run instead of one moment of a noisy machine.
    probe_count = 0 if args.trace else PROBES
    before = [spawn({**config, "probe": True}, env, deadline) for _ in range(probe_count // 2)]
    loop_worker = spawn({**config, "probe": False}, env, deadline)
    after = [spawn({**config, "probe": True}, env, deadline) for _ in range(probe_count - probe_count // 2)]
    probes = before + after

    counts = tally(probes, loop_worker)
    if args.trace:
        metrics = per_layer(loop_worker)
        reported = list(metrics)
    else:
        metrics = end_to_end(probes, loop_worker, counts)
        reported = [name for name, _ in END_TO_END if name not in UNBOUNDED]
    correct = counts["wrong"] == 0 and counts["failed"] < counts["attempted"]

    result = {
        "provenance": provenance(workload, args, env, loop_worker),
        "correct": correct,
        **counts,
        "metrics": metrics,
        "determinism": {
            "repeat_identical": loop_worker["repeat_identical"],
            "probe_mismatches": counts["probe_mismatches"],
            "first_output_sha256": loop_worker["first"]["sha256"],
            "outputs_sha256": loop_worker["loop"]["outputs_sha256"],
            "outputs_count": loop_worker["loop"]["outputs_count"],
        },
    }
    if args.trace:
        result["self_time_shares"] = loop_worker["self_time_shares"]
        result["spans"] = {"count": loop_worker["spans"], "file": str(work_dir / "spans.jsonl.gz")}
        result["layer_expectations"] = [
            {"metrics": m, "should_move": e2e, "on": on, "bypassed_on": off}
            for m, e2e, on, off in LAYER_EXPECTATIONS
        ]
    result_path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    for name, metric in metrics.items():
        extra = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in metric.items() if k not in ("value", "unit"))
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']} ({extra})")
    for failure in counts["failures"]:
        print(f"{workload} FAILED {failure}")
    print(f"{workload} correct={correct} attempted={counts['attempted']} "
          f"failed={counts['failed']} result={result_path.relative_to(ROOT)}")
    return {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in reported},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in (0, {MAX_SECONDS:g}]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "klm_teleport" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # The build: bytecode for the package and the worker's own modules, so
    # every worker imports them as installed code is imported, whether or not
    # the environment lets Python write bytecode itself.
    for directory in (SRC / "klm_teleport", BENCH):
        compileall.compile_dir(directory, maxlevels=0, quiet=1)
    sys.path.insert(0, str(SRC))
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        lines = {workload: run_workload(workload, args) for workload in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, line in lines.items()
                for name, metric in line["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
