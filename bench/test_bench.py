"""Self-test of the benchmark, kept apart from the package's tests.

Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from loop import closed_loop, serve  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bump(path, amount):
    """Answer transform adding ``amount`` to the number at ``path`` inside the JSON answer."""

    def corrupt(text):
        data = json.loads(text)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += amount
        return json.dumps(data)

    return corrupt


CORRUPTIONS = {
    "oracle": _bump(("outcomes", 2, "probability"), 1e-6),
    "polarization": _bump(("circuits", 0, "p_success"), 1e-6),
    "optimize": _bump(("best_value",), -1e-6),
}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, unit) for name, unit in run.END_TO_END if name not in run.UNBOUNDED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    return line


def _result(workload, trace):
    result = json.loads((BENCH / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in ("git_sha", "src_sha256", "seed", "python", "numpy", "scipy", "nproc", "worker_thread_env"):
        assert key in result["provenance"]
    nproc = result["provenance"]["nproc"]
    assert all(0 < int(v) <= nproc for v in result["provenance"]["worker_thread_env"].values())
    assert result["provenance"]["worker_os_threads"] <= nproc
    assert result["determinism"]["repeat_identical"]
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    line = _run(workload, 0)
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    result = _result(workload, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["samples"] >= 1 for m in result["metrics"].values())
    assert result["metrics"]["setup_s"]["samples"] == run.PROBES + 1
    assert result["metrics"]["failed_frac"]["value"] == 0.0


def test_one_command_traces_every_workload():
    line = _run("all", 1)
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        f"{workload}.{m['name']}": m["unit"] for workload in WORKLOADS for m in SPEC["per_layer"]
    }
    for workload in WORKLOADS:
        metrics = _result(workload, 1)["metrics"]
        assert metrics["optics.apply.calls"]["value"] == (workload != "optimize")
        assert (metrics["optimize.nelder_mead.calls"]["value"] > 0) == (workload == "optimize")
        assert (metrics["teleport.derive_phase_correction.calls"]["value"] > 0) == (workload == "oracle")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_answer_counts_in_failed_frac(workload, tmp_path):
    spec = WORKLOADS[workload]
    records = spec.make_inputs(5, tmp_path)[:2]
    jobs = [spec.prepare(record) for record in records]
    first = serve(spec, jobs[0], records[0])
    assert not first.failed, first
    assert spec.check(records[0], CORRUPTIONS[workload](first.output))

    corrupt = spec._replace(call=lambda job: CORRUPTIONS[workload](spec.call(job)))
    loop = closed_loop(corrupt, jobs, records, seconds=0.1)
    assert loop["failed"] == loop["wrong"] == loop["requests"] >= 1
    report = {
        "first": first.summary(),
        "repeat": first.summary(),
        "repeat_identical": True,
        "loop": loop,
        "spawned": 0.0,
        "imported": 1.0,
        "first_done": 2.0,
        "cold_references": [REFERENCE_S],
        "peak_rss_mb": 1.0,
    }
    counts = run.tally([], report)
    assert counts["wrong"] == loop["requests"]
    failed_frac = run.end_to_end([], report, counts)["failed_frac"]["value"]
    assert failed_frac == loop["requests"] / (loop["requests"] + 2)

    report["repeat_identical"] = False
    assert run.tally([], report)["failed"] == loop["requests"] + 1


def test_calibration_scales_by_the_reference_speed():
    loop = {"latencies": [0.1, 0.3, 0.2], "cpu_times": [0.1, 0.2, 0.3], "references": [REFERENCE_S] * 4}
    worker = {"spawned": 0.0, "imported": 1.0, "first_done": 2.0, "cold_references": [REFERENCE_S] * 6,
              "loop": loop, "peak_rss_mb": 1.0}
    counts = {"failed": 0, "attempted": 5}
    timings = ("setup_s", "first_result_s", "latency_p50_s", "latency_tail_s", "throughput_rps",
               "cpu_s_per_request")
    steady = run.end_to_end([], worker, counts)
    for name in timings:
        assert steady[name]["value"] == pytest.approx(steady[name]["wall_value"])
    assert steady["latency_p50_s"]["value"] == pytest.approx(0.2)

    # The machine runs at half speed: every kernel run takes twice as long.
    slow = run.end_to_end([], {**worker, "cold_references": [2 * REFERENCE_S] * 6,
                               "loop": {**loop, "references": [2 * REFERENCE_S] * 4}}, counts)
    for name in timings:
        factor = 2.0 if name == "throughput_rps" else 0.5
        assert slow[name]["value"] == pytest.approx(factor * slow[name]["wall_value"])


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0])[::2] == (3.0, 0)
