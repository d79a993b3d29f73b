"""The closed loop: one client, one request in flight, every answer checked."""

from __future__ import annotations

import contextlib
import hashlib
import time
from typing import NamedTuple

from reference import reference_time

#: Failure messages kept per run; the counts are always complete.
KEPT_FAILURES = 20


class Result(NamedTuple):
    latency: float
    cpu: float
    output: str | None
    problems: tuple[str, ...]
    error: str | None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def summary(self) -> dict:
        return {
            "latency": self.latency,
            "cpu": self.cpu,
            "error": self.error,
            "problems": list(self.problems),
            "sha256": None if self.output is None else _sha256(self.output),
        }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def serve(workload, job, record, scope=None) -> Result:
    """Send one request, time it, and check its answer outside the timed region."""
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            output = workload.call(job)
    except Exception as exc:  # request boundary: count the failure, keep serving
        latency, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        return Result(latency, cpu, None, (), f"{type(exc).__name__}: {exc}")
    latency, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    try:
        problems = tuple(workload.check(record, output))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems = (f"malformed answer: {type(exc).__name__}: {exc}",)
    return Result(latency, cpu, output, problems, None)


def closed_loop(workload, jobs, records, seconds: float, tracer=None) -> dict:
    """Send warm requests for ``seconds``, cycling through inputs 1, 2, ..., 0, 1, ...

    Without a tracer, the reference kernel runs before the first request and
    after each one, so every request has a reference time on each side of it.
    With a tracer, every second request is traced and the others run the
    plain code, so the two latency sets give the tracing overhead.
    """
    latencies: list[float] = []
    cpu_times: list[float] = []
    references: list[float] = []
    traced_latencies: list[float] = []
    failures: list[str] = []
    failed = wrong = 0
    outputs = hashlib.sha256()
    if tracer is None:
        references.append(reference_time())
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < seconds:
        index = (count + 1) % len(jobs)
        traced = tracer is not None and count % 2 == 1
        scope = tracer.request(count) if traced else None
        result = serve(workload, jobs[index], records[index], scope)
        if traced:
            traced_latencies.append(result.latency)
        else:
            latencies.append(result.latency)
            cpu_times.append(result.cpu)
        if tracer is None:
            references.append(reference_time())
        outputs.update(b"<failed>" if result.output is None else result.output.encode())
        if result.failed:
            failed += 1
            wrong += bool(result.problems)
            if len(failures) < KEPT_FAILURES:
                failures.append(f"input {index}: {result.error or '; '.join(result.problems)}")
        count += 1
    return {
        "requests": count,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "latencies": latencies,
        "cpu_times": cpu_times,
        "references": references,
        "traced_latencies": traced_latencies,
        "outputs_sha256": outputs.hexdigest(),
        "outputs_count": count,
    }
