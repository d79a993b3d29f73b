"""One benchmark client: import the package, answer requests one at a time, report.

``run.py`` starts this script in a fresh interpreter with a JSON config as its
only argument and reads one JSON report from the last line of its stdout.
A probe answers the first request cold and exits; the loop worker then keeps
sending requests, each only after the previous one is answered, for the run's
length, and finally repeats the first request to check determinism.
"""

import sys
import time


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the spawn time taken by the parent
    # process and the times taken here share one origin.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    import klm_teleport.cli  # noqa: F401  -- setup_s ends when this returns

    imported = _now()
    import_modules = len(sys.modules)
    scipy_loaded = "scipy" in sys.modules

    import json
    import resource
    from pathlib import Path

    from loop import closed_loop, serve
    from reference import AROUND, reference_times
    from tracing import Tracer
    from workloads import WORKLOADS

    config = json.loads(sys.argv[1])
    work_dir = Path(config["work_dir"])
    workload = WORKLOADS[config["workload"]]
    records = json.loads((work_dir / "inputs.json").read_text())
    jobs = [workload.prepare(record) for record in records]

    first = serve(workload, jobs[0], records[0])
    first_done = _now()
    report = {
        "package_file": klm_teleport.cli.__file__,
        "imported": imported,
        "first_done": first_done,
        "references_after": reference_times(AROUND),
        "import_modules": import_modules,
        "scipy_loaded": scipy_loaded,
        "first": first.summary(),
    }
    if not config["probe"]:
        tracer = Tracer() if config["trace"] else None
        loop = closed_loop(workload, jobs, records, config["seconds"], tracer)
        repeat = serve(workload, jobs[0], records[0])
        report["loop"] = loop
        report["repeat"] = repeat.summary()
        report["repeat_identical"] = repeat.output is not None and repeat.output == first.output
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["os_threads"] = _os_threads()
        if tracer is not None:
            report["layers"] = tracer.layer_metrics()
            report["self_time_shares"] = tracer.self_time_shares()
            report["spans"] = len(tracer.spans)
            tracer.write(work_dir / "spans.jsonl.gz")
    print(json.dumps(report))


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


if __name__ == "__main__":
    main()
