"""Spans around the package's module boundaries, recorded from outside the package.

Modules bind their imports by name, so each wrapper is installed at the name
its caller looks up (``klm_teleport.teleport.apply``, not ``optics.apply``).
Wrappers are installed only for the duration of a traced request and the
originals are restored afterwards, so untraced requests run the plain code.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


def _terms(args, result):
    return {
        "optics.apply.terms_in": len(args[1].amplitudes),
        "optics.apply.terms_out": len(result.amplitudes),
    }


def _outcomes(args, result):
    return {"fock.measure_photon_counts.outcomes": len(result)}


def _patterns(metric):
    def count(args, result):
        return {metric: sum(len(o.patterns or ()) for o in result)}

    return count


def _evaluations(args, result):
    return {"optimize.evaluations": result.evaluations}


def _teleport_fourier(args, result):
    return {"teleport.fourier_calls": 1}


#: (module, attribute the caller looks up, span name, counters taken from args and result)
TARGETS = (
    ("klm_teleport.cli", "main", "cli.main", None),
    ("klm_teleport.cli", "dump_json", "cli.dump_json", None),
    ("klm_teleport.cli", "run_oracle", "teleport.run_oracle", _patterns("teleport.patterns")),
    ("klm_teleport.cli", "maximize", "optimize.maximize", _evaluations),
    ("klm_teleport.teleport", "tensor", "fock.tensor", None),
    ("klm_teleport.teleport", "apply", "optics.apply", _terms),
    ("klm_teleport.teleport", "measure_photon_counts", "fock.measure_photon_counts", _outcomes),
    ("klm_teleport.teleport", "fourier_unitary", "optics.fourier_unitary", _teleport_fourier),
    ("klm_teleport.teleport", "derive_phase_correction", "teleport.derive_phase_correction", None),
    ("klm_teleport.teleport", "transition_amplitude", "optics.transition_amplitude", None),
    (
        "klm_teleport.polarization",
        "run_oracle_polarization",
        "polarization.run_oracle_polarization",
        _patterns("polarization.patterns"),
    ),
    ("klm_teleport.polarization", "tensor", "fock.tensor", None),
    ("klm_teleport.polarization", "apply", "optics.apply", _terms),
    ("klm_teleport.polarization", "measure_photon_counts", "fock.measure_photon_counts", _outcomes),
    ("klm_teleport.polarization", "fourier_unitary", "optics.fourier_unitary", None),
    ("klm_teleport.polarization", "correction_circuit", "polarization.correction_circuit", None),
    ("klm_teleport.correction", "kraus_for", "correction.kraus_for", None),
    ("klm_teleport.optimize", "minimize", "optimize.nelder_mead", None),
)

#: Per-layer metrics, all per traced request unless the unit says otherwise:
#: (name, unit, better).  ``.calls`` counts calls, ``.s`` is busy time and
#: ``.self_s`` is busy time minus the time of child spans.
LAYER_METRICS = (
    ("optics.apply.calls", "count", "lower"),
    ("optics.apply.s", "s", "lower"),
    ("optics.apply.self_s", "s", "lower"),
    ("optics.apply.terms_in", "count", "lower"),
    ("optics.apply.terms_out", "count", "lower"),
    ("optics.transition_amplitude.calls", "count", "lower"),
    ("optics.transition_amplitude.s", "s", "lower"),
    ("optics.fourier_unitary.calls", "count", "lower"),
    ("optics.fourier_unitary.s", "s", "lower"),
    ("teleport.derive_phase_correction.calls", "count", "lower"),
    ("teleport.derive_phase_correction.s", "s", "lower"),
    ("teleport.fourier_per_pattern", "ratio", "lower"),
    ("teleport.run_oracle.s", "s", "lower"),
    ("teleport.run_oracle.self_s", "s", "lower"),
    ("teleport.patterns", "count", "lower"),
    ("fock.measure_photon_counts.calls", "count", "lower"),
    ("fock.measure_photon_counts.s", "s", "lower"),
    ("fock.measure_photon_counts.outcomes", "count", "lower"),
    ("fock.tensor.s", "s", "lower"),
    ("polarization.run_oracle_polarization.s", "s", "lower"),
    ("polarization.run_oracle_polarization.self_s", "s", "lower"),
    ("polarization.patterns", "count", "lower"),
    ("polarization.correction_circuit.calls", "count", "lower"),
    ("polarization.correction_circuit.s", "s", "lower"),
    ("correction.kraus_for.calls", "count", "lower"),
    ("correction.kraus_for.s", "s", "lower"),
    ("optimize.maximize.s", "s", "lower"),
    ("optimize.maximize.self_s", "s", "lower"),
    ("optimize.evaluations", "count", "lower"),
    ("optimize.evaluations_per_s", "1/s", "higher"),
    ("optimize.nelder_mead.calls", "count", "lower"),
    ("optimize.nelder_mead.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.dump_json.s", "s", "lower"),
    ("import.modules", "count", "lower"),
    ("import.scipy_loaded", "flag", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Which end-to-end metric each layer should move, on which workloads, and
#: which workloads bypass it (its metrics read exactly 0 there).
LAYER_EXPECTATIONS = (
    ("optics.apply.*", "latency_p50_s, throughput_rps",
     "oracle, polarization (different shares)", "optimize"),
    ("optics.transition_amplitude.*, optics.fourier_unitary.*, "
     "teleport.derive_phase_correction.*, teleport.fourier_per_pattern",
     "latency_p50_s", "oracle", "polarization, optimize"),
    ("teleport.run_oracle.*, teleport.patterns", "latency_p50_s", "oracle", "polarization, optimize"),
    ("fock.measure_photon_counts.*, fock.tensor.s", "latency_p50_s (small share, ~3%)",
     "oracle, polarization", "optimize"),
    ("polarization.*, correction.kraus_for.*", "latency_p50_s", "polarization", "oracle, optimize"),
    ("optimize.maximize.*, optimize.evaluations*, optimize.nelder_mead.*",
     "latency_p50_s, latency_tail_s", "optimize", "oracle, polarization"),
    ("cli.main.self_s, cli.dump_json.s", "latency_p50_s (small)", "oracle, optimize", "polarization"),
    ("import.modules, import.scipy_loaded",
     "setup_s on all; first_result_s on oracle and polarization only", "all", "none"),
    ("trace.overhead_frac", "none: traced latency_p50_s / untraced - 1", "all", "none"),
)


class Tracer:
    """In-memory span recorder for wrappers installed at the package's call sites."""

    def __init__(self) -> None:
        #: (span id, parent span id, name, start, end, request id)
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.requests = 0
        self._open: list[tuple[int, str]] = []
        self._request = -1
        self._patches = []
        for module_name, attribute, span_name, measure in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            wrapper = self._wrap(span_name, original, measure)
            self._patches.append((module, attribute, original, wrapper))

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._open[-1][0] if self._open else None
        span_id = len(self.spans) + len(self._open)
        self._open.append((span_id, name))
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._open.pop()
            self.spans.append((span_id, parent, name, start, end, self._request))

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            if any(open_name == name for _, open_name in self._open):
                # A recursive call (dump_json): the outermost span covers it.
                return fn(*args, **kwargs)
            with self._span(name):
                result = fn(*args, **kwargs)
            if measure is not None:
                self.counts.update(measure(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Trace one request: install every wrapper, open a root span, restore after."""
        self._request = request_id
        for module, attribute, _, wrapper in self._patches:
            setattr(module, attribute, wrapper)
        try:
            with self._span("request"):
                yield
        finally:
            for module, attribute, original, _ in self._patches:
                setattr(module, attribute, original)
            self.requests += 1

    def busy_times(self) -> tuple[Counter, Counter, Counter]:
        """Total calls, busy seconds and self seconds per span name."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, busy, self_time = Counter(), Counter(), Counter()
        for span_id, _, name, start, end, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            self_time[name] += end - start - child_time[span_id]
        return calls, busy, self_time

    def layer_metrics(self) -> dict[str, float]:
        """Per-request layer metrics from the spans and counters (not import or overhead)."""
        calls, busy, self_time = self.busy_times()
        per = max(self.requests, 1)

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        special = {
            "teleport.fourier_per_pattern": ratio(
                self.counts["teleport.fourier_calls"], self.counts["teleport.patterns"]
            ),
            "optimize.evaluations_per_s": ratio(
                self.counts["optimize.evaluations"], busy["optimize.maximize"]
            ),
        }
        metrics = {}
        for name, _, _ in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if name in special:
                metrics[name] = special[name]
            elif name.startswith(("import.", "trace.")):
                continue
            elif kind == "calls":
                metrics[name] = calls[layer] / per
            elif kind == "s":
                metrics[name] = busy[layer] / per
            elif kind == "self_s":
                metrics[name] = self_time[layer] / per
            else:
                metrics[name] = self.counts[name] / per
        return metrics

    def self_time_shares(self) -> dict[str, float]:
        """Each span name's self time as a share of total traced request time."""
        _, busy, self_time = self.busy_times()
        total = busy["request"]
        return {name: value / total for name, value in self_time.most_common()} if total else {}

    def write(self, path) -> None:
        """Write every span as one JSON line: [id, parent, name, start, end, request]."""
        with gzip.open(path, "wt") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")
