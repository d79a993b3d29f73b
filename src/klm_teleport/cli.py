"""Command-line front end: run the protocol, check the formulas, optimize, sweep.

Four subcommands:

* ``teleport``  — outcome table for one resource/input pair (JSON or CSV),
  optionally reconciled against the exact Fock-space oracle (JSON only),
  which runs up to n = 8 unless ``--oracle-limit`` says otherwise.
* ``psuccess``  — brute-force versus extrema-formula success probability.
* ``optimize``  — maximize success probability or average fidelity over the
  resource weights; emits the full optimization report.
* ``sweep``     — per-n scaling table (CSV by default) for external plotting.

Only ``optimize`` and ``sweep`` draw random numbers, so only they take
``--seed``; ``random:SEED`` qubits carry their own.  All output is
deterministic: floats are serialized with 17 significant digits and JSON
keys are sorted, so re-runs are byte-identical.  Exit codes: 0 on success,
2 for configuration errors (an unwritable ``--out`` is refused before any
work), 3 when an internal cross-check (oracle agreement) fails.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .correction import (
    PlateauError,
    classify_sequence,
    p_success_closed_form,
    p_success_given_m,
    p_success_total_brute,
)
from .fock import QubitAmplitudes
from .optics import MAX_PHOTONS
from .optimize import (
    FailureConvention,
    SimplexPoint,
    avg_fidelity_closed_form,
    maximize,
)
from .teleport import (
    COEFF_NORM_TOL,
    ORACLE_LIMIT,
    ORACLE_TOL,
    RESOURCE_LIMIT,
    OracleMismatchError,
    ResourceCoefficients,
    load_coefficients,
    normalize_coefficients,
    oracle_deviation,
    run_analytic,
    run_oracle,
)

SWEEP_HEADER = "n,p_success_uniform,avg_fid_uniform,avg_fid_optimized"
TELEPORT_CSV_HEADER = "m,probability,p_success_given_m,p_success_joint"


class ConfigError(ValueError):
    """Invalid command-line configuration; reported once, exit code 2."""


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"refusing to serialize non-finite value {value!r}")
    return format(float(value), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        raise TypeError("serialize complex values as [re, im] pairs")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("JSON object keys must be strings")
        body = ",\n".join(
            f"{inner}{json.dumps(k)}: {dump_json(obj[k], indent + 1)}" for k in keys
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dump_json(item, indent + 1) for item in obj]
        if all("\n" not in p and len(p) < 24 for p in parts) and len(parts) <= 8:
            return "[" + ", ".join(parts) + "]"
        body = ",\n".join(inner + p for p in parts)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _complex_pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def parse_qubit(text: str | None) -> QubitAmplitudes:
    """Parse ``RE,IM+RE,IM`` (normalized if slightly off) or ``random:SEED``.

    The default input is the balanced superposition.  Exponent notation with
    an explicit plus sign is not supported, since '+' separates the two
    amplitudes.
    """
    if text is None:
        r = 1.0 / math.sqrt(2.0)
        return QubitAmplitudes(r, r)
    if text.startswith("random:"):
        try:
            seed = int(text[len("random:") :])
        except ValueError:
            raise ConfigError(f"bad random qubit seed in {text!r}") from None
        if seed < 0:
            raise ConfigError(f"random qubit seed must be nonnegative, got {text!r}")
        return QubitAmplitudes.haar_random(np.random.default_rng(seed))
    halves = text.split("+", 1)
    if len(halves) != 2:
        raise ConfigError(
            f"qubit must look like RE,IM+RE,IM or random:SEED, got {text!r}"
        )
    try:
        alpha = _parse_complex(halves[0])
        beta = _parse_complex(halves[1])
    except ValueError as exc:
        raise ConfigError(f"bad qubit amplitude in {text!r}: {exc}") from None
    try:
        return QubitAmplitudes.from_unnormalized(alpha, beta)
    except ValueError as exc:
        raise ConfigError(f"bad qubit amplitudes {text!r}: {exc}") from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected RE,IM, got {text!r}")
    value = complex(float(parts[0]), float(parts[1]))
    if not cmath.isfinite(value):
        raise ValueError(f"amplitude must be finite, got {text!r}")
    return value


def parse_coefficients(args: argparse.Namespace) -> ResourceCoefficients:
    """Resolve --coeffs/--n/--squared/--renormalize into a coefficient vector."""
    source = args.coeffs
    if source == "uniform":
        if args.n is None:
            raise ConfigError("--coeffs uniform requires --n")
        if args.squared:
            raise ConfigError("--squared applies to inline coefficients only")
        if args.n < 1:
            raise ConfigError(f"--n must be at least 1, got {args.n}")
        if args.n > RESOURCE_LIMIT:
            raise ConfigError(f"--n must be at most {RESOURCE_LIMIT}, got {args.n}")
        return ResourceCoefficients.uniform(args.n)
    if source.startswith("inline:"):
        body = source[len("inline:") :]
        entries = body.split(",")
        if len(entries) > RESOURCE_LIMIT + 1:
            raise ConfigError(
                f"inline coefficients allow n <= {RESOURCE_LIMIT}, "
                f"got {len(entries)} entries"
            )
        try:
            values = [float(v) for v in entries]
        except ValueError:
            raise ConfigError(f"bad inline coefficient list {body!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"inline coefficients must be finite, got {body!r}")
        if len(values) < 2:
            raise ConfigError("inline coefficients need at least two entries")
        if args.n is not None and args.n + 1 != len(values):
            raise ConfigError(
                f"--n {args.n} disagrees with {len(values)} inline coefficients"
            )
        if args.squared:
            if any(v < 0 for v in values):
                raise ConfigError("squared moduli cannot be negative")
            try:
                total = math.fsum(values)
            except OverflowError:
                raise ConfigError("squared moduli overflow their sum") from None
            if total == 0.0:
                raise ConfigError("squared moduli cannot all be zero")
            if abs(total - 1.0) > COEFF_NORM_TOL and not args.renormalize:
                raise ConfigError(
                    f"squared moduli sum to {total!r}; pass --renormalize to accept"
                )
            return ResourceCoefficients(
                tuple(math.sqrt(v / total) for v in values)
            )
        try:
            return normalize_coefficients(values, renormalize=args.renormalize)
        except ValueError as exc:
            raise ConfigError(f"bad inline coefficients {body!r}: {exc}") from None
    if args.squared:
        raise ConfigError("--squared applies to inline coefficients only")
    if source.startswith("file:"):
        source = source[len("file:") :]
    path = Path(source)
    try:
        rc = load_coefficients(path, renormalize=args.renormalize)
    except OSError as exc:
        raise ConfigError(f"cannot read coefficient file {source!r}: {exc}") from None
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad coefficient file {source!r}: {exc}") from None
    if args.n is not None and args.n != rc.n:
        raise ConfigError(f"--n {args.n} disagrees with file resource size {rc.n}")
    return rc


def _check_out(out_path: str | None) -> None:
    """Refuse an output path that cannot be a file before any work runs."""
    if out_path is None:
        return
    path = Path(out_path)
    if path.is_dir():
        raise ConfigError(f"output path {out_path!r} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"output directory of {out_path!r} does not exist")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(out_path).write_text(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out_path!r}: {exc}") from None


def cmd_teleport(args: argparse.Namespace) -> str:
    if args.oracle and args.format == "csv":
        raise ConfigError("--oracle reports in JSON only; drop --format csv")
    rc = parse_coefficients(args)
    qubit = parse_qubit(args.qubit)
    n = rc.n
    if args.oracle:
        if n > args.oracle_limit:
            raise ConfigError(
                f"--oracle supports n <= {args.oracle_limit} (requested n={n}); "
                "raise --oracle-limit to go bigger"
            )
        if n + 1 > MAX_PHOTONS:
            raise ConfigError(
                f"--oracle at n={n} simulates {n + 1} photons; "
                f"the Fock engine holds at most {MAX_PHOTONS}"
            )
    outcomes = run_analytic(rc, qubit)
    weights = rc.weights()
    rows = []
    for outcome in outcomes:
        m = outcome.m
        joint = (
            min(weights[m - 1], weights[m]) if 1 <= m <= n else 0.0
        )
        given = None
        if 1 <= m <= n and outcome.probability > 0:
            given = p_success_given_m(m, rc, qubit)
        conditional = None
        if outcome.conditional_qubit is not None:
            conditional = [
                _complex_pair(outcome.conditional_qubit.alpha),
                _complex_pair(outcome.conditional_qubit.beta),
            ]
        rows.append(
            {
                "m": m,
                "probability": outcome.probability,
                "qubit_mode": outcome.qubit_mode,
                "conditional": conditional,
                "p_success_given_m": given,
                "p_success_joint": float(joint),
            }
        )
    payload = {
        "n": n,
        "qubit": [_complex_pair(qubit.alpha), _complex_pair(qubit.beta)],
        "coefficients": [_complex_pair(a) for a in rc.amplitudes],
        "outcomes": rows,
        "p_success_total": p_success_total_brute(rc),
    }
    if args.oracle:
        oracle = run_oracle(rc, qubit, limit=args.oracle_limit)
        payload["oracle"] = {
            "max_deviation": oracle_deviation(outcomes, oracle),
            "pattern_count": sum(len(o.patterns or ()) for o in oracle),
            "tolerance": ORACLE_TOL,
        }
    if args.format == "csv":
        lines = [TELEPORT_CSV_HEADER]
        for row in rows:
            given = "" if row["p_success_given_m"] is None else _format_float(row["p_success_given_m"])
            lines.append(
                f"{row['m']},{_format_float(row['probability'])},{given},"
                f"{_format_float(row['p_success_joint'])}"
            )
        return "\n".join(lines) + "\n"
    return dump_json(payload) + "\n"


def cmd_psuccess(args: argparse.Namespace) -> str:
    rc = parse_coefficients(args)
    weights = [abs(a) ** 2 for a in rc.amplitudes]
    brute = p_success_total_brute(rc)
    classification = classify_sequence(weights)
    try:
        closed = p_success_closed_form(rc)
        difference = closed - brute
        plateau = False
    except PlateauError:
        closed = None
        difference = None
        plateau = True
    payload = {
        "n": rc.n,
        "weights": weights,
        "brute": brute,
        "closed_form": closed,
        "plateau": plateau,
        "difference": difference,
        "classification": {
            "maxima": list(classification.maxima),
            "interior_minima": list(classification.interior_minima),
            "strict": classification.strict,
        },
    }
    return dump_json(payload) + "\n"


_OBJECTIVE_NAMES = {"success": "success", "avgfid": "avg_fidelity"}


def _check_seed(seed: int) -> None:
    # sweep seeds row n with seed + n, so the library alone would accept
    # some negative seeds there.
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")


def cmd_optimize(args: argparse.Namespace) -> str:
    _check_seed(args.seed)
    convention = FailureConvention(args.convention)
    try:
        report = maximize(
            _OBJECTIVE_NAMES[args.objective],
            args.n,
            seed=args.seed,
            restarts=args.restarts,
            convention=convention,
            mc_samples=args.samples,
        )
    except ValueError as exc:
        raise ConfigError(f"cannot optimize: {exc}") from None
    payload = report.as_dict()
    if args.objective == "success":
        payload["uniform_reference"] = args.n / (args.n + 1)
    return dump_json(payload) + "\n"


def cmd_sweep(args: argparse.Namespace) -> str:
    _check_seed(args.seed)
    if args.n_min < 1:
        raise ConfigError(f"--n-min must be at least 1, got {args.n_min}")
    if args.n_max < args.n_min:
        raise ConfigError(
            f"--n-max ({args.n_max}) must not be below --n-min ({args.n_min})"
        )
    if args.n_max > RESOURCE_LIMIT:
        raise ConfigError(f"--n-max must be at most {RESOURCE_LIMIT}, got {args.n_max}")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        uniform_rc = ResourceCoefficients.uniform(n)
        uniform_point = SimplexPoint.uniform(n)
        try:
            report = maximize(
                "avg_fidelity", n, seed=args.seed + n, mc_samples=args.samples
            )
        except ValueError as exc:
            raise ConfigError(f"cannot optimize n={n}: {exc}") from None
        rows.append(
            {
                "n": n,
                "p_success_uniform": p_success_total_brute(uniform_rc),
                "avg_fid_uniform": avg_fidelity_closed_form(uniform_point),
                "avg_fid_optimized": report.best_value,
            }
        )
    if args.format == "json":
        return dump_json({"rows": rows}) + "\n"
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            f"{row['n']},{_format_float(row['p_success_uniform'])},"
            f"{_format_float(row['avg_fid_uniform'])},"
            f"{_format_float(row['avg_fid_optimized'])}"
        )
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klm-teleport",
        description="Linear-optical teleportation: protocols, formulas, optimization.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(
        p: argparse.ArgumentParser, *, seed: bool = False, default_format: str | None = None
    ) -> None:
        if seed:
            p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        if default_format is not None:
            p.add_argument(
                "--format",
                choices=("json", "csv"),
                default=default_format,
                help=f"output format (default {default_format})",
            )
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_coeffs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=None, help="resource size n")
        p.add_argument(
            "--coeffs",
            default="uniform",
            help=(
                "'uniform', 'inline:v0,v1,...', or a coefficient JSON file path "
                "(optionally prefixed file:)"
            ),
        )
        p.add_argument(
            "--squared",
            action="store_true",
            help="inline values are squared moduli |c|^2 (square roots are taken)",
        )
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="accept and renormalize off-norm coefficient input",
        )

    p_tel = sub.add_parser("teleport", help="run the protocol and print the outcome table")
    add_coeffs(p_tel)
    p_tel.add_argument(
        "--qubit",
        default=None,
        help="input as RE,IM+RE,IM or random:SEED (default: balanced superposition)",
    )
    p_tel.add_argument(
        "--oracle",
        action="store_true",
        help=(
            "also run the exact Fock-space oracle and report the max deviation "
            f"(JSON output only; n + 1 photons, at most {MAX_PHOTONS})"
        ),
    )
    p_tel.add_argument(
        "--oracle-limit",
        type=int,
        default=ORACLE_LIMIT,
        help=f"largest n the oracle will attempt (default {ORACLE_LIMIT})",
    )
    add_common(p_tel, default_format="json")
    p_tel.set_defaults(run=cmd_teleport)

    p_ps = sub.add_parser(
        "psuccess", help="compare brute-force and extrema-formula success probability"
    )
    add_coeffs(p_ps)
    add_common(p_ps)
    p_ps.set_defaults(run=cmd_psuccess)

    p_opt = sub.add_parser("optimize", help="maximize an objective over resource weights")
    p_opt.add_argument("--n", type=int, required=True, help="resource size n")
    p_opt.add_argument(
        "--objective",
        choices=tuple(_OBJECTIVE_NAMES),
        default="success",
        help="figure of merit (default success)",
    )
    p_opt.add_argument(
        "--restarts",
        type=int,
        default=32,
        help="seeded restarts of the success optimum's Nelder-Mead check",
    )
    p_opt.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="Monte Carlo samples for the average-fidelity cross-check",
    )
    p_opt.add_argument(
        "--convention",
        choices=tuple(c.value for c in FailureConvention),
        default=FailureConvention.COLLAPSE.value,
        help="failure-outcome fidelity convention (default collapse)",
    )
    add_common(p_opt, seed=True)
    p_opt.set_defaults(run=cmd_optimize)

    p_sw = sub.add_parser("sweep", help="scaling table over a range of n")
    p_sw.add_argument("--n-min", type=int, default=1, help="first n (default 1)")
    p_sw.add_argument("--n-max", type=int, default=8, help="last n (default 8)")
    p_sw.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="Monte Carlo samples per n for the fidelity cross-check",
    )
    add_common(p_sw, seed=True, default_format="csv")
    p_sw.set_defaults(run=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing never mutates it.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_out(args.out)
        _emit(args.run(args), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        # Any other failed internal check, such as a normalization drift.
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    return 0
