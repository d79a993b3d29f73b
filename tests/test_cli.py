"""Command-line interface: exact example outputs, exit codes, and serialization."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klm_teleport import OracleMismatchError
from klm_teleport.cli import (
    SWEEP_HEADER,
    ConfigError,
    build_parser,
    dump_json,
    main,
    parse_qubit,
)
from klm_teleport.teleport import RESOURCE_LIMIT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_teleport_uniform_n3_success_probability(capsys):
    code, out, err = run_cli(
        capsys, "teleport", "--n", "3", "--coeffs", "uniform", "--qubit", "0.6,0+0.8,0"
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["p_success_total"] == pytest.approx(0.75, abs=1e-12)
    assert len(payload["outcomes"]) == 5
    total = math.fsum(o["probability"] for o in payload["outcomes"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_teleport_inline_squared_weights(capsys):
    code, out, _ = run_cli(
        capsys, "teleport", "--n", "2", "--coeffs", "inline:0.5,0.3,0.2", "--squared"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_success_total"] == pytest.approx(0.5, abs=1e-12)
    weights = [
        pair[0] ** 2 + pair[1] ** 2 for pair in payload["coefficients"]
    ]
    assert weights == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)


def test_teleport_oracle_flag_reports_deviation(capsys):
    code, out, _ = run_cli(
        capsys,
        "teleport",
        "--n",
        "1",
        "--coeffs",
        "uniform",
        "--qubit",
        "1,0+0,0",
        "--oracle",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["max_deviation"] < 1e-10
    assert payload["oracle"]["pattern_count"] >= 1


def test_teleport_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "teleport", "--n", "2", "--coeffs", "uniform", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,probability,p_success_given_m,p_success_joint"
    assert len(lines) == 5


def test_psuccess_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "psuccess", "--coeffs", "inline:0.1,0.3,0.05,0.35,0.2", "--squared"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["brute"] == pytest.approx(0.4, abs=1e-12)
    assert payload["closed_form"] == pytest.approx(0.4, abs=1e-12)
    assert payload["plateau"] is False
    assert payload["difference"] == pytest.approx(0.0, abs=1e-12)
    assert payload["classification"]["maxima"] == [1, 3]
    assert payload["classification"]["interior_minima"] == [2]


def test_psuccess_uniform_plateau(capsys):
    code, out, _ = run_cli(capsys, "psuccess", "--n", "4", "--coeffs", "uniform")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute"] == pytest.approx(0.8, abs=1e-12)
    assert payload["closed_form"] is None
    assert payload["plateau"] is True


def test_optimize_success_n4(capsys):
    code, out, _ = run_cli(
        capsys,
        "optimize",
        "--objective",
        "success",
        "--n",
        "4",
        "--restarts",
        "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_value"] == pytest.approx(0.8, abs=1e-6)
    assert payload["uniform_reference"] == pytest.approx(0.8, abs=1e-15)
    assert payload["objective"] == "success"


def test_optimize_success_n1_is_half(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--objective", "success", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_value"] == pytest.approx(0.5, abs=1e-9)


def test_optimize_avgfid_beats_uniform(capsys):
    code, out, _ = run_cli(
        capsys,
        "optimize",
        "--objective",
        "avgfid",
        "--n",
        "2",
        "--restarts",
        "4",
        "--samples",
        "50000",
        "--seed",
        "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == "avg_fidelity"
    assert payload["best_value"] > payload["certificate"]["uniform_value"]
    assert payload["certificate"]["mc_samples"] == 50000


def test_sweep_header_and_uniform_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n-min",
        "1",
        "--n-max",
        "3",
        "--samples",
        "20000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 4
    for line, n in zip(lines[1:], (1, 2, 3)):
        fields = line.split(",")
        assert int(fields[0]) == n
        assert float(fields[1]) == pytest.approx(n / (n + 1), abs=1e-12)
        assert float(fields[3]) >= float(fields[2]) - 1e-9


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    argv = [
        "sweep",
        "--n-min",
        "1",
        "--n-max",
        "2",
        "--samples",
        "10000",
        "--seed",
        "3",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_module_entry_point_runs():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "klm_teleport",
            "psuccess",
            "--n",
            "2",
            "--coeffs",
            "uniform",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["brute"] == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--coeffs", "uniform"],  # uniform needs --n
        ["teleport", "--n", "0", "--coeffs", "uniform"],
        ["teleport", "--n", "2", "--coeffs", "inline:0.5,0.5"],  # length mismatch
        ["teleport", "--n", "1", "--coeffs", "inline:0.5,0.3"],  # not normalized
        ["teleport", "--n", "1", "--coeffs", "uniform", "--squared"],
        ["teleport", "--n", "1", "--coeffs", "uniform", "--qubit", "0,0+0,0"],
        ["teleport", "--n", "1", "--coeffs", "uniform", "--qubit", "nonsense"],
        ["teleport", "--n", "9", "--coeffs", "uniform", "--oracle"],  # past ORACLE_LIMIT
        ["teleport", "--n", "1", "--coeffs", "file:/no/such/file.json"],
        ["optimize", "--objective", "success", "--n", "2", "--restarts", "0"],
        ["optimize", "--objective", "avgfid", "--n", "2", "--samples", "1"],
        ["optimize", "--objective", "success", "--n", "0"],
        ["sweep", "--n-min", "3", "--n-max", "2"],
        ["sweep", "--n-min", "0", "--n-max", "2"],
        ["sweep", "--n-max", "2", "--samples", "1"],
        ["optimize", "--objective", "avgfid", "--n", "0"],
        ["sweep", "--n-max", "2", "--out", "/"],
        ["teleport", "--coeffs", "inline:nan,1"],
        ["teleport", "--coeffs", "inline:inf,1", "--renormalize"],
        ["teleport", "--n", "1", "--qubit", "nan,0+1,0"],
        ["teleport", "--n", "1", "--qubit", "1e200,0+1e200,0"],
        ["teleport", "--coeffs", "inline:1e200,1e200", "--renormalize"],
        ["teleport", "--coeffs", "inline:1e308,1e308", "--squared", "--renormalize"],
        ["optimize", "--objective", "success", "--n", "4", "--seed", "-1"],
        ["teleport", "--n", "1", "--qubit", "random:-1"],
        ["teleport", "--n", "1", "--out", "/no/such/dir/out.json"],
        ["teleport", "--n", "1", "--out", "/"],
        ["sweep", "--n-max", "2", "--seed", "-1"],
        ["sweep", "--n-min", "2", "--n-max", "3", "--seed", "-2"],
        ["optimize", "--n", "1", "--seed", "-1"],
        # Sizes whose dense matrices could not be allocated; refused before any work.
        ["optimize", "--objective", "avgfid", "--n", "200000", "--samples", "2"],
        ["sweep", "--n-min", "200000", "--n-max", "200000", "--samples", "2"],
        ["optimize", "--n", "200000"],
        # Resources past RESOURCE_LIMIT, refused before the outcome table is built.
        ["teleport", "--n", str(RESOURCE_LIMIT + 1)],
        ["psuccess", "--n", str(RESOURCE_LIMIT + 1)],
        [
            "teleport",
            "--renormalize",
            "--coeffs",
            "inline:" + ",".join(["1"] * (RESOURCE_LIMIT + 2)),
        ],
    ],
)
def test_config_errors_exit_two(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != ""
    assert captured.out == ""


@pytest.mark.parametrize("subcommand", [["optimize", "--n", "1"], ["sweep", "--n-max", "2"]])
def test_negative_seed_error_names_the_flag(capsys, subcommand):
    code, out, err = run_cli(capsys, *subcommand, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_only_the_success_search_imports_scipy():
    script = """
import contextlib, io, sys
import klm_teleport, klm_teleport.cli
from klm_teleport.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

run("teleport", "--oracle", "--n", "3")
run("psuccess", "--n", "2")
run("sweep", "--n-max", "2", "--samples", "1000")
run("optimize", "--objective", "avgfid", "--n", "2", "--samples", "1000")
assert "scipy" not in sys.modules, "scipy loaded without the success search"
run("optimize", "--objective", "success", "--n", "2")
assert "scipy.optimize" in sys.modules
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--n", "1", "--coeffs", "uniform", "--oracle", "--oracle-tol", "-1"],
        ["teleport", "--n", "1", "--coeffs", "uniform", "--oracle", "--oracle-tol", "nan"],
        ["teleport", "--n", "1", "--coeffs", "uniform", "--oracle", "--oracle-tol", "inf"],
        ["teleport", "--n", "1", "--seed", "3"],
        ["psuccess", "--n", "2", "--coeffs", "uniform", "--format", "csv"],
        ["psuccess", "--n", "2", "--seed", "3"],
        ["optimize", "--objective", "success", "--n", "2", "--format", "csv"],
        ["optimize", "--objective", "success", "--n", "2", "--budget", "300"],
    ],
)
def test_removed_flags_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err


def test_cli_options_are_the_ones_the_commands_read():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    coeffs = {"--n", "--coeffs", "--squared", "--renormalize", "--out"}
    assert options == {
        "teleport": coeffs | {"--qubit", "--oracle", "--oracle-limit", "--format"},
        "psuccess": coeffs,
        "optimize": {
            "--n", "--objective", "--restarts", "--samples", "--convention",
            "--seed", "--out",
        },
        "sweep": {"--n-min", "--n-max", "--samples", "--seed", "--format", "--out"},
    }
    assert sum(map(len, options.values())) == 27


def test_optimize_csv_is_refused_before_the_search(capsys, monkeypatch):
    import klm_teleport.cli as cli_module

    def explode(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli_module, "maximize", explode)
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--objective", "success", "--n", "6", "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unwritable_out_is_refused_before_the_search(tmp_path, capsys, monkeypatch):
    import klm_teleport.cli as cli_module

    def explode(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli_module, "maximize", explode)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        code = main(["optimize", "--objective", "success", "--n", "6", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(out) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_underflowing_norms_are_named(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": 1, "c": [[1e-170, 0.0], [1e-170, 0.0]]}))
    for argv in (
        ["teleport", "--coeffs", "inline:1e-170,1e-170", "--renormalize"],
        ["teleport", "--coeffs", f"file:{path}", "--renormalize"],
        ["teleport", "--n", "1", "--qubit", "1e-170,0+1e-170,0"],
        # Squared norms that are subnormal rather than zero underflow too.
        ["teleport", "--coeffs", "inline:1e-160,1e-160", "--renormalize"],
        ["teleport", "--n", "1", "--qubit", "1e-160,0+1e-160,0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "underflows a float" in err


@pytest.mark.parametrize("extra", [[], ["--oracle"], ["--format", "csv"]])
def test_subnormal_outcome_probability_is_reported(capsys, extra):
    # p(m=1) = 1e-320 is subnormal; its conditional qubit is still normalized.
    argv = ["teleport", "--n", "2", "--coeffs", "inline:1e-160,1e-160,1", "--renormalize"]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 0, err
    if extra == ["--format", "csv"]:
        assert out.splitlines()[2] == "1,9.9998886718268301e-321,1,9.9998886718268301e-321"
        return
    payload = json.loads(out)
    r = pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert payload["outcomes"][1]["conditional"] == [[r, 0.0], [r, 0.0]]
    if extra:
        assert payload["oracle"]["max_deviation"] <= 1e-15


def test_oracle_limit_refusal_names_the_limit(capsys):
    code = main(["teleport", "--n", "9", "--coeffs", "uniform", "--oracle"])
    captured = capsys.readouterr()
    assert code == 2
    assert "n <= 8" in captured.err


def _refuse_work(monkeypatch):
    import klm_teleport.cli as cli_module

    def explode(*args, **kwargs):
        raise AssertionError("work ran before the configuration was checked")

    monkeypatch.setattr(cli_module, "run_analytic", explode)
    monkeypatch.setattr(cli_module, "run_oracle", explode)


def test_oracle_past_the_photon_limit_is_refused_before_any_work(capsys, monkeypatch):
    # n + 1 photons must fit optics.MAX_PHOTONS = 39, whatever --oracle-limit says.
    _refuse_work(monkeypatch)
    for n in ("39", "40"):
        code, out, err = run_cli(
            capsys, "teleport", "--n", n, "--coeffs", "uniform", "--oracle", "--oracle-limit", "40"
        )
        assert code == 2
        assert out == ""
        assert f"simulates {int(n) + 1} photons" in err and "at most 39" in err


def test_oracle_at_the_photon_limit_reaches_the_oracle(capsys, monkeypatch):
    import klm_teleport.cli as cli_module

    def stop(rc, qubit, *, limit):
        raise OracleMismatchError(f"reached the oracle at n={rc.n}")

    monkeypatch.setattr(cli_module, "run_oracle", stop)
    code, out, err = run_cli(
        capsys, "teleport", "--n", "38", "--coeffs", "uniform", "--oracle", "--oracle-limit", "38"
    )
    assert code == 3
    assert "reached the oracle at n=38" in err


def test_oracle_with_csv_output_is_refused_before_any_work(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    code, out, err = run_cli(
        capsys, "teleport", "--n", "2", "--coeffs", "uniform", "--oracle", "--format", "csv"
    )
    assert code == 2
    assert out == ""
    assert "--oracle" in err and "--format csv" in err


def test_oracle_mismatch_exits_three(capsys, monkeypatch):
    import klm_teleport.cli as cli_module

    def explode(*args, **kwargs):
        raise OracleMismatchError("simulated disagreement")

    monkeypatch.setattr(cli_module, "run_oracle", explode)
    code = main(["teleport", "--n", "1", "--coeffs", "uniform", "--oracle"])
    captured = capsys.readouterr()
    assert code == 3
    assert "disagreement" in captured.err


def test_search_beating_the_success_optimum_exits_three(capsys, monkeypatch):
    from types import SimpleNamespace

    import klm_teleport.optimize as optimize_module

    def too_good(fun, x0, **kwargs):
        return SimpleNamespace(fun=-(4 / 5 + 1e-9), x=x0)

    monkeypatch.setattr(optimize_module, "minimize", too_good)
    code = main(["optimize", "--objective", "success", "--n", "4", "--restarts", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "certified optimum" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_failed_internal_check_exits_three(capsys, monkeypatch):
    import klm_teleport.teleport as teleport_module

    def drift(*args, **kwargs):
        raise RuntimeError("unitary application lost normalization (drift 1e-09)")

    monkeypatch.setattr(teleport_module, "apply", drift)
    code = main(["teleport", "--n", "1", "--coeffs", "uniform", "--oracle"])
    captured = capsys.readouterr()
    assert code == 3
    assert "normalization" in captured.err
    assert captured.out == ""


def test_few_monte_carlo_samples_raise_no_false_alarm(capsys):
    code, out, err = run_cli(capsys, "optimize", "--objective", "avgfid", "--n", "3", "--samples", "3")
    assert code == 0, err
    assert json.loads(out)["certificate"]["mc_samples"] == 3


#: Numeric values every numeric option of the fuzzed grammar may take.
_HOSTILE = ["nan", "inf", "-1", "0", "1e308", "1e-160"]


def _numbers(*usual):
    return st.one_of(st.sampled_from([str(v) for v in usual]), st.sampled_from(_HOSTILE))


def _maybe(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _switch(flag):
    return st.sampled_from([[], [flag]])


_COEFFS = st.one_of(
    st.just("uniform"),
    st.lists(_numbers(1, 0.5, 2), min_size=1, max_size=5).map(
        lambda values: "inline:" + ",".join(values)
    ),
)
_QUBITS = st.one_of(
    st.sampled_from(["random:3", "random:-1", "random:1e308"]),
    st.lists(_numbers(0.6, 1), min_size=4, max_size=4).map(
        lambda v: f"{v[0]},{v[1]}+{v[2]},{v[3]}"
    ),
)
_FORMAT = _maybe("--format", st.sampled_from(["json", "csv"]))
_SEED = _maybe("--seed", _numbers(7))
_N = _numbers(1, 2, 3, 4)
_SAMPLES = _numbers(2, 3, 1000)
#: Only paths that cannot be written, so the fuzz never creates a file.
_OUT = _maybe("--out", st.sampled_from(["/no/such/dir/out.json", "/"]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda chunks: [word for chunk in chunks for word in chunk])


_ARGV = st.one_of(
    _argv(
        st.just(["teleport"]),
        _maybe("--n", _N),
        _maybe("--coeffs", _COEFFS),
        _switch("--squared"),
        _switch("--renormalize"),
        _maybe("--qubit", _QUBITS),
        _switch("--oracle"),
        _maybe("--oracle-limit", _numbers(4)),
        _FORMAT,
        _OUT,
    ),
    _argv(
        st.just(["psuccess"]),
        _maybe("--n", _N),
        _maybe("--coeffs", _COEFFS),
        _switch("--squared"),
        _switch("--renormalize"),
        _OUT,
    ),
    _argv(
        st.just(["optimize"]),
        _maybe("--objective", st.sampled_from(["success", "avgfid"])),
        _maybe("--n", _N),
        st.tuples(st.just("--restarts"), _numbers(1, 2)).map(list),
        st.tuples(st.just("--samples"), _SAMPLES).map(list),
        _maybe("--convention", st.sampled_from(["collapse", "zero_fidelity"])),
        _OUT,
        _SEED,
    ),
    _argv(
        st.just(["sweep"]),
        _maybe("--n-min", _numbers(1, 2)),
        st.tuples(st.just("--n-max"), _numbers(2, 4)).map(list),
        st.tuples(st.just("--samples"), _SAMPLES).map(list),
        _FORMAT,
        _OUT,
        _SEED,
    ),
)


@settings(max_examples=100, deadline=None)
@given(_ARGV)
def test_exit_codes_are_a_total_contract(argv):
    # Bounded so every draw runs fast: n <= 4, restarts <= 2, samples <= 1000.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the syntax
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_parse_qubit_defaults_and_normalization():
    default = parse_qubit(None)
    r = 1 / math.sqrt(2)
    assert default.alpha == pytest.approx(r)
    assert default.beta == pytest.approx(r)

    scaled = parse_qubit("3,0+4,0")
    assert scaled.alpha == pytest.approx(0.6)
    assert scaled.beta == pytest.approx(0.8)

    complex_qubit = parse_qubit("0,0.6+0.8,0")
    assert complex_qubit.alpha == pytest.approx(0.6j)
    assert complex_qubit.beta == pytest.approx(0.8)


def test_parse_qubit_random_seed_is_deterministic():
    first = parse_qubit("random:42")
    second = parse_qubit("random:42")
    assert first.alpha == second.alpha
    assert first.beta == second.beta
    other = parse_qubit("random:43")
    assert (other.alpha, other.beta) != (first.alpha, first.beta)


@pytest.mark.parametrize("text", ["", "1,0", "1,0+2", "a,b+c,d", "0,0+0,0", "random:x"])
def test_parse_qubit_rejects_malformed_text(text):
    with pytest.raises(ConfigError):
        parse_qubit(text)


def test_dump_json_formatting():
    text = dump_json({"b": 1.0 / 3.0, "a": [1, 2], "flag": True, "none": None})
    payload = json.loads(text)
    assert payload["b"] == pytest.approx(1 / 3)
    # Keys come out sorted and floats carry 17 significant digits.
    assert text.index('"a"') < text.index('"b"') < text.index('"flag"')
    assert "0.33333333333333331" in text
    assert json.loads(dump_json([])) == []
    assert json.loads(dump_json({})) == {}


def test_dump_json_rejects_hostile_values():
    with pytest.raises(TypeError):
        dump_json({"z": 1 + 2j})
    with pytest.raises(ValueError):
        dump_json({"z": float("nan")})
    with pytest.raises(TypeError):
        dump_json({"z": object()})


def test_coefficient_file_input(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    r = 1 / math.sqrt(2)
    path.write_text(json.dumps({"n": 1, "c": [[r, 0.0], [r, 0.0]]}))
    code, out, _ = run_cli(capsys, "teleport", "--coeffs", f"file:{path}")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["p_success_total"] == pytest.approx(0.5, abs=1e-12)


def test_coefficient_file_past_the_resource_limit_is_refused_before_its_entries(tmp_path, capsys):
    path = tmp_path / "big.json"
    # No entries at all: the size alone is refused, before "c" is looked at.
    path.write_text(json.dumps({"n": RESOURCE_LIMIT + 1, "c": []}))
    code, out, err = run_cli(capsys, "teleport", "--coeffs", f"file:{path}")
    assert code == 2
    assert out == ""
    assert f"'n' must be at most {RESOURCE_LIMIT}" in err


def test_resources_at_the_limit_still_run(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--n", str(RESOURCE_LIMIT))
    assert code == 0
    assert json.loads(out)["n"] == RESOURCE_LIMIT
    inline = "inline:" + ",".join(["1"] * (RESOURCE_LIMIT + 1))
    code, out, _ = run_cli(capsys, "psuccess", "--coeffs", inline, "--renormalize")
    assert code == 0
    assert json.loads(out)["brute"] == pytest.approx(RESOURCE_LIMIT / (RESOURCE_LIMIT + 1))
