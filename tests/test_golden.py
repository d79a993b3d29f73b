"""Golden CLI output: full stdout of fixed commands, compared byte for byte.

The expected text lives in ``golden_cli.json`` next to this file, one entry
per command.  A change that is meant to keep every number bit-identical (a
refactor or a speed-up of the Fock layers) must leave this test passing; a
change that moves output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which entries moved and why.
"""

import contextlib
import io
import json
from pathlib import Path

from klm_teleport.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

#: Fixed, deliberately unnormalized coefficient files ([re, im] pairs).
COEFFICIENT_FILES = {
    "coeffs3.json": [[0.3, -0.1], [0.5, 0.2], [-0.25, 0.4], [0.1, 0.6]],
    "coeffs6.json": [
        [0.2, 0.1], [-0.4, 0.3], [0.15, -0.5], [0.35, 0.05],
        [-0.1, -0.2], [0.45, 0.25], [0.05, -0.3],
    ],
}

#: name -> argv; ``{dir}`` is replaced by the directory holding the files above.
COMMANDS = {
    "teleport-oracle-n3": [
        "teleport", "--coeffs", "{dir}/coeffs3.json", "--renormalize",
        "--qubit", "random:11", "--oracle",
    ],
    "teleport-oracle-n6": [
        "teleport", "--coeffs", "{dir}/coeffs6.json", "--renormalize",
        "--qubit", "random:12", "--oracle",
    ],
    "psuccess": ["psuccess", "--coeffs", "inline:0.1,0.3,0.05,0.35,0.2", "--squared"],
    "optimize-avgfid-n4": ["optimize", "--objective", "avgfid", "--n", "4", "--seed", "0"],
    "optimize-success-n4": [
        "optimize", "--objective", "success", "--n", "4", "--restarts", "4", "--seed", "0",
    ],
}


def _write_coefficients(directory: Path) -> None:
    for name, pairs in COEFFICIENT_FILES.items():
        payload = {"n": len(pairs) - 1, "c": pairs}
        (directory / name).write_text(json.dumps(payload) + "\n")


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def golden_outputs(directory: Path) -> dict[str, str]:
    """Stdout of every command in ``COMMANDS``, with coefficient files in ``directory``."""
    _write_coefficients(directory)
    return {
        name: _stdout([arg.replace("{dir}", str(directory)) for arg in argv])
        for name, argv in COMMANDS.items()
    }


def test_cli_stdout_matches_golden_file(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = golden_outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in COMMANDS:
        assert actual[name] == expected[name], f"stdout of {name!r} changed"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        outputs = golden_outputs(Path(scratch))
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} entries to {GOLDEN}")
