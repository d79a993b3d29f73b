"""Golden oracle output: a digest of every outcome and pattern record, bit for bit.

``golden_cli.json`` pins only the number oracle's ``max_deviation`` and
``pattern_count``.  This test pins everything both oracles return for fixed
inputs: the ``repr`` of each outcome's m, probability and conditional qubit,
and of each ``PatternRecord`` (pattern, probability, corrective phase,
corrected fidelity).  ``repr`` of a float round-trips, so equal digests mean
bit-identical numbers.  A change that is meant to keep every float
bit-identical (a speed-up of the oracle path) must leave this test passing;
a change that moves oracle output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_oracle_golden.py

and says in its description which entries moved and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from klm_teleport import QubitAmplitudes
from klm_teleport.polarization import run_oracle_polarization
from klm_teleport.teleport import normalize_coefficients, run_oracle

from helpers import random_coefficients, random_qubit

GOLDEN = Path(__file__).with_name("golden_oracle.json")

#: A resource with c_2 = 0: outcomes m = 2 and 3 take the single-branch path.
GAPPED = normalize_coefficients([complex(v) for v in (0.5, 0.5, 0.0, 0.5, 0.5)], renormalize=True)


def _seeded(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return random_coefficients(n, rng), random_qubit(rng)


#: name -> (oracle, zero-argument input factory)
CASES = {
    "number-n5": (run_oracle, lambda: _seeded(5, 501)),
    "number-n6": (run_oracle, lambda: _seeded(6, 601)),
    "number-n4-gapped": (run_oracle, lambda: (GAPPED, QubitAmplitudes(0.6, 0.8))),
    "polarization-n3": (run_oracle_polarization, lambda: _seeded(3, 301)),
    "polarization-n5": (run_oracle_polarization, lambda: _seeded(5, 502)),
    "polarization-n4-gapped": (
        run_oracle_polarization,
        lambda: (GAPPED, QubitAmplitudes(0.6, 0.8)),
    ),
}


def oracle_lines(name: str) -> list[str]:
    """One ``repr`` line per outcome (m, probability, qubit) and per pattern record."""
    oracle, inputs = CASES[name]
    lines = []
    for outcome in oracle(*inputs()):
        lines.append(repr((outcome.m, outcome.probability, outcome.conditional_qubit)))
        lines.extend(repr(record) for record in outcome.patterns)
    return lines


def oracle_digest(name: str) -> dict:
    lines = oracle_lines(name)
    text = "\n".join(lines).encode()
    return {"lines": len(lines), "sha256": hashlib.sha256(text).hexdigest()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_output_matches_golden_digest(name):
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(CASES)
    assert oracle_digest(name) == expected[name], f"oracle output of {name!r} changed"


if __name__ == "__main__":
    digests = {name: oracle_digest(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} entries to {GOLDEN}")
