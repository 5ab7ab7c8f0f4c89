"""Byte-for-byte golden output of the deterministic commands.

``table``, ``support`` and the ``counts``, ``fixed-dims``, ``dims``,
``signatures``, ``oracle`` and ``twists`` suites at q = 2..5, the
closed-side commands (all but ``oracle`` and ``twists``) also at q = 8,
where IIIb and IV carry q and q-1 residues per cell, ``fixed-dims``,
``dims`` and ``signatures`` (to level 20) at q = 7 and 9, the ``induced``
suite at q = 3, 4, 5, 7 and 8, ``twists`` at q = 7, 8 and 9, ``oracle``
at q = 7, 8 and 9 and ``rg`` at q = 2 up to level 6 (whose rows do not
depend on the seed) must print the same ``--format json`` bytes before and
after any refactor.  The golden files under ``tests/golden/`` were captured
from the code before the refactors that introduced them (the oracle and
twists files before the matrix-model oracle lost its per-element caches,
the induced files before the characters became tables keyed by the class
key, the twists files at q = 7, 8 and 9 from the Whittaker-projector
cuspidal models, before the Kirillov model replaced them, ``induced-q5``
before the group scans moved to integer code arrays, the closed-side q =
8 files before the stratum facts became the one ``support.STRATA``
table, ``oracle-q7`` from the commutant as one Gram over the whole
tensor model, before it was solved factor by factor, ``rg-q2`` from
subgroups stored as sets of tuples, before they became sorted code
rows, the closed-side q = 7 and 9 files and ``oracle-q8`` and
``oracle-q9`` from per-label class scans of each group's rows, before
every closed fixed dimension read the group's class-pair histogram, and
``induced-q7`` and ``induced-q8`` before the normalization check of
``models.twisted_trace`` dropped its matrix inverse).
``fixed-dims-q3`` was recaptured once on purpose when the suite
stopped emitting a check for a closed case that no label reached: at
q = 3 the only omega-trivial labels are one Plus/Minus pair, so the
full-label checks on the torus and the unipotent family compared nothing;
its rows are as before and its checks went from three to one.

``identities-exits.json`` holds the exit code and the stderr line of
``verify --suite identities --draws 20 --seed 0`` at q = 2, 3, 4, 5, 8
and 9 and ``--precision`` 8, 12 and 16, captured before the p-adic scalar
core took its one-coefficient and matrix-product shortcuts: every
precision exit names its tag and draw, so a change to the order or the
precision of the exact arithmetic moves it.

To recapture after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
Every golden is compared byte for byte, so a full recapture rewrites
only the files whose bytes changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

from siegelvec.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
QS = (2, 3, 4, 5)

CASES = {}
for _q in QS + (8,):
    CASES[f"table-q{_q}"] = ["table", "--q", str(_q), "--n-max", "20"]
    CASES[f"support-q{_q}"] = ["support", "--q", str(_q), "--n", "9"]
    CASES[f"counts-q{_q}"] = ["verify", "--suite", "counts", "--q", str(_q),
                              "--n-max", "20"]
    CASES[f"fixed-dims-q{_q}"] = ["verify", "--suite", "fixed-dims",
                                  "--q", str(_q)]
    for _suite in ("dims", "signatures"):
        CASES[f"{_suite}-q{_q}"] = ["verify", "--suite", _suite, "--q", str(_q),
                                    "--n-max", "12"]
for _q in QS:
    for _suite in ("oracle", "twists"):
        CASES[f"{_suite}-q{_q}"] = ["verify", "--suite", _suite, "--q", str(_q)]
for _q in (3, 4, 5, 7, 8):
    CASES[f"induced-q{_q}"] = ["verify", "--suite", "induced", "--q", str(_q)]
for _q in (7, 8, 9):
    CASES[f"twists-q{_q}"] = ["verify", "--suite", "twists", "--q", str(_q)]
for _q in (7, 9):
    CASES[f"fixed-dims-q{_q}"] = ["verify", "--suite", "fixed-dims", "--q", str(_q)]
    for _suite in ("dims", "signatures"):
        CASES[f"{_suite}-q{_q}"] = ["verify", "--suite", _suite, "--q", str(_q),
                                    "--n-max", "20"]
for _q in (7, 8, 9):
    CASES[f"oracle-q{_q}"] = ["verify", "--suite", "oracle", "--q", str(_q)]
CASES["rg-q2"] = ["verify", "--suite", "rg", "--q", "2", "--n-max", "6"]


def _run(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv + ["--format", "json"])
    assert rc == 0
    return buf.getvalue()


EXIT_CASES = {f"q{q}-prec{prec}": ["verify", "--suite", "identities", "--q", str(q),
                                   "--precision", str(prec), "--draws", "20",
                                   "--seed", "0"]
              for q in (2, 3, 4, 5, 8, 9) for prec in (8, 12, 16)}


def _exit(argv: list) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"exit": rc, "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert _run(CASES[name]) == want


def test_identity_exits_match_golden():
    want = json.loads((GOLDEN / "identities-exits.json").read_text())
    assert sorted(want) == sorted(EXIT_CASES)
    for name, argv in EXIT_CASES.items():
        assert _exit(argv) == want[name], name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(_run(argv))
        print(name, file=sys.stderr)
    exits = {name: _exit(argv) for name, argv in sorted(EXIT_CASES.items())}
    (GOLDEN / "identities-exits.json").write_text(
        json.dumps(exits, indent=1, sort_keys=True) + "\n")
