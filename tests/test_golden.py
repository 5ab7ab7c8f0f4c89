"""Byte-for-byte golden output of the deterministic commands.

``table``, ``support`` and the ``counts``, ``fixed-dims``, ``dims``,
``signatures``, ``oracle`` and ``twists`` suites, the ``induced`` suite at
q = 3 and 4, and ``twists`` at q = 7, 8 and 9 must print the same
``--format json`` bytes before and after any refactor.  The golden files
under ``tests/golden/`` were captured from the code before the refactors
that introduced them (the oracle and twists files before the matrix-model
oracle lost its per-element caches, the induced files before the
characters became tables keyed by the class key, the twists files at
q = 7, 8 and 9 from the Whittaker-projector cuspidal models, before the
Kirillov model replaced them).

To recapture after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

import pytest

from siegelvec.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
QS = (2, 3, 4, 5)

CASES = {}
for _q in QS:
    CASES[f"table-q{_q}"] = ["table", "--q", str(_q), "--n-max", "20"]
    CASES[f"support-q{_q}"] = ["support", "--q", str(_q), "--n", "9"]
    CASES[f"counts-q{_q}"] = ["verify", "--suite", "counts", "--q", str(_q),
                              "--n-max", "20"]
    CASES[f"fixed-dims-q{_q}"] = ["verify", "--suite", "fixed-dims",
                                  "--q", str(_q)]
    for _suite in ("oracle", "twists"):
        CASES[f"{_suite}-q{_q}"] = ["verify", "--suite", _suite, "--q", str(_q)]
    for _suite in ("dims", "signatures"):
        CASES[f"{_suite}-q{_q}"] = ["verify", "--suite", _suite, "--q", str(_q),
                                    "--n-max", "12"]
for _q in (3, 4):
    CASES[f"induced-q{_q}"] = ["verify", "--suite", "induced", "--q", str(_q)]
for _q in (7, 8, 9):
    CASES[f"twists-q{_q}"] = ["verify", "--suite", "twists", "--q", str(_q)]


def _run(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv + ["--format", "json"])
    assert rc == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert _run(CASES[name]) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(_run(argv))
        print(name, file=sys.stderr)
