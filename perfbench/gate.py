"""Output gate: compares each command's `rows` and `checks` with the
reference captured at the seed commit.

Only `rows` and `checks` are compared; the rest of the payload (`seed`,
`config`, `version`) may legitimately vary. Float residual fields are
compared against the threshold of the check that reads them, not byte for
byte. A command fails the gate when it exits non-zero, its output is not a
JSON payload, any of its checks is not ok, or its rows or checks differ
from the reference.

    python3 perfbench/gate.py --selftest    # corrupted outputs must be counted
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Residual fields and the bound their check applies (`suite_induced` passes
# only when `max_abs_trace < 1e-8`).
FLOAT_THRESHOLDS = {"max_abs_trace": 1e-8}


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["commands"]


def _row_matches(got, want) -> bool:
    if not isinstance(got, dict) or not isinstance(want, dict):
        return False
    if got.keys() != want.keys():
        return False
    for key, w in want.items():
        g = got[key]
        if key in FLOAT_THRESHOLDS:
            if not (isinstance(g, (int, float)) and not isinstance(g, bool)
                    and math.isfinite(g) and abs(g) < FLOAT_THRESHOLDS[key]):
                return False
        elif type(g) is not type(w) or g != w:
            return False
    return True


def check_output(ref: dict | None, exit_code: int, stdout: str) -> str | None:
    """None when the command passes the gate, else the reason it fails."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if ref is None:
        return "no reference for this command"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if not isinstance(payload, dict):
        return "output is not a JSON object"
    rows, checks = payload.get("rows"), payload.get("checks")
    if not isinstance(rows, list) or not isinstance(checks, list):
        return "payload lacks rows or checks"
    bad = [c.get("name") for c in checks if not (isinstance(c, dict) and c.get("ok") is True)]
    if bad:
        return f"failing check: {bad[0]}"
    if checks != ref["checks"]:
        return "checks differ from the reference"
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows, reference has {len(ref['rows'])}"
    for i, (g, w) in enumerate(zip(rows, ref["rows"])):
        if not _row_matches(g, w):
            return f"row {i} differs from the reference"
    return None


def selftest(reference: dict) -> list[str]:
    """Feed the gate corrupted outputs; return the corruptions it missed."""
    missed = []

    def expect_fail(label: str, cid: str, mutate, exit_code: int = 0) -> None:
        payload = {"rows": copy.deepcopy(reference[cid]["rows"]),
                   "checks": copy.deepcopy(reference[cid]["checks"]),
                   "seed": 0}
        if check_output(reference[cid], 0, json.dumps(payload)) is not None:
            missed.append(f"{label}: the uncorrupted payload of {cid!r} fails")
            return
        mutate(payload)
        if check_output(reference[cid], exit_code, json.dumps(payload)) is None:
            missed.append(f"{label}: not counted for {cid!r}")

    def first_int_field(row: dict) -> str:
        return next(k for k, v in row.items()
                    if isinstance(v, int) and not isinstance(v, bool))

    def bump_row(p):
        row = p["rows"][len(p["rows"]) // 2]
        row[first_int_field(row)] += 1

    def fail_check(p):
        p["checks"][0]["ok"] = False

    def drop_row(p):
        p["rows"].pop()

    def big_residual(p):
        p["rows"][0]["max_abs_trace"] = 1e-3

    for cid in reference:
        if reference[cid]["rows"]:
            expect_fail("corrupted row", cid, bump_row)
            expect_fail("missing row", cid, drop_row)
    for cid in reference:
        if reference[cid]["checks"]:
            expect_fail("failing check", cid, fail_check)
    expect_fail("non-zero exit", next(iter(reference)), lambda p: None, exit_code=2)
    for cid in reference:
        if reference[cid]["rows"] and "max_abs_trace" in reference[cid]["rows"][0]:
            expect_fail("residual above threshold", cid, big_residual)
    return missed


def main(argv: list[str]) -> int:
    if argv != ["--selftest"]:
        print("usage: python3 perfbench/gate.py --selftest", file=sys.stderr)
        return 4
    missed = selftest(load_reference())
    for m in missed:
        print(f"gate self-test: {m}", file=sys.stderr)
    print("gate self-test:", "FAIL" if missed else "ok")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
