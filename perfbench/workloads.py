"""The three benchmark workloads: fixed lists of `siegel` commands.

Each command is an argv tail for the `siegel` entry point. `verify`
commands also receive the benchmark seed as `--seed`, and every command
runs with `--format json` so the output gate can read its rows and checks.
The reasons for each workload are in README.md.
"""

from __future__ import annotations

WORKLOADS: dict[str, list[list[str]]] = {
    # models linear algebra (the stacked-Kronecker SVD); padic and support idle.
    "oracle": [["verify", "--suite", "oracle", "--q", str(q)] for q in (2, 3, 4, 5)],
    # padic arithmetic and sampling; models idle.
    "sampling": [
        ["verify", "--suite", "rg", "--q", "2", "--n-max", "6"],
        ["verify", "--suite", "identities", "--q", "2"],
        ["verify", "--suite", "identities", "--q", "3"],
    ],
    # Python-level group enumeration in finitegrp and chars, then the short
    # closed-side commands at q=8 that keep support (assemble_dim),
    # certify_integer and the small-subgroup fixed dimensions measured.
    "group-scan": [
        ["verify", "--suite", "twists", "--q", "8"],
        ["verify", "--suite", "induced", "--q", "3"],
        ["verify", "--suite", "induced", "--q", "4"],
        ["verify", "--suite", "counts", "--q", "8", "--n-max", "60"],
        ["verify", "--suite", "fixed-dims", "--q", "8"],
        ["verify", "--suite", "dims", "--q", "8", "--n-max", "20"],
        ["table", "--q", "8", "--n-max", "60"],
        ["support", "--q", "8", "--n", "20"],
    ],
}

# Whole passes a run makes before `--seconds` is consulted. The rg command
# alone takes about 25 s and the host's speed drifts over tens of seconds,
# so one sampling pass per run is too noisy a sample.
MIN_PASSES: dict[str, int] = {"sampling": 2}


def command_id(cmd: list[str]) -> str:
    """Key of a command in the reference file (seed and format omitted)."""
    return " ".join(cmd)


def full_argv(cmd: list[str], seed: int) -> list[str]:
    """The argv tail passed to `siegel` for one command of a pass."""
    extra = ["--seed", str(seed)] if cmd[0] == "verify" else []
    return cmd + extra + ["--format", "json"]
