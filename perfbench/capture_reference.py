"""Capture the output gate's reference: the `rows` and `checks` of every
workload command, run at seed 0 on the current source tree.

    python3 perfbench/capture_reference.py

Run it only on a commit whose outputs are known to be right (the reference
in the repository was taken at the commit that added this benchmark).
A command that exits non-zero or reports a failing check aborts the capture.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gate
from run import HERE, run_child, siegel_argv
from workloads import WORKLOADS, command_id, full_argv


def main() -> int:
    work = os.path.join(HERE, ".work", f"capture-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    commands = {}
    try:
        for workload, cmds in WORKLOADS.items():
            for cmd in cmds:
                child = run_child(siegel_argv(full_argv(cmd, 0)), work, 600.0)
                payload = json.loads(child.stdout) if child.code == 0 else None
                if payload is None or not all(c["ok"] for c in payload["checks"]):
                    print(f"{command_id(cmd)}: exit {child.code}\n{child.stderr}",
                          file=sys.stderr)
                    return 1
                commands[command_id(cmd)] = {"rows": payload["rows"],
                                             "checks": payload["checks"]}
                print(f"{workload:14s} {child.wall_s:7.2f} s  {command_id(cmd)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    write_reference(commands)
    return 0


def write_reference(commands: dict) -> None:
    """Write the reference with one row per line, so a diff shows rows."""
    def dump(obj) -> str:
        return json.dumps(obj, sort_keys=True)

    parts = []
    for cid in sorted(commands):
        rows = ",\n".join("   " + dump(r) for r in commands[cid]["rows"])
        parts.append(f' {dump(cid)}: {{"checks": {dump(commands[cid]["checks"])},'
                     f' "rows": [\n{rows}\n ]}}')
    with open(gate.REFERENCE_PATH, "w") as fh:
        fh.write('{"seed": 0, "commands": {\n' + ",\n".join(parts) + "\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
