"""Benchmark runner for the `siegel` command line.

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 1 --trace 0

Run from the root of a source checkout. Each command of the workload runs
in a fresh interpreter, one at a time, as `python3 -m siegelvec.cli ...`
with `src` on PYTHONPATH and the seed passed as `--seed`; every output is
checked against `reference.json` by the output gate. A pass is one run of
all the workload's commands; a run makes the workload's minimum number of
passes (`MIN_PASSES`, else one), then more while they fit in `--seconds`,
and reports medians over them.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the run makes one untraced pass, one traced pass (every command
under `tracer.py`) and one run of the layer probes (`probes.py`), and the
last line carries the per-layer metrics; the spans go to
`perfbench/out/trace-<workload>-seed<seed>.json`. The line before the last
is a JSON report with the environment record and the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import traceagg  # noqa: E402
from workloads import MIN_PASSES, WORKLOADS, command_id, full_argv  # noqa: E402

# A run must end within 180 s; children still running at this point are
# killed and counted as failed.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 5


class Child(NamedTuple):
    """Outcome of one child process, with its own rusage."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str], work: str, timeout_s: float) -> Child:
    """Spawn argv with stdout/stderr to files in `work`, reap it with wait4
    and return its own rusage (not the cumulative RUSAGE_CHILDREN)."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    timed_out = False
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)

    def kill(_sig, _frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    old = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.01))
    try:
        _, status, ru = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - t0
    with open(out_path) as fo, open(err_path) as fe:
        stdout, stderr = fo.read(), fe.read()
    return Child(os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0, stdout, stderr, timed_out)


def siegel_argv(tail: list[str]) -> list[str]:
    return [sys.executable, "-m", "siegelvec.cli"] + tail


def traced_argv(tail: list[str], spans_path: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--"] + tail


def run_pass(workload: str, seed: int, reference: dict, work: str,
             deadline: float, traced: bool = False) -> dict:
    """One pass over the workload's commands; gate every output."""
    cmds = []
    for i, cmd in enumerate(WORKLOADS[workload]):
        tail = full_argv(cmd, seed)
        spans_path = os.path.join(work, f"spans-{i}.json")
        argv = traced_argv(tail, spans_path) if traced else siegel_argv(tail)
        child = run_child(argv, work, deadline - time.perf_counter())
        cid = command_id(cmd)
        why = gate.check_output(reference.get(cid), child.code, child.stdout)
        if child.timed_out:
            why = "killed at the run deadline"
        rec = {"command": cid, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
               "maxrss_mb": child.maxrss_mb, "exit": child.code,
               "rows": _row_count(child.stdout), "failure": why}
        if why:
            rec["stderr_tail"] = child.stderr[-400:]
        if traced:
            rec["spans"] = _load_spans(spans_path)
        cmds.append(rec)
        if child.timed_out:
            break
    return {"commands": cmds,
            "wall_s": sum(c["wall_s"] for c in cmds),
            "cpu_s": sum(c["cpu_s"] for c in cmds),
            "peak_rss_mb": max(c["maxrss_mb"] for c in cmds),
            "rows": sum(c["rows"] for c in cmds),
            "attempted": len(WORKLOADS[workload]),
            "failed": sum(1 for c in cmds if c["failure"])
            + len(WORKLOADS[workload]) - len(cmds)}


def _row_count(stdout: str) -> int:
    try:
        rows = json.loads(stdout).get("rows")
    except (ValueError, AttributeError):
        return 0
    return len(rows) if isinstance(rows, list) else 0


def _load_spans(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def measure_setup(work: str, deadline: float) -> tuple[float, list[float], bool]:
    """Median wall time of a fresh `siegel --version` (interpreter start plus
    importing numpy and the package)."""
    walls, ok = [], True
    for _ in range(SETUP_REPEATS):
        child = run_child(siegel_argv(["--version"]), work, deadline - time.perf_counter())
        ok &= child.code == 0 and child.stdout.strip() != ""
        walls.append(child.wall_s)
    return statistics.median(walls), walls, ok


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             timeout=10, capture_output=True, text=True)
        top, _, head = res.stdout.strip().partition("\n")
        if res.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "rows_per_s": metric(statistics.median(p["rows"] / p["wall_s"] for p in passes), "1/s"),
        "pass_frac": metric((attempted - failed) / attempted, "ratio"),
        "setup_s": metric(setup_s, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "siegelvec", "cli.py")):
        print(f"perfbench: no siegelvec sources under {SRC}", file=sys.stderr)
        return 3
    reference = gate.load_reference()
    missed = gate.selftest(reference)
    if missed:
        print("perfbench: gate self-test failed: " + "; ".join(missed), file=sys.stderr)
        return 1

    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        env = environment(args.seed)
        passes = []
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": env, "gate_selftest": "ok"}
        if args.trace:
            passes.append(run_pass(args.workload, args.seed, reference, work, deadline))
            traced = run_pass(args.workload, args.seed, reference, work, deadline,
                              traced=True)
            probes = run_child([sys.executable, os.path.join(HERE, "probes.py")],
                               work, deadline - time.perf_counter())
            metrics, trace_doc, problems = traceagg.per_layer(
                traced, passes[0]["wall_s"], probes)
            passes.append(traced)
            trace_doc.update(report)
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump(trace_doc, fh)
            report["trace_file"] = os.path.relpath(trace_path, ROOT)
            report["trace_problems"] = problems
        else:
            setup_s, setup_walls, setup_ok = measure_setup(work, deadline)
            report["setup_walls_s"] = setup_walls
            problems = [] if setup_ok else ["siegel --version failed"]
            min_passes = MIN_PASSES.get(args.workload, 1)
            while True:
                passes.append(run_pass(args.workload, args.seed, reference, work, deadline))
                # Past the minimum, start another pass only if it should end
                # within --seconds.
                elapsed = time.perf_counter() - start
                if (len(passes) >= min_passes
                        and elapsed + passes[-1]["wall_s"] > min(args.seconds, RUN_BUDGET_S)):
                    break
            metrics = end_to_end(passes, setup_s)
            report["samples"] = {"passes": len(passes), "setup_repeats": SETUP_REPEATS}
        for p in passes:
            for c in p["commands"]:
                c.pop("spans", None)
        report["passes"] = passes
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        correct = failed == 0 and not problems
        print(json.dumps({"report": report}))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


if __name__ == "__main__":
    sys.exit(main())
