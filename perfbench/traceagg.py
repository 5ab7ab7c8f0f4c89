"""Per-layer metrics from the spans of a traced pass and the probe run.

A span's self time is its duration minus the durations of its direct
children; a layer's `self_s` sums the self time of its spans. Time in a
traced child outside every root span (interpreter start, imports, exit) is
`trace.unattributed_s`, so the layers' `self_s` plus `trace.unattributed_s`
add up to `trace.wall_s` by construction; a mismatch means the spans did not
nest and is reported as a problem.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

from tracer import LAYERS

NS = 1e-9


def _command_stats(doc: dict) -> dict:
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns, calls = Counter(), Counter()
    outer_ns = Counter()   # inclusive time, counting a recursive call once
    root_ns = draws = accepted = 0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        self_ns[name.split(".")[0]] += dur - child_ns[i]
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            outer_ns[name] += dur
        if parent < 0:
            root_ns += dur
        if extra is not None and name == "padic.compute_Rg":
            draws += extra[0]
            accepted += extra[1]
    return {"self_ns": self_ns, "calls": calls, "outer_ns": outer_ns,
            "root_ns": root_ns, "draws": draws, "accepted": accepted}


def _probe_metrics(probes) -> tuple[dict, list[str]]:
    try:
        doc = json.loads(probes.stdout)
    except ValueError:
        return {}, [f"probes exited {probes.code}: {probes.stderr[-400:]}"]
    problems = [f"probe {k} failed its check" for k, ok in doc["ok"].items() if not ok]
    if probes.code != 0:
        problems.append(f"probes exited {probes.code}")
    return doc["metrics"], problems


def per_layer(traced: dict, untraced_wall_s: float, probes) -> tuple[dict, dict, list[str]]:
    """Return (metrics, trace document, problems) for one traced pass."""
    problems: list[str] = []
    self_ns, calls, outer_ns = Counter(), Counter(), Counter()
    max_calls: dict[str, int] = defaultdict(int)
    root_ns = draws = accepted = 0
    wall_s = 0.0
    wrapped: list[str] = []
    commands = []
    for cmd in traced["commands"]:
        wall_s += cmd["wall_s"]
        doc = cmd.get("spans")
        if doc is None:
            problems.append(f"no spans from {cmd['command']!r}")
            continue
        wrapped = doc["wrapped"]
        st = _command_stats(doc)
        self_ns.update(st["self_ns"])
        calls.update(st["calls"])
        outer_ns.update(st["outer_ns"])
        for name, n in st["calls"].items():
            max_calls[name] = max(max_calls[name], n)
        root_ns += st["root_ns"]
        draws += st["draws"]
        accepted += st["accepted"]
        commands.append({"command": cmd["command"], "wall_s": cmd["wall_s"],
                         "spans": doc["spans"]})

    unattributed_s = wall_s - root_ns * NS
    layer_self = {layer: self_ns[layer] * NS for layer in LAYERS}
    balance = sum(layer_self.values()) + unattributed_s - wall_s
    if abs(balance) > 1e-6 * max(wall_s, 1.0):
        problems.append(f"self times do not add up to the traced wall ({balance:+.3g} s)")
    layer_calls = Counter()
    for name, n in calls.items():
        layer_calls[name.split(".")[0]] += n

    rg_s = outer_ns["padic.compute_Rg"] * NS
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.calls"] = (layer_calls[layer], "count")
    metrics.update({
        "numerics.certify_calls": (calls["numerics.certify_integer"], "count"),
        "finitegrp.enumerate_gl22_calls": (calls["finitegrp.enumerate_gl22"], "count"),
        "finitegrp.subgroup_closure_s": (outer_ns["finitegrp.subgroup_closure"] * NS, "s"),
        "chars.is_self_twisted_calls": (calls["chars.is_self_twisted"], "count"),
        "chars.fixed_dim_calls": (calls["chars.fixed_dim"], "count"),
        "models.cuspidal_model_builds": (calls["models.CuspidalModel.__init__"], "count"),
        "models.commutant_s": (outer_ns["models.commutant_dim"] * NS, "s"),
        "padic.compute_Rg_s": (rg_s, "s"),
        "padic.draws": (draws, "count"),
        "padic.accepted": (accepted, "count"),
        "padic.accept_ratio": (accepted / draws if draws else 0.0, "ratio"),
        "padic.draws_per_s": (draws / rg_s if rg_s else 0.0, "1/s"),
        "support.assemble_calls": (calls["support.assemble_dim"]
                                   + calls["support.assemble_al"], "count"),
        "cli.render_s": (outer_ns["cli._render"] * NS, "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.unattributed_s": (unattributed_s, "s"),
        "trace.overhead_s": (wall_s - untraced_wall_s, "s"),
    })
    probe_values, probe_problems = _probe_metrics(probes)
    problems += probe_problems
    for name, (value, unit) in probe_values.items():
        metrics[name] = (value, unit)
    out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    doc = {"wrapped": wrapped,
           "calls": dict(sorted(calls.items())),
           "max_calls_per_command": dict(sorted(max_calls.items())),
           "inclusive_s": {k: v * NS for k, v in sorted(outer_ns.items())},
           "untraced_wall_s": untraced_wall_s,
           "commands": commands}
    return out, doc, problems
