"""Layer probes: throughput of the per-element operations the traced run
does not wrap, plus the two model-layer costs that dominate the oracle.

    python3 perfbench/probes.py

Each probe runs on fixed seeded inputs, checks its own result, and reports
one figure. Prints one JSON object: {"metrics": {name: [value, unit]},
"ok": {name: bool}}. Run with `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from siegelvec import models
from siegelvec.chars import SigmaLabel, is_self_twisted
from siegelvec.finitegrp import build_field, enumerate_gl2, enumerate_gl22, gl2_det, gl2_mul
from siegelvec.padic import PadicCtx, rand_K, scalars_close, similitude_of

REPEATS = 5


def _median_time(fn, repeats: int = REPEATS):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def probe_field_mul():
    ctx = build_field(3, 2)                       # q = 9, codes of F_81
    rng = np.random.default_rng(0)
    pairs = [tuple(map(int, p)) for p in rng.integers(0, ctx.q2, size=(200_000, 2))]
    mul = ctx.mul
    t, out = _median_time(lambda: [mul(a, b) for a, b in pairs])
    ok = all(ctx.mul(a, ctx.add(b, c)) == ctx.add(out[i], ctx.mul(a, c))
             for i, ((a, b), (c, _)) in enumerate(zip(pairs[:5000], pairs[1:5001])))
    ok &= all(ctx.mul(a, ctx.inv(a)) == ctx.one for a in range(1, ctx.q2))
    return len(pairs) / t, ok


def probe_gl2_mul():
    ctx = build_field(2, 3)                       # q = 8, |GL2(8)| = 3528
    elems = enumerate_gl2(ctx)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(elems), size=(50_000, 2))
    pairs = [(elems[i], elems[j]) for i, j in idx]
    t, out = _median_time(lambda: [gl2_mul(ctx, x, y) for x, y in pairs])
    ok = len(elems) == 3528 and all(
        gl2_det(ctx, z) == ctx.mul(gl2_det(ctx, x), gl2_det(ctx, y)) != 0
        for (x, y), z in zip(pairs, out))
    return len(pairs) / t, ok


def probe_char_avg():
    ctx = build_field(5, 1)
    n = len(enumerate_gl22(ctx))
    t, twisted = _median_time(lambda: is_self_twisted(ctx, SigmaLabel(1, 1, "Full")), 3)
    return n / t, twisted is True and n == 57_600


def probe_cuspidal_build():
    ctx = build_field(5, 1)

    def cold():
        models._SPACE_CACHE.clear()
        models._MODEL_CACHE.clear()
        return models.cuspidal_model(ctx, 1)

    t, model = _median_time(cold, 3)
    try:
        model.verify_character()
        ok = model.basis.shape[1] == ctx.q - 1
    except models.ProjectorRankMismatch:
        ok = False
    return t, ok


def probe_commutant_solve():
    ctx = build_field(5, 1)
    tm = models.TensorModel(ctx, 3, 3)
    t0 = time.perf_counter()
    dim, _ = models.commutant_dim(tm)
    return time.perf_counter() - t0, dim == 2


def probe_mat4_mul():
    ctx = PadicCtx(2, 1, prec=32)
    rng = np.random.default_rng(2)
    elems = [rand_K(ctx, rng) for _ in range(16)]
    pairs = [(elems[i % 16], elems[(7 * i + 3) % 16]) for i in range(1000)]
    t, out = _median_time(lambda: [a @ b for a, b in pairs], 3)
    ok = all(scalars_close(similitude_of(ctx, z.m), z.mu) for z in out[:40])
    return len(pairs) / t, ok


PROBES = {
    "finitegrp.field_mul_per_s": (probe_field_mul, "1/s"),
    "finitegrp.gl2_mul_per_s": (probe_gl2_mul, "1/s"),
    "chars.char_avg_elems_per_s": (probe_char_avg, "1/s"),
    "models.cuspidal_build_s": (probe_cuspidal_build, "s"),
    "models.commutant_solve_s": (probe_commutant_solve, "s"),
    "padic.mat4_mul_per_s": (probe_mat4_mul, "1/s"),
}


def main() -> int:
    metrics, ok = {}, {}
    for name, (probe, unit) in PROBES.items():
        value, good = probe()
        metrics[name] = [value, unit]
        ok[name] = bool(good)
    print(json.dumps({"metrics": metrics, "ok": ok}))
    return 0 if all(ok.values()) else 2


if __name__ == "__main__":
    sys.exit(main())
