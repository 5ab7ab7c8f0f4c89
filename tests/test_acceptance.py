"""Acceptance gate: ten numbered criteria, one test and one report line each.

Each criterion delegates to the matching verify suite so the command line
paths are exercised end to end; budgets are wall-clock seconds.
"""

import time

from siegelvec import cli
from siegelvec.chars import SigmaLabel, self_twist_presentations, twisted_trace_closed
from siegelvec.finitegrp import build_field, subgroup_R, conjugate_subgroups
from siegelvec.models import TensorModel, swap_operator, twisted_trace
from siegelvec.support import stratum_count, coset_R_type


def _report(num: int, desc: str, ok: bool, elapsed: float | None = None,
            budget: float | None = None) -> None:
    stamp = ""
    if elapsed is not None:
        stamp = f" [{elapsed:.1f}s"
        stamp += f" of {budget:.0f}s budget]" if budget else "]"
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}{stamp}")
    assert ok, f"criterion {num} failed: {desc}"


def _suite(name: str, **kw):
    rows, checks = cli.SUITES[name](**kw)
    return rows, checks, all(c["ok"] for c in checks) and bool(checks)


def test_criterion_01_closed_fixed_dims():
    t0 = time.perf_counter()
    ok = True
    for q in (2, 3, 4, 5, 7):
        _, _, good = _suite("fixed-dims", q=q)
        ok &= good
    dt = time.perf_counter() - t0
    _report(1, "closed fixed dimensions across q=2,3,4,5,7", ok and dt < 30,
            dt, 30)


def test_criterion_02_model_oracle_ranks():
    t0 = time.perf_counter()
    ok = True
    for q in (2, 3, 4, 5):
        _, checks, good = _suite("oracle", q=q)
        ok &= good
        if q in (3, 5):
            ok &= len(checks) == 3  # constituent checks must have run
    dt = time.perf_counter() - t0
    _report(2, "projector ranks against character averages, q=2..5",
            ok and dt < 300, dt, 300)


def test_criterion_03_twisted_traces():
    ok = True
    for q in (2, 3, 4, 5):
        rows, _, good = _suite("twists", q=q)
        ok &= good
        if q == 3:
            swaps = {r["closed"] for r in rows if r["operator"] == "swap"}
            ok &= swaps == {0, 2}
    # the reducible label accepts two presentation branches; check both
    ctx = build_field(3, 1)
    sigma = SigmaLabel(2, 6, "Full")
    pres = self_twist_presentations(ctx, sigma)
    ok &= {(k + l) % 2 for k, l in pres} == {0, 1}
    R = subgroup_R("Torus", ctx)
    for k_rho, l in pres:
        tm = TensorModel(ctx, k_rho, k_rho, lam_exp=l)
        got = twisted_trace(tm.average(R), swap_operator(tm))
        ok &= got == twisted_trace_closed(ctx, sigma, "swap", R,
                                          presentation=(k_rho, l))
    _report(3, "twist operator traces against closed values", ok)


def test_criterion_04_induced_traces_vanish():
    ok = True
    for q in (3, 4):
        _, _, good = _suite("induced", q=q)
        ok &= good
    _report(4, "induced traces vanish on normalizing coset elements, q=3,4", ok)


def test_criterion_05_coset_counts():
    t0 = time.perf_counter()
    ok = True
    for q in (2, 3, 4, 5, 8):
        _, _, good = _suite("counts", q=q, n_max=60)
        ok &= good
    dt = time.perf_counter() - t0
    _report(5, "coset counts through level 60 for q=2,3,4,5,8",
            ok and dt < 10, dt, 10)


def test_criterion_06_assembled_dimensions():
    ok = True
    pairings = set()
    for q in (2, 3, 4, 5):
        rows, _, good = _suite("dims", q=q, n_max=20)
        ok &= good
        pairings |= {r["pairing"] for r in rows}
    ok &= {"distinct", "self", "constituent"} <= pairings
    _report(6, "assembled dimensions equal closed formula, q=2..5, n<=20", ok)


def test_criterion_07_matrix_identities():
    t0 = time.perf_counter()
    ok = True
    for q in (2, 3):
        _, _, good = _suite("identities", q=q, seed=0, draws=100, precision=32)
        ok &= good
    dt = time.perf_counter() - t0
    _report(7, "identity suite, 100 draws per tag at p=2 and p=3",
            ok and dt < 120, dt, 120)


def test_criterion_08_transversal_subgroups():
    t0 = time.perf_counter()
    _, _, ok = _suite("rg", q=2, seed=0, n_max=6, precision=32)
    dt = time.perf_counter() - t0
    _report(8, "sampled and witnessed conjugation images through level 6",
            ok and dt < 300, dt, 300)


def test_criterion_09_assembled_signatures():
    ok = True
    for q in (2, 3, 4):
        rows, _, good = _suite("signatures", q=q, n_max=12)
        ok &= good
        ok &= {r["ext_sign"] for r in rows} == {1, -1}
    _report(9, "assembled involution traces equal closed formula, q=2,3,4", ok)


def test_criterion_10_reduction_coherence():
    from siegelvec.padic import PadicCtx, run_identity
    ok = True
    for p in (2, 3):
        ctx = PadicCtx(p, 1, prec=32)
        ok &= run_identity(ctx, "u1-conj", draws=500, seed=0) == 500
    _report(10, "reduction commutes with the involutive conjugation, "
               "500 draws per prime", ok)


def test_first_artin_stratum_level7():
    # the q-residue stratum opens at level 7; both residues give the same kind
    from siegelvec.padic import PadicCtx, RgKernel, coset_rep, witness_Rg, compute_Rg
    assert stratum_count("IIIb", 2, 6) == 0
    assert stratum_count("IIIb", 2, 7) == 2
    pctx = PadicCtx(2, 1, prec=32)
    fq = build_field(2, 1)
    table = subgroup_R(coset_R_type("IIIb"), fq)
    for u in (0, 1):
        wit = witness_Rg(pctx, "IIIb", 0, 5, 7, u=u).group
        assert len(wit) == len(table)
        assert conjugate_subgroups(wit, table, fq) is not None
        g = coset_rep(pctx, "IIIb", 0, 5, u=u)
        samp = compute_Rg(RgKernel(g, g.inv()), 7, seed=0).group
        assert set(samp) == set(wit)
