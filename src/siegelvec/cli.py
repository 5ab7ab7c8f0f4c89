"""Command line front end.

Three subcommands: ``table`` prints coset counts per level, ``support``
lists the coset parameters of one level, and ``verify`` runs a named
check suite and reports pass/fail per check.  Output formats are text,
json (stable key order) and csv.  Exit status: 0 all checks pass, 2 a
check failed, 3 any ``numerics.Refusal``, 4 usage error.  A refusal is an
unusable configuration (among them more than MAX_ROWS cosets or rows,
MAX_RG_COSETS cosets to sample, MAX_PRECISION digits or
MAX_IDENTITY_DRAWS draws per identity), a numerical result that cannot be
certified or needs the matrix-model oracle, a p-adic element outside K, or
a p-adic precision or sampling budget too small to decide.

The ``identities`` suite runs its tags in forked worker processes, one per
CPU in the process's affinity mask (in this process when that is one CPU).
Its output is byte-identical to a one-CPU run, and there is no setting.

Each command imports only the layers it runs: this module imports the
numpy-free ``numerics`` and ``support``, and each suite imports the rest,
after the refusals it can decide from its arguments alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from itertools import islice

from . import __version__
from .numerics import (GUARD, KINDS, FqCtx, Refusal, build_field, fixed_dim_closed,
                       standard_kinds)
from .support import (COSET_TAGS, CosetParam, enumerate_support, support_blocks,
                      stratum_count, total_count, base_count, al_partner,
                      is_al_fixed, jmax, fixed_stratum_count, coset_R_type,
                      classify_pairing, dim_formula, assemble_dim, al_formula,
                      assemble_al)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
          7: (7, 1), 8: (2, 3), 9: (3, 2)}


class ConfigError(Refusal):
    """An unusable configuration, refused before the work starts."""


# The most cosets (summed over the levels a command walks) or table rows one
# command may produce: 300,000 take `table` about 4 s and 300 MB, and
# `support` 1.5 s and 170 MB.
MAX_ROWS = 300_000

# The most cosets the `rg` suite may sample: each takes about 4 ms at q=2
# (9,023 cosets, levels 3..29, in 34-36 s on a 2-vCPU x86-64 host, at
# precision 16 or 32), so this is under a minute.
MAX_RG_COSETS = 10_000

# The highest p-adic working precision: `rg --q 2 --n-max 3` takes 1.3 s at
# 1,000, 3.3 s at 2,000 and 10 s at 4,000 on the same host.
MAX_PRECISION = 2_000

# The most `identities` draws per tag: 2,000 take q=8, the slowest field,
# 8.4 s on two CPUs of the same host at the default precision.
MAX_IDENTITY_DRAWS = 10_000


def _at_most(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise ConfigError(f"more than {limit} {what}")


def _within_budget(q: int, levels, what: str, limit: int = MAX_ROWS) -> None:
    """Refuse, before anything is enumerated, a command whose levels hold
    more than limit cosets by the closed counts."""
    total = 0
    for n in levels:
        total += total_count(q, n)
        _at_most(total, limit, f"cosets at {what}, q={q}")


def _field(q: int) -> FqCtx:
    try:
        p, f = FIELDS[q]
    except KeyError:
        raise ConfigError(f"unsupported field size q={q}") from None
    return build_field(p, f)


def _sigma_str(s) -> str:
    return f"{s.k1},{s.k2},{s.constituent}"


def _check(checks: list, name: str, ok: bool, detail: str = "",
           compared: int | None = None) -> bool:
    """Record one check.  A check that states how many cases it compared
    fails when that number is zero: comparing nothing proves nothing."""
    ok = bool(ok) and compared != 0
    checks.append({"name": name, "ok": ok, "detail": detail})
    return ok


# -- suites -------------------------------------------------------------------

def _counts_row(q: int, n: int) -> dict:
    return {"n": n, **{tag: stratum_count(tag, q, n) for tag in COSET_TAGS},
            "total": total_count(q, n), "base": base_count(q, n)}


def _block_counts(fq: FqCtx, n: int) -> tuple[Counter, Counter]:
    """The cosets and the involution-fixed cosets of each stratum at level
    n, counted by lattice block, not coset by coset.  The level involution
    reflects j and keeps u (al_partner), so a lattice point (tag, i, j) is
    fixed for all of its residue codes or for none: is_al_fixed is asked
    once per point, and each fixed point adds its block's code count."""
    by_tag, fixed = Counter(), Counter()
    for tag, i, js, codes in support_blocks(fq, n):
        by_tag[tag] += len(js) * len(codes)
        fixed[tag] += len(codes) * sum(is_al_fixed(CosetParam(tag, i, j), n)
                                       for j in js)
    return by_tag, fixed


def suite_counts(q: int, n_max: int, **_: object) -> tuple[list, list]:
    fq = _field(q)
    _within_budget(q, range(n_max + 1), f"levels 0..{n_max}")
    rows = []
    enum_ok = fixed_ok = weight_ok = True
    if q % 2 == 0:
        # a stratum's weight in the base count: its kind's full-label fixed dim
        weights = {tag: fixed_dim_closed(coset_R_type(tag), q) for tag in COSET_TAGS}
    for n in range(n_max + 1):
        by_tag, fixed = _block_counts(fq, n)
        row = _counts_row(q, n)
        for tag in COSET_TAGS:
            enum_ok &= by_tag.get(tag, 0) == row[tag]
            fixed_ok &= fixed.get(tag, 0) == fixed_stratum_count(tag, q, n)
        rows.append(row)
        enum_ok &= sum(by_tag.values()) == row["total"]
        if q % 2 == 0:
            weight_ok &= sum(w * row[t] for t, w in weights.items()) == row["base"]
    checks: list = []
    _check(checks, "enumeration matches closed stratum counts", enum_ok,
           f"levels 0..{n_max}")
    _check(checks, "involution-fixed cosets match closed counts", fixed_ok,
           f"levels 0..{n_max}")
    if q % 2 == 0:
        _check(checks, "weighted counts aggregate to closed base", weight_ok,
               f"weights ({','.join(map(str, weights.values()))})")
    return rows, checks


def suite_fixed_dims(q: int, **_: object) -> tuple[list, list]:
    from .finitegrp import subgroup_R
    from .chars import omega_trivial_sigma_classes, fixed_dim
    ctx = _field(q)
    # each closed value of a kind at q: the kind and whether it is a full
    # label's (else a constituent's)
    cases = [(kind, full) for kind in standard_kinds(q) for full in (True, False)
             if (KINDS[kind].full if full else KINDS[kind].constituent)]
    compared: dict = {case: [] for case in cases}
    rows = []
    for sigma in omega_trivial_sigma_classes(ctx):
        row = {"sigma": _sigma_str(sigma)}
        for kind, full in cases:
            if full == (sigma.constituent == "Full"):
                key = KINDS[kind].key
                got = row[key] = fixed_dim(ctx, sigma, subgroup_R(kind, ctx))
                want = row[key + "_closed"] = fixed_dim_closed(
                    kind, q, omega_sign=1, constituent=not full)
                compared[kind, full].append(got == want)
        rows.append(row)
    checks: list = []
    for (kind, full), oks in compared.items():
        if oks:  # a case no label reached compared nothing: no check
            _check(checks, f"{'full label' if full else 'constituent'} on "
                           f"{KINDS[kind].noun} matches closed value", all(oks))
    return rows, checks


def _standard_groups(ctx: FqCtx) -> list:
    from .finitegrp import subgroup_R
    return [subgroup_R(k, ctx) for k in standard_kinds(ctx.q)]


def _full_labels(ctx: FqCtx) -> list:
    """Every full label (k1, k2) of two cuspidal classes, k1 outermost."""
    from .chars import SigmaLabel, cuspidal_classes
    ks = cuspidal_classes(ctx)
    return [SigmaLabel(k1, k2, "Full") for k1 in ks for k2 in ks]


def suite_oracle(q: int, **_: object) -> tuple[list, list]:
    from .chars import cuspidal_classes, fixed_dim, make_sigma, sigma_is_reducible
    from .models import decompose, fixed_ranks, model_for_sigma
    ctx = _field(q)
    rows = []
    ok = sum_ok = unip_ok = True
    labels = _full_labels(ctx)
    seen_constituent = False
    groups = _standard_groups(ctx)
    label_ranks = [fixed_ranks(ctx, R, cuspidal_classes(ctx)) for R in groups]
    for sigma in labels:
        for R, by_pair in zip(groups, label_ranks):
            fd = fixed_dim(ctx, sigma, R)
            rk = by_pair[sigma.k1, sigma.k2]
            rows.append({"sigma": _sigma_str(sigma), "group": R.label,
                         "average": fd, "rank": rk})
            ok &= fd == rk
        if sigma_is_reducible(ctx, sigma):
            seen_constituent = True
            model = model_for_sigma(ctx, sigma)
            parts = decompose(model)
            for R in groups:
                ranks = [m.fixed_rank(R) for m in parts]
                full = model.fixed_rank(R)
                rows.append({"sigma": _sigma_str(sigma), "group": R.label,
                             "average": full, "rank": sum(ranks)})
                sum_ok &= sum(ranks) == full
                if KINDS[R.label].oracle_split:  # no constituent value in chars
                    unip_ok &= full != q - 1 or sorted(ranks) == [0, q - 1]
                    continue
                for cm, rk in zip(parts, ranks):
                    lab = make_sigma(ctx, sigma.k1, sigma.k2, cm.tag)
                    ok &= fixed_dim(ctx, lab, R) == rk
    checks: list = []
    _check(checks, "character averages match model ranks", ok,
           f"{len(labels)} labels")
    if seen_constituent:
        _check(checks, "constituent ranks sum to the full rank", sum_ok)
        _check(checks, "unipotent family splits the rank as q-1 and 0", unip_ok)
    return rows, checks


def suite_twists(q: int, **_: object) -> tuple[list, list]:
    from .finitegrp import subgroup_R
    from .chars import (HypothesisViolated, lambda_omega_class, omega_minus1,
                        self_twist_presentations, sigma_key, twisted_trace_closed)
    from .models import TensorModel, swap_operator, twisted_trace, ww_operator
    ctx = _field(q)
    # the kinds with a closed swap trace at even q; at odd q the closed
    # forms cover the torus only
    groups = [subgroup_R(k, ctx) for k in standard_kinds(q)
              if KINDS[k].swap and (q % 2 == 0 or k == "Torus")]
    rows = []
    ok = True
    tested = 0
    labels: dict = {}  # one label per class key, the first met
    for s in _full_labels(ctx):
        labels.setdefault(sigma_key(ctx, s), s)
    for sigma in labels.values():
        for k_rho, l in self_twist_presentations(ctx, sigma):
            if omega_minus1(ctx, k_rho) != 1:
                continue
            try:
                lambda_omega_class(ctx, sigma, (k_rho, l))
            except HypothesisViolated:
                continue
            tm = TensorModel(ctx, k_rho, k_rho, lam_exp=l)
            S, W = swap_operator(tm), ww_operator(tm)
            ops = {"swap": S, "ww": W, "swap_ww": S @ W}
            for R in groups:
                P = tm.average(R)
                for name, op in ops.items():
                    if name != "swap" and not KINDS[R.label].weyl:
                        continue
                    closed = twisted_trace_closed(ctx, sigma, name, R,
                                                  presentation=(k_rho, l))
                    got = twisted_trace(P, op)
                    rows.append({"sigma": _sigma_str(sigma),
                                 "presentation": f"{k_rho},{l}",
                                 "operator": name, "group": R.label,
                                 "model": got, "closed": closed})
                    ok &= got == closed
                    tested += 1
    checks: list = []
    _check(checks, "twist operator traces match closed values", ok,
           f"{tested} comparisons", compared=tested)
    return rows, checks


def _induced_projector(tm, R):
    """Projector onto the R-fixed space of the induced pair: the block
    diagonal of the tensor model's averages over R and over u(R)."""
    import numpy as np
    from .finitegrp import u_image
    zero = np.zeros((tm.dim, tm.dim))
    return np.block([[tm.average(R), zero], [zero, tm.average(u_image(tm.ctx, R))]])


def _induced_coset(tm, x):
    """Operator of the coset element s = x u on the induced pair of tm's
    label: x u swaps the two summands."""
    import numpy as np
    from .finitegrp import u_action
    zero = np.zeros((tm.dim, tm.dim))
    return np.block([[zero, tm.mat(x)], [tm.mat(u_action(tm.ctx, x)), zero]])


def suite_induced(q: int, **_: object) -> tuple[list, list]:
    """Trace of every normalizing u-coset element on the fixed space of a
    non-self-paired label is zero; gate behavior checked on both sides.
    Each row reads the traces of up to 32 coset operators through
    models.twisted_trace, which first certifies that the operator maps the
    R-fixed space P to itself; one that does not fails the check, with
    ``max_abs_trace`` null.  The trace is still 0 by construction, whatever
    P holds (an off-diagonal coset matrix times the block-diagonal P has a
    zero diagonal), so what a row checks is the normalization."""
    import numpy as np
    from .finitegrp import conjugates_into, gl22_codes, gl22_elems, u_action_rows
    from .chars import HypothesisViolated, induced_trace_zero, self_twist_presentations
    from .models import NotNormalizing, model_for_sigma, twisted_trace
    ctx = _field(q)
    sigma = next((s for s in _full_labels(ctx)
                  if not self_twist_presentations(ctx, s)), None)
    if sigma is None:
        raise ConfigError(f"no non-self-paired label at q={q}")
    tm = model_for_sigma(ctx, sigma)
    rows = []
    ok = gate_ok = True
    total = 0
    group = gl22_codes(ctx)
    for R in _standard_groups(ctx):
        P = _induced_projector(tm, R)
        # the coset element s = x u conjugates r to x u_action(r) x^-1: it
        # keeps each factor's class and u swaps the factors, so class pairs
        # that differ from their swap leave no x to find
        c1, c2, count = (a.tolist() for a in R.class_pairs)
        hit = (conjugates_into(ctx, group, u_action_rows(ctx, R.gens), R)
               if dict(zip(zip(c1, c2), count)) == dict(zip(zip(c2, c1), count))
               else np.zeros(len(group), dtype=bool))
        norm = group[hit]
        # the first 16 rejects lie among the first len(norm) + 16 rows
        for pos in np.flatnonzero(~hit[:len(norm) + 16])[:16]:
            try:
                induced_trace_zero(ctx, sigma, group[pos:pos + 1], R)
                gate_ok = False
            except HypothesisViolated:
                pass
        ok &= induced_trace_zero(ctx, sigma, norm, R) == 0
        try:
            worst = float(max((abs(twisted_trace(P, _induced_coset(tm, x)))
                               for x in gl22_elems(norm[:32])), default=0))
        except NotNormalizing:
            worst = None
        total += len(norm)
        rows.append({"sigma": _sigma_str(sigma), "group": R.label,
                     "normalizers": len(norm), "rejected": len(group) - len(norm),
                     "max_abs_trace": worst})
        ok &= worst == 0
    checks: list = []
    _check(checks, "induced traces vanish on every normalizing coset element",
           ok, f"{total} elements, label {_sigma_str(sigma)}", compared=total)
    _check(checks, "non-normalizing coset elements are refused", gate_ok)
    return rows, checks


# set in each forked worker by _fan_out, never in the parent process
_WORKER: tuple = ()


def _worker_init(fn, shared) -> None:
    global _WORKER
    _WORKER = (fn, shared)


def _worker_call(item):
    fn, shared = _WORKER
    return fn(shared, item)


def _fan_out(fn, shared, items: list) -> list:
    """[fn(shared, x) for x in items], in input order, over forked worker
    processes, one per CPU in the affinity mask; in this process when that
    is one CPU or there is one item.  Only the items and the results pass
    through the pipe: fn and shared reach the workers by fork, unpickled.
    The first exception in input order is raised, as in the loop.  With
    workers, every item runs first and the pool is closed and reaped before
    it is raised, its cause the worker's traceback: terminating a pool that
    still runs can hang on its queue."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items))
    if workers < 2:
        return [fn(shared, x) for x in items]
    import multiprocessing
    # fork, not spawn: a spawned worker would re-import the package and could
    # not see fn or shared (nor a monkeypatched module); the package root
    # pins BLAS to one thread, so unless the user sets OPENBLAS_NUM_THREADS
    # there is no other thread, and the identity tags make no BLAS call
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_worker_init, initargs=(fn, shared)) as pool:
        pending = [pool.apply_async(_worker_call, (x,)) for x in items]
        pool.close()
        pool.join()
    return [p.get() for p in pending]


def _identity_job(job: tuple, tag: str) -> tuple[int, str | None]:
    """(draws done, failure text or None) for one identity tag."""
    from .padic import IdentityFailure, run_identity
    ctx, draws, seed = job
    try:
        return run_identity(ctx, tag, draws=draws, seed=seed), None
    except IdentityFailure as exc:
        return exc.draws, f"{tag} failed ({exc})"


def suite_identities(q: int, seed: int, draws: int, precision: int,
                     **_: object) -> tuple[list, list]:
    fq = _field(q)
    _at_most(precision, MAX_PRECISION, "digits of precision")
    _at_most(draws, MAX_IDENTITY_DRAWS, "draws per identity")
    from .padic import PadicCtx, IDENTITY_TAGS
    ctx = PadicCtx(fq.p, fq.f, prec=precision)
    tags = sorted(IDENTITY_TAGS)
    results = _fan_out(_identity_job, (ctx, draws, seed), tags)
    rows = [{"identity": tag, "draws": done} for tag, (done, _) in zip(tags, results)]
    failed = [text for _, text in results if text]
    checks: list = []
    _check(checks, "matrix identities hold on random parameters", not failed,
           "; ".join([f"{len(rows)} identities x {draws} draws, p={fq.p} f={fq.f}"]
                     + failed),
           compared=len(rows) * draws)
    return rows, checks


def _off_support(n_max: int):
    """The first 20 lattice points (n, i, j) of stratum I past the support,
    at levels 3..n_max: per n and i < 3, the first three j >= 1 past
    jmax(n, i)."""
    return islice(((n, i, j) for n in range(3, n_max + 1) for i in range(3)
                   for j in range(max(1, jmax(n, i) + 1), jmax(n, i) + 4)), 20)


def suite_rg(q: int, seed: int, n_max: int, precision: int,
             **_: object) -> tuple[list, list]:
    if q != 2:
        raise ConfigError("transversal sampling suite runs at q=2 only")
    _within_budget(q, range(3, n_max + 1), f"levels 3..{n_max}", MAX_RG_COSETS)
    _at_most(precision, MAX_PRECISION, "digits of precision")
    import numpy as np
    from .finitegrp import conjugate_subgroups, subgroup_R
    from .padic import (PadicCtx, rg_kernel, witness_Rg, compute_Rg,
                        radical_obstruction)
    fq = _field(q)
    pctx = PadicCtx(fq.p, fq.f, prec=precision)
    cosets = ((n, prm) for n in range(3, n_max + 1) for prm in enumerate_support(fq, n))
    rows = []
    ok_w = ok_s = True
    for n, prm in cosets:
        wit = witness_Rg(pctx, prm.tag, prm.i, prm.j, n, prm.u)
        table = subgroup_R(coset_R_type(prm.tag), fq)
        conj = (len(wit) == len(table)
                and conjugate_subgroups(wit, table, fq) is not None)
        samp = compute_Rg(rg_kernel(pctx, *prm), n, seed=seed).group
        same = np.array_equal(samp.keys, wit.keys)
        rows.append({"tag": prm.tag, "i": prm.i, "j": prm.j, "n": n,
                     "witness_order": len(wit), "sampled_order": len(samp),
                     "conjugate_to_table": conj, "sampled_matches": same})
        ok_w &= conj
        ok_s &= same
    ok_off = True
    count_off = 0
    for n, i, j in _off_support(n_max):
        grp = compute_Rg(rg_kernel(pctx, "I", i, j), n, seed=seed).group
        ok_off &= radical_obstruction(fq, grp)
        count_off += 1
    checks: list = []
    _check(checks, "witness subgroups conjugate to table kinds", ok_w,
           f"{len(rows)} cosets", compared=len(rows))
    _check(checks, "sampled subgroups equal witnessed subgroups", ok_s,
           compared=len(rows))
    _check(checks, "off-support cosets show a radical obstruction", ok_off,
           f"{count_off} parameter triples", compared=count_off)
    return rows, checks


def suite_dims(q: int, n_max: int, **_: object) -> tuple[list, list]:
    from .chars import omega_trivial_sigma_classes
    ctx = _field(q)
    labels = omega_trivial_sigma_classes(ctx)
    _at_most(len(labels) * (n_max + 1), MAX_ROWS, f"rows in dims to level {n_max}, q={q}")
    rows = []
    ok = True
    levels = range(n_max + 1)
    for sigma in labels:
        pairing = classify_pairing(ctx, sigma)
        for n, got in zip(levels, assemble_dim(ctx, sigma, levels)):
            want = dim_formula(q, n, pairing)
            rows.append({"sigma": _sigma_str(sigma), "pairing": pairing,
                         "n": n, "assembled": got, "closed": want})
            ok &= got == want
    checks: list = []
    _check(checks, "assembled dimensions match the closed formula", ok,
           f"{len(rows)} (label, level) pairs")
    if q == 2:
        seq = [dim_formula(2, n, "self") for n in range(9)]
        _check(checks, "q=2 dimension sequence", seq == [0, 0, 0, 1, 3, 7, 13, 23, 35],
               ",".join(str(v) for v in seq))
    return rows, checks


def suite_signatures(q: int, n_max: int, **_: object) -> tuple[list, list]:
    from .chars import lambda_omega_class, omega_trivial_sigma_classes
    ctx = _field(q)
    labels = omega_trivial_sigma_classes(ctx)
    _at_most(len(labels) * max(0, n_max - 2) * 2, MAX_ROWS,
             f"rows in signatures to level {n_max}, q={q}")
    rows = []
    ok = True
    levels = range(3, n_max + 1)
    for sigma in labels:
        pairing = classify_pairing(ctx, sigma)
        branch = (lambda_omega_class(ctx, sigma) if pairing == "self" and q % 2 == 1
                  else "one")
        by_sign = zip(*(assemble_al(ctx, sigma, levels, sg) for sg in (1, -1)))
        for n, traces in zip(levels, by_sign):
            for sg, got in zip((1, -1), traces):
                want = al_formula(q, n, pairing, sg, branch=branch)
                rows.append({"sigma": _sigma_str(sigma), "pairing": pairing,
                             "n": n, "ext_sign": sg, "assembled": got,
                             "closed": want})
                ok &= got == want
    checks: list = []
    _check(checks, "assembled involution traces match the closed formula", ok,
           f"{len(rows)} (label, level, sign) triples", compared=len(rows))
    return rows, checks


SUITES = {
    "counts": suite_counts,
    "fixed-dims": suite_fixed_dims,
    "oracle": suite_oracle,
    "twists": suite_twists,
    "induced": suite_induced,
    "identities": suite_identities,
    "rg": suite_rg,
    "dims": suite_dims,
    "signatures": suite_signatures,
}


# -- rendering ----------------------------------------------------------------

def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True) + "\n"
    rows = payload["rows"]
    keys = list(rows[0]) if rows else []
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return buf.getvalue()
    lines = []
    if rows:
        widths = {k: max(len(str(k)), max(len(str(r.get(k, ""))) for r in rows))
                  for k in keys}
        lines.append("  ".join(str(k).ljust(widths[k]) for k in keys))
        for r in rows:
            lines.append("  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))
    for c in payload["checks"]:
        status = "pass" if c["ok"] else "FAIL"
        detail = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"check {c['name']}: {status}{detail}")
    return "\n".join(lines) + "\n" if lines else ""


def _int_at_least(lo: int, what: str):
    """argparse type for an integer of at least lo, named what in errors."""
    bound = "non-negative" if lo == 0 else f"at least {lo}"

    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"{what} must be {bound}, got {n}")
        return n
    parse.__name__ = f"_{what}"   # argparse names it in "invalid _level value"
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    ap = _Parser(prog="siegel",
                 description="Exact fixed-vector dimension and involution "
                             "signature computations.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="coset counts per level")
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--n-max", type=_int_at_least(0, "level"), default=20)
    t.add_argument("--format", choices=("text", "json", "csv"), default="text")

    s = sub.add_parser("support", help="coset parameters of one level")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=_int_at_least(0, "level"), required=True)
    s.add_argument("--format", choices=("text", "json", "csv"), default="text")

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    v.add_argument("--q", type=int, required=True)
    v.add_argument("--n-max", type=_int_at_least(0, "level"), default=12)
    v.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    v.add_argument("--draws", type=_int_at_least(1, "draws"), default=100)
    v.add_argument("--precision", type=_int_at_least(GUARD, "precision"), default=32)
    v.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return ap


def _emit(args, rows: list, checks: list = (), seed=None, **config) -> int:
    """Write a command's payload; exit 0 when every check passed, else 2."""
    payload = {"config": {"command": args.command, "q": args.q, **config},
               "rows": rows, "checks": list(checks), "seed": seed,
               "version": __version__}
    sys.stdout.write(_render(payload, args.format))
    return 0 if all(c["ok"] for c in checks) else 2


def cmd_table(args) -> int:
    if args.q not in FIELDS:
        raise ConfigError(f"unsupported field size q={args.q}")
    _at_most(args.n_max + 1, MAX_ROWS, f"rows in a table to level {args.n_max}")
    return _emit(args, [_counts_row(args.q, n) for n in range(args.n_max + 1)],
                 n_max=args.n_max)


def cmd_support(args) -> int:
    fq = _field(args.q)
    _within_budget(args.q, [args.n], f"level {args.n}")
    rows = []
    for p in enumerate_support(fq, args.n):
        pp = al_partner(p, args.n)
        rows.append({"tag": p.tag, "i": p.i, "j": p.j, "u": p.u,
                     "partner_j": pp.j, "fixed": pp == p,
                     "group": coset_R_type(p.tag)})
    return _emit(args, rows, n=args.n)


def cmd_verify(args) -> int:
    rows, checks = SUITES[args.suite](q=args.q, n_max=args.n_max, seed=args.seed,
                                      draws=args.draws, precision=args.precision)
    if not checks:  # a suite that checked nothing has verified nothing
        _check(checks, f"{args.suite} suite emitted a check", False, compared=0)
    return _emit(args, rows, checks, args.seed, suite=args.suite, n_max=args.n_max,
                 draws=args.draws, precision=args.precision)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "table":
            return cmd_table(args)
        if args.command == "support":
            return cmd_support(args)
        return cmd_verify(args)
    except Refusal as exc:
        print(f"siegel: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
