"""Command line front end.

Three subcommands: ``table`` prints coset counts per level, ``support``
lists the coset parameters of one level, and ``verify`` runs a named
check suite and reports pass/fail per check.  Output formats are text,
json (stable key order) and csv.  Exit status: 0 all checks pass, 2 a
check failed, 3 unusable configuration, a numerical result that cannot be
certified or needs the matrix-model oracle, a p-adic element outside K, or
a p-adic precision or sampling budget too small to decide, 4 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from itertools import islice

import numpy as np

from . import __version__
from .numerics import NotAnInteger
from .finitegrp import (FqCtx, build_field, subgroup_R, enumerate_gl22,
                        conjugates_into, gl2_class, u_action)
from .chars import (SigmaLabel, omega_trivial_sigma_classes, cuspidal_classes,
                    sigma_key, make_sigma, sigma_is_reducible,
                    induced_trace_zero, fixed_dim, fixed_dim_closed,
                    twisted_trace_closed, self_twist_presentations,
                    lambda_omega_class, omega_minus1, BadCase, HypothesisViolated,
                    OracleRequired)
from .models import (TensorModel, decompose, model_for_sigma, swap_operator,
                     ww_operator, twisted_trace, NoIntertwiner,
                     ProjectorRankMismatch, UncertifiedNullity)
from .support import (COSET_TAGS, enumerate_support, stratum_count, total_count,
                      base_count, al_partner, al_fixed_cosets, fixed_stratum_count,
                      coset_R_type, classify_pairing, dim_formula, assemble_dim,
                      al_formula, assemble_al)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
          7: (7, 1), 8: (2, 3), 9: (3, 2)}


class ConfigError(Exception):
    pass


def _field(q: int) -> FqCtx:
    try:
        p, f = FIELDS[q]
    except KeyError:
        raise ConfigError(f"unsupported field size q={q}") from None
    return build_field(p, f)


def _sigma_str(s: SigmaLabel) -> str:
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
    row = {"n": n}
    for tag in COSET_TAGS:
        row[tag] = stratum_count(tag, q, n)
    row["total"] = total_count(q, n)
    row["base"] = base_count(q, n)
    return row


def suite_counts(q: int, n_max: int, **_: object) -> tuple[list, list]:
    fq = _field(q)
    rows = []
    enum_ok = fixed_ok = weight_ok = True
    weights = {"I": 1, "II": 1, "IIIa": q - 1, "IIIb": 1, "IV": 1}
    for n in range(n_max + 1):
        params = enumerate_support(fq, n)
        by_tag = Counter(p.tag for p in params)
        fixed = Counter(p.tag for p in al_fixed_cosets(fq, n))
        row = _counts_row(q, n)
        for tag in COSET_TAGS:
            enum_ok &= by_tag.get(tag, 0) == row[tag]
            fixed_ok &= fixed.get(tag, 0) == fixed_stratum_count(tag, q, n)
        rows.append(row)
        enum_ok &= len(params) == row["total"]
        if q % 2 == 0:
            weight_ok &= sum(weights[t] * row[t] for t in COSET_TAGS) == row["base"]
    checks: list = []
    _check(checks, "enumeration matches closed stratum counts", enum_ok,
           f"levels 0..{n_max}")
    _check(checks, "involution-fixed cosets match closed counts", fixed_ok,
           f"levels 0..{n_max}")
    if q % 2 == 0:
        _check(checks, "weighted counts aggregate to closed base", weight_ok,
               f"weights (1,1,{q - 1},1,1)")
    return rows, checks


def suite_fixed_dims(q: int, **_: object) -> tuple[list, list]:
    ctx = _field(q)
    rows = []
    ok_a = ok_b = ok_c = ok_d = True
    seen_b = seen_d = False
    for sigma in omega_trivial_sigma_classes(ctx):
        row = {"sigma": _sigma_str(sigma)}
        if sigma.constituent == "Full":
            fd = fixed_dim(ctx, sigma, subgroup_R("Torus", ctx))
            closed = fixed_dim_closed("a", q, omega_sign=1)
            row["torus"], row["torus_closed"] = fd, closed
            ok_a &= fd == closed
            fu = fixed_dim(ctx, sigma, subgroup_R("Unip", ctx))
            row["unip"], row["unip_closed"] = fu, fixed_dim_closed("c", q)
            ok_c &= fu == q - 1
            if q % 2 == 0:
                seen_d = True
                fa = fixed_dim(ctx, sigma, subgroup_R("ArtinUnip", ctx))
                row["artin"], row["artin_closed"] = fa, fixed_dim_closed("d", q)
                ok_d &= fa == 1
        else:
            seen_b = True
            fd = fixed_dim(ctx, sigma, subgroup_R("Torus", ctx))
            closed = fixed_dim_closed("b", q)
            row["torus"], row["torus_closed"] = fd, closed
            ok_b &= fd == closed
        rows.append(row)
    checks: list = []
    _check(checks, "full label on torus matches closed value", ok_a)
    if seen_b:
        _check(checks, "constituent on torus matches closed value", ok_b)
    _check(checks, "full label on unipotent family matches closed value", ok_c)
    if seen_d:
        _check(checks, "full label on Artin-Schreier family matches closed value",
               ok_d)
    return rows, checks


def _standard_groups(ctx: FqCtx) -> list:
    kinds = ["Torus", "Unip", "U1", "U2"]
    if ctx.q % 2 == 0:
        kinds.insert(2, "ArtinUnip")
    return [subgroup_R(k, ctx) for k in kinds]


def suite_oracle(q: int, **_: object) -> tuple[list, list]:
    ctx = _field(q)
    if q > 8:
        side = (q - 1) ** 4
        raise ConfigError(
            f"oracle runs up to q=8: at q={q} each reducible pair needs a "
            f"commutant Gram of side {side} ({side * side * 16 // 10**6} MB)")
    rows = []
    ok = sum_ok = unip_ok = True
    labels = [SigmaLabel(k1, k2, "Full")
              for k1 in cuspidal_classes(ctx) for k2 in cuspidal_classes(ctx)]
    seen_constituent = False
    for sigma in labels:
        model = model_for_sigma(ctx, sigma)
        for R in _standard_groups(ctx):
            fd = fixed_dim(ctx, sigma, R)
            rk = model.fixed_rank(R)
            rows.append({"sigma": _sigma_str(sigma), "group": R.label,
                         "average": fd, "rank": rk})
            ok &= fd == rk
        if sigma_is_reducible(ctx, sigma):
            seen_constituent = True
            parts = decompose(model)
            for R in _standard_groups(ctx):
                ranks = [m.fixed_rank(R) for m in parts]
                full = model.fixed_rank(R)
                rows.append({"sigma": _sigma_str(sigma), "group": R.label,
                             "average": full, "rank": sum(ranks)})
                sum_ok &= sum(ranks) == full
                if R.label == "Unip":  # no constituent value in chars here
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
    ctx = _field(q)
    rows = []
    ok = True
    tested = 0
    seen = set()
    labels = []
    for k1 in cuspidal_classes(ctx):
        for k2 in cuspidal_classes(ctx):
            s = SigmaLabel(k1, k2, "Full")
            key = sigma_key(ctx, s)
            if key not in seen:
                seen.add(key)
                labels.append(s)
    for sigma in labels:
        pres = self_twist_presentations(ctx, sigma)
        if not pres:
            continue
        for k_rho, l in pres:
            if omega_minus1(ctx, k_rho) != 1:
                continue
            try:
                lambda_omega_class(ctx, sigma, (k_rho, l))
            except HypothesisViolated:
                continue
            tm = TensorModel(ctx, k_rho, k_rho, lam_exp=l)
            ops = {"swap": swap_operator(tm), "ww": ww_operator(tm),
                   "swap_ww": swap_operator(tm) @ ww_operator(tm)}
            groups = [subgroup_R("Torus", ctx)]
            if q % 2 == 0:
                groups += [subgroup_R("Unip", ctx), subgroup_R("ArtinUnip", ctx)]
            for R in groups:
                for name, op in ops.items():
                    if R.label != "Torus" and name != "swap":
                        continue
                    closed = twisted_trace_closed(ctx, sigma, name, R,
                                                  presentation=(k_rho, l))
                    got = twisted_trace(tm, op, R)
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


def _induced_mat(tm: TensorModel, x, eps: int) -> np.ndarray:
    ctx = tm.ctx
    a = tm.mat(x)
    b = tm.mat(u_action(ctx, x))
    n = tm.dim
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    if eps == 0:
        out[:n, :n] = a
        out[n:, n:] = b
    else:
        out[:n, n:] = a
        out[n:, :n] = b
    return out


def _factor_classes(ctx: FqCtx, elems) -> Counter:
    return Counter((gl2_class(ctx, r.first), gl2_class(ctx, r.second))
                   for r in elems)


def suite_induced(q: int, **_: object) -> tuple[list, list]:
    """Trace of every normalizing u-coset element on the fixed space of a
    non-self-paired label is zero; gate behavior checked on both sides."""
    ctx = _field(q)
    sigma = None
    for k1 in cuspidal_classes(ctx):
        for k2 in cuspidal_classes(ctx):
            s = SigmaLabel(k1, k2, "Full")
            if not self_twist_presentations(ctx, s):
                sigma = s
                break
        if sigma:
            break
    if sigma is None:
        raise ConfigError(f"no non-self-paired label at q={q}")
    tm = model_for_sigma(ctx, sigma)
    rows = []
    ok = gate_ok = True
    total = 0
    group = enumerate_gl22(ctx)
    for R in _standard_groups(ctx):
        P = sum(_induced_mat(tm, r, 0) for r in R) / len(R)
        # the coset element s = x u conjugates r to x u_action(r) x^-1, and
        # keeps each factor's class: unequal class counts leave no x to find
        uR = [u_action(ctx, r) for r in R]
        norm, rejects = [], group
        if _factor_classes(ctx, uR) == _factor_classes(ctx, R):
            rejects = []
            for x in group:
                (norm if conjugates_into(ctx, x, uR, R.elements) else rejects).append(x)
        for x in rejects[:16]:
            try:
                induced_trace_zero(ctx, sigma, x, R)
                gate_ok = False
            except HypothesisViolated:
                pass
        worst = 0.0
        for pos, x in enumerate(norm):
            ok &= induced_trace_zero(ctx, sigma, x, R) == 0
            if pos < 32:
                worst = max(worst, abs(np.trace(_induced_mat(tm, x, 1) @ P)))
        total += len(norm)
        rows.append({"sigma": _sigma_str(sigma), "group": R.label,
                     "normalizers": len(norm), "rejected": len(rejects),
                     "max_abs_trace": worst})
        ok &= worst < 1e-8
    checks: list = []
    _check(checks, "induced traces vanish on every normalizing coset element",
           ok, f"{total} elements, label {_sigma_str(sigma)}", compared=total)
    _check(checks, "non-normalizing coset elements are refused", gate_ok)
    return rows, checks


def suite_identities(q: int, seed: int, draws: int, precision: int,
                     **_: object) -> tuple[list, list]:
    from .padic import PadicCtx, IDENTITY_TAGS, IdentityFailure, run_identity
    fq = _field(q)
    ctx = PadicCtx(fq.p, fq.f, prec=precision)
    rows, failed = [], []
    for tag in sorted(IDENTITY_TAGS):
        try:
            done = run_identity(ctx, tag, draws=draws, seed=seed)
        except IdentityFailure as exc:
            failed.append(f"{tag} failed ({exc})")
            done = exc.draws
        rows.append({"identity": tag, "draws": done})
    checks: list = []
    _check(checks, "matrix identities hold on random parameters", not failed,
           "; ".join([f"{len(rows)} identities x {draws} draws, p={fq.p} f={fq.f}"]
                     + failed),
           compared=len(rows) * draws)
    return rows, checks


def suite_rg(q: int, seed: int, n_max: int, precision: int,
             **_: object) -> tuple[list, list]:
    from .padic import (PadicCtx, coset_rep, witness_Rg, compute_Rg,
                        radical_obstruction)
    from .finitegrp import conjugate_subgroups
    if q != 2:
        raise ConfigError("transversal sampling suite runs at q=2 only")
    fq = _field(q)
    pctx = PadicCtx(fq.p, fq.f, prec=precision)
    rows = []
    ok_w = ok_s = True
    for n in range(3, n_max + 1):
        for prm in enumerate_support(fq, n):
            wit = witness_Rg(pctx, prm.tag, prm.i, prm.j, n, prm.u).group
            table = subgroup_R(coset_R_type(prm.tag), fq)
            conj = (len(wit) == len(table)
                    and conjugate_subgroups(wit, table, fq) is not None)
            g = coset_rep(pctx, prm.tag, prm.i, prm.j, prm.u)
            samp = compute_Rg(g, n, seed=seed).group
            same = samp.elements == wit.elements
            rows.append({"tag": prm.tag, "i": prm.i, "j": prm.j, "n": n,
                         "witness_order": len(wit), "sampled_order": len(samp),
                         "conjugate_to_table": conj, "sampled_matches": same})
            ok_w &= conj
            ok_s &= same
    ok_off = True
    count_off = 0
    off_support = ((n, i, j) for n in range(3, n_max + 1) for i in range(3)
                   for j in range(max(1, n - 1 - 2 * i), n + 2 - 2 * i))
    for n, i, j in islice(off_support, 20):
        grp = compute_Rg(coset_rep(pctx, "I", i, j), n, seed=seed).group
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
    ctx = _field(q)
    rows = []
    ok = True
    for sigma in omega_trivial_sigma_classes(ctx):
        pairing = classify_pairing(ctx, sigma)
        for n in range(n_max + 1):
            got = assemble_dim(ctx, sigma, n).total
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
    ctx = _field(q)
    rows = []
    ok = True
    for sigma in omega_trivial_sigma_classes(ctx):
        pairing = classify_pairing(ctx, sigma)
        if pairing == "self" and q % 2 == 1:
            branch = lambda_omega_class(ctx, sigma)
        else:
            branch = "one"
        for n in range(3, n_max + 1):
            for sg in (1, -1):
                got = assemble_al(ctx, sigma, n, sg).total
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
    if fmt == "csv":
        rows = payload["rows"]
        buf = io.StringIO()
        if rows:
            keys = list(rows[0].keys())
            writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
            writer.writeheader()
            for r in rows:
                writer.writerow(r)
        return buf.getvalue()
    lines = []
    rows = payload["rows"]
    if rows:
        keys = list(rows[0].keys())
        widths = {k: max(len(str(k)), max(len(str(r.get(k, ""))) for r in rows))
                  for k in keys}
        lines.append("  ".join(str(k).ljust(widths[k]) for k in keys))
        for r in rows:
            lines.append("  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))
    for c in payload.get("checks", []):
        status = "pass" if c["ok"] else "FAIL"
        detail = f" ({c['detail']})" if c.get("detail") else ""
        lines.append(f"check {c['name']}: {status}{detail}")
    return "\n".join(lines) + "\n" if lines else ""


def _level(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"level must be non-negative, got {n}")
    return n


def _seed(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {n}")
    return n


def _draws(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"draws must be at least 1, got {n}")
    return n


def _precision(text: str) -> int:
    from .padic import GUARD
    prec = int(text)
    if prec < GUARD:
        raise argparse.ArgumentTypeError(
            f"precision must be at least the guard margin {GUARD}, got {prec}")
    return prec


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
    t.add_argument("--n-max", type=_level, default=20)
    t.add_argument("--format", choices=("text", "json", "csv"), default="text")

    s = sub.add_parser("support", help="coset parameters of one level")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=_level, required=True)
    s.add_argument("--format", choices=("text", "json", "csv"), default="text")

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    v.add_argument("--q", type=int, required=True)
    v.add_argument("--n-max", type=_level, default=12)
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--draws", type=_draws, default=100)
    v.add_argument("--precision", type=_precision, default=32)
    v.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return ap


def cmd_table(args) -> int:
    if args.q not in FIELDS:
        raise ConfigError(f"unsupported field size q={args.q}")
    rows = [_counts_row(args.q, n) for n in range(args.n_max + 1)]
    payload = {"config": {"command": "table", "q": args.q, "n_max": args.n_max},
               "rows": rows, "checks": [], "seed": None, "version": __version__}
    sys.stdout.write(_render(payload, args.format))
    return 0


def cmd_support(args) -> int:
    fq = _field(args.q)
    rows = []
    for p in enumerate_support(fq, args.n):
        pp = al_partner(p, args.n)
        rows.append({"tag": p.tag, "i": p.i, "j": p.j, "u": p.u,
                     "partner_j": pp.j, "fixed": pp == p,
                     "group": coset_R_type(p.tag)})
    payload = {"config": {"command": "support", "q": args.q, "n": args.n},
               "rows": rows, "checks": [], "seed": None, "version": __version__}
    sys.stdout.write(_render(payload, args.format))
    return 0


def cmd_verify(args) -> int:
    fn = SUITES[args.suite]
    rows, checks = fn(q=args.q, n_max=args.n_max, seed=args.seed,
                      draws=args.draws, precision=args.precision)
    payload = {"config": {"command": "verify", "suite": args.suite, "q": args.q,
                          "n_max": args.n_max, "draws": args.draws,
                          "precision": args.precision},
               "rows": rows, "checks": checks, "seed": args.seed,
               "version": __version__}
    sys.stdout.write(_render(payload, args.format))
    return 0 if all(c["ok"] for c in checks) else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "table":
            return cmd_table(args)
        if args.command == "support":
            return cmd_support(args)
        return cmd_verify(args)
    except Exception as exc:
        # padic, the largest module, is imported only by the suites that use it
        from .padic import NotInK, PrecisionExhausted, StabilizationFailure
        if not isinstance(exc, (ConfigError, BadCase, UncertifiedNullity,
                                ProjectorRankMismatch, NoIntertwiner, NotAnInteger,
                                OracleRequired, NotInK, PrecisionExhausted,
                                StabilizationFailure)):
            raise
        print(f"siegel: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
