"""Cuspidal characters of GL2(q), labels for representations of GL22(q),
fixed-space dimensions as character averages, and the closed traces of
the twist operators.

A cuspidal representation of GL2(q) is labeled by an exponent k with
(q+1) not dividing k: the corresponding character theta of the big
multiplicative group sends g2^j to zeta_{q^2-1}^{kj}.  Labels k and q*k
name the same representation.  ``char_values`` holds each character over
the class indices of ``finitegrp.gl2_table``, filled once per label from
the eigenvalues t in F_{q^2}^x at the class of one matrix each:

* scalar tI, [[t, 0], [0, t]]                 -> (q-1) theta(t)
* non-semisimple, [[t, 0], [1, t]]            -> -theta(t)
* elliptic, the companion matrix of t and t^q -> -(theta(t) + theta(t^q))
* split regular diag(a,b), a != b             -> 0

Every fixed dimension over a subgroup R reads R's class pairs
(``SubgroupR.class_pairs``): sum count * chi_k1[c1] * chi_k2[c2] / |R|,
and over u(R) the same with c1 and c2 swapped.

A SigmaLabel names an irreducible-or-full piece of the restriction of a
cuspidal pair to the det-matched group GL22(q): either the full
restriction, or (q odd, both factors with split restriction to SL2) one
of the two equidimensional constituents Plus/Minus.  Constituent
characters have no global closed form.  Conjugation by the outer element
s = (diag(e,1), 1), e a nonsquare, exchanges the two constituents, so on
any subset stable under s-conjugation their character sums agree and
fixed dimensions halve the full average.  Stability is computed per set
(the torus and the two radical columns are stable; the unipotent family,
where the split is {q-1, 0}, is not) and an unstable set raises
OracleRequired: this module never calls a matrix model.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

import numpy as np

from .finitegrp import (FqCtx, GL2Elem, GL22Elem, SubgroupR, conjugates_into,
                        gl22_codes, gl22_rows, gl2_classes, gl2_identity,
                        u_action_rows)
from .numerics import KINDS, Refusal, certify_integer, root_of_unity
# the closed fixed dimensions live in the numpy-free layer, so that the
# closed count commands read them without numpy; they are re-exported here
from .numerics import BadCase, fixed_dim_closed  # noqa: F401


class OracleRequired(RuntimeError, Refusal):
    """A constituent value was requested that needs the matrix-model oracle."""


class HypothesisViolated(ValueError):
    """Closed form invoked outside the hypotheses it was proved under."""


# -- cuspidal labels -------------------------------------------------------

def valid_cuspidal(ctx: FqCtx, k: int) -> bool:
    return (k % (ctx.q + 1)) != 0


def all_cuspidal_exponents(ctx: FqCtx) -> list[int]:
    return [k for k in range(ctx.q2 - 1) if valid_cuspidal(ctx, k)]


def canonical_cuspidal(ctx: FqCtx, k: int) -> int:
    k %= ctx.q2 - 1
    return min(k, (ctx.q * k) % (ctx.q2 - 1))


def cuspidal_classes(ctx: FqCtx) -> list[int]:
    return sorted({canonical_cuspidal(ctx, k) for k in all_cuspidal_exponents(ctx)})


def theta_eval(ctx: FqCtx, k: int, a: int) -> complex:
    """theta_k evaluated at a nonzero element of F_{q^2}."""
    return root_of_unity(ctx.q2 - 1, k * ctx.dlog(a))


@functools.cache
def char_values(ctx: FqCtx, k: int) -> np.ndarray:
    """The cuspidal character labeled by k on each class of
    ``gl2_table(ctx).classes``, written at the class of one row per
    eigenvalue t in F_{q^2}^x; split regular classes keep 0."""
    k %= ctx.q2 - 1
    rows, values = [], []
    for t in range(1, ctx.q2):
        theta = theta_eval(ctx, k, t)
        if ctx.in_fq(t):
            rows += [(t, 0, 0, t), (t, 0, ctx.one, t)]
            values += [(ctx.q - 1) * theta, -theta]
        else:
            tq = ctx.frob_q(t)
            rows.append((0, ctx.neg(ctx.mul(t, tq)), ctx.one, ctx.add(t, tq)))
            values.append(-(theta + theta_eval(ctx, k, tq)))
    out = np.zeros(2 * ctx.q ** 2, dtype=complex)
    out[gl2_classes(ctx, np.array(rows, dtype=np.uint8))] = values
    return out


# -- omega (central character) helpers ------------------------------------

def omega_minus1(ctx: FqCtx, k: int) -> int:
    """omega_rho(-1) as +1 or -1 (always +1 for q even)."""
    return -1 if ctx.q % 2 and k % 2 else 1


# -- sigma labels ----------------------------------------------------------

class SigmaLabel(NamedTuple):
    k1: int
    k2: int
    constituent: str  # 'Full' | 'Plus' | 'Minus'


def split_restriction(ctx: FqCtx, k: int) -> bool:
    """Whether the restriction of the cuspidal to SL2(q) splits in two.

    Happens exactly when theta^(q-1) equals the quadratic character
    composed with the norm; impossible for q even."""
    return ctx.q % 2 == 1 and k % (ctx.q + 1) == (ctx.q + 1) // 2


def make_sigma(ctx: FqCtx, k1: int, k2: int, constituent: str = "Full") -> SigmaLabel:
    k1 %= ctx.q2 - 1
    k2 %= ctx.q2 - 1
    if not (valid_cuspidal(ctx, k1) and valid_cuspidal(ctx, k2)):
        raise ValueError(f"exponents ({k1}, {k2}) are not cuspidal at q = {ctx.q}")
    if constituent not in ("Full", "Plus", "Minus"):
        raise ValueError(f"bad constituent tag {constituent!r}")
    if constituent != "Full" and not sigma_is_reducible(ctx, SigmaLabel(k1, k2, "Full")):
        raise ValueError("constituents require q odd and both labels with split "
                         "restriction")
    return SigmaLabel(k1, k2, constituent)


def sigma_is_reducible(ctx: FqCtx, sigma: SigmaLabel) -> bool:
    """The full restriction splits iff both labels do (so q is odd)."""
    return split_restriction(ctx, sigma.k1) and split_restriction(ctx, sigma.k2)


def sigma_omega_trivial(ctx: FqCtx, sigma: SigmaLabel) -> bool:
    """Triviality of the central character on the full center of GL22(q).

    The center is {(aI, +-aI)} for q odd and {(aI, aI)} for q even, so the
    condition is omega_1 omega_2 = 1 plus (q odd) omega_2(-1) = 1."""
    return ((sigma.k1 + sigma.k2) % (ctx.q - 1) == 0
            and (ctx.q % 2 == 0 or sigma.k2 % 2 == 0))


def sigma_key(ctx: FqCtx, sigma: SigmaLabel):
    """Canonical key for the isomorphism class of the label.

    Moves: relabel either factor by Frobenius (k -> qk), and shift a
    determinant twist between the factors (k1 + l(q+1), k2 - l(q+1)).
    They commute, since q(q+1) = q+1 mod q^2-1, so the orbit is every
    (q^e1 k1 + l(q+1), q^e2 k2 - l(q+1)) with e1, e2 in {0, 1} and
    0 <= l < q-1, and the key is its least pair."""
    q, m = ctx.q, ctx.q2 - 1
    orbit = (((q ** e1 * sigma.k1 + l * (q + 1)) % m, (q ** e2 * sigma.k2 - l * (q + 1)) % m)
             for e1 in (0, 1) for e2 in (0, 1) for l in range(q - 1))
    return (min(orbit), sigma.constituent)


def is_self_twisted(ctx: FqCtx, sigma: SigmaLabel) -> bool:
    """Character comparison chi(x) = chi(u_action(x)) over all of GL22(q),
    element by element on the code array.  Reference only: the tests and
    the benchmark probes check self_twist_presentations, which makes every
    self-twist decision on the production path, against it.  A constituent
    is self-twisted exactly when its full label is: the u-action fixes the
    parent's isotypic family and each constituent's restriction type."""
    X = gl22_codes(ctx)
    chi1, chi2 = char_values(ctx, sigma.k1), char_values(ctx, sigma.k2)
    chi, chi_u = (chi1[gl2_classes(ctx, Y[:, :4])] * chi2[gl2_classes(ctx, Y[:, 4:])]
                  for Y in (X, u_action_rows(ctx, X)))
    return bool(np.abs(chi - chi_u).max() <= 1e-8)


def self_twist_presentations(ctx: FqCtx, sigma: SigmaLabel) -> list[tuple[int, int]]:
    """All (k_rho, l_lambda) with the full label isomorphic to the
    determinant twist by lambda (exponent l) of the doubled pair on rho.

    Nonempty exactly when the label is self-twisted; every self-twist
    decision on the production path goes through this arithmetic test."""
    m = ctx.q2 - 1
    q = ctx.q
    outs = []
    firsts = {sigma.k1 % m, (q * sigma.k1) % m}
    seconds = {sigma.k2 % m, (q * sigma.k2) % m}
    for ka, kb in [(a, b) for a in firsts for b in seconds] + \
                  [(a, b) for a in seconds for b in firsts]:
        diff = (ka - kb) % m
        if diff % (q + 1) == 0:
            l = (diff // (q + 1)) % (q - 1) if q > 2 else 0
            outs.append((kb, l))
    return sorted(set(outs))


def lambda_omega_class(ctx: FqCtx, sigma: SigmaLabel,
                       presentation: Optional[tuple[int, int]] = None) -> str:
    """'one' or 'alpha': the value of lambda * omega_rho for a self-twisted
    full label, which is an order <= 2 character whenever the central
    character is trivial.

    Irreducible labels determine the class; reducible ones admit both and
    need an explicit (k_rho, l_lambda) presentation."""
    if ctx.q == 2:
        return "one"
    half = (ctx.q - 1) // 2
    if presentation is not None:
        k_rho, l = presentation
        e = (k_rho + l) % (ctx.q - 1)
    else:
        pres = self_twist_presentations(ctx, sigma)
        if not pres:
            raise HypothesisViolated("label is not self-twisted")
        exps = {(kb + l) % (ctx.q - 1) for kb, l in pres}
        if len(exps) != 1:
            raise HypothesisViolated(
                "lambda*omega is presentation dependent (reducible label); "
                "pass an explicit presentation")
        e = exps.pop()
    if e == 0:
        return "one"
    if ctx.q % 2 == 1 and e == half:
        return "alpha"
    raise HypothesisViolated(f"(lambda*omega)^2 != 1 (exponent {e} mod {ctx.q - 1})")


# -- characters and fixed dimensions ---------------------------------------

def _average_dim(ctx: FqCtx, sigma: SigmaLabel, R: SubgroupR,
                 twisted: bool = False) -> int:
    """Average of the label's character over R, or over u(R) when twisted,
    from R's class pairs, certified to an integer.  A constituent takes
    half the full average, valid only when s = (diag(e,1), 1) normalizes
    the group, tested on R's generators (for u(R) as u(s) on R, u being an
    involutive automorphism); otherwise OracleRequired is raised."""
    c1, c2, count = R.class_pairs
    if twisted:
        c1, c2 = c2, c1
    share = 1.0
    if sigma.constituent != "Full":
        s = gl22_rows([GL22Elem(GL2Elem(ctx.fq_gen, 0, 0, ctx.one), gl2_identity(ctx))])
        if not conjugates_into(ctx, u_action_rows(ctx, s) if twisted else s, R.gens, R)[0]:
            raise OracleRequired("constituent fixed dim on a subgroup that is "
                                 "not swap-stable needs the matrix-model oracle")
        share = 2.0
    total = (char_values(ctx, sigma.k1)[c1] * char_values(ctx, sigma.k2)[c2]) @ count
    return certify_integer(total / len(R) / share)


def fixed_dim(ctx: FqCtx, sigma: SigmaLabel, R: SubgroupR) -> int:
    """dim of the R-fixed subspace, by averaging the character over R."""
    return _average_dim(ctx, sigma, R)


def fixed_dim_u_twist(ctx: FqCtx, sigma: SigmaLabel, R: SubgroupR) -> int:
    """Fixed dimension of the u-twisted representation on the same R: the
    average over u(R), read from R's class pairs without building u(R)."""
    return _average_dim(ctx, sigma, R, twisted=True)


def twisted_trace_closed(ctx: FqCtx, sigma: SigmaLabel, operator: str,
                         R: SubgroupR,
                         presentation: Optional[tuple[int, int]] = None) -> int:
    """Closed-form trace of a twist operator on the R-fixed subspace.

    ``operator`` is 'swap' (exchange the tensor factors), 'ww' (act by the
    doubled Weyl element), or 'swap_ww' (their composition, the image of
    the normalizer coset).  Hypotheses: the label is a self-twisted full
    pair presented as a determinant twist of a doubled cuspidal rho with
    omega_rho(-1) = 1 and (lambda omega_rho)^2 = 1.  At even q the swap
    trace, and whether the doubled Weyl element normalizes R, are read from
    R's kind's row of ``numerics.KINDS``."""
    if operator not in ("swap", "ww", "swap_ww"):
        raise BadCase(f"unknown operator {operator!r}")
    pres = self_twist_presentations(ctx, sigma)
    if not pres:
        raise HypothesisViolated("label is not self-twisted")
    if presentation is not None:
        if presentation not in pres:
            raise HypothesisViolated("presentation does not match the label")
        k_rho, _ = presentation
    else:
        k_rho = pres[0][0]
    if omega_minus1(ctx, k_rho) != 1:
        raise HypothesisViolated("omega_rho(-1) != 1")
    branch = lambda_omega_class(ctx, sigma, presentation)
    q = ctx.q
    if q % 2 == 0:
        row = KINDS.get(R.label)
        if operator == "swap":
            if row is None or row.swap is None:
                raise HypothesisViolated(f"no closed form for subgroup {R.label}")
            return row.swap(q)
        if row is None or not row.weyl:
            raise HypothesisViolated("doubled Weyl operator only normalizes the torus")
        return 1
    if R.label != "Torus":
        raise HypothesisViolated("odd q closed forms cover the torus only")
    if branch == "one":
        return 2
    sign = -1 if (q - 3) // 2 % 2 else 1
    return {"swap": 0, "ww": 2 * sign, "swap_ww": 0}[operator]


def induced_trace_zero(ctx: FqCtx, sigma: SigmaLabel, X: np.ndarray,
                       R: SubgroupR) -> int:
    """Trace of an induced-extension operator on the R-fixed space: zero,
    for every code row x of the (N, 8) array X.

    The operator is that of s = x u, the element of the nontrivial coset of
    the order-2 extension named by x in GL22(q).  Requires a non-self-twisted
    label and every such s normalizing R, else HypothesisViolated; the
    induced operator is then block antidiagonal for the two twisted
    summands.  Since u acts by the involution u_action,
    s r s^-1 = x u_action(r) x^-1."""
    if self_twist_presentations(ctx, sigma):
        raise HypothesisViolated("label is self-twisted")
    if not conjugates_into(ctx, X, u_action_rows(ctx, R.gens), R).all():
        raise HypothesisViolated("s does not normalize R")
    return 0


def omega_trivial_sigma_classes(ctx: FqCtx) -> list[SigmaLabel]:
    """Canonical labels with trivial central character, one per iso class,
    constituents expanded."""
    seen: dict = {}  # one label per class key, the first met
    ks = all_cuspidal_exponents(ctx)
    for s in (SigmaLabel(k1, k2, "Full") for k1 in ks for k2 in ks):
        if sigma_omega_trivial(ctx, s):
            seen.setdefault(sigma_key(ctx, s), s)
    return sorted(s._replace(constituent=c) for s in seen.values()
                  for c in (("Plus", "Minus") if sigma_is_reducible(ctx, s) else ("Full",)))
