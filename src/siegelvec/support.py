"""Coset bookkeeping for depth-zero fixed-vector counts.

The fixed-vector problem at level n reduces to a finite sum over a
stratified family of double cosets.  Each stratum is labeled by one of
the five tags used in :mod:`siegelvec.padic`, carries an (i, j) lattice
parameter and possibly a residue parameter, and contributes through the
fixed space of a standard subgroup of GL22(q).  ``STRATA`` is the one
table of these facts, and every function below reads them from it.  This
module enumerates the strata, gives closed counting formulas, implements
the pairing induced by the level involution, and assembles dimension and
signed trace totals.  The assembly forms what one coset of each stratum
adds once per label, from the character layer, and every requested level's
total is the sum of the stratum counts times those values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .numerics import BadCase, FqCtx

# numpy-free: the functions that average over a subgroup import the rest
if TYPE_CHECKING:
    from .chars import SigmaLabel


class Stratum(NamedTuple):
    """The facts of one stratum of double cosets."""

    jmin: int       # lowest admissible j; all strata share j <= n-2-2i
    residues: str   # codes u per (i, j): "zero", "one", "units" or "all" of F_q
    kind: str       # subgroup kind whose fixed space the stratum contributes
    al_shift: int   # the level involution reflects j to n - 2i - j + al_shift
    twisted: bool   # fixed cosets act through the twist operator, with a sign


STRATA = {
    "I": Stratum(1, "zero", "Torus", -1, True),
    "II": Stratum(2, "zero", "Torus", 0, False),
    "IIIa": Stratum(3, "one", "Unip", 1, True),
    "IIIb": Stratum(5, "all", "ArtinUnip", 3, True),
    "IV": Stratum(4, "units", "ArtinUnip", 2, False),
}

COSET_TAGS = tuple(STRATA)


def _stratum(tag: str, q: int) -> Optional[Stratum]:
    """The row of a tag, or None where the stratum holds no coset: only I
    is populated at odd q.  An unknown tag raises ValueError."""
    row = STRATA.get(tag)
    if row is None:
        raise ValueError(f"unknown stratum tag {tag!r}")
    return row if q % 2 == 0 or row is STRATA["I"] else None


def _residue_count(residues: str, q: int) -> int:
    return {"zero": 1, "one": 1, "units": q - 1, "all": q}[residues]


def _residue_codes(fq: FqCtx, residues: str) -> list[int]:
    return {"zero": [0], "one": [fq.one], "units": fq.fq_units,
            "all": fq.fq_elements}[residues]


class CosetParam(NamedTuple):
    """One double coset: stratum tag, lattice exponents, and a residue code
    ``u`` in the subfield, one of its stratum's ``residues``."""

    tag: str
    i: int
    j: int
    u: int = 0


def coset_R_type(tag: str) -> str:
    """Subgroup kind whose fixed space the stratum contributes through."""
    return _stratum(tag, 2).kind  # the same at every q; all are populated at 2


def stratum_count(tag: str, q: int, n: int) -> int:
    """Closed count of double cosets in one stratum at level n.

    Per (i, j) the count is the number of lattice points with
    jmin <= j <= n - 2 - 2i, which telescopes to floor((n-jmin)^2/4),
    times the residue multiplicity."""
    row = _stratum(tag, q)
    if row is None or n <= row.jmin:
        return 0
    return _residue_count(row.residues, q) * ((n - row.jmin) ** 2 // 4)


def total_count(q: int, n: int) -> int:
    return sum(stratum_count(tag, q, n) for tag in COSET_TAGS)


def enumerate_support(fq: FqCtx, n: int) -> list[CosetParam]:
    """All double-coset parameters at level n, in a fixed order."""
    out = []
    for tag in COSET_TAGS:
        row = _stratum(tag, fq.q)
        if row is None:
            continue
        codes = _residue_codes(fq, row.residues)
        # i runs while jmin <= n-2-2i; a negative bound leaves it empty
        out += [CosetParam(tag, i, j, u)
                for i in range((n - 2 - row.jmin) // 2 + 1)
                for j in range(row.jmin, n - 1 - 2 * i) for u in codes]
    return out


def _reflected_j(param: CosetParam, n: int) -> int:
    return n - 2 * param.i - param.j + STRATA[param.tag].al_shift


def al_partner(param: CosetParam, n: int) -> CosetParam:
    """Image of a coset under the level involution: reflect j, keep u."""
    return param._replace(j=_reflected_j(param, n))


def is_al_fixed(param: CosetParam, n: int) -> bool:
    """Whether the level involution fixes the coset: al_partner(param, n)
    == param, without building the partner."""
    return _reflected_j(param, n) == param.j


def al_fixed_cosets(fq: FqCtx, n: int) -> list[CosetParam]:
    """Cosets fixed by the level involution."""
    return [p for p in enumerate_support(fq, n) if is_al_fixed(p, n)]


def fixed_stratum_count(tag: str, q: int, n: int) -> int:
    """Closed count of involution-fixed cosets per stratum.

    The reflection fixes j = (n + shift)/2 - i, so fixed cosets exist
    only for one parity of n and the count is linear in n."""
    row = _stratum(tag, q)
    if row is None or (n + row.al_shift) % 2 != 0:
        return 0
    # i ranges over 0 <= i <= (n + shift)/2 - jmin
    pairs = max(0, (n + row.al_shift) // 2 - row.jmin + 1)
    return _residue_count(row.residues, q) * pairs


def base_count(q: int, n: int) -> int:
    """The aggregated coset count weighted by per-stratum fixed dims.

    At odd q this is just the first-stratum count; at even q the other
    strata contribute with weights (1, q-1, 1, 1) and the total closes
    to a quadratic polynomial in n for n >= 4."""
    if q % 2 == 1:
        return (n - 1) ** 2 // 4 if n >= 1 else 0
    if n <= 2:
        return 0
    if n == 3:
        return 1
    return 2 * n - 5 + q * ((3 * n * n + 1) // 4 - 6 * n + 12)


_DIM_FACTOR_ODD = {"distinct": 4, "self": 2, "constituent": 1}
_DIM_FACTOR_EVEN = {"distinct": 2, "self": 1}


def classify_pairing(ctx: FqCtx, sigma: SigmaLabel) -> str:
    """'constituent', 'self' (full label isomorphic to its twist), or
    'distinct'.  Uses the presentation criterion, not a character scan."""
    from .chars import self_twist_presentations
    if sigma.constituent != "Full":
        return "constituent"
    return "self" if self_twist_presentations(ctx, sigma) else "distinct"


def dim_formula(q: int, n: int, pairing: str) -> int:
    """Closed dimension of the level-n fixed space of a label with trivial
    central character."""
    if q % 2 == 1:
        factor = _DIM_FACTOR_ODD.get(pairing)
    else:
        if pairing == "constituent":
            raise BadCase("no constituents at even q")
        factor = _DIM_FACTOR_EVEN.get(pairing)
    if factor is None:
        raise ValueError(f"unknown pairing class {pairing!r}")
    return factor * base_count(q, n)


def _coset_values(ctx: FqCtx, sigma: SigmaLabel, ext_sign: Optional[int] = None,
                  presentation: Optional[tuple[int, int]] = None) -> dict:
    """Per stratum populated at q, what one of its cosets adds; it depends on
    the label and the stratum, never on the level.

    To the fixed dimension, a coset adds its kind's fixed dimension, plus
    the twisted one for a label not isomorphic to its twist; each kind is
    averaged once.  Given ext_sign, the values are those of an
    involution-fixed coset on the trace: a plain stratum (II, IV) adds the
    same, with no sign; a twisted stratum acts through the twist operator
    and adds, times ext_sign, 0 for a label not isomorphic to its twist,
    the closed swap trace for a self-paired full label and one line for a
    constituent."""
    from .finitegrp import subgroup_R
    from .chars import fixed_dim, fixed_dim_u_twist, twisted_trace_closed
    pairing = classify_pairing(ctx, sigma)
    dims, values = {}, {}
    for tag in COSET_TAGS:
        row = _stratum(tag, ctx.q)
        if row is None:
            continue
        R = subgroup_R(row.kind, ctx)
        if ext_sign is not None and row.twisted:
            values[tag] = (0 if pairing == "distinct" else
                           ext_sign if pairing == "constituent" else
                           ext_sign * twisted_trace_closed(
                               ctx, sigma, "swap", R, presentation=presentation))
            continue
        if row.kind not in dims:
            dims[row.kind] = fixed_dim(ctx, sigma, R) + (
                fixed_dim_u_twist(ctx, sigma, R) if pairing == "distinct" else 0)
        values[tag] = dims[row.kind]
    return values


def assemble_dim(ctx: FqCtx, sigma: SigmaLabel, levels) -> list[int]:
    """The fixed dimension at each level, in the order given: the sum over
    strata of the coset count times what one coset adds.  It matches
    dim_formula for trivial central character and vanishes otherwise."""
    values = _coset_values(ctx, sigma).items()
    return [sum(stratum_count(tag, ctx.q, n) * v for tag, v in values)
            for n in levels]


def al_formula(q: int, n: int, pairing: str, ext_sign: int = 1,
               branch: Optional[str] = None) -> int:
    """Closed trace of the level involution on the fixed space.

    ``branch`` selects the quadratic-character class ('one' or 'alpha')
    of the twisting character at odd q; it is ignored at even q, where
    only 'one' occurs.  ``ext_sign`` is the extension choice (+1 or -1)
    and scales the odd-level values only."""
    if ext_sign not in (1, -1):
        raise ValueError("ext_sign must be +1 or -1")
    if pairing not in ("distinct", "self", "constituent"):
        raise ValueError(f"unknown pairing class {pairing!r}")
    if q % 2 == 0 and pairing == "constituent":
        raise BadCase("no constituents at even q")
    if n < 3:
        return 0
    if n % 2 == 0:
        if q % 2 == 1:
            return 0
        base = 1 + q * (n - 4) // 2 if n >= 4 else 0
        return base * (2 if pairing == "distinct" else 1)
    if pairing == "distinct":
        return 0
    if q % 2 == 0:
        val = 1 if n == 3 else 1 + q * (n - 4)
        return ext_sign * val
    per = 1
    if pairing == "self":
        if branch is None:
            raise ValueError("odd q self pairing needs branch 'one' or 'alpha'")
        per = 2 if branch == "one" else 0
    return ext_sign * ((n - 1) // 2) * per


def assemble_al(ctx: FqCtx, sigma: SigmaLabel, levels, ext_sign: int = 1,
                presentation: Optional[tuple[int, int]] = None) -> list[int]:
    """The trace of the level involution on the fixed space at each level,
    in the order given: the sum over strata of the fixed-coset count times
    what one fixed coset adds."""
    if ext_sign not in (1, -1):
        raise ValueError("ext_sign must be +1 or -1")
    values = _coset_values(ctx, sigma, ext_sign, presentation).items()
    return [sum(fixed_stratum_count(tag, ctx.q, n) * v for tag, v in values)
            for n in levels]
