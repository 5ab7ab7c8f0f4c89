"""The groups GL2(q) and GL22(q) over the fields of
:mod:`siegelvec.numerics`, and the subgroups used for fixed-space averages.

GL22(q) is the group of pairs of invertible 2x2 matrices over F_q with
equal determinants.  The order-2 extension acts through ``u_action``:
swap the two factors, then conjugate both by w = [[0,1],[-1,0]].

Whole-group scans run on integer code arrays: GL2(q) is one cached table
of (a, b, c, d) codes with class index and determinant (``gl2_table``),
and GL22(q) one cached (N, 8) uint8 array in ``enumerate_gl22`` order
(``gl22_codes``).  A subgroup (``SubgroupR``) is code rows too, sorted
by digit key: F_q renumbered as digits 0..q-1 (0 the zero, 1 + j the
power fq_gen^j), and a row read as a base-q number.  ``conjugates_into``
and ``subgroup_closure`` multiply batches of digit rows through q x q
tables with numpy indexing and look the products up by key.

``SubgroupR.class_pairs`` counts a group's elements per pair of factor
classes: all a character average over it needs, classified once per group.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional

import numpy as np

# build_field and poly_mul_mod stay importable from here
from .numerics import FqCtx, UnsupportedSize, build_field, poly_mul_mod, standard_kinds


class BadKind(ValueError):
    """Unknown or inapplicable subgroup kind."""


# -- matrices --------------------------------------------------------------

class GL2Elem(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class GL22Elem(NamedTuple):
    first: GL2Elem
    second: GL2Elem


def gl2_identity(ctx: FqCtx) -> GL2Elem:
    return GL2Elem(ctx.one, 0, 0, ctx.one)


def gl2_det(ctx: FqCtx, m: GL2Elem) -> int:
    return ctx.sub(ctx.mul(m.a, m.d), ctx.mul(m.b, m.c))


def gl2_mul(ctx: FqCtx, x: GL2Elem, y: GL2Elem) -> GL2Elem:
    return GL2Elem(
        ctx.add(ctx.mul(x.a, y.a), ctx.mul(x.b, y.c)),
        ctx.add(ctx.mul(x.a, y.b), ctx.mul(x.b, y.d)),
        ctx.add(ctx.mul(x.c, y.a), ctx.mul(x.d, y.c)),
        ctx.add(ctx.mul(x.c, y.b), ctx.mul(x.d, y.d)),
    )


def gl22_identity(ctx: FqCtx) -> GL22Elem:
    i = gl2_identity(ctx)
    return GL22Elem(i, i)


def gl22_mul(ctx: FqCtx, x: GL22Elem, y: GL22Elem) -> GL22Elem:
    return GL22Elem(gl2_mul(ctx, x.first, y.first), gl2_mul(ctx, x.second, y.second))


def gl22_valid(ctx: FqCtx, x: GL22Elem) -> bool:
    d1, d2 = gl2_det(ctx, x.first), gl2_det(ctx, x.second)
    return d1 != 0 and d1 == d2


def u_action(ctx: FqCtx, x: GL22Elem) -> GL22Elem:
    """Swap the factors, then conjugate both by w = [[0,1],[-1,0]]."""
    def wconj(m: GL2Elem) -> GL2Elem:
        return GL2Elem(m.d, ctx.neg(m.c), ctx.neg(m.b), m.a)
    return GL22Elem(wconj(x.second), wconj(x.first))


def u_action_rows(ctx: FqCtx, X: np.ndarray) -> np.ndarray:
    """u_action on every row of an (N, 8) code array."""
    neg = np.array(ctx._neg, dtype=np.uint8)
    a, b, c, d, e, f, g, h = X.T
    return np.stack([h, neg[g], neg[f], e, d, neg[c], neg[b], a], axis=1)


# -- integer-coded scans -----------------------------------------------------

class _Digits(NamedTuple):
    """F_q as digits: the digit of each code, flat q x q sum and product
    tables, negation and inversion (inv[0] is never read), all on digits."""
    q: int
    of_code: np.ndarray
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray


@functools.cache
def _digits(ctx: FqCtx) -> _Digits:
    els = ctx.fq_elements
    of_code = np.zeros(ctx.q2, dtype=np.intp)
    of_code[els] = np.arange(ctx.q)
    return _Digits(ctx.q, of_code,
                   of_code[[ctx.add(a, b) for a in els for b in els]],
                   of_code[[ctx.mul(a, b) for a in els for b in els]],
                   of_code[[ctx.neg(a) for a in els]],
                   of_code[[0] + [ctx.inv(a) for a in els[1:]]])


# rows of the entries that a GL22 product pairs up: (x y)[r] is
# x[L1[r]] y[R1[r]] + x[L2[r]] y[R2[r]], for both factors at once
_L1, _R1 = [0, 0, 2, 2, 4, 4, 6, 6], [0, 1, 0, 1, 4, 5, 4, 5]
_L2, _R2 = [1, 1, 3, 3, 5, 5, 7, 7], [2, 3, 2, 3, 6, 7, 6, 7]


def _mul(t: _Digits, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of GL22 digit rows, shape (8, n); y may be one (8, 1) row."""
    q, mul = t.q, t.mul
    return t.add.take(mul.take(x[_L1] * q + y[_R1]) * q
                      + mul.take(x[_L2] * q + y[_R2]))


def _inv(t: _Digits, x: np.ndarray) -> np.ndarray:
    """Inverses of GL22 digit rows: adj(m) / det(m) in each factor."""
    q, mul, neg = t.q, t.mul, t.neg
    det = t.add.take(mul.take(x[[0, 4]] * q + x[[3, 7]]) * q
                     + neg.take(mul.take(x[[1, 5]] * q + x[[2, 6]])))
    adj = x[[3, 1, 2, 0, 7, 5, 6, 4]]
    adj[[1, 2, 5, 6]] = neg.take(adj[[1, 2, 5, 6]])
    return mul.take(t.inv.take(det)[[0, 0, 0, 0, 1, 1, 1, 1]] * q + adj)


def _keys(t: _Digits, digits: np.ndarray) -> np.ndarray:
    """Base-q integer key of each column of (4, n) or (8, n) digit rows
    (below q^8 <= 2^32)."""
    key = digits[0]
    for d in digits[1:]:
        key = key * t.q + d
    return key


def _lookup(keys: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Whether each entry of k is among the sorted, nonempty keys."""
    pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
    return keys[pos] == k


def gl22_rows(xs: Iterable[GL22Elem]) -> np.ndarray:
    """Code rows: a, b, c, d of the first factor, then of the second."""
    return np.array([x.first + x.second for x in xs], dtype=np.uint8).reshape(-1, 8)


def gl22_elems(rows: np.ndarray) -> list[GL22Elem]:
    return [GL22Elem(GL2Elem(*r[:4]), GL2Elem(*r[4:])) for r in rows.tolist()]


# rows per chunk: the working arrays stay in cache (4096 ran fastest of
# the sizes 2^10..2^16 tried at q = 7 on a 2-vCPU x86-64 host)
_CHUNK = 1 << 12


def conjugates_into(ctx: FqCtx, X: np.ndarray, gens: np.ndarray,
                    B: SubgroupR) -> np.ndarray:
    """One bool per row x of the code array X: whether x g x^-1 lies in B
    for every code row g of gens.  B is a finite group, so this holds
    exactly when x conjugates the whole group that gens generate into B.
    A row may be any pair of invertible matrices; its two determinants may
    differ.  Rows go in chunks, and each generator tests only the rows
    that passed the generators before it."""
    t = _digits(ctx)
    gs = t.of_code.take(gens.T)
    out = np.zeros(len(X), dtype=bool)
    for lo in range(0, len(X), _CHUNK):
        x = t.of_code.take(X[lo:lo + _CHUNK].T)
        xi = _inv(t, x)
        live = np.arange(x.shape[1])
        for g in gs.T:
            k = _keys(t, _mul(t, _mul(t, x[:, live], g[:, None]), xi[:, live]))
            live = live[_lookup(B.keys, k)]
        out[lo + live] = True
    return out


def gl2_classes(ctx: FqCtx, codes: np.ndarray) -> np.ndarray:
    """The conjugacy class in GL2(q) of each (n, 4) code row, as an index
    into ``gl2_table(ctx).classes``: (trace digit * q + det digit) * 2 +
    flag.  The class key is (trace, det, is_scalar): the flag separates aI
    from the non-semisimple elements with eigenvalue a, and every other
    class is fixed by its characteristic polynomial."""
    t, q = _digits(ctx), ctx.q
    a, b, c, d = t.of_code.take(codes.T)
    det = t.add.take(t.mul.take(a * q + d) * q + t.neg.take(t.mul.take(b * q + c)))
    return (t.add.take(a * q + d) * q + det) * 2 + ((b == 0) & (c == 0) & (a == d))


class GL2Table(NamedTuple):
    """GL2(q) in enumerate_gl2 order: (M, 4) uint8 codes, each element's
    class index and determinant code, and ``classes``, the class key
    (trace, det, is_scalar) of every class index, as field codes."""
    codes: np.ndarray
    cls: np.ndarray
    det: np.ndarray
    classes: list


@functools.cache
def gl2_table(ctx: FqCtx) -> GL2Table:
    q = ctx.q
    code = np.array(ctx.fq_elements, dtype=np.uint8)
    every = code[np.indices((q,) * 4).reshape(4, -1).T]    # all rows, in order
    cls = gl2_classes(ctx, every)
    keep = cls // 2 % q != 0                               # a nonzero det digit
    return GL2Table(every[keep], cls[keep], code[cls[keep] // 2 % q].astype(int),
                    [(int(code[k // 2 // q]), int(code[k // 2 % q]), bool(k % 2))
                     for k in range(2 * q * q)])


def enumerate_gl2(ctx: FqCtx) -> list[GL2Elem]:
    return [GL2Elem(*r) for r in gl2_table(ctx).codes.tolist()]


@functools.cache
def gl22_codes(ctx: FqCtx) -> np.ndarray:
    """GL22(q) as a read-only (N, 8) uint8 code array: the det-matched
    pairs, grouped by determinant in field-unit order, each group in
    gl2_table order of the first factor, then of the second."""
    if ctx.q > 9:
        raise UnsupportedSize(f"full GL22 enumeration capped at q = 9, got {ctx.q}")
    table = gl2_table(ctx)
    blocks = [table.codes[table.det == d] for d in ctx.fq_units]
    out = np.empty((sum(len(b) ** 2 for b in blocks), 8), dtype=np.uint8)
    pos = 0
    for b in blocks:
        n = len(b)
        out[pos:pos + n * n, :4] = np.repeat(b, n, axis=0)
        out[pos:pos + n * n, 4:] = np.tile(b, (n, 1))
        pos += n * n
    out.flags.writeable = False
    return out


def enumerate_gl22(ctx: FqCtx) -> list[GL22Elem]:
    """The rows of gl22_codes as elements."""
    return gl22_elems(gl22_codes(ctx))


class SubgroupR:
    """A subgroup of GL22(q) as code rows: ``rows`` holds each element
    once, ordered by its digit key, ``keys`` holds those sorted keys (the
    targets of conjugates_into), and ``gens`` the rows of the generators
    it was built from (all its rows when none are given).  Iteration
    yields GL22Elem."""

    def __init__(self, ctx: FqCtx, rows: np.ndarray, label: str,
                 gens: Optional[np.ndarray] = None):
        self.ctx = ctx
        self.label = label
        t = _digits(ctx)
        at = dict(zip(_keys(t, t.of_code.take(rows.T)).tolist(), range(len(rows))))
        # sorted in Python: numpy's sort would page in about 0.4 MB of
        # code in every process that scans
        keys = sorted(at)
        self.keys = np.array(keys, dtype=np.int64)
        self.rows = rows[[at[k] for k in keys]]
        self.gens = self.rows if gens is None else gens

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(gl22_elems(self.rows))

    def __contains__(self, x) -> bool:
        """x is one code row; a GL22Elem reads as one."""
        return bool(self.contains(np.asarray(x, dtype=np.uint8).reshape(1, 8))[0])

    def contains(self, rows: np.ndarray) -> np.ndarray:
        """One bool per code row: whether it is an element."""
        t = _digits(self.ctx)
        return _lookup(self.keys, _keys(t, t.of_code.take(rows.T)))

    @functools.cached_property
    def class_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c1, c2, count): each distinct pair of the rows' factor classes,
        indices into ``gl2_table(ctx).classes`` in increasing order, and
        how many rows fall on it.  u_image(R) has these pairs swapped:
        u_action swaps the factors and conjugates each by w, and
        conjugation keeps each GL2 class."""
        n = 2 * self.ctx.q ** 2
        key = (gl2_classes(self.ctx, self.rows[:, :4]) * n
               + gl2_classes(self.ctx, self.rows[:, 4:]))
        count = np.bincount(key)
        pairs = np.flatnonzero(count)
        return pairs // n, pairs % n, count[pairs]


@functools.cache
def subgroup_R(kind: str, ctx: FqCtx) -> SubgroupR:
    """The standard subgroup of a kind of ``numerics.KINDS`` that exists at
    q, the closure of its generators; with a, b, c units, u in F_q, n(u) =
    [[1, 0], [u, 1]] and S = {b^2 + b}:

        Torus      (diag(a, b), diag(c, ab/c))
        Unip       (a n(u), a n(u))
        ArtinUnip  (a n(u + a s), a n(u)) for s in S
        U1, U2     (n(u), 1) and (1, n(u))

    Cached: each call for a kind and field returns the same object."""
    if kind not in standard_kinds(ctx.q):
        raise BadKind(f"no subgroup kind {kind!r} at q = {ctx.q}")
    one, g = ctx.one, ctx.fq_gen
    i = gl2_identity(ctx)
    # 1, g, ..., g^(f-1) is an F_p-basis of F_q: g has degree f over F_p
    basis = ctx.fq_units[:ctx.f]
    lower = [GL2Elem(one, 0, e, one) for e in basis]
    unip = [GL22Elem(GL2Elem(g, 0, 0, g), GL2Elem(g, 0, 0, g))] + [
        GL22Elem(v, v) for v in lower]
    gens = {
        "Torus": [GL22Elem(GL2Elem(g, 0, 0, one), GL2Elem(g, 0, 0, one)),
                  GL22Elem(GL2Elem(one, 0, 0, g), GL2Elem(g, 0, 0, one)),
                  GL22Elem(i, GL2Elem(g, 0, 0, ctx.inv(g)))],
        "Unip": unip,
        # b -> b^2 + b is F_2-linear onto S, 1 -> 0
        "ArtinUnip": unip + [
            GL22Elem(GL2Elem(one, 0, ctx.add(ctx.mul(b, b), b), one), i)
            for b in basis[1:]],
        "U1": [GL22Elem(v, i) for v in lower],
        "U2": [GL22Elem(i, v) for v in lower],
    }[kind]
    R = subgroup_closure(ctx, gl22_rows(gens))
    return SubgroupR(ctx, R.rows, kind, R.gens)


def u_image(ctx: FqCtx, R: SubgroupR) -> SubgroupR:
    """u_action(R), generated by the images of R's generators."""
    return SubgroupR(ctx, u_action_rows(ctx, R.rows), f"u({R.label})",
                     u_action_rows(ctx, R.gens))


def subgroup_closure(ctx: FqCtx, gens: np.ndarray) -> SubgroupR:
    """The subgroup generated by the code rows gens, grown breadth first by
    right multiplication on digit rows.  A generator is kept, in the
    result's ``gens``, only when it is not in the group the kept ones
    before it generate; each kept one at least doubles the group, so at
    most log2 |R| are kept, and the trivial group keeps none."""
    gens = np.asarray(gens, dtype=np.uint8).reshape(-1, 8)
    for g in gl22_elems(gens):
        if not gl22_valid(ctx, g):
            raise ValueError(f"generator {g} is not in GL22(q)")
    t = _digits(ctx)
    G = t.of_code.take(gens.T)
    found = t.of_code.take(gl22_rows([gl22_identity(ctx)]).T)
    seen, kept = set(_keys(t, found).tolist()), []
    for i, key in enumerate(_keys(t, G).tolist()):
        if key in seen:
            continue
        kept.append(i)
        frontier = found
        while frontier.shape[1]:
            prods = _mul(t, np.repeat(frontier, len(kept), axis=1),
                         np.tile(G[:, kept], frontier.shape[1]))
            fresh = {k: j for j, k in enumerate(_keys(t, prods).tolist())
                     if k not in seen}
            seen.update(fresh)
            frontier = prods[:, list(fresh.values())]
            found = np.concatenate([found, frontier], axis=1)
    codes = np.array(ctx.fq_elements, dtype=np.uint8)
    return SubgroupR(ctx, codes[found.T], "Custom", gens[kept])


def conjugate_subgroups(A: SubgroupR, B: SubgroupR, ctx: FqCtx) -> Optional[GL22Elem]:
    """The first x of GL22(q), in enumeration order, with x A x^-1 = B, or
    None.  A and B have equal order, so conjugating A into B is enough."""
    if len(A) != len(B):
        raise ValueError("conjugate subgroups must have equal order")
    X = gl22_codes(ctx)
    hits = np.flatnonzero(conjugates_into(ctx, X, A.gens, B))
    return next(iter(gl22_elems(X[hits[:1]])), None)
