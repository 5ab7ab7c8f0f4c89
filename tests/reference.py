"""Scalar references shared by the tests: one inverse or one character
value at a time.  The package computes these in batches on integer code
arrays (``finitegrp.conjugates_into``, ``chars.char_values``); the tests
compare the batches with these."""

from siegelvec.chars import _char_table
from siegelvec.finitegrp import GL2Elem, GL22Elem, gl2_class, gl2_det


def gl2_inv(ctx, m: GL2Elem) -> GL2Elem:
    di = ctx.inv(gl2_det(ctx, m))
    return GL2Elem(ctx.mul(di, m.d), ctx.mul(di, ctx.neg(m.b)),
                   ctx.mul(di, ctx.neg(m.c)), ctx.mul(di, m.a))


def gl22_inv(ctx, x: GL22Elem) -> GL22Elem:
    return GL22Elem(gl2_inv(ctx, x.first), gl2_inv(ctx, x.second))


def cuspidal_char(ctx, k: int, g: GL2Elem) -> complex:
    """Character of the cuspidal representation labeled by k at g, read
    from the table by the class key of g."""
    return _char_table(ctx, k % (ctx.q2 - 1)).get(gl2_class(ctx, g), 0j)
