"""Schoolbook powers in GF(p)[x]/(g): the oracle for `poly_pow_mod`.

Built only from `poly_mul` and `poly_mod`, right-to-left square-and-multiply
with one schoolbook product and one long division per step, so the packed
kernel is never checked against itself.
"""

from brauersplit.cyclotomic import poly_mod, poly_mul


def schoolbook_pow_mod(f, e, g, p):
    out = [1]
    f = poly_mod(f, g, p)
    while e:
        if e & 1:
            out = poly_mod(poly_mul(out, f, p), g, p)
        f = poly_mod(poly_mul(f, f, p), g, p)
        e >>= 1
    return out
