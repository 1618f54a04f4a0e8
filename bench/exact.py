"""The benchmark's own exact arithmetic, used to check program outputs.

Matrices are lists of rows.  Entries are ``int`` for the integers and
ascending coefficient tuples of ``Fraction`` (no trailing zeros, the
zero polynomial is ``()``) for polynomials over the rationals.  Nothing
here calls into ``bezmat``: a check that reused ``Mat.__matmul__`` would
accept a wrong product whenever the library's own product is wrong.
"""

from __future__ import annotations

import operator
from fractions import Fraction

# A prime near 2**61: a determinant other than +-1 passes a check modulo
# p only if p divides det - 1 or det + 1.
_P = 2305843009213693951


# -- polynomials over the rationals -------------------------------------------


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


class IntOps:
    zero = 0
    one = 1

    @staticmethod
    def parse(s):
        return int(s)


class PolyOps:
    zero = ()
    one = (Fraction(1),)
    add = staticmethod(padd)
    mul = staticmethod(pmul)

    @staticmethod
    def parse(coeffs):
        return _trim([Fraction(c) for c in coeffs])


OPS = {"int": IntOps, "polyrat": PolyOps}


# -- matrices -----------------------------------------------------------------


def matmul(ops, a, b):
    if not a:
        return []
    cols = list(zip(*b)) if b else []
    if ops is IntOps:
        return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
    zero, add, mul = ops.zero, ops.add, ops.mul
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = zero
            for x, y in zip(row, col):
                if x != zero and y != zero:
                    acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def identity(ops, n):
    return [[ops.one if i == j else ops.zero for j in range(n)] for i in range(n)]


def power(ops, a, k):
    out = identity(ops, len(a))
    for _ in range(k):
        out = matmul(ops, out, a)
    return out


def same(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


def from_doc(doc):
    """Entries of a bezmat matrix document, in this module's representation."""
    ops = OPS[doc["ring"]]
    return [[ops.parse(e) for e in row] for row in doc["entries"]]


def from_mat(mat):
    """Entries of a ``bezmat`` ``Mat`` (int or polyrat) as plain lists."""
    if mat.ring.name == "int":
        return [list(r) for r in mat.rows]
    return [[tuple(e.coeffs) for e in r] for r in mat.rows]


# -- integer determinant and rank ---------------------------------------------


def det_mod(a, p):
    """Determinant of a square integer matrix modulo the prime p."""
    n = len(a)
    m = [[x % p for x in row] for row in a]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        inv = pow(m[k][k], -1, p)
        det = det * m[k][k] % p
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[k])]
    return det % p


def is_unimodular(a):
    """det(a) == +-1, tested modulo a large prime."""
    if any(len(row) != len(a) for row in a):
        return False
    return len(a) == 0 or det_mod(a, _P) in (1, _P - 1)


def det_int(a):
    """Exact integer determinant by Bareiss fraction-free elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rank_int(a, p=_P):
    """Rank of an integer matrix modulo a large prime (a lower bound on
    the rational rank that equals it unless p divides every maximal
    nonzero minor)."""
    m = [[x % p for x in row] for row in a]
    rank, rows = 0, len(m)
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, rows):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


# -- entry sizes ----------------------------------------------------------------


def entry_bits(x):
    """Bit size of one entry: |x| for an integer, the largest numerator plus
    denominator bit length over the coefficients of a polynomial."""
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(
        (c.numerator.bit_length() + c.denominator.bit_length() for c in x), default=0
    )


def max_bits(mat):
    return max((entry_bits(x) for row in mat for x in row), default=0)


def max_degree(mat):
    return max((len(x) - 1 for row in mat for x in row), default=-1)
