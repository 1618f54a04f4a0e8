"""Dense exact matrices over a ring object.

``Mat`` is immutable: every operation returns a new matrix, so values can
be shared freely (the concurrency story is "pure functions on immutable
values").  Entries are ring payloads (int / Fraction / Poly) and all
arithmetic is exact; zero-sized matrices (0 x n, n x 0, 0 x 0) are first
class citizens because rank-0 factorizations produce them.

Products, determinants and ring inverses run on the ring's integer
image of their operands (see ``rings``): a product entry is one sum of
int products, and determinants and ring inverses share one Bareiss
fraction-free elimination on ints, whose divisions are exact and
checked.  Each result is read back from the image once, at the end; the
slot widths of ``rings`` bound every polynomial coefficient read back.
An inverse is always re-verified by multiplication before being
returned.

An integer product of at least PACK_MIN rows and columns is its own
image and takes a shorter route: each row of the right factor is packed
into one int, entry j at 2**(w*j), so a row of the product is one sum of
int products, read back slot by slot.  The slot width w bounds every
entry of the product, and the route is taken only while w is at most
PACK_MAX_WIDTH bits; past that, or with fewer rows or columns, one sum
per entry is faster.  Rational and Q[x] products keep one sum per entry,
since each entry is read back over its own row and column denominators.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .errors import (
    DimensionMismatch,
    InternalAssertion,
    NotInvertibleOverRing,
    NotSquare,
    RingMismatch,
)
from .rings import ZZ, _pack, elimination_width, fraction_free_step, product_width

class Mat:
    __slots__ = ("ring", "m", "n", "rows")

    def __init__(self, ring, rows):
        coerced = []
        width = None
        for row in rows:
            r = tuple(ring.coerce(x) for x in row)
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise DimensionMismatch("ragged rows in matrix constructor")
            coerced.append(r)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "m", len(coerced))
        object.__setattr__(self, "n", width if width is not None else 0)
        object.__setattr__(self, "rows", tuple(coerced))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rows(ring, rows, ncols=None):
        """Build a matrix, forcing the column count for zero-row shapes."""
        m = Mat(ring, rows)
        if m.m == 0 and ncols is not None:
            return Mat._raw(ring, 0, ncols, ())
        return m

    @staticmethod
    def _raw(ring, m, n, rows):
        obj = object.__new__(Mat)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "m", m)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "rows", rows)
        return obj

    @staticmethod
    def zeros(ring, m, n):
        z = ring.zero
        return Mat._raw(ring, m, n, tuple((z,) * n for _ in range(m)))

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Mat._raw(
            ring, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @staticmethod
    def diagonal(ring, entries, m=None, n=None):
        entries = [ring.coerce(e) for e in entries]
        k = len(entries)
        m = k if m is None else m
        n = k if n is None else n
        z = ring.zero
        return Mat._raw(
            ring,
            m,
            n,
            tuple(
                tuple(entries[i] if (i == j and i < k) else z for j in range(n))
                for i in range(m)
            ),
        )

    @staticmethod
    def from_columns(ring, cols, nrows=None):
        if not cols:
            if nrows is None:
                raise DimensionMismatch("from_columns with no columns needs nrows")
            return Mat._raw(ring, nrows, 0, tuple(() for _ in range(nrows)))
        m = len(cols[0])
        if m == 0:
            return Mat._raw(ring, 0, len(cols), ())
        return Mat(ring, [[cols[j][i] for j in range(len(cols))] for i in range(m)])

    # -- shape / access -------------------------------------------------------

    @property
    def shape(self):
        return (self.m, self.n)

    def is_square(self) -> bool:
        return self.m == self.n

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def col(self, j):
        return tuple(self.rows[i][j] for i in range(self.m))

    def tolist(self):
        return [list(r) for r in self.rows]

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(x == z for row in self.rows for x in row)

    def transpose(self) -> "Mat":
        return Mat._raw(
            self.ring,
            self.n,
            self.m,
            tuple(tuple(self.rows[i][j] for i in range(self.m)) for j in range(self.n)),
        )

    def submatrix(self, r0, r1, c0, c1) -> "Mat":
        return Mat._raw(
            self.ring,
            r1 - r0,
            c1 - c0,
            tuple(row[c0:c1] for row in self.rows[r0:r1]),
        )

    # -- ring plumbing --------------------------------------------------------

    def _same_ring(self, other):
        if self.ring.name != other.ring.name:
            raise RingMismatch(
                f"mixed rings: {self.ring.name} vs {other.ring.name}"
            )

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.ring.name == other.ring.name
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring.name, self.m, self.n, self.rows))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_ring(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add: {self.shape} vs {other.shape}")
        return Mat._raw(
            self.ring,
            self.m,
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_ring(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub: {self.shape} vs {other.shape}")
        return Mat._raw(
            self.ring,
            self.m,
            self.n,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self):
        return Mat._raw(
            self.ring, self.m, self.n, tuple(tuple(-a for a in r) for r in self.rows)
        )

    def scale(self, c) -> "Mat":
        c = self.ring.coerce(c)
        return Mat._raw(
            self.ring, self.m, self.n, tuple(tuple(c * a for a in r) for r in self.rows)
        )

    def __mul__(self, other):
        if isinstance(other, Mat):
            raise TypeError("use @ for matrix multiplication")
        return self.scale(other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_ring(other)
        if self.n != other.m:
            raise DimensionMismatch(f"matmul: {self.shape} @ {other.shape}")
        ring = self.ring
        if ring is ZZ and self.m >= PACK_MIN and other.n >= PACK_MIN and self.n:
            w = _packing_width(self.rows, other.rows, self.n)
            if w is not None:
                return Mat._raw(ring, self.m, other.n, _packed_product(self.rows, other.rows, other.n, w))
        cols = tuple(zip(*other.rows)) if other.rows else ((),) * other.n
        # rows of self and columns of other, each cleared on its own
        (a, b), (da, db), w = ring.image((self.rows, cols), product_width(self.n))
        read = ring.from_image
        return Mat._raw(
            ring,
            self.m,
            other.n,
            tuple(
                tuple([read(sum(map(mul, ra, cb)), d * e, w) for cb, e in zip(b, db)])
                for ra, d in zip(a, da)
            ),
        )

    def __pow__(self, k: int) -> "Mat":
        if not self.is_square():
            raise NotSquare("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative matrix powers are not defined here")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result @ base
            k >>= 1
            if k:
                base = base @ base
        return Mat.identity(self.ring, self.n) if result is None else result

    def __repr__(self):
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"Mat<{self.ring.name} {self.m}x{self.n}: {body}>"


# -- integer products on packed rows ------------------------------------------

# the measured crossovers of row packing (see the module docstring); the
# inner dimension hardly matters
PACK_MIN = 8
PACK_MAX_WIDTH = 128


def _packing_width(a, b, inner):
    """Slot width of a @ b on packed rows, or None past PACK_MAX_WIDTH; a
    and b are nonempty int rows and each entry of a @ b is a sum of
    ``inner`` products.  An entry is at most inner * max|a| * max|b|,
    below 2**(w - 1) in absolute value.  The first entries of a and b
    give a lower bound, which turns uniformly wide factors away without
    a scan."""
    extra = inner.bit_length() + 1
    if a[0][0].bit_length() + b[0][0].bit_length() + extra > PACK_MAX_WIDTH:
        return None
    ma = max(max(map(max, a)), -min(map(min, a)))
    mb = max(max(map(max, b)), -min(map(min, b)))
    w = ma.bit_length() + mb.bit_length() + extra
    return w if w <= PACK_MAX_WIDTH else None


def _packed_product(a, b, n, w):
    """The rows of a @ b for int rows a and b (b with n columns), every entry
    below 2**(w - 1) in absolute value.

    Each row of b is packed into one int, entry j at 2**(w*j), so a row of
    the product is one sum of int products.  Adding 2**(w - 1) to every slot
    makes all of them nonnegative, and each is read back by a shift and a
    mask.
    """
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    packed = [_pack(r, w) for r in b]
    offset = _pack((half,) * n, w)
    shifts = range(0, w * n, w)
    return tuple(
        tuple([(s >> t & mask) - half for t in shifts])
        for s in [sum(map(mul, ra, packed), offset) for ra in a]
    )


# -- block assembly -----------------------------------------------------------


def hstack(a: Mat, b: Mat) -> Mat:
    a._same_ring(b)
    if a.m != b.m:
        raise DimensionMismatch("hstack: row counts differ")
    return Mat._raw(
        a.ring, a.m, a.n + b.n, tuple(ra + rb for ra, rb in zip(a.rows, b.rows))
    )


def vstack(a: Mat, b: Mat) -> Mat:
    a._same_ring(b)
    if a.n != b.n:
        raise DimensionMismatch("vstack: column counts differ")
    return Mat._raw(a.ring, a.m + b.m, a.n, a.rows + b.rows)


def block_diag(a: Mat, b: Mat) -> Mat:
    a._same_ring(b)
    top = hstack(a, Mat.zeros(a.ring, a.m, b.n))
    bot = hstack(Mat.zeros(a.ring, b.m, a.n), b)
    return vstack(top, bot)


# -- determinant and inversion ------------------------------------------------


def _bareiss(work, jordan):
    """Fraction-free elimination of the leading square block of ``work``.

    Works in place on the int rows of ``work`` (n lists of at least n
    entries) and returns the determinant of that block.  The pivot is the
    entry of least absolute value in its column (over Q[x], the image of
    an entry of least degree).  Rows below each pivot are cleared, and
    with ``jordan`` the rows above it too (Gauss-Jordan), so the columns
    right of the block end up multiplied by its inverse times the last
    pivot.  Intermediate entries are minors of the input, so every
    division is exact, and a remainder raises NotDivisible.  Stops at
    the first column with no pivot and returns zero.
    """
    n = len(work)
    sign_flip = False
    prev = 1
    for k in range(n):
        piv = None
        best = None
        for i in range(k, n):
            x = abs(work[i][k])
            if x and (best is None or x < best):
                best = x
                piv = i
        if piv is None:
            return 0
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign_flip = not sign_flip
        rk = work[k]
        pkk = rk[k]
        for i in range(0 if jordan else k + 1, n):
            if i == k:
                continue
            ri = work[i]
            fraction_free_step(ri, pkk, ri[k], rk, prev, k + 1)
            ri[k] = 0
        prev = pkk
    return -prev if sign_flip else prev


def det(a: Mat):
    """Exact determinant by the Bareiss fraction-free elimination."""
    if not a.is_square():
        raise NotSquare(f"determinant of a {a.m}x{a.n} matrix")
    ring = a.ring
    # the image is diag(D) @ a, whose determinant is prod(D) * det(a)
    (img,), (dens,), w = ring.image((a.rows,), elimination_width)
    return ring.from_image(_bareiss([list(r) for r in img], jordan=False), prod(dens), w)


def inverse_over_ring(a: Mat) -> Mat:
    """Two-sided inverse with entries in the ring.

    Exists exactly when det(a) is a unit; otherwise raises
    NotInvertibleOverRing carrying the determinant.  One fraction-free
    Gauss-Jordan elimination on [a | I] yields both: the determinant is
    the last pivot up to the sign of the row swaps, and the right block
    is the inverse times that pivot.  It is re-verified by the one
    product a @ inv == I before returning: for square matrices over a
    commutative ring a right inverse is also a left inverse.
    """
    inv = _inverse_over_ring(a)
    if a @ inv != Mat.identity(a.ring, a.n):
        raise InternalAssertion("inverse candidate failed verification")
    return inv


def _inverse_over_ring(a: Mat) -> Mat:
    """inverse_over_ring unchecked, for callers that a later check covers."""
    if not a.is_square():
        raise NotSquare(f"inverse of a {a.m}x{a.n} matrix")
    ring = a.ring
    n = a.n
    z, o = ring.zero, ring.one
    aug = [row + tuple(o if i == j else z for j in range(n)) for i, row in enumerate(a.rows)]
    # the image is diag(D) @ [a | I]: its determinant is prod(D) * det(a),
    # and its right block ends up as the last pivot times
    # (diag(D) @ a)**-1 @ diag(D) == a**-1
    (img,), (dens,), w = ring.image((aug,), elimination_width)
    work = [list(r) for r in img]
    d = ring.from_image(_bareiss(work, jordan=True), prod(dens), w)
    if not ring.is_unit(d):
        raise NotInvertibleOverRing(
            f"determinant {d} is not a unit of {ring.name}", det=d
        )
    if n == 0:
        return a
    # a unit determinant is a constant, so the last pivot is that constant
    # times prod(D), not a packed polynomial
    last = work[n - 1][n - 1]
    read = ring.from_image
    return Mat._raw(ring, n, n, tuple(tuple(read(x, last, w) for x in row[n:]) for row in work))
