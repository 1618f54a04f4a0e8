"""Dense exact matrices over a ring object.

``Mat`` is immutable: every operation returns a new matrix, so values can
be shared freely (the concurrency story is "pure functions on immutable
values").  Entries are ring payloads (int / Fraction / Poly) and all
arithmetic is exact; zero-sized matrices (0 x n, n x 0, 0 x 0) are first
class citizens because rank-0 factorizations produce them.

Determinants and ring inverses share one Bareiss fraction-free
elimination (exact division only); an inverse is always re-verified by
multiplication before being returned.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    InternalAssertion,
    NotInvertibleOverRing,
    NotSquare,
    RingMismatch,
)

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

    def row(self, i):
        return self.rows[i]

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
        z = self.ring.zero
        bt = other.transpose().rows
        out = []
        for ra in self.rows:
            out_row = []
            for cb in bt:
                acc = z
                for a, b in zip(ra, cb):
                    if a != z and b != z:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Mat._raw(self.ring, self.m, other.n, tuple(out))

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
        body = "; ".join(
            " ".join(self.ring.pretty(x) for x in row) for row in self.rows
        )
        return f"Mat<{self.ring.name} {self.m}x{self.n}: {body}>"


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


def split_blocks(a: Mat, r: int):
    """Split a square matrix into (A11, A12, A21, A22) at position r."""
    return (
        a.submatrix(0, r, 0, r),
        a.submatrix(0, r, r, a.n),
        a.submatrix(r, a.m, 0, r),
        a.submatrix(r, a.m, r, a.n),
    )


# -- determinant and inversion ------------------------------------------------


def _bareiss(ring, work, jordan):
    """Fraction-free elimination of the leading square block of ``work``.

    Works in place on the rows of ``work`` (n rows, at least n columns)
    and returns the determinant of that block.  Rows below each pivot
    are cleared, and with ``jordan`` the rows above it too (Gauss-Jordan),
    so the columns right of the block end up multiplied by its inverse
    times the last pivot.  Every division is exact: intermediate entries
    are minors of the input.  Stops at the first column with no pivot
    and returns zero.
    """
    n = len(work)
    z = ring.zero
    sign_flip = False
    prev = ring.one
    for k in range(n):
        piv = None
        best = None
        for i in range(k, n):
            x = work[i][k]
            if x != z:
                s = ring.size(x)
                if best is None or s < best:
                    best = s
                    piv = i
        if piv is None:
            return z
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign_flip = not sign_flip
        rk = work[k]
        pkk = rk[k]
        for i in range(0 if jordan else k + 1, n):
            if i == k:
                continue
            ri = work[i]
            wik = ri[k]
            for j in range(k + 1, len(rk)):
                ri[j] = ring.exact_div(pkk * ri[j] - wik * rk[j], prev)
            ri[k] = z
        prev = pkk
    return -prev if sign_flip else prev


def det(a: Mat):
    """Exact determinant by the Bareiss fraction-free elimination."""
    if not a.is_square():
        raise NotSquare(f"determinant of a {a.m}x{a.n} matrix")
    return _bareiss(a.ring, [list(row) for row in a.rows], jordan=False)


def inverse_over_ring(a: Mat) -> Mat:
    """Two-sided inverse with entries in the ring.

    Exists exactly when det(a) is a unit; otherwise raises
    NotInvertibleOverRing carrying the determinant.  One fraction-free
    Gauss-Jordan elimination on [a | I] yields both: the determinant is
    the last pivot up to the sign of the row swaps, and the right block
    is the inverse times that pivot.  The product is re-verified before
    returning.
    """
    if not a.is_square():
        raise NotSquare(f"inverse of a {a.m}x{a.n} matrix")
    ring = a.ring
    n = a.n
    z, o = ring.zero, ring.one
    work = [
        list(row) + [o if i == j else z for j in range(n)]
        for i, row in enumerate(a.rows)
    ]
    d = _bareiss(ring, work, jordan=True)
    if not ring.is_unit(d):
        raise NotInvertibleOverRing(
            f"determinant {ring.pretty(d)} is not a unit of {ring.name}", det=d
        )
    if n == 0:
        return a
    scale = ring.unit_inverse(work[n - 1][n - 1])
    inv = Mat._raw(ring, n, n, tuple(tuple(scale * x for x in row[n:]) for row in work))
    ident = Mat.identity(ring, n)
    if a @ inv != ident or inv @ a != ident:
        raise InternalAssertion("inverse candidate failed verification")
    return inv


def solve_in_column_module(a: Mat, b: Mat) -> Mat:
    """Solve a @ X == b over the ring, or raise NoSolution.

    Works through the column Hermite form a @ T == H: echelon
    substitution against the nonzero columns of H, then T maps the
    solution back.  NoSolution means b is outside the column module of
    a over the ring (the fraction-field system may still be solvable
    with non-ring entries).
    """
    from . import normal_forms

    a._same_ring(b)
    if a.m != b.m:
        raise DimensionMismatch(f"solve: {a.shape} vs {b.shape}")
    hr = normal_forms.column_hermite(a)
    y = normal_forms._echelon_solve(hr, b)
    x = hr.T.submatrix(0, a.n, 0, y.m) @ y
    if a @ x != b:
        raise InternalAssertion("solver produced a non-solution")
    return x
