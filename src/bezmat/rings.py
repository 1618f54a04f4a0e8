"""Effective Bezout domains: integers, rationals, univariate rational polynomials.

A ring object bundles the division-sensitive operations (extended gcd,
exact division, canonical associates, pivot reduction) while the element
payloads stay plain Python values: ``int`` for the integers, ``Fraction``
for the rationals, and ``Poly`` for polynomials in one variable over the
rationals.  Ordinary arithmetic on payloads uses Python operators; only
operations whose meaning depends on the ring go through the ring object.

A ``Poly`` is stored as int numerators over one positive int denominator
in lowest terms, so its arithmetic (pseudo-division, one gcd
normalisation per result) runs on Python ints and creates no
``Fraction``; ``Poly.coeffs`` builds the ``Fraction`` coefficients on
demand for readers that want them.

Integer images.  Matrix products and fraction-free eliminations run on
ints, whatever the ring.  ``image(mats, width)`` returns
``(images, dens, w)``: each matrix (a sequence of rows) with each row
times the least common denominator of its entries, ``dens[i][r]`` for
row r of matrix i, as a sequence of rows of ints.  Over the integers
the image is the matrix itself, over the rationals its numerators.
Over the polynomials each cleared entry, a list of integer
coefficients, is evaluated at x = 2**w (Kronecker substitution),
``w = width(cleared)`` for the cleared matrices.  ``from_image(v, den,
w)`` is the element v/den of an image v.  Evaluation at 2**w is a ring
map from Z[x] to Z, and it is one-to-one on polynomials whose
coefficients are all less than 2**(w-1) in absolute value (their
balanced base-2**w digits); so a computation on images reads back the
polynomial result whenever w bounds every coefficient that is read
back.  Intermediate values never read back may exceed it.  The width
rules here give such bounds: ``product_width(inner)`` for a product,
``elimination_width`` for a fraction-free elimination; the integer and
rational images ignore ``width`` (w is 0).  Clearing denominators row by
row rather than by one common denominator keeps a minor on rows R
scaled by the denominators of R alone, not by a power of the largest.
``fraction_free_step`` is the row update of both eliminations on
images (``matrix._bareiss`` and ``field_oracle._rref_den``), with its
exact division checked.

xgcd contract, identical across rings.  The normal forms call no xgcd
(they clear by remainder quotients); it serves ``generate._kernel_basis``,
which keeps its own copy of the old xgcd elimination so that generated
instances replay bit-for-bit.  ``xgcd(a, b)`` returns
``(g, s, t, u, v)`` with

    s*a + t*b == g,   a == g*u,   b == g*v,

``g`` the canonical associate of gcd(a, b), and, for (a, b) != (0, 0),

    det [[s, t], [-v, u]] == s*u + t*v == 1,

so [[s, t], [-v, u]] is the unimodular 2x2 transform sending the column
(a, b) to (g, 0).  xgcd(0, 0) returns all zeros.
The Bezout coefficient s is size-reduced: balanced modulo b/g over the
integers, degree-reduced modulo b/g for polynomials.

Canonical associates: non-negative integers, monic polynomials, and
{0, 1} for the rational field.  ``canonicalize(a) == (unit, assoc)``
with ``a == unit * assoc``.

Pivot size, used for pivot selection in elimination: absolute value for
integers, degree for polynomials, a constant for the field.

Division with remainder, two ways.  ``pivot_reduce(a, p)`` returns
``(q, r)`` with the canonical remainder: 0 <= r < p over the integers
(p a positive pivot), deg r < deg p for polynomials, r == 0 over the
field.  ``small_quotient(a, p)`` returns only the q whose remainder
a - q*p is smallest in size: balanced over the integers
(|r| <= |p|/2, any nonzero p), the same q as ``pivot_reduce`` for
polynomials, exact over the field.

Shrinking by a unit.  ``primitive(entries) == (unit, prim)`` with
``entries == unit * prim`` (as ``canonicalize``), prim having integer
coefficients of gcd one; it exists for the polynomials only (``None`` on
the other rings).  A line of polynomials divided so stays a line of a
unimodular transform, and its coefficients stay integers of least size;
the unit is what the opposite transform of the Smith form takes on.
The integers have no unit that shrinks an entry, and over the field
the remainder loop clears each line in one pass, where this scaling
only costs time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import add, sub

from .errors import DivisionByZero, FormatError, NotDivisible


def _format_ratio(n: int, d: int) -> str:
    """The rational n/d (d > 0) as ``str(Fraction(n, d))`` prints it."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class Poly:
    """Univariate polynomial over the rationals.

    Immutable.  ``num`` is an ascending tuple of ``int`` numerators with a
    nonzero last entry and ``den`` one positive ``int`` denominator, in
    lowest terms: gcd(content, den) == 1, the content being the gcd of the
    numerators.  The zero polynomial is ``num == ()``, ``den == 1``.  The
    form is unique, so ``==`` and ``hash`` compare the two fields, and
    ``+``, ``-``, ``*`` and ``divmod`` run on ints alone.  ``coeffs``, the
    ascending tuple of ``Fraction`` coefficients, is built on each access.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        _set_num(self, p.num)
        _set_den(self, p.den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def x() -> "Poly":
        return _raw((0, 1), 1)

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    @property
    def degree(self) -> int:
        # Degree of the zero polynomial is -1 by convention.
        return len(self.num) - 1

    @property
    def lead(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[-1], self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return _poly((other.numerator,), other.denominator)
        return None

    def __eq__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other, True)

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return _add(other, self, True)

    def __mul__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, cb in enumerate(b):
            if cb:
                for j, ca in enumerate(a, i):
                    out[j] += ca * cb
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def divmod(self, other: "Poly"):
        """(q, r) with self == q*other + r and deg r < deg other.

        Integer pseudo-division of the numerators by the primitive part
        of ``other``: the running remainder is multiplied by the least
        factor that lets the leading coefficient divide it, and the
        accumulated factor goes into the denominators of q and r.
        """
        other = Poly._coerce(other)
        if other is None or not other.num:
            raise DivisionByZero("polynomial division by zero")
        a, b = self.num, other.num
        db = len(b) - 1
        if len(a) <= db:
            return _ZERO, self
        content = gcd(*b)
        if content != 1:
            b = [c // content for c in b]
        lb = b[-1]
        rem = list(a)
        q = [0] * (len(a) - db)
        scale = 1
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i]
            if not c:
                continue
            f, m = divmod(c, lb)
            if m:
                s = abs(lb) // gcd(c, lb)
                rem[: i + 1] = [x * s for x in rem[: i + 1]]
                q = [x * s for x in q]
                scale *= s
                f = c * s // lb
            k = i - db
            q[k] = f
            for j, cb in enumerate(b, k):
                rem[j] -= f * cb
        # scale*a == q*b + rem, and self == a/da, other == content*b/db
        den = scale * self.den
        return (
            _poly([x * other.den for x in q], den * content),
            _poly(rem[:db], den),
        )

    def __str__(self):
        if not self.num:
            return "0"
        den = self.den
        parts = []
        for i, n in enumerate(self.num):
            if not n:
                continue
            c = _format_ratio(n, den)
            if i == 0:
                parts.append(c)
            elif i == 1:
                parts.append("x" if n == den else f"{c}*x")
            else:
                parts.append(f"x^{i}" if n == den else f"{c}*x^{i}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


# The slot setters get past the __setattr__ guard more cheaply than
# object.__setattr__; every arithmetic result is built through them.
_new = object.__new__
_set_num = Poly.num.__set__
_set_den = Poly.den.__set__


def _raw(num: tuple, den: int) -> Poly:
    """A Poly from fields already in lowest terms."""
    p = _new(Poly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _poly(num, den: int) -> Poly:
    """The Poly num/den: ascending int numerators over a nonzero int."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    if n < len(num):
        num = num[:n]
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(tuple(num), den)


def _add(p: Poly, q: Poly, negate: bool) -> Poly:
    """p + q, or p - q when ``negate``."""
    a, b = p.num, q.num
    if not b:
        return p
    if not a:
        return -q if negate else q
    den = p.den
    if den != q.den:
        g = gcd(den, q.den)
        sa, sb = q.den // g, den // g
        a = [c * sa for c in a]
        b = [c * sb for c in b]
        den *= sa
    la, lb = len(a), len(b)
    out = list(map(sub if negate else add, a, b))
    if la > lb:
        out += a[lb:]
    elif lb > la:
        out += [-c for c in b[la:]] if negate else b[la:]
    return _poly(out, den)


_ZERO = _raw((), 1)


def _pack(num, w: int) -> int:
    """The integer coefficients num (ascending) evaluated at x = 2**w."""
    v = 0
    for c in reversed(num):
        v = (v << w) + c
    return v


def product_width(inner):
    """Slot width of a product with ``inner`` summands per entry: each
    coefficient of an entry is a sum of at most inner * min(L_A, L_B)
    products of two coefficients, L the longest coefficient list and M
    the largest |coefficient| of a cleared factor."""

    def width(cleared):
        (la, ma), (lb, mb) = map(_longest_and_largest, cleared)
        return ma.bit_length() + mb.bit_length() + (inner * min(la, lb)).bit_length() + 1

    return width


def _longest_and_largest(rows):
    entries = [e for r in rows for e in r]
    return max(map(len, entries), default=0), max(map(abs, chain.from_iterable(entries)), default=0)


def elimination_width(cleared):
    """Slot width of a fraction-free elimination of the rows of a cleared
    matrix: every entry read back is a minor on some of its rows, and by
    the Leibniz formula every coefficient of a minor on rows R is at most
    the product over R of s_i, the sum of the |coefficients| of row i."""
    (rows,) = cleared
    bound = prod(max(sum(map(abs, chain.from_iterable(r))), 1) for r in rows)
    return bound.bit_length() + 1


def fraction_free_step(row, p, f, pivot_row, d, start=0):
    """Replace row[j], for j >= start, by (p*row[j] - f*pivot_row[j]) / d:
    the fraction-free update of an image row by the pivot row, p the
    pivot, f the row's entry in the pivot column and d the previous
    pivot.  The quotients are exact when the entries are minors; a
    remainder raises NotDivisible."""
    for j in range(start, len(row)):
        x = row[j]
        y = pivot_row[j]
        if x or (f and y):
            x, r = divmod(p * x - f * y, d)
            if r:
                raise NotDivisible("a fraction-free elimination step left a remainder")
            row[j] = x


def _parse_rational(obj) -> Fraction:
    if isinstance(obj, bool):
        raise FormatError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, Fraction):
        return obj
    if isinstance(obj, str):
        try:
            return Fraction(obj.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational syntax: {obj!r}") from exc
    raise FormatError(f"not a rational: {obj!r}")


class IntegerRing:
    """The rational integers as an effective Bezout domain."""

    name = "int"
    zero = 0
    one = 1
    primitive = None

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise FormatError(f"not an integer element: {x!r}")
        return x

    def is_unit(self, a) -> bool:
        return a == 1 or a == -1

    def canonicalize(self, a):
        # unit * assoc == a, assoc >= 0
        if a < 0:
            return -1, -a
        return 1, a

    def unit_inverse(self, u):
        return u  # +-1 are self-inverse

    def size(self, a) -> int:
        return abs(a)

    def exact_div(self, a, b):
        if b == 0:
            raise DivisionByZero("integer division by zero")
        q, r = divmod(a, b)
        if r != 0:
            raise NotDivisible(f"{b} does not divide {a} in the integers")
        return q

    def divides(self, b, a) -> bool:
        if b == 0:
            return a == 0
        return a % b == 0

    def image(self, mats, width):
        return list(mats), [(1,) * len(m) for m in mats], 0

    def from_image(self, v, den, w):
        return v if den == 1 else self.exact_div(v, den)

    def pivot_reduce(self, a, p):
        """(q, r) with a == q*p + r and 0 <= r < p (p a canonical pivot, p > 0)."""
        q, r = divmod(a, p)
        return q, r

    def small_quotient(self, a, p):
        """q with |a - q*p| <= |p|/2 (p != 0): the balanced remainder."""
        q, r = divmod(a, p)
        if abs(2 * r) > abs(p):
            q += 1
        return q

    def xgcd(self, a, b):
        if a == 0 and b == 0:
            return 0, 0, 0, 0, 0
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r != 0:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        g, bs, bt = old_r, old_s, old_t
        if g < 0:
            g, bs, bt = -g, -bs, -bt
        # Size-reduce s modulo b/g (balanced residue), then recompute t.
        if b != 0:
            m = abs(b // g)
            if m > 1:
                bs %= m
                if bs > m // 2:
                    bs -= m
                bt = (g - bs * a) // b
            elif m == 1:
                bs = 0
                bt = g // b
        u = a // g
        v = b // g
        return g, bs, bt, u, v

    def parse_entry(self, obj):
        if isinstance(obj, bool):
            raise FormatError(f"bad integer entry: {obj!r}")
        if isinstance(obj, int):
            return obj
        if isinstance(obj, str):
            s = obj.strip()
            try:
                return int(s, 10)
            except ValueError as exc:
                raise FormatError(f"bad integer syntax: {obj!r}") from exc
        raise FormatError(f"bad integer entry: {obj!r}")

    def format_entry(self, a):
        return str(a)


class RationalField:
    """The rationals.  A field is a (degenerate) Bezout domain."""

    name = "rat"
    zero = Fraction(0)
    one = Fraction(1)
    primitive = None

    def coerce(self, x):
        if isinstance(x, bool):
            raise FormatError(f"not a rational element: {x!r}")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        raise FormatError(f"not a rational element: {x!r}")

    def is_unit(self, a) -> bool:
        return a != 0

    def canonicalize(self, a):
        if a == 0:
            return Fraction(1), Fraction(0)
        return a, Fraction(1)

    def unit_inverse(self, u):
        if u == 0:
            raise DivisionByZero("zero is not a unit")
        return 1 / u

    def size(self, a) -> int:
        return 0  # every nonzero element is an equally good pivot

    def exact_div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        return a / b

    def divides(self, b, a) -> bool:
        return not (b == 0 and a != 0)

    def image(self, mats, width):
        images, dens = [], []
        for m in mats:
            ds = [lcm(*[e.denominator for e in r]) for r in m]
            images.append([[e.numerator * (d // e.denominator) for e in r] for d, r in zip(ds, m)])
            dens.append(ds)
        return images, dens, 0

    def from_image(self, v, den, w):
        return Fraction(v, den)

    def pivot_reduce(self, a, p):
        return a / p, Fraction(0)

    def small_quotient(self, a, p):
        """q with a - q*p == 0 (p != 0)."""
        return a / p

    def xgcd(self, a, b):
        zero, one = Fraction(0), Fraction(1)
        if a == 0 and b == 0:
            return zero, zero, zero, zero, zero
        if a != 0:
            return one, 1 / a, zero, a, b
        return one, zero, 1 / b, zero, b

    def parse_entry(self, obj):
        return _parse_rational(obj)

    def format_entry(self, a):
        return _format_ratio(a.numerator, a.denominator)


class PolynomialRing:
    """Univariate polynomials over the rationals (a Euclidean domain)."""

    name = "polyrat"
    zero = Poly()
    one = Poly((1,))

    def coerce(self, x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, bool):
            raise FormatError(f"not a polynomial element: {x!r}")
        if isinstance(x, (int, Fraction)):
            return Poly._coerce(x)
        raise FormatError(f"not a polynomial element: {x!r}")

    def is_unit(self, a) -> bool:
        return a.degree == 0

    def canonicalize(self, a):
        # unit * assoc == a with assoc monic (or zero).
        num, den = a.num, a.den
        if not num or num[-1] == den:
            return self.one, a
        # a / lead(a) == num / num[-1]: the denominator cancels
        return _poly((num[-1],), den), _poly(num, num[-1])

    def unit_inverse(self, u):
        if u.degree != 0:
            raise DivisionByZero(f"not a unit: {u}")
        return _poly((u.den,), u.num[0])

    def size(self, a) -> int:
        return a.degree

    def exact_div(self, a, b):
        if b.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q, r = a.divmod(b)
        if not r.is_zero():
            raise NotDivisible(f"({b}) does not divide ({a})")
        return q

    def divides(self, b, a) -> bool:
        if b.is_zero():
            return a.is_zero()
        return a.divmod(b)[1].is_zero()

    def image(self, mats, width):
        cleared, dens = [], []
        for m in mats:
            ds = [lcm(*[e.den for e in r]) for r in m]
            cleared.append([
                [e.num if e.den == d else [c * (d // e.den) for c in e.num] for e in r]
                for d, r in zip(ds, m)
            ])
            dens.append(ds)
        w = width(cleared)
        # an entry with at most one coefficient is its own image
        images = [[[_pack(e, w) if len(e) > 1 else sum(e) for e in r] for r in rows] for rows in cleared]
        return images, dens, w

    def from_image(self, v, den, w):
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        num = []
        while v:
            c = v & mask
            v >>= w
            if c >= half:  # a negative digit borrowed one from the next slot
                c -= mask + 1
                v += 1
            num.append(c)
        return _poly(num, den)

    def pivot_reduce(self, a, p):
        """(q, r) with a == q*p + r and deg r < deg p (p monic)."""
        return a.divmod(p)

    def small_quotient(self, a, p):
        """q with deg(a - q*p) < deg p (p != 0)."""
        return a.divmod(p)[0]

    def primitive(self, entries):
        """(unit, prim) with entries == unit * prim, prim having integer
        coefficients of gcd one ((one, entries) if all are zero)."""
        live = [e for e in entries if e.num]
        if not live:
            return self.one, entries
        den = lcm(*(e.den for e in live))
        g = gcd(*(c * (den // e.den) for e in live for c in e.num))
        if den == 1 and g == 1:
            return self.one, entries
        return _poly((g,), den), [_raw(tuple(c * (den // e.den) // g for c in e.num), 1) if e.num else e for e in entries]

    def xgcd(self, a, b):
        zero = Poly()
        if a.is_zero() and b.is_zero():
            return zero, zero, zero, zero, zero
        old_r, r = a, b
        old_s, s = self.one, zero
        old_t, t = zero, self.one
        while not r.is_zero():
            q, rem = old_r.divmod(r)
            old_r, r = r, rem
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        g, bs, bt = old_r, old_s, old_t
        unit, g = self.canonicalize(g)
        ui = self.unit_inverse(unit)
        bs, bt = ui * bs, ui * bt
        if not b.is_zero():
            m = self.exact_div(b, g)
            if m.degree > 0:
                _, bs = bs.divmod(m)
                bt = self.exact_div(g - bs * a, b)
            else:
                bs = zero
                bt = self.exact_div(g, b)
        u = self.exact_div(a, g)
        v = self.exact_div(b, g)
        return g, bs, bt, u, v

    def parse_entry(self, obj):
        if not isinstance(obj, (list, tuple)):
            raise FormatError(
                f"polynomial entries are coefficient arrays, got {obj!r}"
            )
        return Poly(tuple(_parse_rational(c) for c in obj))

    def format_entry(self, a):
        return [_format_ratio(n, a.den) for n in a.num]


ZZ = IntegerRing()
QQ = RationalField()
QQX = PolynomialRing()

RINGS = {"int": ZZ, "rat": QQ, "polyrat": QQX}


def get_ring(name: str):
    try:
        return RINGS[name]
    except KeyError:
        raise FormatError(f"unknown ring {name!r}; expected one of {sorted(RINGS)}")
