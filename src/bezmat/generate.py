"""Reproducible instance generation for tests and the self-test suite.

Randomness comes from splitmix64, a tiny 64-bit mixing generator chosen
so the acceptance suite reproduces bit-for-bit from a seed in any
language.  The full algorithm, so it can be reimplemented elsewhere:

    state <- (state + 0x9E3779B97F4A7C15)  mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output: z XOR (z >> 31)

Draws are computed in blocks, the states state + k * 0x9E3779B97F4A7C15
(k = 1..count) in 128-bit lanes of one integer.  The stream, and
``state`` after every draw, are exactly those of the algorithm above.

Unimodular factors carry their inverses: each elementary step on the
rows of H is applied inverted to the columns of H^-1 (row i += c * row
j becomes col j -= c * col i; a swap or a sign flip repeats on the same
columns), and the pair is checked by the one product H @ H^-1 == I,
which for square matrices over a commutative ring gives H^-1 @ H == I.

Instance families:

  * gen_group_invertible —  X = H @ diag(M, 0) @ H^-1 with H unimodular
    and M a unimodular core: group invertible by construction, with
    prescribed rank.

  * gen_flanders_triple  —  aligned-core triples
        A = H1 @ diag(MA, 0) @ H2,   B = H2^-1 @ diag(MB, 0) @ H1^-1,
    so  A@B = H1 @ diag(MA@MB, 0) @ H1^-1  is group invertible, and
    C = B (classical regime) or C = B + N with A@N@A = 0, where N mixes
    a right-kernel part Nr (columns in the span of columns r.. of
    H2^-1, the right kernel of A) and a left-kernel part Nl (rows in
    the span of rows r.. of H1^-1, the left kernel).  Then C@A = B@A +
    Nr@A lands in the form H2^-1 @ [[K,0],[S,0]] @ H2 with K = MB@MA
    unimodular, which is always group invertible: the generator checks
    (A@B)^# == H1 @ diag(MB^-1 @ MA^-1, 0) @ H1^-1 and (exchange formula)
    (C@A)^# == C @ ((A@B)^#)^2 @ A, raising InternalAssertion if not.

  * gen_drazin_triple  —  A = H1 @ diag(MA, N) @ H2 with N an m x m
    nilpotent shift chain of index exactly k, B = H2^-1 @ diag(MB, I)
    @ H1^-1, so ind(A@B) = k precisely.  The kernels of A come from the
    same factors: columns r and r+k.. of H2^-1 on the right (the zero
    columns of the chain), rows r+k-1.. of H1^-1 on the left (its zero
    rows).  (A@B)^D == H1 @ diag(MB^-1 @ MA^-1, 0) @ H1^-1 is checked at
    index k.  C@A has Drazin inverse C @ ((A@B)^D)^2 @ A (exchange
    formula), but when C != B its index can reach k+1; instances are
    rejection-filtered on it so the triples satisfy ind(C@A) <= max(k, 1).

  * corollary instance makers — aligned-core triples satisfy all four
    sufficient-condition variants (engineered-true), and small frozen
    families (padded and conjugated by random unimodulars, which
    preserves every column-module equality) realize engineered-false
    instances with known failing condition names.

entry_bound caps the sampled atoms: |integer| entries, numerator and
denominator of rationals, and both the degree and the integer
coefficients of polynomials.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from fractions import Fraction

from .errors import GenerationExhausted, InternalAssertion
from .ginverse import _drazin_index
from .matrix import Mat, block_diag, hstack
from .rings import Poly, get_ring

_RETRY_BUDGET = 64

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_FIRST_BLOCK, _MAX_BLOCK = 4, 256
# lane i of ONES holds 1, of STEPS i + 1, over the widest block; a block masks them down
_ONES, _STEPS = (int.from_bytes(struct.pack("<" + "Q8x" * _MAX_BLOCK, *v), "little")
                 for v in ([1] * _MAX_BLOCK, range(1, _MAX_BLOCK + 1)))
_GAMMA_STEPS, _LOW64 = _GAMMA * _STEPS, _MASK * _ONES


class SplitMix64:
    """Deterministic 64-bit generator (constants above); draws pop a buffer."""

    def __init__(self, seed: int):
        self.state = seed

    @property
    def state(self) -> int:
        return (self._end - _GAMMA * len(self._buf)) & _MASK

    @state.setter
    def state(self, value: int):
        self._end, self._buf, self._block = value & _MASK, [], _FIRST_BLOCK

    def _refill(self, need: int) -> None:
        """Load the next min(max(need, block), _MAX_BLOCK) outputs into the
        empty buffer, last first."""
        count = min(max(need, self._block), _MAX_BLOCK)
        self._block = min(2 * self._block, _MAX_BLOCK)
        cut = (1 << (128 * count)) - 1
        low = _LOW64 & cut
        end = self._end + _GAMMA * count  # lane i: state + GAMMA * (count - i)
        z = ((end + _GAMMA) * (_ONES & cut) - (_GAMMA_STEPS & cut)) & low
        z = ((z ^ (z >> 30)) & low) * _MIX1 & low
        z = ((z ^ (z >> 27)) & low) * _MIX2 & low
        z ^= z >> 31
        # the low 64 bits of each 128-bit lane
        self._buf.extend(struct.unpack("<" + "Q8x" * count, z.to_bytes(16 * count, "little")))
        self._end = end & _MASK

    def next_u64(self) -> int:
        if not self._buf:
            self._refill(1)
        return self._buf.pop()

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); n >= 1."""
        return self.next_u64() % n

    def int_in(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def ints(self, count: int, lo: int, hi: int) -> list:
        """[int_in(lo, hi) for _ in range(count)], leaving the same state."""
        buf, span, out = self._buf, hi - lo + 1, []
        while True:
            take = min(count - len(out), len(buf))
            out += [lo + z % span for z in buf[:-take - 1:-1]]
            del buf[len(buf) - take:]
            if len(out) == count:
                return out
            self._refill(count - len(out))

    def choice(self, seq):
        return seq[self.below(len(seq))]


class GenConfig(namedtuple(
    "GenConfig", "ring n seed entry_bound core_rank", defaults=("int", 3, 0, 9, 1)
)):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class GeneratedTriple:
    """A generated triple with the retries its generator spent; it
    iterates as (A, B, C), so it unpacks like the triple itself."""

    __slots__ = ("A", "B", "C", "retries")

    def __init__(self, A: Mat, B: Mat, C: Mat, retries: int):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "retries", retries)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratedTriple is immutable")

    def __iter__(self):
        return iter((self.A, self.B, self.C))

    def _key(self):
        return self.A, self.B, self.C, self.retries

    def __eq__(self, other):
        if not isinstance(other, GeneratedTriple):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "GeneratedTriple(A={!r}, B={!r}, C={!r}, retries={!r})".format(*self._key())


def _rand_element(ring, rng: SplitMix64, bound: int):
    if ring.name == "rat":
        num = rng.int_in(-bound, bound)
        den = rng.int_in(1, max(bound, 1))
        return Fraction(num, den)
    # polyrat: degree <= bound, integer coefficients in [-bound, bound]
    return Poly(rng.ints(rng.below(bound + 1) + 1, -bound, bound))


def random_matrix(cfg: GenConfig, m: int | None = None, n: int | None = None) -> Mat:
    ring = get_ring(cfg.ring)
    rng = SplitMix64(cfg.seed)
    return _random_matrix(ring, rng, m if m is not None else cfg.n,
                          n if n is not None else cfg.n, cfg.entry_bound)


def _random_matrix(ring, rng, m, n, bound) -> Mat:
    """m x n entries drawn row by row; the draws are already ring payloads."""
    if ring.name == "int":
        flat = rng.ints(m * n, -bound, bound)
        rows = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(m))
    else:
        rows = tuple(tuple(_rand_element(ring, rng, bound) for _ in range(n)) for _ in range(m))
    return Mat._raw(ring, m, n, rows)


def _shear_coefficient(ring, rng):
    """Small nonzero multiplier for elementary row/column operations,
    kept tiny so unimodular factors do not blow up entry sizes."""
    if ring.name != "polyrat":
        return ring.coerce(rng.choice((-2, -1, 1, 2)))
    c0 = rng.int_in(-1, 1)
    c1 = rng.choice((-1, 1)) if rng.below(2) else 0
    p = Poly((c0, c1))
    return ring.one if p.is_zero() else p


def _random_unimodular(ring, rng, n: int):
    """(H, H^-1) for H a product of elementary factors: shears, swaps,
    sign flips, each step carried inverted onto the columns of H^-1."""
    ident = Mat.identity(ring, n)
    rows = [list(r) for r in ident.rows]
    cols = [list(r) for r in ident.rows]
    steps = n + rng.below(n + 3) if n else 0
    for _ in range(steps):
        kind = rng.below(4)
        i = rng.below(n)
        if kind == 3 or n < 2:  # negate row i; negate col i
            rows[i] = [-x for x in rows[i]]
            cols[i] = [-x for x in cols[i]]
            continue
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        if kind < 2:  # row i += c * row j; col j -= c * col i
            c = _shear_coefficient(ring, rng)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            cols[j] = [x - c * y for x, y in zip(cols[j], cols[i])]
        else:  # swap rows i, j; swap cols i, j
            rows[i], rows[j] = rows[j], rows[i]
            cols[i], cols[j] = cols[j], cols[i]
    h = Mat._raw(ring, n, n, tuple(map(tuple, rows)))
    hinv = Mat._raw(ring, n, n, tuple(zip(*cols)))
    if h @ hinv != ident:
        raise InternalAssertion("carried unimodular inverse failed verification")
    return h, hinv


def random_unimodular(cfg: GenConfig, n: int | None = None) -> Mat:
    ring = get_ring(cfg.ring)
    rng = SplitMix64(cfg.seed)
    return _random_unimodular(ring, rng, n if n is not None else cfg.n)[0]


def _core_form(ring, rng, n: int, r: int):
    """(H, Hinv, diag(M, 0), diag(M^-1, 0)) with H and the r x r M unimodular."""
    h, hinv = _random_unimodular(ring, rng, n)
    m_core, m_inv = _random_unimodular(ring, rng, r)
    zero = Mat.zeros(ring, n - r, n - r)
    return h, hinv, block_diag(m_core, zero), block_diag(m_inv, zero)


def gen_group_invertible(cfg: GenConfig) -> Mat:
    """X = H @ diag(M, 0) @ H^-1: group invertible with rank core_rank."""
    if cfg.core_rank > cfg.n:
        raise ValueError("core_rank must not exceed n")
    ring = get_ring(cfg.ring)
    rng = SplitMix64(cfg.seed)
    h, hinv, d, _ = _core_form(ring, rng, cfg.n, cfg.core_rank)
    return h @ d @ hinv


def _perturbation(ring, rng, right: Mat, left: Mat, bound: int) -> Mat:
    """Random N with A @ N @ A == 0 from kernel factors of A: a
    right-kernel part right @ X (A @ right == 0, right n x d) plus a
    left-kernel part Y @ left (left @ A == 0, left d' x n)."""
    n = right.m
    use_right = rng.below(2) == 1
    use_left = rng.below(2) == 1
    if not use_right and not use_left:
        use_right = True
    total = Mat.zeros(ring, n, n)
    if use_right:
        total = total + right @ _random_matrix(ring, rng, right.n, n, bound)
    if use_left:
        total = total + _random_matrix(ring, rng, n, left.m, bound) @ left
    return total


def gen_flanders_triple(cfg: GenConfig, c_equals_b: bool) -> GeneratedTriple:
    """Triple with A@B@A == A@C@A and both A@B, C@A group invertible."""
    if cfg.core_rank > cfg.n:
        raise ValueError("core_rank must not exceed n")
    ring = get_ring(cfg.ring)
    rng = SplitMix64(cfg.seed)
    n, r = cfg.n, cfg.core_rank
    h1, h1inv, da, da_g = _core_form(ring, rng, n, r)
    h2, h2inv, db, db_g = _core_form(ring, rng, n, r)
    a = h1 @ da @ h2
    b = h2inv @ db @ h1inv
    if c_equals_b:
        c = b
    else:
        # ker A: columns r.. of H2^-1 on the right, rows r.. of H1^-1 on the left
        right, left = h2inv.submatrix(0, n, r, n), h1inv.submatrix(r, n, 0, n)
        c = b + _perturbation(ring, rng, right, left, cfg.entry_bound)
    ab, ca = a @ b, c @ a
    if ab @ a != a @ ca:
        raise InternalAssertion("perturbation broke A@B@A == A@C@A")
    ab_g = h1 @ db_g @ da_g @ h1inv  # A@B == H1 @ diag(MA @ MB, 0) @ H1^-1
    ca_g = c @ ab_g @ ab_g @ a  # (C@A)^# by the exchange formula
    if _drazin_index(ab, ab_g, ab @ ab_g, 1) is None or _drazin_index(ca, ca_g, ca @ ca_g, 1) is None:
        raise InternalAssertion("aligned cores must make A@B and C@A group invertible")
    return GeneratedTriple(A=a, B=b, C=c, retries=0)


def _nilpotent_chain(ring, m: int, k: int) -> Mat:
    """m x m shift chain with k-1 superdiagonal ones: index exactly k."""
    rows = [[ring.zero] * m for _ in range(m)]
    for i in range(k - 1):
        rows[i][i + 1] = ring.one
    return Mat.from_rows(ring, rows) if m else Mat.zeros(ring, 0, 0)


def gen_drazin_triple(cfg: GenConfig, k: int, c_equals_b: bool) -> GeneratedTriple:
    """Triple with A@B@A == A@C@A, ind(A@B) == k exactly, and
    ind(C@A) <= max(k, 1) so power witnesses with s == k succeed; C@A is
    always Drazin invertible, so the loop filters only its index."""
    ring = get_ring(cfg.ring)
    rng = SplitMix64(cfg.seed)
    n, r = cfg.n, cfg.core_rank
    m = n - r
    if k < 1:
        raise ValueError("k must be at least 1")
    if m < k:
        raise ValueError("need n - core_rank >= k for a chain of index k")
    for retries in range(_RETRY_BUDGET):
        h1, h1inv = _random_unimodular(ring, rng, n)
        h2, h2inv = _random_unimodular(ring, rng, n)
        ma, ma_inv = _random_unimodular(ring, rng, r)
        mb, mb_inv = _random_unimodular(ring, rng, r)
        chain = _nilpotent_chain(ring, m, k)
        a = h1 @ block_diag(ma, chain) @ h2
        b = h2inv @ block_diag(mb, Mat.identity(ring, m)) @ h1inv
        if c_equals_b:
            c = b
        else:
            # ker A: columns r, r+k.. of H2^-1 on the right, rows r+k-1.. of H1^-1 on the left
            right = hstack(h2inv.submatrix(0, n, r, r + 1), h2inv.submatrix(0, n, r + k, n))
            left = h1inv.submatrix(r + k - 1, n, 0, n)
            c = b + _perturbation(ring, rng, right, left, cfg.entry_bound)
        ab, ca = a @ b, c @ a
        if ab @ a != a @ ca:
            raise InternalAssertion("perturbation broke A@B@A == A@C@A")
        ab_d = h1 @ block_diag(mb_inv @ ma_inv, Mat.zeros(ring, m, m)) @ h1inv
        if _drazin_index(ab, ab_d, ab @ ab_d, k) != k:
            raise InternalAssertion("chain construction must give ind(A@B) == k")
        ca_d = c @ ab_d @ ab_d @ a
        ca_index = _drazin_index(ca, ca_d, ca @ ca_d, k + 1)
        if ca_index is None:
            raise InternalAssertion("exchange formula gave no Drazin inverse of C@A")
        if ca_index <= max(k, 1):
            return GeneratedTriple(A=a, B=b, C=c, retries=retries)
    raise GenerationExhausted(
        f"no index-{k} triple after {_RETRY_BUDGET} attempts (seed {cfg.seed})"
    )


# ---------------------------------------------------------------------------
# engineered corollary-variant instances (integer ring)


def gen_corollary_true(cfg: GenConfig, c_equals_b: bool = False) -> GeneratedTriple:
    """Aligned-core triples satisfy every variant's column-module
    equalities, so one family serves all four variants."""
    return gen_flanders_triple(cfg, c_equals_b)


def gen_corollary_false(cfg: GenConfig, variant: str):
    """(A, B, C, expected_failed_names) over the integers with
    A@B@A == A@C@A but the variant's conditions engineered to fail.

    Each family embeds a 2x2 seed block into n x n (identity tail) and
    conjugates all three matrices by one shared random unimodular P.
    Simultaneous conjugation preserves products, the shared-middle
    hypothesis, and the truth value of every column-module equality,
    so the failing-condition names are known exactly in advance.

    Seed blocks (verified by direct column-module computation):
      cor22: A0=diag(2,0), B0=C0=diag(3,1): columns of A span 2Z x 0
             but A@B@A spans 12Z x 0.
      cor23: A0=diag(2,0), B0=C0=I: A-module equals AB-module (both
             2Z x 0) but B spans Z^2 while B@A spans 2Z x 0.
      thm22: A0=diag(1,0), B0=C0=[[2,2],[c,d]]: AB and ABA both span
             2Z x 0, but C@A@B spans twice the C@A module Z*(2,c).
      cor24: A0=[[2,1],[0,0]], B0=C0=I: AC = A, so the first equality
             holds, but A@B@A = A^2 = 2A spans twice the A module —
             only the second equality fails; the alternate family
             A0=diag(1,0), B0=C0=diag(3,1) fails both.
    """
    if cfg.ring != "int":
        raise ValueError("engineered corollary families are integer-only")
    if cfg.n < 2:
        raise ValueError("need n >= 2 to embed the seed blocks")
    rng = SplitMix64(cfg.seed)
    n, bound = cfg.n, cfg.entry_bound
    if variant == "cor22":
        a0, b0 = [[2, 0], [0, 0]], [[3, 0], [0, 1]]
        c0 = b0
        failed = ("Rr(A)=Rr(ABA)",)
    elif variant == "cor23":
        a0, b0 = [[2, 0], [0, 0]], [[1, 0], [0, 1]]
        c0 = b0
        failed = ("Rr(B)=Rr(BA)",)
    elif variant == "thm22":
        cc = rng.int_in(-bound, bound)
        dd = rng.int_in(-bound, bound)
        a0 = [[1, 0], [0, 0]]
        b0 = [[2, 2], [cc, dd]]
        c0 = b0
        failed = ("Rr(CA)=Rr(CAB)",)
    elif variant == "cor24":
        if rng.below(2):
            a0, b0 = [[2, 1], [0, 0]], [[1, 0], [0, 1]]
            c0 = b0
            failed = ("Rr(A)=Rr(ABA)",)
        else:
            a0, b0 = [[1, 0], [0, 0]], [[3, 0], [0, 1]]
            c0 = b0
            failed = ("Rr(A)=Rr(AC)", "Rr(A)=Rr(ABA)")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # one shared conjugator: draw it once, apply to all three
    ring = get_ring("int")
    base_a = block_diag(Mat.from_rows(ring, a0), Mat.identity(ring, n - 2))
    base_b = block_diag(Mat.from_rows(ring, b0), Mat.identity(ring, n - 2))
    base_c = block_diag(Mat.from_rows(ring, c0), Mat.identity(ring, n - 2))
    p, pinv = _random_unimodular(ring, rng, n)
    return (p @ base_a @ pinv, p @ base_b @ pinv, p @ base_c @ pinv, failed)
