"""
Exact linear algebra over the integers, Laurent polynomials and the
cyclotomic integers Z[zeta_N].

det_exact is the package's one determinant: a fraction-free Bareiss
elimination over the integers.  A matrix over Z[t^+-1] (LaurentPoly
entries) goes through the same integer elimination by Kronecker
substitution: each row is shifted to ordinary polynomials, t is set to 2^B
with B large enough that every coefficient of the determinant is one
balanced base-2^B digit, and the digits of the integer determinant are read
back as coefficients.  The Burau and Fox Alexander routes, the Z[zeta_N]
lifts, the Sylvester-matrix resultant and the companion-matrix route all
call it.  Integer side:
Smith normal form with recorded unimodular transforms, cokernels as abelian
groups, the companion matrix tau of 1 + t + ... + t^(N-1), and delta(tau),
built column by column by reducing t^j * delta modulo 1 + t + ... + t^(N-1):
tau^N = I turns negative powers into positive ones, so no matrix product or
inverse is needed.  Cyclotomic side: CycNumber, an element of Z[zeta_N]
stored as the integer coefficients of 1, zeta, ..., zeta^(d-1)
(d = deg Phi_N); its arithmetic is integer convolution reduced modulo the
monic Phi_N.  It has no denominator and no field inverse: ranks over
Q(zeta_N) are taken by fraction-free elimination.  eval_at_zeta is the ring
map Z[t^+-1] -> Z[zeta_N]; a determinant over Z[zeta_N] is det_exact of
integral lifts to Z[t], mapped through eval_at_zeta.  No floating point
anywhere in this module.

>>> x = CycNumber.make(4, [3, 2, 0, 1])  # 3 + 2 zeta + zeta^3, zeta^2 = -1
>>> x.num
(3, 1)
>>> x * CycNumber.zeta(4, -1) == CycNumber.make(4, [1, -3])
True
>>> from fractions import Fraction
>>> CycNumber.make(4, [Fraction(1, 2)])
Traceback (most recent call last):
    ...
TypeError: Z[zeta_N] coefficients are ints, got Fraction(1, 2)
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Sequence

from .errors import InternalError
from .laurent_poly import LaurentPoly

Matrix = list[list[int]]


class NonSquare(ValueError):
    """A square-matrix operation was given a rectangular matrix."""


class BadRank(ValueError):
    """Companion-matrix rank parameter out of range."""


def _as_rows(a: Sequence[Sequence[int]]) -> Matrix:
    rows = [list(map(int, row)) for row in a]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    return rows


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(b) != (len(a[0]) if a else 0):
        raise NonSquare("inner dimensions do not match")
    if not a or not b:
        return [[] for _ in a]
    cols = len(b[0])
    out = [[0] * cols for _ in a]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, x in enumerate(arow):
            if x == 0:
                continue
            brow = b[k]
            for j in range(cols):
                orow[j] += x * brow[j]
    return out


def mat_pow(a: Matrix, n: int) -> Matrix:
    """n-th power of a square integer matrix, n >= 0, by repeated squaring."""
    if any(len(row) != len(a) for row in a):
        raise NonSquare("matrix power needs a square matrix")
    if n < 0:
        raise ValueError(f"matrix power needs n >= 0, got {n}")
    out = _identity(len(a))
    base = [row[:] for row in a]
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def det_exact(a: Sequence[Sequence]):
    """
    Exact determinant by Bareiss's fraction-free elimination over the
    integers; every interior division is exact (Sylvester's identity).  The
    empty matrix has determinant 1.

    A matrix with any LaurentPoly entry (ints may be mixed in) is taken over
    Z[t^+-1] by Kronecker substitution, so the elimination still sees only
    integers.  Row i is multiplied by t^-lo_i, lo_i its lowest exponent,
    which makes every entry an ordinary polynomial and multiplies the
    determinant by t^-(sum lo_i); a zero row gives the zero polynomial at
    once.  With bound = prod_i sum_j |a_ij|_1 (the l1 norm of coefficients),
    every coefficient of the determinant is at most |det|_1 <= bound in
    absolute value, since each of the n! Leibniz terms has l1 norm at most
    the product of its entries' norms.  So with B = bound.bit_length() + 1,
    2^(B-1) > bound and every coefficient is one balanced base-2^B digit;
    evaluating at t = 2^B is a ring map, so the integer determinant of the
    evaluated matrix holds the coefficients as its digits.  The degree is at
    most the sum of the shifted rows' degree spans, so that many digits plus
    one are read back, and anything left over raises InternalError.  The
    cost is one integer Bareiss, O(n^3) products and exact divisions of
    integers of at most about B * (sum of row spans + n) bits, in place of
    as many polynomial products and long divisions.  A Laurent matrix
    always gets a LaurentPoly back, the zero polynomial when it is
    singular.

    >>> det_exact([[2, 1], [7, 4]])
    1
    >>> det_exact([[10**20, 1], [1, 10**20]])
    9999999999999999999999999999999999999999
    >>> det_exact([[LaurentPoly.t(), 1], [1, LaurentPoly.t(-1)]])
    LaurentPoly('0')
    >>> det_exact([[LaurentPoly(-2, (1, -1)), 3], [LaurentPoly.t(-1), LaurentPoly.t(4, 2)]])
    LaurentPoly('-3*t^-1 + 2*t^2 - 2*t^3')
    """
    m = [list(row) for row in a]
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSquare("determinant of a ragged or rectangular matrix")
    if LaurentPoly in map(type, itertools.chain.from_iterable(m)):
        return _laurent_det(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            factor = row[k]
            # A zero multiplier leaves only the rescaling by pivot / prev.
            if factor:
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - factor * top[j]) // prev
            else:
                for j in range(k + 1, n):
                    row[j] = row[j] * pivot // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _laurent_det(m: list[list]) -> LaurentPoly:
    # Kronecker substitution t = 2^B for det_exact; see its docstring.
    rows = [[LaurentPoly(0, (x,)) if isinstance(x, int) else x for x in row] for row in m]
    lows, spans, bound = [], [], 1
    for row in rows:
        nonzero = [p for p in row if p]
        if not nonzero:
            return LaurentPoly.zero()
        lo = min(p.min_deg for p in nonzero)
        lows.append(lo)
        spans.append(max(p.max_deg() for p in nonzero) - lo)
        bound *= sum(abs(c) for p in nonzero for c in p.coeffs)
    width = bound.bit_length() + 1

    def pack(p: LaurentPoly, lo: int) -> int:
        acc = 0
        for c in reversed(p.coeffs):
            acc = (acc << width) + c
        return acc << (width * (p.min_deg - lo)) if p else 0

    value = det_exact([[pack(p, lo) for p in row] for row, lo in zip(rows, lows)])
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    for _ in range(sum(spans) + 1):
        d = value & mask
        if d >= half:
            d -= 1 << width
        digits.append(d)
        value = (value - d) >> width
    if value:
        raise InternalError("Kronecker determinant has digits past the degree bound")
    return LaurentPoly(sum(lows), digits)


def resultant(f: LaurentPoly, g: LaurentPoly) -> int:
    """
    Resultant of two nonzero ordinary integer polynomials (min_deg >= 0), as
    the determinant of the Sylvester matrix built from ascending coefficient
    rows with the f-rows first.  With this convention
    Res(f, g) = lc(g)^deg(f) * prod f(beta) over the roots beta of g, so it
    is the exact route to "f evaluated at all roots of g".

    >>> resultant(LaurentPoly(0, (-2, 1)), LaurentPoly(0, (-3, 1)))
    1
    >>> resultant(LaurentPoly.t(), LaurentPoly.t())
    0
    >>> resultant(LaurentPoly(0, (1, 0, 1)), LaurentPoly(0, (-1, 1)))
    2
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined here")
    if f.min_deg < 0 or g.min_deg < 0:
        raise ValueError("resultant needs ordinary polynomials, without negative powers")
    fc = (0,) * f.min_deg + f.coeffs
    gc = (0,) * g.min_deg + g.coeffs
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    rows = []
    for r in range(n):
        row = [0] * size
        row[r : r + m + 1] = fc
        rows.append(row)
    for r in range(m):
        row = [0] * size
        row[r : r + n + 1] = gc
        rows.append(row)
    return det_exact(rows)


@dataclasses.dataclass(frozen=True)
class SmithForm:
    """
    Result of smith_normal_form: u * a * v is the diagonal matrix carrying
    invariant_factors on its diagonal.  Factors are nonnegative, each divides
    the next, and zeros come last; len(invariant_factors) = min(rows, cols).
    """

    rows: int
    cols: int
    invariant_factors: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)

    def diagonal_matrix(self) -> Matrix:
        out = [[0] * self.cols for _ in range(self.rows)]
        for i, d in enumerate(self.invariant_factors):
            out[i][i] = d
        return out


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """
    Smith normal form with transforms, using a deterministic pivot rule:
    at each step the submatrix entry of smallest nonzero absolute value is
    chosen, ties broken in row-major order.

    >>> smith_normal_form([[2, 0], [0, 3]]).invariant_factors
    (1, 6)
    >>> smith_normal_form([[2, 1], [0, 2]]).invariant_factors
    (1, 4)
    >>> smith_normal_form([[6, 0], [0, 0]]).invariant_factors
    (6, 0)
    """
    m = _as_rows(a)
    r = len(m)
    c = len(m[0]) if r else 0
    k = min(r, c)
    u = _identity(r)
    v = _identity(c)

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        mi, mj = m[i], m[j]
        for x in range(c):
            mi[x] -= q * mj[x]
        ui, uj = u[i], u[j]
        for x in range(r):
            ui[x] -= q * uj[x]

    def col_op(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def diagonalize(t0: int) -> None:
        for t in range(t0, k):
            while True:
                best = None
                for i in range(t, r):
                    for j in range(t, c):
                        x = m[i][j]
                        if x != 0 and (best is None or abs(x) < best[0]):
                            best = (abs(x), i, j)
                if best is None:
                    return
                _, bi, bj = best
                if bi != t:
                    m[t], m[bi] = m[bi], m[t]
                    u[t], u[bi] = u[bi], u[t]
                if bj != t:
                    for row in m:
                        row[t], row[bj] = row[bj], row[t]
                    for row in v:
                        row[t], row[bj] = row[bj], row[t]
                p = m[t][t]
                dirty = False
                for i in range(t + 1, r):
                    if m[i][t] != 0:
                        row_op(i, t, m[i][t] // p)
                        dirty = dirty or m[i][t] != 0
                for j in range(t + 1, c):
                    if m[t][j] != 0:
                        col_op(j, t, m[t][j] // p)
                        dirty = dirty or m[t][j] != 0
                if not dirty:
                    break

    def normalize_signs() -> None:
        for i in range(k):
            if m[i][i] < 0:
                m[i] = [-x for x in m[i]]
                u[i] = [-x for x in u[i]]

    diagonalize(0)
    normalize_signs()
    # Divisibility sweep: splice d_{t+1} into row t and rediagonalize, which
    # replaces the pair by (gcd, lcm); repeat until each factor divides the next.
    t = 0
    while t < k - 1:
        dt, dn = m[t][t], m[t + 1][t + 1]
        if dt != 0 and dn % dt != 0:
            row_op(t, t + 1, -1)
            diagonalize(t)
            normalize_signs()
            t = max(t - 1, 0)
        else:
            t += 1

    return SmithForm(
        rows=r,
        cols=c,
        invariant_factors=tuple(m[i][i] for i in range(k)),
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
    )


@dataclasses.dataclass(frozen=True)
class AbelianGroup:
    """
    A finitely generated abelian group: cyclic factors (each dividing the
    next, all > 1) plus a free rank.
    """

    invariant_factors: tuple[int, ...]
    free_rank: int

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank > 0:
            return None
        return math.prod(self.invariant_factors)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def to_text(self) -> str:
        """
        >>> AbelianGroup((4, 4), 0).to_text()
        'Z/4 + Z/4'
        >>> AbelianGroup((), 2).to_text()
        'Z^2'
        >>> AbelianGroup((), 0).to_text()
        '0'
        """
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def cokernel(a: Sequence[Sequence[int]]) -> AbelianGroup:
    """
    The cokernel of a as a map from Z^cols to Z^rows: Z^rows modulo the
    column span.

    >>> cokernel([[3]])
    AbelianGroup(invariant_factors=(3,), free_rank=0)
    >>> cokernel([[2, 0], [0, 3]])
    AbelianGroup(invariant_factors=(6,), free_rank=0)
    >>> cokernel([[0, 0]])
    AbelianGroup(invariant_factors=(), free_rank=1)
    """
    form = smith_normal_form(a)
    factors = tuple(d for d in form.invariant_factors if d > 1)
    free = form.rows - form.rank
    return AbelianGroup(invariant_factors=factors, free_rank=free)


def companion_tau(n: int) -> Matrix:
    """
    Companion matrix of 1 + t + ... + t^(n-1), size (n-1) x (n-1): ones on
    the subdiagonal, -1 down the last column.  Its eigenvalues are exactly
    the nontrivial n-th roots of unity, each once.

    >>> companion_tau(2)
    [[-1]]
    >>> companion_tau(3)
    [[0, -1], [1, -1]]
    """
    if n < 2:
        raise BadRank(f"companion matrix needs n >= 2, got {n}")
    size = n - 1
    m = [[0] * size for _ in range(size)]
    for i in range(1, size):
        m[i][i - 1] = 1
    for i in range(size):
        m[i][size - 1] = -1
    return m


def poly_at_matrix(p: LaurentPoly, n: int) -> Matrix:
    """
    delta(tau): the Laurent polynomial p evaluated at companion_tau(n).

    tau is multiplication by t on Z[t]/(1 + t + ... + t^(n-1)) in the basis
    1, t, ..., t^(n-2), so column j is t^j * p reduced modulo that
    polynomial: exponents are taken mod n (since t^n = 1), then the t^(n-1)
    coefficient is folded into the others through
    t^(n-1) = -(1 + t + ... + t^(n-2)).  Integer work only, no matrix
    products and no inverse.

    >>> poly_at_matrix(LaurentPoly(-1, (1, -1, 1)), 2)
    [[-3]]
    >>> poly_at_matrix(LaurentPoly(-1, (-1, 3, -1)), 3)
    [[4, 0], [0, 4]]
    """
    if n < 2:
        raise BadRank(f"companion matrix needs n >= 2, got {n}")
    r = [0] * n
    for k, c in enumerate(p.coeffs, p.min_deg):
        r[k % n] += c
    # Entry (i, j) is r[(i - j) % n] - r[(n - 1 - j) % n]; with rev = r
    # reversed and doubled, row i is the window rev[n-1-i : 2n-2-i] and the
    # subtracted t^(n-1) coefficients are rev[:n-1].
    rev = r[::-1] * 2
    top = rev[: n - 1]
    return [
        [x - y for x, y in zip(rev[n - 1 - i : 2 * n - 2 - i], top)]
        for i in range(n - 1)
    ]


# ---------------------------------------------------------------------------
# Arithmetic in Z[zeta_N]


def _phi_coeffs(n: int) -> tuple[int, ...]:
    return LaurentPoly.cyclotomic(n).coeffs


def _reduce_mod_phi(n: int, coeffs: list[int]) -> tuple[int, ...]:
    # Phi_N is monic, so every step of the division stays in the integers.
    phi = _phi_coeffs(n)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        top = work[i]
        if top:
            for j in range(deg):
                if phi[j]:
                    work[i - deg + j] -= top * phi[j]
    out = work[:deg]
    out += [0] * (deg - len(out))
    return tuple(out)


def _checked_int(c: int) -> int:
    if not isinstance(c, int):
        raise TypeError(f"Z[zeta_N] coefficients are ints, got {c!r}")
    return c


@dataclasses.dataclass(frozen=True)
class CycNumber:
    """
    An element of Z[zeta_N], stored as the integer coefficients num[k] of
    zeta^k for k < d = deg(Phi_N).  Sums and products are integer
    convolutions reduced modulo the monic Phi_N, so every element has one
    representation and equality is tuple equality.  There is no division:
    the flat-point checks need only ring operations, and a rank over
    Q(zeta_N) comes from fraction-free elimination.  Coefficients and
    scalars must be ints; anything else raises TypeError.

    >>> x = CycNumber.make(3, [1, 0, 1])
    >>> x.num  # 1 + zeta^2 = -zeta, as zeta^2 = -1 - zeta
    (0, -1)
    >>> z = CycNumber.zeta(4)
    >>> z * z == CycNumber.integer(4, -1)
    True
    >>> (CycNumber.one(5) + CycNumber.zeta(5)) * 2
    CycNumber(5: 2*z^0 + 2*z^1)
    >>> CycNumber.integer(5, 0.5)
    Traceback (most recent call last):
        ...
    TypeError: Z[zeta_N] coefficients are ints, got 0.5
    """

    n: int
    num: tuple[int, ...]

    @staticmethod
    def make(n: int, coeffs: Sequence[int]) -> CycNumber:
        """The element sum coeffs[k] zeta^k, for integer coefficients of any length."""
        return CycNumber(n, _reduce_mod_phi(n, [_checked_int(c) for c in coeffs]))

    @staticmethod
    def integer(n: int, value: int) -> CycNumber:
        deg = len(_phi_coeffs(n)) - 1
        return CycNumber(n, (_checked_int(value),) + (0,) * (deg - 1))

    @staticmethod
    def zero(n: int) -> CycNumber:
        return CycNumber.integer(n, 0)

    @staticmethod
    def one(n: int) -> CycNumber:
        return CycNumber.integer(n, 1)

    @staticmethod
    def zeta(n: int, k: int = 1) -> CycNumber:
        """zeta_N^k for any integer k."""
        k %= n
        return CycNumber(n, _reduce_mod_phi(n, [0] * k + [1]))

    def is_zero(self) -> bool:
        return not any(self.num)

    def _check(self, other: CycNumber) -> None:
        if self.n != other.n:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: CycNumber) -> CycNumber:
        self._check(other)
        return CycNumber(self.n, tuple(x + y for x, y in zip(self.num, other.num)))

    def __sub__(self, other: CycNumber) -> CycNumber:
        self._check(other)
        return CycNumber(self.n, tuple(x - y for x, y in zip(self.num, other.num)))

    def __neg__(self) -> CycNumber:
        return CycNumber(self.n, tuple(-x for x in self.num))

    def __mul__(self, other: CycNumber | int) -> CycNumber:
        if isinstance(other, int):
            return CycNumber(self.n, tuple(x * other for x in self.num))
        if not isinstance(other, CycNumber):
            return NotImplemented
        self._check(other)
        b = other.num
        out = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return CycNumber(self.n, _reduce_mod_phi(self.n, out))

    __rmul__ = __mul__

    def __repr__(self):
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.num) if c != 0]
        return f"CycNumber({self.n}: {' + '.join(terms) if terms else '0'})"


def eval_at_zeta(p: LaurentPoly, n: int, k: int) -> CycNumber:
    """Exact evaluation of a Laurent polynomial at zeta_N^k."""
    raw = [0] * max(n, 1)
    for i, c in enumerate(p.coeffs):
        raw[(k * (p.min_deg + i)) % n] += c
    return CycNumber(n, _reduce_mod_phi(n, raw))
