"""
Flat-connection counting: the rigid 3-torus points and the torus-valued
solution sets of Wirtinger presentations.

The 3-torus side is a verification, not a formula lookup: the clock and shift
matrices are built exactly over Z[zeta_N], their commutator is checked to be
the expected scalar, their determinants are det_exact of integral lifts to
Z[t] reduced at zeta_N, and the centralizer of the pair is recomputed as the
kernel of an explicit sparse linear system whose rank over Q(zeta_N), taken
by fraction-free elimination in Z[zeta_N] with no field inverse, must come
out to N^2 - 1.  Only then are the N central twists reported as flat points.

The Wirtinger side linearizes meridian relations on the (N-1)-dimensional
torus acted on by the companion matrix of 1 + t + ... + t^(N-1), pins the
base meridian, and counts rational solutions through the Smith normal form.
The kernel points of delta(tau) are enumerated from the same form over the
integers modulo the last invariant factor D, each re-verified as
delta(tau) H = 0 mod D, and returned as coordinates H / D.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import VerificationFailed
from .exact_linalg import (
    BadRank,
    CycNumber,
    companion_tau,
    det_exact,
    eval_at_zeta,
    poly_at_matrix,
    smith_normal_form,
)
from .knots import WirtingerPresentation
from .laurent_poly import LaurentPoly


class Degenerate(ArithmeticError):
    """The solution set is positive-dimensional; there is no finite count."""


class CapExceeded(RuntimeError):
    """The solution set is finite but larger than the enumeration cap."""


@dataclasses.dataclass(frozen=True)
class TorusElement:
    """A point of the rank-(n-1) torus (Q/Z)^(n-1), coordinates in [0, 1)."""

    n: int
    coords: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def denominator(self) -> int:
        return math.lcm(*(c.denominator for c in self.coords)) if self.coords else 1


def clock_shift(n: int) -> tuple[list[list[CycNumber]], list[list[CycNumber]]]:
    """
    The exact clock and shift matrices over Z[zeta_N].  The shift carries a
    corner entry of -1 for even N, which makes det(shift) = 1 for every N;
    the clock determinant is (-1)^(N-1) and cannot be repaired for even N by
    any scalar in the field.
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    zero, one = CycNumber.zero(n), CycNumber.one(n)
    clock = [[CycNumber.zeta(n, i) if i == j else zero for j in range(n)] for i in range(n)]
    eps = -one if n % 2 == 0 else one
    shift = [[zero for _ in range(n)] for _ in range(n)]
    for j in range(n - 1):
        shift[j + 1][j] = one
    shift[0][n - 1] = eps
    return clock, shift


def _det_at_zeta(a: list[list[CycNumber]]) -> CycNumber:
    # det commutes with the ring map Z[t] -> Z[zeta_N], t -> zeta_N, so the
    # determinant of integral lifts to Z[t], reduced at zeta_N, is exact.
    lift = [[LaurentPoly(0, x.num) for x in row] for row in a]
    return eval_at_zeta(det_exact(lift), a[0][0].n, 1)


def _sparse_rank(rows: list[dict[int, CycNumber]]) -> int:
    # Fraction-free Gaussian elimination over Z[zeta_N], keyed by smallest
    # column index; pivot rows are stored as they come.  A row whose leading
    # column holds f against a stored pivot p becomes p * row - f * pivot:
    # Z[zeta_N] is a domain, so scaling by p != 0 keeps the rank over
    # Q(zeta_N), and each reduction strictly raises the row's min column.
    pivots: dict[int, dict[int, CycNumber]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if not v.is_zero()}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            p, factor = pivot[col], row.pop(col)
            row = {c: p * v for c, v in row.items()}
            for c, v in pivot.items():
                if c == col:
                    continue
                acc = row.get(c)
                acc = -factor * v if acc is None else acc - factor * v
                if acc.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = acc
    return len(pivots)


def verify_t3_points(n: int) -> int:
    """
    Verify, exactly, that the clock-shift pair is an irreducible commuting
    pair up to the scalar zeta, and return the number N of central-twist
    flat points.  Checks performed:

    * clock * shift = zeta * (shift * clock), entrywise in Z[zeta_N];
    * det(shift) = 1, det(clock) = (-1)^(N-1), each taken as det_exact of
      the integral lifts to Z[t] and reduced at zeta_N by eval_at_zeta;
    * zeta^N = 1 by N products, so each twist zeta^k I has det (zeta^N)^k = 1;
    * the joint centralizer has dimension exactly 1: the fraction-free rank
      over Q(zeta_N) of its linear system is N^2 - 1.

    >>> verify_t3_points(3)
    3
    """
    clock, shift = clock_shift(n)
    zeta = CycNumber.zeta(n)
    one = CycNumber.one(n)

    def product_entry(a, b, i: int, j: int) -> CycNumber:
        # Entry (i, j) of a * b; zero products are skipped, as in mat_mul.
        acc = CycNumber.zero(n)
        for k in range(n):
            x, y = a[i][k], b[k][j]
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        return acc

    for i in range(n):
        for j in range(n):
            left = product_entry(clock, shift, i, j)
            right = product_entry(shift, clock, i, j)
            if left != zeta * right:
                raise VerificationFailed(f"commutator defect at entry ({i}, {j})")

    if _det_at_zeta(shift) != one:
        raise VerificationFailed("shift determinant is not 1")
    expected = one if n % 2 == 1 else -one
    if _det_at_zeta(clock) != expected:
        raise VerificationFailed("clock determinant is not (-1)^(N-1)")

    power = one
    for _ in range(n):
        power = power * zeta
    if power != one:
        raise VerificationFailed("zeta^N != 1: the central twists have determinant != 1")

    def idx(i: int, j: int) -> int:
        return i * n + j

    rows: list[dict[int, CycNumber]] = []
    for i in range(n):
        for j in range(n):
            if i != j:
                rows.append({idx(i, j): CycNumber.zeta(n, j) - CycNumber.zeta(n, i)})
    eps = -one if n % 2 == 0 else one
    for i in range(n):
        for j in range(n):
            coef_a = eps if j == n - 1 else one
            coef_b = eps if i == 0 else one
            row: dict[int, CycNumber] = {}
            row[idx(i, (j + 1) % n)] = coef_a
            key = idx((i - 1) % n, j)
            row[key] = row.get(key, CycNumber.zero(n)) - coef_b
            rows.append(row)
    rank = _sparse_rank(rows)
    if rank != n * n - 1:
        raise VerificationFailed(f"centralizer rank {rank}, expected {n * n - 1}")

    return n


@dataclasses.dataclass(frozen=True)
class ChernSimonsLadder:
    """
    The action values of the flat points, with the step and loop increments
    of the (charge, dimension) ladder attached.  Behaves as a sequence.
    """

    values: tuple[Fraction, ...]
    d_step: int
    kappa_step: Fraction
    d_loop: int
    kappa_loop: Fraction

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)


def chern_simons_ladder(n: int) -> ChernSimonsLadder:
    """
    >>> list(chern_simons_ladder(3))
    [Fraction(0, 1), Fraction(2, 3), Fraction(1, 3)]
    >>> chern_simons_ladder(3).d_loop
    12
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    return ChernSimonsLadder(
        values=tuple(Fraction((n - k) % n, n) for k in range(n)),
        d_step=4,
        kappa_step=Fraction(1, n),
        d_loop=4 * n,
        kappa_loop=Fraction(1),
    )


def _torus_solutions(
    matrix: Sequence[Sequence[int]], n: int, cap: int
) -> list[TorusElement]:
    # All h in (Q/Z)^cols with matrix * h integral, via the Smith normal
    # form: with u a v = d, the solutions are v (c_1/d_1, ..., c_c/d_c) mod 1.
    # Every d_k divides the last factor D, so h = H / D with the integer
    # vector H = v (c_1 D/d_1, ..., c_c D/d_c) mod D, and "matrix * h is
    # integral" is exactly matrix * H = 0 mod D: the enumeration and the
    # re-verification of each point against the original matrix run over
    # the integers.  Fractions are built only for the returned coordinates.
    rows = [list(map(int, r)) for r in matrix]
    form = smith_normal_form(rows)
    if form.rank < form.cols:
        raise Degenerate(
            f"solution torus has dimension {form.cols - form.rank} > 0"
        )
    ds = list(form.invariant_factors[: form.cols])
    count = math.prod(ds)
    if count > cap:
        raise CapExceeded(f"{count} solutions exceed the cap {cap}")
    top = ds[-1] if ds else 1
    # Only the factors d_k > 1 have a nonzero c_k; w[i] holds the entries
    # v[i][k] D/d_k mod D of row i over those k.
    active = [k for k, d in enumerate(ds) if d > 1]
    w = [[form.v[i][k] * (top // ds[k]) % top for k in active] for i in range(form.cols)]
    out: list[TorusElement] = []
    for combo in itertools.product(*(range(ds[k]) for k in active)):
        h = [sum(map(operator.mul, combo, wi)) % top for wi in w]
        for row in rows:
            if sum(map(operator.mul, row, h)) % top:
                raise VerificationFailed("reconstructed solution is not integral")
        out.append(TorusElement(n, tuple(Fraction(x, top) for x in h)))
    return out


def kernel_torus_solutions(
    delta: LaurentPoly, n: int, cap: int = 100_000
) -> list[TorusElement]:
    """
    The torus points killed by the Alexander polynomial of the surgery knot:
    all h in (Q/Z)^(N-1) with delta(tau) h integral for tau the companion
    matrix of 1 + t + ... + t^(N-1).  Their number matches the magnitude of
    the root-of-unity product whenever the latter is nonzero.

    >>> [t.coords for t in kernel_torus_solutions(LaurentPoly(-1, (1, -1, 1)), 2)]
    [(Fraction(0, 1),), (Fraction(1, 3),), (Fraction(2, 3),)]
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    return _torus_solutions(poly_at_matrix(delta, n), n, cap)


def wirtinger_torus_matrix(pres: WirtingerPresentation, n: int) -> list[list[int]]:
    """
    The integer linearization of the Wirtinger relations on the torus
    (Q/Z)^(N-1) per meridian, with the companion matrix as the twisting and
    the base meridian pinned to zero.  Rows: one (N-1)-block per relation;
    columns: one block per non-base generator.
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    size = n - 1
    tau = companion_tau(n)
    # tau^-1 is multiplication by t^-1: t^k -> t^(k-1) and
    # 1 -> t^(n-1) = -(1 + t + ... + t^(n-2)), which is tau with its rows
    # and columns both reversed.
    tau_inv = [row[::-1] for row in tau[::-1]]
    gens = [g for g in range(pres.n_generators) if g != pres.base_meridian]
    col_of = {g: i * size for i, g in enumerate(gens)}
    cols = size * len(gens)
    out: list[list[int]] = []
    for k, i, j, s in pres.relations:
        block = [[0] * cols for _ in range(size)]
        tw = tau if s > 0 else tau_inv

        def add(gen: int, coef: list[list[int]] | None, scale: int) -> None:
            # coef None means the identity block
            if gen == pres.base_meridian:
                return
            base_col = col_of[gen]
            for a in range(size):
                if coef is None:
                    block[a][base_col + a] += scale
                else:
                    for b in range(size):
                        block[a][base_col + b] += scale * coef[a][b]

        add(k, None, 1)
        add(i, tw, -1)
        add(j, None, -1)
        add(j, tw, 1)
        out.extend(block)
    return out


def wirtinger_torus_count(pres: WirtingerPresentation, n: int) -> int:
    """
    The number of torus-valued solutions of the pinned Wirtinger system;
    calibrated so the trefoil at N = 2 counts 3.

    >>> from .knots import BraidWord, braid_closure_wirtinger
    >>> wirtinger_torus_count(braid_closure_wirtinger(BraidWord(2, (1, 1, 1))), 2)
    3
    """
    matrix = wirtinger_torus_matrix(pres, n)
    cols = (pres.n_generators - 1) * (n - 1)
    if cols == 0:
        return 1
    form = smith_normal_form(matrix)
    if form.rank < cols:
        raise Degenerate(f"solution torus has dimension {cols - form.rank} > 0")
    return math.prod(form.invariant_factors[:cols])
