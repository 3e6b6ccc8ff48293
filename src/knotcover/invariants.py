"""
Bundle bookkeeping and the exact relative invariants of knot-surgered
4-manifolds.

The numeric heart is q_relative: the product of the Alexander polynomial over
the nontrivial N-th roots of unity, computed three ways on every call (a
resultant, an integer determinant at a companion matrix, and a floating-point
product) with any disagreement raised as an error.  For odd N the product is
a nonnegative integer with a well-defined sign; for even N only the magnitude
is reported.

The first homology of the N-fold cyclic branched cover, whose order gives
the magnitude a second, structural meaning, comes from the Seifert matrix
of the braid (cover_homology): a Smith normal form of size 2g, whatever N
is.  The cokernel of delta(tau) at the same companion matrix
(branched_cover_homology) has the same order, but it is the cover's
homology only when the Alexander module is cyclic, as it is for every
2-bridge and torus knot; for 8_18 at N = 2 it gives Z/45 where the cover
has Z/3 + Z/15.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from fractions import Fraction
from typing import Sequence

from .errors import CrossCheckMismatch, InternalError
from .exact_linalg import (
    AbelianGroup,
    BadRank,
    cokernel,
    det_exact,
    mat_mul,
    mat_pow,
    poly_at_matrix,
    resultant,
    smith_normal_form,
)
from .knots import BraidWord, seifert_matrix
from .laurent_poly import LaurentPoly

FLOAT_REL_TOL = 1e-6


class NonIntegralDimension(ValueError):
    """The dimension formula needs 4*N*kappa to be an integer."""


class ParityViolation(ValueError):
    """A sign formula received characteristic data of impossible parity."""


class DegenerateProduct(ArithmeticError):
    """Surgery product formula invoked where the root-of-unity product is 0."""


@dataclasses.dataclass(frozen=True)
class ManifoldTopology:
    """The 4-manifold data the dimension and sign formulas consume."""

    b2_plus: int
    b1: int
    euler: int | None = None
    signature: int | None = None
    name: str = ""


@dataclasses.dataclass(frozen=True)
class BundleData:
    """
    An SU(N)-bundle datum: rank, the pairings of the obstruction class with a
    surface basis, and the instanton and obstruction self-intersection
    numbers.
    """

    n: int
    c1_pairings: tuple[int, ...] = ()
    c2: int = 0
    c1_sq: int = 0


@dataclasses.dataclass(frozen=True)
class RelativeInvariant:
    """Value of the root-of-unity product; for even n only the magnitude."""

    value: int
    sign_determined: bool
    degenerate: bool
    n: int


def kappa(n: int, c2: int, c1_sq: int) -> Fraction:
    """
    The instanton charge c2 - (N-1)/(2N) * c1^2.

    >>> kappa(2, 0, -1)
    Fraction(1, 4)
    >>> kappa(4, 4 * 15, 2 * 25 * 3)
    Fraction(15, 4)
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    return Fraction(c2) - Fraction(n - 1, 2 * n) * c1_sq


def formal_dimension(n: int, kap: Fraction | int, topology: ManifoldTopology) -> int:
    """
    Expected moduli dimension 4*N*kappa - (N^2-1)*(b2+ - b1 + 1).  The first
    term must be an integer; charges violating that are rejected.
    """
    lead = 4 * n * Fraction(kap)
    if lead.denominator != 1:
        raise NonIntegralDimension(f"4*{n}*kappa = {lead} is not an integer")
    return int(lead) - (n * n - 1) * (topology.b2_plus - topology.b1 + 1)


def dimension_zero_kappa(n: int, topology: ManifoldTopology, c1_sq: int) -> Fraction | None:
    """
    The charge at which the dimension vanishes, provided an integral c2
    realizes it over the given c1 self-intersection; None when no such
    bundle exists.

    >>> dimension_zero_kappa(3, ManifoldTopology(3, 0), 0) is None
    True
    """
    h = topology.b2_plus - topology.b1 + 1
    if ((n * n - 1) * h + 2 * (n - 1) * c1_sq) % (4 * n) != 0:
        return None
    return Fraction((n * n - 1) * h, 4 * n)


def is_coprime(c1_pairings: Sequence[int], n: int) -> bool:
    """
    Whether the obstruction pairings generate the units mod N.

    >>> is_coprime((3, 5), 15)
    True
    >>> is_coprime((2, 4), 2)
    False
    """
    g = 0
    for p in c1_pairings:
        g = math.gcd(g, p)
    return math.gcd(g, n) == 1


def q_relative(delta: LaurentPoly, n: int) -> RelativeInvariant:
    """
    The product of delta over the nontrivial n-th roots of unity, as an exact
    integer, cross-checked three ways:

    * a big-integer resultant against 1 + t + ... + t^(n-1), with the unit
      correction (-1)^(min_deg * (n-1)),
    * the determinant of delta evaluated at the companion matrix of
      1 + t + ... + t^(n-1), and
    * a floating-point product over the actual roots, compared in log space
      at relative tolerance 1e-6.

    >>> q_relative(LaurentPoly(-1, (1, -1, 1)), 2).value
    3
    >>> q_relative(LaurentPoly(-1, (-1, 3, -1)), 3).value
    16
    >>> q_relative(LaurentPoly(-1, (1, -1, 1)), 6).degenerate
    True
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    if delta.is_zero():
        raise ValueError("the zero polynomial has no root-of-unity product")

    signed = resultant(LaurentPoly(0, delta.coeffs), LaurentPoly.all_ones(n))
    if (delta.min_deg * (n - 1)) % 2 != 0:
        signed = -signed

    via_det = det_exact(poly_at_matrix(delta, n))
    if via_det != signed:
        raise CrossCheckMismatch(
            f"companion determinant {via_det} != resultant route {signed} at n={n}"
        )

    log_sum = 0.0
    for k in range(1, n):
        mag = abs(delta.eval_complex(cmath.exp(2j * cmath.pi * k / n)))
        log_sum += math.log(mag) if mag > 0 else float("-inf")
    coeff_sum = sum(abs(c) for c in delta.coeffs)
    if signed == 0:
        ceiling = (n - 1) * math.log(coeff_sum) + math.log(FLOAT_REL_TOL)
        if log_sum > ceiling:
            raise CrossCheckMismatch(
                f"exact product is 0 but float product has log {log_sum:.3g} at n={n}"
            )
    else:
        log_exact = math.log(abs(signed))
        if abs(log_sum - log_exact) > FLOAT_REL_TOL:
            raise CrossCheckMismatch(
                f"float log-product {log_sum!r} != exact {log_exact!r} at n={n}"
            )

    if n % 2 == 1:
        if signed < 0:
            raise InternalError("odd-n root product must pair conjugates to >= 0")
        return RelativeInvariant(
            value=signed, sign_determined=True, degenerate=signed == 0, n=n
        )
    return RelativeInvariant(
        value=abs(signed), sign_determined=False, degenerate=signed == 0, n=n
    )


def branched_cover_homology(delta: LaurentPoly, n: int) -> AbelianGroup:
    """
    The cokernel of delta evaluated at the companion matrix of
    1 + t + ... + t^(n-1).  Its order (None when infinite) equals the
    magnitude of q_relative.  It is the first homology of the n-fold cyclic
    branched cover only when the Alexander module is cyclic, as for every
    2-bridge and torus knot; otherwise only the order and the free rank's
    vanishing agree with it.  For 8_18 (the closure of (1 -2)^4) at n = 2
    it is Z/45, where the cover has Z/3 + Z/15; cover_homology gives the
    cover's group for every knot.

    >>> branched_cover_homology(LaurentPoly(-1, (-1, 3, -1)), 3).to_text()
    'Z/4 + Z/4'
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    return cokernel(poly_at_matrix(delta, n))


def cover_homology(braid: BraidWord, n: int) -> AbelianGroup:
    """
    First homology of the n-fold cyclic branched cover of the braid's
    closure, coker(G^n - (G - I)^n) with G = (V^T - V)^-1 V^T for the
    Seifert matrix V (knots.seifert_matrix; Rolfsen, Knots and Links,
    ch. 8).  Every matrix is 2g x 2g, whatever n is.  V^T - V is
    unimodular for a knot, which its Smith normal form checks: with
    u (V^T - V) v = I, the inverse is v u.  A braid with one crossing fewer
    than strands closes to the unknot, with 2g = 0 and the trivial group.

    >>> cover_homology(BraidWord(3, (1, -2, 1, -2, 1, -2, 1, -2)), 2).to_text()
    'Z/3 + Z/15'
    >>> cover_homology(BraidWord(2, (1, 1, 1)), 6).to_text()
    'Z^2'
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    v = seifert_matrix(braid)
    if not v:
        return AbelianGroup(invariant_factors=(), free_rank=0)
    vt = [list(col) for col in zip(*v)]
    form = smith_normal_form([[x - y for x, y in zip(r, s)] for r, s in zip(vt, v)])
    if any(d != 1 for d in form.invariant_factors):
        raise InternalError(f"V^T - V has invariant factors {form.invariant_factors}, not all 1")
    gamma = mat_mul(mat_mul(form.v, form.u), vt)
    shifted = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(gamma)]
    return cokernel(
        [
            [x - y for x, y in zip(r, s)]
            for r, s in zip(mat_pow(gamma, n), mat_pow(shifted, n))
        ]
    )


def cyclic_product_magnitude(delta: LaurentPoly, n: int) -> int:
    """
    |q_relative| by one exact integer determinant of a power: with
    delta = t^s * P, P of degree d and leading coefficient a, the magnitude is
    |det(D^n - a^n I)| / (|a|^(n(d-1)) * |P(1)|) for D the integer rescaling
    a*C of the companion matrix C of P.  D^n comes from one repeated-squaring
    mat_pow; to walk a ladder of n, call cyclic_product_magnitudes, which
    carries the power from rung to rung.  Cross-checked against q_relative on
    small n in the tests.

    >>> cyclic_product_magnitude(LaurentPoly(-1, (-1, 3, -1)), 3)
    16
    """
    return cyclic_product_magnitudes(delta, [n])[0]


def cyclic_product_magnitudes(delta: LaurentPoly, ns: Sequence[int]) -> list[int]:
    """
    cyclic_product_magnitude at every n of ns, in the order given, repeats
    included.  Every n is checked (n < 2 raises BadRank) before any matrix
    work.  The smallest n is reached by one mat_pow; from there D^n is
    carried up the sorted distinct values by companion steps.  D = a*C has
    a on its subdiagonal and -c_i in its last column, so D*M is one O(d^2)
    step with no matrix product: row 0 is -c_0 times the last row of M, and
    row i is a times row i-1 minus c_i times the last row.  Each rung then
    costs one O(d^3) det_exact plus O(gap * d^2) for the steps from the rung
    below, and keeps the exact divisibility check.

    >>> cyclic_product_magnitudes(LaurentPoly(-1, (-1, 3, -1)), [5, 3, 5])
    [121, 16, 121]
    """
    ns = list(ns)
    for n in ns:
        if n < 2:
            raise BadRank(f"need n >= 2, got {n}")
    if not ns:
        return []
    if delta.is_zero():
        raise ValueError("the zero polynomial has no root-of-unity product")
    coeffs = delta.coeffs
    p_at_1 = sum(coeffs)
    if p_at_1 == 0:
        raise ValueError("polynomial vanishes at t=1; the closed product formula breaks")
    deg = len(coeffs) - 1
    a = coeffs[-1]
    if deg == 0:
        return [abs(a) ** (n - 1) for n in ns]
    rungs = sorted(set(ns))
    d_mat = [[0] * deg for _ in range(deg)]
    for i in range(1, deg):
        d_mat[i][i - 1] = a
    for i in range(deg):
        d_mat[i][deg - 1] -= coeffs[i]
    at = rungs[0]
    power = mat_pow(d_mat, at)
    mags = {}
    for n in rungs:
        for _ in range(n - at):
            last = power[-1]
            power = [[-coeffs[0] * y for y in last]] + [
                [a * x - c * y for x, y in zip(row, last)]
                for row, c in zip(power, coeffs[1:-1])
            ]
        at = n
        shifted = [row[:] for row in power]
        a_n = a**n
        for i in range(deg):
            shifted[i][i] -= a_n
        det = det_exact(shifted)
        denom = abs(a) ** (n * (deg - 1)) * abs(p_at_1)
        mag, rem = divmod(abs(det), denom)
        if rem != 0:
            raise InternalError("companion power determinant not divisible by its unit content")
        mags[n] = mag
    return [mags[n] for n in ns]


def q_fintushel_stern(q_x: int, delta: LaurentPoly, n: int) -> int:
    """
    The surgered-manifold invariant: the base value times the root-of-unity
    product of the surgery knot.  For odd n the product carries its true
    (positive) sign; for even n the sign is an open question and the
    magnitude is used, with the flag available through q_relative.

    >>> q_fintushel_stern(1, LaurentPoly(0, (1,)), 7)
    1
    >>> q_fintushel_stern(0, LaurentPoly(-1, (1, -1, 1)), 2)
    0
    """
    if q_x == 0:
        return 0
    rel = q_relative(delta, n)
    if rel.degenerate:
        raise DegenerateProduct(f"root-of-unity product vanishes at n={n}")
    return q_x * rel.value


K3_TOPOLOGY = ManifoldTopology(b2_plus=3, b1=0, euler=24, signature=-16, name="K3")


def k3_invariant() -> int:
    """The bare K3 relative invariant: the constant 1."""
    return 1


def k3_bundle_data(n: int) -> BundleData:
    """
    The standard K3 charge with vanishing moduli dimension: c1 = (N+1)h on a
    class h with h^2 = 2(N-1), so c2 = N(N^2-1), c1^2 = 2(N+1)^2(N-1), and
    the pairing with a dual class of h is N+1.

    >>> kappa(4, k3_bundle_data(4).c2, k3_bundle_data(4).c1_sq)
    Fraction(15, 4)
    >>> formal_dimension(4, Fraction(15, 4), K3_TOPOLOGY)
    0
    """
    if n < 2:
        raise BadRank(f"need n >= 2, got {n}")
    return BundleData(
        n=n,
        c1_pairings=(n + 1,),
        c2=n * (n * n - 1),
        c1_sq=2 * (n + 1) ** 2 * (n - 1),
    )


def sign_complex_compare(n: int, w_sq: int, k_dot_w: int) -> int:
    """
    Orientation sign between the two complex structures: +1 for odd n, else
    (-1)^((w.w + K.w)/2); the exponent must be even to halve.
    """
    if n % 2 == 1:
        return 1
    total = w_sq + k_dot_w
    if total % 2 != 0:
        raise ParityViolation(f"w.w + K.w = {total} is odd")
    return -1 if (total // 2) % 2 else 1


def sign_lift_compare(n: int, v_sq: int) -> int:
    """Sign relating two integer lifts: only n = 2 mod 4 can flip it."""
    if n % 4 == 2:
        return -1 if v_sq % 2 else 1
    return 1


def sign_dual_compare(n: int, w_sq: int) -> int:
    """Sign between a bundle and its dual: +1 for odd n, else (-1)^(w.w)."""
    if n % 2 == 1:
        return 1
    return -1 if w_sq % 2 else 1


def sign_conjugate_bundle(n: int, b2_plus: int, b1: int) -> int:
    """
    Sign between the w and -w invariants: +1 for odd n, else
    (-1)^((b2+ - b1 + 1)/2), defined only when b2+ - b1 is odd.

    >>> sign_conjugate_bundle(2, 3, 0)
    1
    >>> sign_conjugate_bundle(2, 1, 0)
    -1
    """
    if n % 2 == 1:
        return 1
    h = b2_plus - b1 + 1
    if h % 2 != 0:
        raise ParityViolation(f"b2+ - b1 + 1 = {h} is odd; the half-power sign is undefined")
    return -1 if (h // 2) % 2 else 1
