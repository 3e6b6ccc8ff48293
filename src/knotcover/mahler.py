"""
Mahler measures and the growth rate of the root-of-unity products.

Two float routes to the Mahler measure cross-check each other: the root
product |a| * prod max(1, |root|) with roots from an Aberth-Ehrlich solver,
and the direct unit-circle sampling exp(mean log |p|).  The exact integer
ladder q_n from cyclic_product_magnitudes, which carries one companion power
up the whole ladder, then lets the asymptotic slope log(q_n)/n be compared
against log of the Mahler measure.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Sequence

from .invariants import cyclic_product_magnitudes
from .laurent_poly import LaurentPoly


class NonConvergence(ArithmeticError):
    """The root finder failed to reach the residual target."""


class SingularSample(ArithmeticError):
    """Every sampling offset landed on a (near-)zero of the polynomial."""


@dataclasses.dataclass(frozen=True)
class RootSet:
    """Roots of an integer polynomial with the solver's backward-error
    evidence: max over roots of |p(z)| / sum_j |c_j| |z|^j."""

    roots: tuple[complex, ...]
    residual_bound: float
    iterations: int


def poly_roots(p: LaurentPoly, tol: float = 1e-13, max_iter: int = 300) -> RootSet:
    """
    All complex roots by simultaneous Aberth-Ehrlich iteration, started on a
    circle enclosing every root.  A positive min_deg contributes that many
    roots at the origin; negative powers of t contribute none.  Convergence
    is judged by backward error: every iterate z must reach
    |p(z)| <= tol * sum_j |c_j| |z|^j, which makes z an exact root of a
    coefficient-wise tol-perturbation of p.  (A target that ignores |z| is
    unattainable when a root is large: the rounding error of evaluation
    itself grows like |z|^deg.)

    >>> rs = poly_roots(LaurentPoly(0, (-2, 1, 1)))
    >>> sorted(round(r.real, 6) for r in rs.roots)
    [-2.0, 1.0]
    """
    coeffs = [complex(c) for c in p.coeffs]
    zeros_at_origin = max(p.min_deg, 0)
    deg = len(coeffs) - 1
    if deg < 0:
        raise ValueError("the zero polynomial has no finite root set")
    if deg == 0:
        return RootSet(roots=(0j,) * zeros_at_origin, residual_bound=0.0, iterations=0)

    lead = coeffs[-1]
    radius = 1 + max(abs(c / lead) for c in coeffs[:-1])
    zs = [radius * cmath.exp(2j * cmath.pi * k / deg + 0.4j) for k in range(deg)]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    abs_coeffs = [abs(c) for c in coeffs]

    def horner(cs: list[complex], z: complex) -> complex:
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    def error_scale(z: complex) -> float:
        acc = 0.0
        r = abs(z)
        for c in reversed(abs_coeffs):
            acc = acc * r + c
        return acc

    for it in range(1, max_iter + 1):
        residual = 0.0
        moved = [0j] * deg
        for i, z in enumerate(zs):
            fz = horner(coeffs, z)
            residual = max(residual, abs(fz) / error_scale(z))
            if fz == 0:
                moved[i] = z
                continue
            dz = horner(dcoeffs, z)
            if dz == 0:
                moved[i] = z * (1 + 1e-8) + 1e-8
                continue
            ratio = fz / dz
            rep = sum(1 / ((z - zs[j]) or 1e-12) for j in range(deg) if j != i)
            denom = 1 - ratio * rep
            if denom == 0:
                moved[i] = z * (1 + 1e-8) + 1e-8
                continue
            moved[i] = z - ratio / denom
        zs = moved
        if residual <= tol:
            return RootSet(
                roots=tuple([0j] * zeros_at_origin + zs),
                residual_bound=residual,
                iterations=it,
            )
    raise NonConvergence(f"residual target not reached in {max_iter} iterations")


def mahler_measure_roots(delta: LaurentPoly) -> float:
    """
    |lead| * prod max(1, |root|); monomial units do not change it.

    >>> round(mahler_measure_roots(LaurentPoly(-1, (1, -1, 1))), 12)
    1.0
    >>> round(mahler_measure_roots(LaurentPoly(-1, (-1, 3, -1))), 9)
    2.618033989
    """
    if delta.is_zero():
        raise ValueError("the zero polynomial has no Mahler measure")
    out = float(abs(delta.coeffs[-1]))
    for root in poly_roots(delta).roots:
        out *= max(1.0, abs(root))
    return out


def mahler_measure_integral(delta: LaurentPoly, n_samples: int = 4096) -> float:
    """
    exp of the mean of log|delta| over n_samples equispaced points of the
    unit circle.  If a sample lands on a zero the grid is retried at offsets
    1/2 and then 1/4 of the spacing; if all three grids hit zeros the
    computation refuses rather than skewing the mean.

    >>> mahler_measure_integral(LaurentPoly(0, (1,)), 64)
    1.0
    """
    if delta.is_zero():
        raise ValueError("the zero polynomial has no Mahler measure")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    tiny = 1e-12 * sum(abs(c) for c in delta.coeffs)
    for offset in (0.0, 0.5, 0.25):
        total = 0.0
        for j in range(n_samples):
            z = cmath.exp(2j * cmath.pi * (j + offset) / n_samples)
            mag = abs(delta.eval_complex(z))
            if mag <= tiny:
                break
            total += math.log(mag)
        else:
            return math.exp(total / n_samples)
    raise SingularSample("all sample grids hit a zero of the polynomial")


@dataclasses.dataclass(frozen=True)
class AsymptoticRow:
    """One rung of the growth ladder: exact q_n and its normalized log."""

    n: int
    q: int
    rate: float | None
    log_alpha: float
    gap: float | None
    degenerate: bool


def asymptotic_table(delta: LaurentPoly, ns: Sequence[int]) -> list[AsymptoticRow]:
    """
    For each n, in the order given: the exact product magnitude q_n, the
    slope log(q_n)/n, and its distance from log of the root-route Mahler
    measure.  All q_n come from one cyclic_product_magnitudes walk, so an
    n < 2 anywhere in ns raises BadRank before any rung is computed.
    Degenerate rungs (q_n = 0) report None for both float columns.

    >>> rows = asymptotic_table(LaurentPoly(0, (1,)), [2, 3])
    >>> [(r.n, r.q, r.rate) for r in rows]
    [(2, 1, 0.0), (3, 1, 0.0)]
    """
    log_m = math.log(mahler_measure_roots(delta))
    ns = list(ns)
    qs = cyclic_product_magnitudes(delta, ns)
    out = []
    for n, q in zip(ns, qs):
        if q == 0:
            out.append(
                AsymptoticRow(n=n, q=0, rate=None, log_alpha=log_m, gap=None, degenerate=True)
            )
            continue
        rate = math.log(q) / n
        out.append(
            AsymptoticRow(
                n=n, q=q, rate=rate, log_alpha=log_m, gap=abs(rate - log_m), degenerate=False
            )
        )
    return out
