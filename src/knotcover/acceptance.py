"""
The acceptance harness: eleven cross-module checks, each one an identity the
package can compute by at least two independent routes, or a closed form it
must reproduce exactly.  Every check returns a one-line summary on success
and raises VerificationFailed with the specific inequality on failure; the
CLI selftest and the test suite both run them through run_criteria.
"""
from __future__ import annotations

import dataclasses
import math
import random
import time
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import invariants, knots, mahler, rep_variety, series
from .errors import VerificationFailed
from .exact_linalg import AbelianGroup, cokernel, det_exact, mat_mul, smith_normal_form
from .laurent_poly import LaurentPoly

UNKNOT_DELTA = LaurentPoly(0, (1,))
TREFOIL_DELTA = LaurentPoly(-1, (1, -1, 1))
FIG8_DELTA = LaurentPoly(-1, (-1, 3, -1))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationFailed(message)


def _corpus() -> list[tuple[str, knots.BraidWord]]:
    table = knots.KnotTable.default()
    return [(name, table.get(name)) for name in sorted(table.names())]


def _budget(start: float, limit: float) -> float:
    elapsed = time.perf_counter() - start
    _require(elapsed < limit, f"runtime {elapsed:.1f}s over the {limit:.0f}s budget")
    return elapsed


def criterion_alexander_cross_method() -> str:
    """Burau, Fox and Seifert routes agree on the corpus; delta(1) = 1, symmetric."""
    start = time.perf_counter()
    count = 0
    for name, braid in _corpus():
        via_burau = knots.alexander_burau(braid)
        via_fox = knots.alexander_fox(knots.braid_closure_wirtinger(braid))
        via_seifert = knots.alexander_seifert(braid)
        _require(via_burau == via_fox, f"Burau and Fox routes disagree on {name}")
        _require(via_burau == via_seifert, f"Burau and Seifert routes disagree on {name}")
        _require(via_burau.eval_rational(Fraction(1)) == 1, f"delta(1) != 1 for {name}")
        _require(via_burau.involute() == via_burau, f"delta not symmetric for {name}")
        count += 1
    elapsed = _budget(start, 1.0)
    return f"{count} knots, all three routes equal, in {elapsed:.2f}s"


def _wirtinger_group(pres: knots.WirtingerPresentation, n: int) -> AbelianGroup:
    # The pinned Wirtinger system presents H_1 of the n-fold branched cover:
    # its columns are the generators and its rows the relations.
    matrix = rep_variety.wirtinger_torus_matrix(pres, n)
    return cokernel([list(col) for col in zip(*matrix)])


def criterion_three_route_agreement() -> str:
    """Resultant, determinant, and float routes agree for 2 <= N <= 30, and
    both cover-homology routes have order |q|; for N <= 8 the Seifert group
    equals the group the Wirtinger presentation gives."""
    start = time.perf_counter()
    spot = {("3_1", 2): 3, ("4_1", 2): 5, ("4_1", 3): 16}
    checked = 0
    for name, braid in _corpus():
        delta = knots.alexander_checked(braid)
        pres = knots.braid_closure_wirtinger(braid)
        for n in range(2, 31):
            rel = invariants.q_relative(delta, n)
            if rel.degenerate:
                _require(rel.value == 0, f"degenerate {name} N={n} with value {rel.value}")
            seifert = invariants.cover_homology(braid, n)
            for route, group in (
                ("companion", invariants.branched_cover_homology(delta, n)),
                ("Seifert", seifert),
            ):
                if rel.degenerate:
                    _require(
                        group.free_rank >= 1,
                        f"degenerate {name} N={n} has finite {route} homology",
                    )
                else:
                    _require(
                        group.free_rank == 0 and group.order() == rel.value,
                        f"{route} homology order != product magnitude for {name} N={n}",
                    )
            if n <= 8:
                _require(
                    seifert == _wirtinger_group(pres, n),
                    f"Seifert and Wirtinger cover homology differ for {name} N={n}",
                )
            want = spot.get((name, n))
            if want is not None:
                _require(rel.value == want, f"{name} N={n}: value {rel.value}, expected {want}")
            checked += 1
    elapsed = _budget(start, 30.0)
    return f"{checked} (knot, N) pairs, all routes agree, in {elapsed:.1f}s"


def criterion_degenerate_trefoil() -> str:
    """Trefoil products vanish at N in {6, 12, 18} with infinite homology."""
    trefoil = knots.KnotTable.default().get("3_1")
    for n in (6, 12, 18):
        rel = invariants.q_relative(TREFOIL_DELTA, n)
        _require(rel.degenerate and rel.value == 0, f"trefoil N={n} not degenerate")
        group = invariants.branched_cover_homology(TREFOIL_DELTA, n)
        _require(group.free_rank >= 1, f"trefoil N={n} cover homology is finite")
        group = invariants.cover_homology(trefoil, n)
        _require(group.free_rank >= 1, f"trefoil N={n} Seifert cover homology is finite")
    return "value 0 and free rank >= 1 by both homology routes at N = 6, 12, 18"


def criterion_k3_bookkeeping() -> str:
    """Charge and dimension bookkeeping on K3 and on the blow-up bundle."""
    _require(invariants.k3_invariant() == 1, "base K3 invariant is not 1")
    for n in range(2, 11):
        kap = invariants.kappa(n, n * (n * n - 1), 2 * (n + 1) ** 2 * (n - 1))
        _require(kap == Fraction(n * n - 1, n), f"K3 charge at N={n} is {kap}")
        _require(
            invariants.formal_dimension(n, kap, invariants.K3_TOPOLOGY) == 0,
            f"K3 moduli dimension at N={n} is nonzero",
        )
        bundle = invariants.k3_bundle_data(n)
        _require(
            invariants.kappa(n, bundle.c2, bundle.c1_sq) == kap,
            f"bundle data inconsistent at N={n}",
        )
        _require(
            invariants.is_coprime(bundle.c1_pairings, n),
            f"K3 obstruction class not coprime at N={n}",
        )
        kap_q = invariants.kappa(n, 0, -1)
        _require(kap_q == Fraction(n - 1, 2 * n), f"blow-up charge at N={n} is {kap_q}")
        framed = invariants.formal_dimension(
            n, kap_q, invariants.ManifoldTopology(b2_plus=0, b1=0)
        ) + (n * n - 1)
        _require(framed == 2 * (n - 1), f"framed blow-up dimension at N={n} is {framed}")
    return "charges, dimensions, and coprimality exact for 2 <= N <= 10"


def criterion_t3_points() -> str:
    """Exact clock-shift verification and the action ladder for 2 <= N <= 12."""
    start = time.perf_counter()
    for n in range(2, 13):
        _require(rep_variety.verify_t3_points(n) == n, f"flat point count != {n}")
        ladder = rep_variety.chern_simons_ladder(n)
        want = [Fraction((n - k) % n, n) for k in range(n)]
        _require(list(ladder) == want, f"action values at N={n} are {list(ladder)}")
        _require(
            (ladder.d_step, ladder.kappa_step) == (4, Fraction(1, n)),
            f"step constants at N={n}",
        )
        _require(
            (ladder.d_loop, ladder.kappa_loop) == (4 * n, Fraction(1)),
            f"loop constants at N={n}",
        )
    elapsed = _budget(start, 60.0)
    return f"clock-shift pairs verified through N = 12 in {elapsed:.1f}s"


def _raises_degenerate(fn: Callable[[], object]) -> bool:
    try:
        fn()
    except rep_variety.Degenerate:
        return True
    return False


def criterion_counting_identity() -> str:
    """Kernel count = Wirtinger count = product magnitude on three knots."""
    start = time.perf_counter()
    table = knots.KnotTable.default()
    checked = 0
    for name in ("3_1", "4_1", "5_2"):
        braid = table.get(name)
        delta = knots.alexander_checked(braid)
        pres = knots.braid_closure_wirtinger(braid)
        for n in range(2, 8):
            rel = invariants.q_relative(delta, n)
            if rel.degenerate:
                _require(
                    _raises_degenerate(lambda: rep_variety.kernel_torus_solutions(delta, n)),
                    f"kernel finite but product vanishes for {name} N={n}",
                )
                _require(
                    _raises_degenerate(lambda: rep_variety.wirtinger_torus_count(pres, n)),
                    f"Wirtinger count finite but product vanishes for {name} N={n}",
                )
            else:
                kernel = len(rep_variety.kernel_torus_solutions(delta, n))
                wirt = rep_variety.wirtinger_torus_count(pres, n)
                _require(
                    kernel == rel.value == wirt,
                    f"{name} N={n}: kernel {kernel}, product {rel.value}, Wirtinger {wirt}",
                )
            checked += 1
    elapsed = _budget(start, 120.0)
    return f"{checked} (knot, N) pairs counted three ways in {elapsed:.1f}s"


def criterion_surgery_product() -> str:
    """The product formula for odd N, and the unknot as identity at every N."""
    for n in range(2, 13):
        _require(
            invariants.q_fintushel_stern(1, UNKNOT_DELTA, n) == 1,
            f"unknot surgery changes the invariant at N={n}",
        )
    for name, braid in _corpus():
        delta = knots.alexander_checked(braid)
        for n in (3, 5, 7, 9):
            rel = invariants.q_relative(delta, n)
            _require(not rel.degenerate, f"unexpected degenerate odd product {name} N={n}")
            value = invariants.q_fintushel_stern(1, delta, n)
            _require(value == rel.value, f"product formula mismatch for {name} N={n}")
            _require(value > 0, f"odd-N product not positive for {name} N={n}")
    return "unknot fixed point and positive odd-N products verified"


def criterion_orientation_signs() -> str:
    """+1 at odd N; even-N values recomputed from the closed-form exponents."""
    rng = random.Random(1008)
    for _ in range(100):
        n_odd = 2 * rng.randint(1, 10) + 1
        w, kw, v = (rng.randint(-20, 20) for _ in range(3))
        _require(invariants.sign_complex_compare(n_odd, w, kw) == 1, "odd complex sign != +1")
        _require(invariants.sign_lift_compare(n_odd, v) == 1, "odd lift sign != +1")
        _require(invariants.sign_dual_compare(n_odd, w) == 1, "odd dual sign != +1")
        _require(
            invariants.sign_conjugate_bundle(n_odd, rng.randint(0, 9), rng.randint(0, 9)) == 1,
            "odd conjugate sign != +1",
        )

        n_even = 2 * rng.randint(1, 10)
        w = rng.randint(-20, 20)
        kw = rng.randint(-20, 20)
        if (w + kw) % 2:
            kw += 1
        _require(
            invariants.sign_complex_compare(n_even, w, kw) == (-1) ** ((w + kw) // 2 % 2),
            f"complex sign exponent at N={n_even}, w.w={w}, K.w={kw}",
        )
        v = rng.randint(-20, 20)
        lift_want = (-1) ** (v % 2) if n_even % 4 == 2 else 1
        _require(
            invariants.sign_lift_compare(n_even, v) == lift_want,
            f"lift sign exponent at N={n_even}, v.v={v}",
        )
        _require(
            invariants.sign_dual_compare(n_even, w) == (-1) ** (w % 2),
            f"dual sign exponent at N={n_even}, w.w={w}",
        )
        b1 = rng.randint(0, 9)
        b2p = b1 + 1 + 2 * rng.randint(0, 4)
        h = b2p - b1 + 1
        _require(
            invariants.sign_conjugate_bundle(n_even, b2p, b1) == (-1) ** (h // 2 % 2),
            f"conjugate sign exponent at N={n_even}, b2+={b2p}, b1={b1}",
        )
    return "100 random tuples match the closed forms; odd N all +1"


def criterion_series() -> str:
    """Gaussian unknot series, exp group law, and coefficient extraction."""
    for q_h in (0, 1, 2, -3):
        got = series.donaldson_series_xk(UNKNOT_DELTA, q_h, 5, 20)
        want = series.PowerSeries.exponential(Fraction(q_h, 2), 2, 20)
        _require(got == want, f"unknot series differs from the Gaussian at Q(h)={q_h}")

    rng = random.Random(1009)
    for _ in range(50):
        order = rng.randint(2, 8)
        a = series.PowerSeries(
            order,
            [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)],
        )
        b = series.PowerSeries(
            order,
            [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)],
        )
        _require(
            series.ps_exp(a) * series.ps_exp(b) == series.ps_exp(a + b),
            "exp group law violated",
        )

    # 3 - 2 cosh(2s), expanded by hand; the s^j coefficient is read at d = 2j.
    fig8 = series.donaldson_series_xk(FIG8_DELTA, 0, 1, 8)
    hand = {
        0: Fraction(1),
        1: Fraction(0),
        2: Fraction(-4),
        3: Fraction(0),
        4: Fraction(-4, 3),
        6: Fraction(-8, 45),
    }
    for j, coeff in hand.items():
        _require(
            series.extract_qk(fig8, 2 * j) == coeff * math.factorial(j),
            f"extracted s^{j} value differs from the hand expansion",
        )
    qs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    packed = series.PowerSeries(7, [q / math.factorial(j) for j, q in enumerate(qs)])
    for j, q in enumerate(qs):
        _require(series.extract_qk(packed, 2 * j) == q, "extraction round-trip failed")
    return "Gaussian identity to order 20, 50 group-law checks, extraction exact"


def criterion_mahler() -> str:
    """Measure spot values by independent routes, and the asymptotic slope."""
    start = time.perf_counter()
    target = 2.6180339887
    by_roots = mahler.mahler_measure_roots(FIG8_DELTA)
    by_integral = mahler.mahler_measure_integral(FIG8_DELTA, 4096)
    _require(abs(by_roots - target) <= 1e-8, f"root-route measure {by_roots!r}")
    _require(abs(by_integral - target) <= 1e-8, f"integral-route measure {by_integral!r}")
    trefoil = mahler.mahler_measure_roots(TREFOIL_DELTA)
    _require(abs(trefoil - 1.0) <= 1e-8, f"trefoil measure {trefoil!r}")

    rows = mahler.asymptotic_table(FIG8_DELTA, list(range(3, 200, 2)))
    _require(all(not r.degenerate for r in rows), "unexpected degenerate rung")
    last = rows[-1]
    _require(last.n == 199 and last.gap is not None, "ladder did not reach N=199")
    _require(last.gap <= 1e-3, f"gap {last.gap!r} at N=199 above 1e-3")
    # The true gap drops below double precision near N = 37, so strict
    # monotonicity is checked by the equivalent exact integer inequality:
    # the slope log(q_n)/n sits below log(alpha) and increases, i.e.
    # q_{n+2}^n > q_n^{n+2}.
    q_at = {r.n: r.q for r in rows}
    for n in range(21, 198, 2):
        _require(
            q_at[n + 2] ** n > q_at[n] ** (n + 2),
            f"asymptotic gap not strictly decreasing from N={n} to N={n + 2}",
        )
    elapsed = _budget(start, 60.0)
    return f"both routes at 1e-8, slope gap below {max(last.gap, 1e-15):.0e} at N=199, in {elapsed:.1f}s"


def criterion_snf_properties() -> str:
    """U A V = D with unimodular U, V, divisibility, and |det| preserved."""
    rng = random.Random(1011)
    for trial in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        form = smith_normal_form(a)
        _require(
            mat_mul(mat_mul(form.u, a), form.v) == form.diagonal_matrix(),
            f"U A V != D on trial {trial}",
        )
        _require(det_exact(form.u) in (1, -1), f"U not unimodular on trial {trial}")
        _require(det_exact(form.v) in (1, -1), f"V not unimodular on trial {trial}")
        ds = form.invariant_factors
        _require(all(d >= 0 for d in ds), f"negative diagonal on trial {trial}")
        for x, y in zip(ds, ds[1:]):
            _require(y == 0 if x == 0 else y % x == 0, f"divisibility fails on trial {trial}")
        if r == c:
            _require(
                abs(det_exact(a)) == math.prod(ds),
                f"determinant not preserved on trial {trial}",
            )
    return "500 random matrices, all four properties exact"


CRITERIA: tuple[tuple[int, str, Callable[[], str]], ...] = (
    (1, "Alexander polynomial cross-method", criterion_alexander_cross_method),
    (2, "three-route invariant agreement, 2 <= N <= 30", criterion_three_route_agreement),
    (3, "degenerate trefoil products", criterion_degenerate_trefoil),
    (4, "K3 and blow-up bookkeeping", criterion_k3_bookkeeping),
    (5, "3-torus flat points and action ladder", criterion_t3_points),
    (6, "flat-count = product-magnitude identity", criterion_counting_identity),
    (7, "surgery product formula, odd N", criterion_surgery_product),
    (8, "orientation signs", criterion_orientation_signs),
    (9, "series expansions", criterion_series),
    (10, "Mahler measure and asymptotics", criterion_mahler),
    (11, "Smith normal form property suite", criterion_snf_properties),
)


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.number:2d}. {self.title}: {self.detail} [{self.seconds:.2f}s]"


def run_criteria(numbers: Iterable[int] | None = None) -> list[CriterionResult]:
    """
    Run the checks (all by default, or the chosen numbers) and collect one
    result per criterion; failures are captured, never raised.
    """
    wanted: Sequence[int] | None = None if numbers is None else sorted(set(numbers))
    out: list[CriterionResult] = []
    for number, title, fn in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        out.append(
            CriterionResult(
                number=number,
                title=title,
                passed=passed,
                detail=detail,
                seconds=time.perf_counter() - start,
            )
        )
    return out
