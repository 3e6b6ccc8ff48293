"""Root finding, the two Mahler routes, and the growth-rate ladder."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from knotcover import invariants
from knotcover.exact_linalg import BadRank
from knotcover.knots import KnotTable, alexander_checked
from knotcover.laurent_poly import LaurentPoly
from knotcover.mahler import (
    SingularSample,
    asymptotic_table,
    mahler_measure_integral,
    mahler_measure_roots,
    poly_roots,
)

UNKNOT = LaurentPoly.one()
TREFOIL = LaurentPoly(-1, (1, -1, 1))
FIG8 = LaurentPoly(-1, (-1, 3, -1))

GOLDEN_SQ = (3 + math.sqrt(5)) / 2  # the larger root of t^2 - 3t + 1

# Mahler measures of the bundled corpus; knots whose polynomial has no zero
# on the unit circle are exactly those where the sampling route is reliable.
MEASURE_ORACLE = {
    "unknot": (1.0, True),
    "3_1": (1.0, False),
    "4_1": (GOLDEN_SQ, True),
    "5_1": (1.0, False),
    "5_2": (2.0, False),
    "6_1": (4.0, True),
}


def corpus_delta(name):
    return alexander_checked(KnotTable.default().get(name))


def test_poly_roots_quadratics():
    rs = poly_roots(LaurentPoly(0, (-2, 1, 1)))
    assert sorted(round(r.real, 9) for r in rs.roots) == [-2.0, 1.0]
    assert rs.residual_bound <= 1e-13
    pure = poly_roots(LaurentPoly(0, (1, 0, 1)))
    assert sorted(round(r.imag, 9) for r in pure.roots) == [-1.0, 1.0]
    assert all(abs(r.real) < 1e-9 for r in pure.roots)


def test_poly_roots_origin_zeros():
    rs = poly_roots(LaurentPoly(0, (0, 0, -6, 1)))
    zeros = [r for r in rs.roots if r == 0]
    assert len(zeros) == 2
    nonzero = [r for r in rs.roots if r != 0]
    assert len(nonzero) == 1 and abs(nonzero[0] - 6) < 1e-9


def test_poly_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        poly_roots(LaurentPoly.zero())


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_poly_roots_reconstruct_polynomial(cs):
    p = LaurentPoly(0, cs)
    if p.is_zero() or p.max_deg() < 1:
        return
    rs = poly_roots(p)
    assert len(rs.roots) == p.max_deg()
    # residual evidence: |p| at every reported root is tiny relative to scale
    scale = max(abs(c) for c in p.coeffs)
    for r in rs.roots:
        assert abs(p.eval_complex(r)) <= 1e-6 * scale * max(1.0, abs(r)) ** p.max_deg()


@pytest.mark.parametrize("name", sorted(MEASURE_ORACLE))
def test_mahler_measure_roots_corpus(name):
    want, _ = MEASURE_ORACLE[name]
    assert mahler_measure_roots(corpus_delta(name)) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("name", sorted(MEASURE_ORACLE))
def test_mahler_measure_integral_corpus(name):
    want, off_circle = MEASURE_ORACLE[name]
    got = mahler_measure_integral(corpus_delta(name), 4096)
    if off_circle:
        # no zeros on the unit circle: the trapezoid mean converges fast
        assert got == pytest.approx(want, abs=1e-6)
    else:
        # a circle zero slows convergence to O(log/n); just sanity-bound it
        assert got == pytest.approx(want, abs=0.05)


def test_mahler_routes_cross_check_fig8():
    a = mahler_measure_roots(FIG8)
    b = mahler_measure_integral(FIG8, 4096)
    assert abs(a - b) < 1e-8
    assert a == pytest.approx(GOLDEN_SQ, abs=1e-12)


def test_measure_is_monomial_invariant():
    shifted = LaurentPoly(5, FIG8.coeffs)
    assert mahler_measure_roots(shifted) == pytest.approx(GOLDEN_SQ, abs=1e-9)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_measure_at_least_one_for_monic_like(cs):
    p = LaurentPoly(0, cs)
    if p.is_zero():
        return
    # M(p) >= |lead|, and >= 1 whenever some coefficient magnitude reaches 1
    m = mahler_measure_roots(p)
    assert m >= abs(p.coeffs[-1]) - 1e-9
    assert m >= 1.0 - 1e-9 or all(c == 0 for c in p.coeffs)


def test_singular_sample_refusal():
    # t^2 - t^-2 vanishes at 1, -1, i, -i: the points the one-sample grid
    # lands on at offsets 0, 1/2, and 1/4 of the full circle
    vanishing = LaurentPoly(-2, (-1, 0, 0, 0, 1))
    with pytest.raises(SingularSample):
        mahler_measure_integral(vanishing, 1)


def test_integral_route_input_validation():
    with pytest.raises(ValueError):
        mahler_measure_integral(LaurentPoly.zero(), 16)
    with pytest.raises(ValueError):
        mahler_measure_integral(FIG8, 0)


def test_asymptotic_table_unknot_is_flat():
    rows = asymptotic_table(UNKNOT, range(2, 12))
    assert all(r.q == 1 and r.rate == 0.0 and r.gap == 0.0 for r in rows)
    assert all(not r.degenerate for r in rows)


def test_asymptotic_table_trefoil_degenerate_rungs():
    rows = asymptotic_table(TREFOIL, range(2, 20))
    for row in rows:
        assert row.degenerate == (row.n % 6 == 0)
        if row.degenerate:
            assert row.q == 0 and row.rate is None and row.gap is None
        else:
            assert row.q > 0 and row.gap is not None


def test_asymptotic_table_fig8_matches_lucas_ladder():
    def lucas(n):
        a, b = 2, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    rows = asymptotic_table(FIG8, range(2, 16))
    for row in rows:
        want = lucas(row.n) ** 2 - (4 if row.n % 2 == 0 else 0)
        assert row.q == want
        assert row.log_alpha == pytest.approx(math.log(GOLDEN_SQ), abs=1e-12)


def test_asymptotic_gap_matches_closed_form():
    # for the figure-eight at odd n, q_n = alpha^n (1 - alpha^-n)^2 exactly,
    # so the gap is (2/n) |log(1 - alpha^-n)|
    rows = asymptotic_table(FIG8, range(3, 32, 2))
    for row in rows:
        want = 2.0 / row.n * abs(math.log(1.0 - GOLDEN_SQ ** -row.n))
        assert row.gap == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_asymptotic_gap_decays():
    rows = asymptotic_table(FIG8, [5, 11, 21, 41])
    gaps = [r.gap for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-16 * 41 or gaps[-1] < 1e-3


def test_asymptotic_table_keeps_the_callers_order():
    delta = corpus_delta("5_2")
    ns = [3, 5, 7, 9, 11]
    by_n = {row.n: row for row in asymptotic_table(delta, ns)}
    for order in (ns[::-1], [11, 3, 9, 9, 5, 3, 7, 11]):
        assert asymptotic_table(delta, order) == [by_n[n] for n in order]


def test_asymptotic_table_of_no_rungs_is_empty():
    assert asymptotic_table(FIG8, []) == []


@pytest.mark.parametrize("ns", ([3, 5, 1, 7], [1], [9, 3, 0]))
def test_asymptotic_table_checks_every_rank_before_any_rung(monkeypatch, ns):
    def refuse(*args):
        raise AssertionError("a rung was computed before every n was checked")

    monkeypatch.setattr(invariants, "mat_pow", refuse)
    monkeypatch.setattr(invariants, "det_exact", refuse)
    with pytest.raises(BadRank):
        asymptotic_table(FIG8, ns)
