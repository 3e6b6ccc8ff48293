"""Flat-point verification, action ladders, and torus solution counts."""
import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from knotcover import rep_variety
from knotcover.errors import VerificationFailed
from knotcover.exact_linalg import (
    CycNumber,
    companion_tau,
    mat_pow,
    poly_at_matrix,
    smith_normal_form,
)
from knotcover.invariants import (
    branched_cover_homology,
    cover_homology,
    cyclic_product_magnitude,
    q_relative,
)
from knotcover.knots import BraidWord, KnotTable, alexander_checked, braid_closure_wirtinger
from knotcover.laurent_poly import LaurentPoly
from knotcover.rep_variety import (
    CapExceeded,
    Degenerate,
    TorusElement,
    chern_simons_ladder,
    clock_shift,
    kernel_torus_count,
    kernel_torus_solutions,
    verify_t3_points,
    wirtinger_torus_count,
    wirtinger_torus_matrix,
)
from test_knots import braid_words

TREFOIL = LaurentPoly(-1, (1, -1, 1))
FIG8 = LaurentPoly(-1, (-1, 3, -1))


def corpus_pres(name):
    return braid_closure_wirtinger(KnotTable.default().get(name))


def brute_force_kernel_points(delta, n):
    """Every h in (Q/Z)^(n-1) with delta(tau) h integral, by grid search
    over denominators dividing |det|; exponential, for small cases only."""
    matrix = poly_at_matrix(delta, n)
    d = abs(_det(matrix))
    assert d != 0, "grid oracle needs a nondegenerate matrix"
    cols = len(matrix[0])
    found = set()
    for combo in itertools.product(range(d), repeat=cols):
        h = tuple(Fraction(c, d) for c in combo)
        if all(
            sum((a * x for a, x in zip(row, h)), Fraction(0)).denominator == 1
            for row in matrix
        ):
            found.add(h)
    return found


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


@pytest.mark.parametrize("n", range(2, 17))
def test_verify_t3_points_counts_n(n):
    assert verify_t3_points(n) == n


def cyc_mat_mul(a, b):
    n = a[0][0].n
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), CycNumber.zero(n)) for j in range(len(b[0]))]
        for row in a
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_clock_shift_exact_relations(n):
    clock, shift = clock_shift(n)
    zeta = CycNumber.zeta(n)
    cs = cyc_mat_mul(clock, shift)
    sc = cyc_mat_mul(shift, clock)
    assert all(cs[i][j] == zeta * sc[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("n", (3, 5))
def test_verify_t3_points_rejects_wrong_determinants(monkeypatch, n):
    # For odd N, negating either matrix keeps the commutator relation and
    # flips the sign of its determinant.
    def negate(m):
        return [[-x for x in row] for row in m]

    clock, shift = clock_shift(n)
    monkeypatch.setattr(rep_variety, "clock_shift", lambda _: (clock, negate(shift)))
    with pytest.raises(VerificationFailed, match="shift determinant"):
        verify_t3_points(n)
    monkeypatch.setattr(rep_variety, "clock_shift", lambda _: (negate(clock), shift))
    with pytest.raises(VerificationFailed, match="clock determinant"):
        verify_t3_points(n)


@pytest.mark.parametrize("n", (3, 5, 6))
def test_verify_t3_points_rejects_a_wrong_clock(monkeypatch, n):
    # A clock with diagonal zeta^(2i) has a commutator zeta^2 with the shift.
    _, shift = clock_shift(n)
    zero = CycNumber.zero(n)
    clock = [[CycNumber.zeta(n, 2 * i) if i == j else zero for j in range(n)] for i in range(n)]
    monkeypatch.setattr(rep_variety, "clock_shift", lambda _: (clock, shift))
    with pytest.raises(VerificationFailed, match="commutator defect"):
        verify_t3_points(n)


def test_verify_t3_points_rejects_an_extra_shift_entry(monkeypatch):
    # One nonzero entry off the permutation: both products must still be
    # compared at every entry, not only along the permutation.
    n = 5
    clock, shift = clock_shift(n)
    shift[2][4] = CycNumber.one(n)
    monkeypatch.setattr(rep_variety, "clock_shift", lambda _: (clock, shift))
    with pytest.raises(VerificationFailed, match="commutator defect"):
        verify_t3_points(n)


def test_chern_simons_ladder_values():
    ladder = chern_simons_ladder(3)
    assert list(ladder) == [Fraction(0), Fraction(2, 3), Fraction(1, 3)]
    assert len(ladder) == 3
    assert ladder[1] == Fraction(2, 3)
    assert (ladder.d_step, ladder.kappa_step) == (4, Fraction(1, 3))
    assert (ladder.d_loop, ladder.kappa_loop) == (12, Fraction(1))
    for n in range(2, 13):
        rungs = chern_simons_ladder(n)
        assert list(rungs) == [Fraction((n - k) % n, n) for k in range(n)]
        assert rungs.d_loop == 4 * n and rungs.kappa_loop == 1
        assert rungs.d_step == 4 and rungs.kappa_step == Fraction(1, n)


def test_kernel_solutions_trefoil_double_cover():
    points = kernel_torus_solutions(TREFOIL, 2)
    assert [p.coords for p in points] == [
        (Fraction(0),),
        (Fraction(1, 3),),
        (Fraction(2, 3),),
    ]
    assert all(p.n == 2 for p in points)


def test_kernel_solutions_degenerate_and_capped():
    with pytest.raises(Degenerate):
        kernel_torus_solutions(TREFOIL, 6)
    with pytest.raises(CapExceeded):
        kernel_torus_solutions(FIG8, 3, cap=2)


@pytest.mark.parametrize(
    "name, n",
    [("3_1", 2), ("3_1", 3), ("3_1", 4), ("3_1", 5), ("4_1", 2), ("4_1", 3), ("5_2", 2)],
)
def test_kernel_solutions_match_grid_search(name, n):
    delta = alexander_checked(KnotTable.default().get(name))
    points = kernel_torus_solutions(delta, n)
    grid = brute_force_kernel_points(delta, n)
    assert {p.coords for p in points} == grid
    assert len(points) == len(grid)


@pytest.mark.parametrize("name", ("unknot", "3_1", "4_1", "5_1", "5_2", "6_1"))
def test_kernel_count_matches_invariant_magnitude(name):
    delta = alexander_checked(KnotTable.default().get(name))
    for n in range(2, 7):
        inv = q_relative(delta, n)
        if inv.degenerate:
            with pytest.raises(Degenerate):
                kernel_torus_solutions(delta, n)
        else:
            assert len(kernel_torus_solutions(delta, n)) == abs(inv.value)


def fraction_torus_solutions(form):
    """The enumeration over Fractions: v (c_1/d_1, ..., c_c/d_c) mod 1 for
    every c with 0 <= c_k < d_k, in itertools.product order."""
    ds = form.invariant_factors[: form.cols]
    out = []
    for combo in itertools.product(*(range(d) for d in ds)):
        y = [Fraction(c, d) for c, d in zip(combo, ds)]
        out.append(
            tuple(
                sum((form.v[i][k] * y[k] for k in range(form.cols)), Fraction(0)) % 1
                for i in range(form.cols)
            )
        )
    return out


@given(
    st.builds(
        LaurentPoly,
        st.integers(min_value=-3, max_value=2),
        st.lists(st.integers(min_value=-4, max_value=4), max_size=5),
    ),
    st.integers(min_value=2, max_value=9),
)
@settings(max_examples=150, deadline=None)
@example(FIG8, 6)
@example(LaurentPoly(-1, (2, -3, 2)), 4)
def test_kernel_solutions_match_fraction_enumeration(delta, n):
    cap = 500
    form = smith_normal_form(poly_at_matrix(delta, n))
    if form.rank < form.cols:
        with pytest.raises(Degenerate):
            kernel_torus_solutions(delta, n, cap)
    elif math.prod(form.invariant_factors) > cap:
        with pytest.raises(CapExceeded):
            kernel_torus_solutions(delta, n, cap)
    else:
        points = kernel_torus_solutions(delta, n, cap)
        assert [p.coords for p in points] == fraction_torus_solutions(form)
        assert all(p.n == n and len(p) == n - 1 for p in points)


def test_kernel_solutions_reject_a_corrupted_transform(monkeypatch):
    # Adding column 0 of v (whose factor is 1) to the last column turns the
    # points with c_last != 0 into non-solutions; the mod-D re-check of each
    # point against delta(tau) must catch them.
    delta = LaurentPoly(-1, (2, -3, 2))
    real = rep_variety.smith_normal_form

    def corrupted(matrix):
        form = real(matrix)
        assert form.invariant_factors == (1, 3, 21)
        v = [list(row) for row in form.v]
        for row in v:
            row[-1] += row[0]
        return dataclasses.replace(form, v=tuple(map(tuple, v)))

    assert len(kernel_torus_solutions(delta, 4)) == 63
    assert kernel_torus_count(delta, 4) == 63
    monkeypatch.setattr(rep_variety, "smith_normal_form", corrupted)
    with pytest.raises(VerificationFailed, match="not integral"):
        kernel_torus_solutions(delta, 4)
    with pytest.raises(VerificationFailed, match="not integral"):
        kernel_torus_count(delta, 4)


def _outcome(route, *args):
    try:
        return route(*args)
    except (Degenerate, CapExceeded) as exc:
        return type(exc), str(exc)


@given(braid_words(max_strands=4, max_letters=9), st.integers(min_value=2, max_value=8))
@settings(max_examples=100, deadline=None)
@example((2, [1, 1, 1]), 6)
@example((3, [1, -2, 1, -2]), 6)
def test_kernel_count_matches_the_points(nl, n):
    # The count and the points come from one enumeration: the same number,
    # or the same refusal, raised before any point is built.
    delta = alexander_checked(BraidWord(*nl))
    cap = 200
    count = _outcome(kernel_torus_count, delta, n, cap)
    points = _outcome(kernel_torus_solutions, delta, n, cap)
    if isinstance(points, list):
        assert count == len(points)
    else:
        assert count == points


def test_det_at_zeta_rejects_non_integral_entries():
    # A half-integral entry cannot even be built: CycNumber is Z[zeta_N].
    with pytest.raises(TypeError):
        CycNumber.integer(3, Fraction(1, 2))
    one, zero, two = CycNumber.one(3), CycNumber.zero(3), CycNumber.integer(3, 2)
    assert rep_variety._det_at_zeta([[one, zero], [zero, two]]) == two


def test_wirtinger_matrix_trefoil_frozen():
    pres = corpus_pres("3_1")
    assert wirtinger_torus_matrix(pres, 2) == [[1, 1], [-2, 1], [1, -2]]


def ref_wirtinger_torus_matrix(pres, n):
    """wirtinger_torus_matrix as it was with tau^-1 = mat_pow(tau, n - 1)."""
    size = n - 1
    tau = companion_tau(n)
    tau_inv = mat_pow(tau, n - 1)
    gens = [g for g in range(pres.n_generators) if g != pres.base_meridian]
    col_of = {g: i * size for i, g in enumerate(gens)}
    cols = size * len(gens)
    out = []
    for k, i, j, s in pres.relations:
        block = [[0] * cols for _ in range(size)]
        tw = tau if s > 0 else tau_inv

        def add(gen, coef, scale):
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


@pytest.mark.parametrize("name", ("unknot", "3_1", "4_1", "5_1", "5_2", "6_1"))
def test_wirtinger_matrix_matches_mat_pow_reference_on_table(name):
    pres = corpus_pres(name)
    for n in range(2, 9):
        assert wirtinger_torus_matrix(pres, n) == ref_wirtinger_torus_matrix(pres, n)


@given(braid_words(), st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_wirtinger_matrix_matches_mat_pow_reference_on_random_knots(nl, n):
    pres = braid_closure_wirtinger(BraidWord(*nl))
    assert wirtinger_torus_matrix(pres, n) == ref_wirtinger_torus_matrix(pres, n)


@given(braid_words(max_strands=4, max_letters=10), st.integers(min_value=2, max_value=12))
@settings(max_examples=150, deadline=None)
@example((2, [1, 1, 1]), 6)
def test_count_routes_agree_on_random_knots(nl, n):
    # Either every route gives the same finite count, or every route
    # reports degeneracy.
    braid = BraidWord(*nl)
    delta = alexander_checked(braid)
    pres = braid_closure_wirtinger(braid)
    cap = 20_000
    q = q_relative(delta, n)
    magnitude = cyclic_product_magnitude(delta, n)
    order = branched_cover_homology(delta, n).order()
    seifert_order = cover_homology(braid, n).order()
    if q.degenerate:
        assert magnitude == 0 and order is None and seifert_order is None
        with pytest.raises(Degenerate):
            kernel_torus_solutions(delta, n, cap)
        with pytest.raises(Degenerate):
            wirtinger_torus_count(pres, n)
        return
    count = abs(q.value)
    assert magnitude == order == seifert_order == count
    assert wirtinger_torus_count(pres, n) == count
    if count <= cap:
        assert len(kernel_torus_solutions(delta, n, cap)) == count
    else:
        with pytest.raises(CapExceeded):
            kernel_torus_solutions(delta, n, cap)


def test_wirtinger_matrix_shape():
    pres = corpus_pres("4_1")
    rows = wirtinger_torus_matrix(pres, 3)
    # one 2-row block per relation, one 2-column block per non-base arc
    assert len(rows) == 2 * len(pres.relations)
    assert all(len(r) == 2 * (pres.n_generators - 1) for r in rows)


@pytest.mark.parametrize("name", ("unknot", "3_1", "4_1", "5_1", "5_2"))
def test_wirtinger_count_equals_kernel_count(name):
    delta = alexander_checked(KnotTable.default().get(name))
    pres = corpus_pres(name)
    for n in (2, 3, 4):
        inv = q_relative(delta, n)
        if inv.degenerate:
            continue
        assert wirtinger_torus_count(pres, n) == abs(inv.value)


def test_wirtinger_count_degenerate():
    with pytest.raises(Degenerate):
        wirtinger_torus_count(corpus_pres("3_1"), 6)


def test_torus_element_denominator():
    assert TorusElement(3, (Fraction(1, 3), Fraction(1, 2))).denominator() == 6
    assert TorusElement(2, ()).denominator() == 1
    assert len(TorusElement(4, (Fraction(0), Fraction(0), Fraction(0)))) == 3
