"""Charge bookkeeping, the relative invariant, covers, and orientation signs."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from knotcover import invariants
from knotcover.errors import InternalError
from knotcover.exact_linalg import BadRank, cokernel, det_exact, mat_pow
from knotcover.invariants import (
    K3_TOPOLOGY,
    DegenerateProduct,
    ManifoldTopology,
    NonIntegralDimension,
    ParityViolation,
    branched_cover_homology,
    cover_homology,
    cyclic_product_magnitude,
    cyclic_product_magnitudes,
    dimension_zero_kappa,
    formal_dimension,
    is_coprime,
    k3_bundle_data,
    k3_invariant,
    kappa,
    q_fintushel_stern,
    q_relative,
    sign_complex_compare,
    sign_conjugate_bundle,
    sign_dual_compare,
    sign_lift_compare,
)
from knotcover.knots import (
    BraidWord,
    KnotTable,
    alexander_checked,
    braid_closure_wirtinger,
    parse_braid,
)
from knotcover.laurent_poly import LaurentPoly
from knotcover.mahler import asymptotic_table
from knotcover.rep_variety import wirtinger_torus_matrix

from test_knots import braid_words

# |q_N| for the bundled knots at N = 2..12, frozen from the three-route
# computation and confirmed against closed forms where one exists:
#   3_1 is periodic with period 6 (it equals 2 - 2cos(N pi / 3)),
#   4_1 gives the squared Lucas numbers (minus 4 at even N),
#   6_1 gives the squared Mersenne numbers (2^N - 1)^2.
Q_ORACLE = {
    "3_1": [3, 4, 3, 1, 0, 1, 3, 4, 3, 1, 0],
    "4_1": [5, 16, 45, 121, 320, 841, 2205, 5776, 15125, 39601, 103680],
    "5_1": [5, 1, 5, 16, 5, 1, 5, 1, 0, 1, 5],
    "5_2": [7, 25, 63, 121, 175, 169, 63, 25, 847, 4489, 14175],
    "6_1": [9, 49, 225, 961, 3969, 16129, 65025, 261121, 1046529, 4190209, 16769025],
}

UNKNOT = LaurentPoly.one()
TREFOIL = LaurentPoly(-1, (1, -1, 1))
FIG8 = LaurentPoly(-1, (-1, 3, -1))


def corpus_delta(name):
    return alexander_checked(KnotTable.default().get(name))


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_kappa_values():
    assert kappa(2, 0, -1) == Fraction(1, 4)
    assert kappa(2, 1, 0) == 1
    assert kappa(3, 0, -1) == Fraction(1, 3)
    assert kappa(4, 60, 150) == Fraction(15, 4)
    with pytest.raises(BadRank):
        kappa(1, 0, 0)


def test_formal_dimension():
    assert formal_dimension(2, 1, ManifoldTopology(1, 0)) == 8 - 6
    assert formal_dimension(3, Fraction(2, 3), ManifoldTopology(3, 0)) == 8 - 32
    with pytest.raises(NonIntegralDimension):
        formal_dimension(2, Fraction(1, 3), ManifoldTopology(1, 0))


@pytest.mark.parametrize("n", range(2, 11))
def test_k3_dimension_zero_ladder(n):
    # on K3 the dimension-zero charge is (N^2-1)/N, realized over the c1
    # self-intersection that the standard bundle carries
    kap = dimension_zero_kappa(n, K3_TOPOLOGY, k3_bundle_data(n).c1_sq)
    assert kap == Fraction(n * n - 1, n)
    assert formal_dimension(n, kap, K3_TOPOLOGY) == 0


def test_dimension_zero_kappa_can_be_unrealizable():
    assert dimension_zero_kappa(3, ManifoldTopology(3, 0), 0) is None
    assert dimension_zero_kappa(2, ManifoldTopology(3, 0), 0) is None
    assert dimension_zero_kappa(2, ManifoldTopology(7, 0), 0) == 3


def test_is_coprime():
    assert is_coprime((3, 5), 15)
    assert not is_coprime((3, 6), 15)
    assert not is_coprime((2, 4), 2)
    assert is_coprime((1,), 7)
    assert not is_coprime((), 5)


@pytest.mark.parametrize("name", sorted(Q_ORACLE))
def test_q_relative_frozen_values(name):
    delta = corpus_delta(name)
    for n, want in zip(range(2, 13), Q_ORACLE[name]):
        inv = q_relative(delta, n)
        assert abs(inv.value) == want
        assert inv.degenerate == (want == 0)
        assert inv.n == n
        if n % 2 == 1:
            assert inv.sign_determined and inv.value == want
        else:
            assert not inv.sign_determined


def test_q_relative_unknot_is_always_one():
    for n in range(2, 20):
        inv = q_relative(UNKNOT, n)
        assert abs(inv.value) == 1 and not inv.degenerate


def test_fig8_matches_lucas_closed_form():
    for n in range(2, 13):
        want = lucas(n) ** 2 - (4 if n % 2 == 0 else 0)
        assert abs(q_relative(FIG8, n).value) == want


def test_six_one_matches_mersenne_closed_form():
    delta = corpus_delta("6_1")
    for n in range(2, 13):
        assert abs(q_relative(delta, n).value) == (2**n - 1) ** 2


def test_q_relative_multiplicative_in_delta():
    # connected sums multiply Alexander polynomials, so magnitudes multiply
    pairs = [(TREFOIL, FIG8), (TREFOIL, TREFOIL), (FIG8, corpus_delta("5_2"))]
    for d1, d2 in pairs:
        for n in range(2, 9):
            lhs = abs(q_relative(d1 * d2, n).value)
            rhs = abs(q_relative(d1, n).value) * abs(q_relative(d2, n).value)
            assert lhs == rhs


def test_branched_cover_homology_landmarks():
    assert branched_cover_homology(TREFOIL, 2).to_text() == "Z/3"
    assert branched_cover_homology(TREFOIL, 3).to_text() == "Z/2 + Z/2"
    assert branched_cover_homology(FIG8, 3).to_text() == "Z/4 + Z/4"
    assert branched_cover_homology(UNKNOT, 5).is_trivial()
    degenerate = branched_cover_homology(TREFOIL, 6)
    assert degenerate.free_rank >= 1


def wirtinger_group(braid, n):
    # The pinned Wirtinger system's columns are the generators and its rows
    # the relations, so the group it presents is the cokernel of the transpose.
    matrix = wirtinger_torus_matrix(braid_closure_wirtinger(braid), n)
    return cokernel([list(col) for col in zip(*matrix)])


@pytest.mark.parametrize(
    "text, n, expected",
    [
        # 8_18: the Alexander module is not cyclic, and coker delta(tau) is Z/45.
        ("strands=3; 1 -2 1 -2 1 -2 1 -2", 2, "Z/3 + Z/15"),
        # The granny knot 3_1 # 3_1: coker delta(tau) gives Z/9 and
        # Z^2 + Z/2 + Z/6.
        ("strands=3; 1 1 1 2 2 2", 2, "Z/3 + Z/3"),
        ("strands=3; 1 1 1 2 2 2", 6, "Z^4"),
        ("1 1 1", 6, "Z^2"),
        ("1 -2 1 -2", 3, "Z/4 + Z/4"),
        ("strands=1;", 5, "0"),
        ("strands=2; 1", 7, "0"),
    ],
)
def test_cover_homology_landmarks(text, n, expected):
    braid = parse_braid(text)
    assert cover_homology(braid, n).to_text() == expected
    assert wirtinger_group(braid, n).to_text() == expected


def test_cover_homology_rejects_bad_rank():
    with pytest.raises(BadRank):
        cover_homology(parse_braid("1 1 1"), 1)


def test_cover_homology_checks_unimodularity(monkeypatch):
    # A symmetric V has V^T - V = 0, which no knot's Seifert matrix has.
    monkeypatch.setattr(invariants, "seifert_matrix", lambda braid: [[1, 0], [0, 1]])
    with pytest.raises(InternalError):
        cover_homology(parse_braid("1 1 1"), 2)


@pytest.mark.parametrize("name", sorted(Q_ORACLE) + ["unknot"])
def test_cover_homology_equals_companion_group_on_table(name):
    # Every table knot has a cyclic Alexander module, so the two routes give
    # the same group there.
    braid = KnotTable.default().get(name)
    delta = alexander_checked(braid)
    for n in range(2, 31):
        assert cover_homology(braid, n) == branched_cover_homology(delta, n)


@given(braid_words(), st.integers(min_value=2, max_value=6))
@settings(max_examples=150, deadline=None)
def test_cover_homology_matches_wirtinger_presentation(nl, n):
    braid = BraidWord(*nl)
    group = cover_homology(braid, n)
    assert group == wirtinger_group(braid, n)
    q = q_relative(alexander_checked(braid), n)
    if q.degenerate:
        assert group.free_rank >= 1
    else:
        assert group.order() == q.value


@pytest.mark.parametrize("name", sorted(Q_ORACLE))
def test_cover_order_equals_invariant_magnitude(name):
    delta = corpus_delta(name)
    for n in range(2, 13):
        group = branched_cover_homology(delta, n)
        inv = q_relative(delta, n)
        if inv.degenerate:
            assert group.order() is None
        else:
            assert group.order() == abs(inv.value)


@pytest.mark.parametrize("name", sorted(Q_ORACLE))
def test_fast_ladder_route_agrees(name):
    delta = corpus_delta(name)
    for n in range(2, 13):
        assert cyclic_product_magnitude(delta, n) == abs(q_relative(delta, n).value)


def test_fast_ladder_handles_unknot_and_large_n():
    assert cyclic_product_magnitude(UNKNOT, 97) == 1
    assert cyclic_product_magnitude(TREFOIL, 96) == 0
    assert cyclic_product_magnitude(corpus_delta("6_1"), 31) == (2**31 - 1) ** 2


def ref_cyclic_product_magnitude(delta, n):
    # One rung from scratch: D^n by repeated squaring, then the determinant.
    coeffs = delta.coeffs
    p_at_1 = sum(coeffs)
    deg = len(coeffs) - 1
    a = coeffs[-1]
    if deg == 0:
        return abs(a) ** (n - 1)
    d_mat = [[0] * deg for _ in range(deg)]
    for i in range(1, deg):
        d_mat[i][i - 1] = a
    for i in range(deg):
        d_mat[i][deg - 1] -= coeffs[i]
    power = mat_pow(d_mat, n)
    a_n = a**n
    for i in range(deg):
        power[i][i] -= a_n
    mag, rem = divmod(abs(det_exact(power)), abs(a) ** (n * (deg - 1)) * abs(p_at_1))
    assert rem == 0
    return mag


def torus_knot_delta(p, q):
    # (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), of degree (p - 1)(q - 1)
    def t_power_minus_one(k):
        return LaurentPoly(0, (-1,) + (0,) * (k - 1) + (1,))

    num = t_power_minus_one(p * q) * t_power_minus_one(1)
    return num / (t_power_minus_one(p) * t_power_minus_one(q))


@st.composite
def ladder_deltas(draw):
    deg = draw(st.integers(min_value=0, max_value=10))
    lead = draw(st.integers(min_value=1, max_value=5)) * draw(st.sampled_from((1, -1)))
    lower = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=deg, max_size=deg))
    if deg and sum(lower) + lead == 0:
        lower[0] += 1  # keep P(1) != 0, where the closed formula holds
    return LaurentPoly(draw(st.integers(min_value=-5, max_value=2)), lower + [lead])


@given(ladder_deltas(), st.lists(st.integers(min_value=2, max_value=60), max_size=8))
@example(FIG8, [9, 3, 9, 2, 60, 3])
@example(TREFOIL, [12, 6, 7, 6])
@example(LaurentPoly(-5, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -5)), [60, 2, 31, 2])
@example(LaurentPoly(2, (3,)), [4, 2, 4])
@settings(max_examples=60, deadline=None)
def test_companion_steps_match_per_rung_powers(delta, ns):
    assert cyclic_product_magnitudes(delta, ns) == [
        ref_cyclic_product_magnitude(delta, n) for n in ns
    ]


def test_companion_steps_match_per_rung_powers_at_degree_32():
    t59 = torus_knot_delta(5, 9)
    assert len(t59.coeffs) - 1 == 32
    ns = [61, 3, 62, 7]
    assert cyclic_product_magnitudes(t59, ns) == [
        ref_cyclic_product_magnitude(t59, n) for n in ns
    ]


def test_ladder_takes_one_matrix_power(monkeypatch):
    # D^n is carried up the ladder by companion steps; a power per rung
    # would bring back one repeated squaring for every n.
    powers = []
    real_mat_pow = invariants.mat_pow

    def counting_mat_pow(a, n):
        powers.append(n)
        return real_mat_pow(a, n)

    monkeypatch.setattr(invariants, "mat_pow", counting_mat_pow)
    delta = corpus_delta("5_1")
    assert len(delta.coeffs) - 1 >= 4
    rows = asymptotic_table(delta, range(3, 200, 2))
    assert len(rows) == 99 and powers == [3]
    powers.clear()
    assert cyclic_product_magnitude(delta, 7) == abs(q_relative(delta, 7).value)
    assert powers == [7]



def test_q_fintushel_stern_scaling():
    # surgery multiplies the closed count by the relative magnitude
    for n in (3, 5, 7):
        rel = q_relative(FIG8, n)
        assert q_fintushel_stern(1, FIG8, n) == rel.value
        assert q_fintushel_stern(2, FIG8, n) == 2 * rel.value
    assert q_fintushel_stern(0, FIG8, 3) == 0
    assert q_fintushel_stern(5, UNKNOT, 4) == 5


def test_q_fintushel_stern_degenerate():
    with pytest.raises(DegenerateProduct):
        q_fintushel_stern(1, TREFOIL, 6)
    # a vanishing closed count short-circuits before the degeneracy check
    assert q_fintushel_stern(0, TREFOIL, 6) == 0


def test_k3_data():
    assert K3_TOPOLOGY.b2_plus == 3
    assert K3_TOPOLOGY.b1 == 0
    assert K3_TOPOLOGY.euler == 24
    assert K3_TOPOLOGY.signature == -16
    assert k3_invariant() == 1
    for n in range(2, 8):
        bundle = k3_bundle_data(n)
        assert bundle.n == n
        assert kappa(n, bundle.c2, bundle.c1_sq) == Fraction(n * n - 1, n)
        assert is_coprime(bundle.c1_pairings, n)


def test_sign_functions_spot_values():
    # odd rank: every comparison sign is +1
    for n in (3, 5, 7, 9):
        assert sign_complex_compare(n, 2 * n, n) == 1
        assert sign_lift_compare(n, 4) == 1
        assert sign_dual_compare(n, 2 * n) == 1
        assert sign_conjugate_bundle(n, 3, 0) == 1
    # even rank: the exponent formulas are live
    assert sign_complex_compare(2, 2, 0) == -1
    assert sign_complex_compare(2, 4, 0) == 1
    assert sign_complex_compare(2, 3, 1) == 1
    assert sign_lift_compare(2, 1) == -1
    assert sign_lift_compare(2, 4) == 1
    assert sign_lift_compare(4, 1) == 1
    assert sign_lift_compare(6, 3) == -1
    assert sign_dual_compare(2, 1) == -1
    assert sign_dual_compare(2, 2) == 1
    assert sign_conjugate_bundle(2, 3, 0) == 1
    assert sign_conjugate_bundle(2, 1, 0) == -1


def test_sign_functions_parity_checks():
    with pytest.raises(ParityViolation):
        sign_complex_compare(2, 1, 0)
    with pytest.raises(ParityViolation):
        sign_conjugate_bundle(2, 2, 0)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=-20, max_value=20))
def test_odd_rank_signs_always_positive(j, w):
    n = 2 * j + 1
    assert sign_complex_compare(n, 2 * w * n, w * n) == 1
    assert sign_lift_compare(n, w) == 1
    assert sign_dual_compare(n, 2 * w * n) == 1
    assert sign_conjugate_bundle(n, abs(w) % 5 + 1, 0) == 1


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=40))
@settings(max_examples=80)
def test_relative_invariant_flags_consistent(n, seed):
    # flag laws: degenerate exactly when the magnitude vanishes; odd rank
    # always determines the sign
    delta = [UNKNOT, TREFOIL, FIG8][seed % 3]
    inv = q_relative(delta, n)
    assert inv.degenerate == (inv.value == 0 if inv.sign_determined else abs(inv.value) == 0)
    if n % 2 == 1:
        assert inv.sign_determined
