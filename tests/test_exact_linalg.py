"""Exact linear algebra: determinants, Smith form, cyclotomic field."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from knotcover import exact_linalg, rep_variety
from knotcover.exact_linalg import (
    AbelianGroup,
    CycNumber,
    NonSquare,
    cokernel,
    companion_tau,
    det_exact,
    eval_at_zeta,
    mat_mul,
    mat_pow,
    poly_at_matrix,
    smith_normal_form,
)
from knotcover.invariants import branched_cover_homology, q_relative
from knotcover.knots import KnotTable, alexander_checked, braid_closure_wirtinger, parse_braid
from knotcover.laurent_poly import LaurentPoly
from knotcover.rep_variety import clock_shift, kernel_torus_solutions

int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)
square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def test_det_exact_values():
    assert det_exact([[2, 0], [0, 3]]) == 6
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([]) == 1
    assert det_exact([[0, 1], [1, 0]]) == -1
    big = 10**20
    assert det_exact([[big, 1], [1, big]]) == big * big - 1


def test_det_exact_rejects_ragged_and_rectangular():
    with pytest.raises(NonSquare):
        det_exact([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det_exact([[1, 2], [3]])


def leibniz_det(a):
    """The permutation-sum determinant, for any entries with + and *."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total + term
    return total


@st.composite
def bareiss_cases(draw, entries, max_size):
    """Square matrices with, at random, a zero top-left pivot, a zero
    column (an early exit) or a row that is a multiple of another."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    zero = a[0][0] * 0
    if draw(st.booleans()):
        a[0][0] = zero
    if draw(st.booleans()):
        col = draw(st.integers(min_value=0, max_value=n - 1))
        for row in a:
            row[col] = zero
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(min_value=-2, max_value=2))
        a[j] = [x * c for x in a[i]]
    return a


small_laurents = st.builds(
    LaurentPoly,
    st.integers(min_value=-3, max_value=2),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
)


@given(bareiss_cases(st.integers(min_value=-9, max_value=9), 5))
@settings(max_examples=300)
@example([[0, 1], [1, 0]])
@example([[0, 2, 1], [0, 3, 4], [5, 6, 7]])
@example([[1, 2], [2, 4]])
def test_det_exact_matches_leibniz_on_integers(a):
    assert det_exact(a) == leibniz_det(a)


@given(bareiss_cases(small_laurents, 4))
@settings(max_examples=150, deadline=None)
@example([[LaurentPoly.zero(), LaurentPoly.t(-1)], [LaurentPoly.t(2), LaurentPoly.one()]])
def test_det_exact_matches_leibniz_on_laurent_polynomials(a):
    det = det_exact(a)
    assert isinstance(det, LaurentPoly)
    assert det == leibniz_det(a)


def ref_laurent_det(a):
    """Bareiss elimination carried out over LaurentPoly entries, every
    interior division an exact polynomial division: the Laurent
    determinant before Kronecker substitution."""
    m = [[x if isinstance(x, LaurentPoly) else LaurentPoly(0, (x,)) for x in row] for row in a]
    n = len(m)
    sign, prev = 1, LaurentPoly.one()
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * top[j]) / prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def fox_matrix(text):
    """The matrix alexander_fox takes the determinant of: one row per
    Wirtinger relation but the last, the base meridian's column dropped;
    untouched entries stay the int 0."""
    pres = braid_closure_wirtinger(parse_braid(text))
    rows = []
    for k, i, j, s in pres.relations[:-1]:
        row = [0] * pres.n_generators
        row[j] += 1 - LaurentPoly.t(s)
        row[i] += LaurentPoly.t(s)
        row[k] -= 1
        del row[pres.base_meridian]
        rows.append(row)
    return rows


kronecker_entries = st.one_of(
    st.builds(
        LaurentPoly,
        st.integers(min_value=-5, max_value=3),
        st.lists(st.integers(min_value=-50, max_value=50), max_size=4),
    ),
    st.integers(min_value=-50, max_value=50),
)


@st.composite
def kronecker_cases(draw):
    """Square Laurent matrices up to 6 x 6 with ints mixed in; two in five
    get a zero row, a zero column, or a row that repeats another one scaled
    by an integer or a monomial, so they are singular.  At least
    one entry is a LaurentPoly."""
    n = draw(st.integers(min_value=1, max_value=6))
    a = [[draw(kronecker_entries) for _ in range(n)] for _ in range(n)]
    index = st.integers(min_value=0, max_value=n - 1)
    zero = st.sampled_from((0, LaurentPoly.zero()))
    shape = draw(st.sampled_from(("plain", "plain", "zero row", "zero column", "scaled row")))
    if shape == "zero row":
        a[draw(index)] = [draw(zero) for _ in range(n)]
    elif shape == "zero column":
        col = draw(index)
        for row in a:
            row[col] = draw(zero)
    elif shape == "scaled row" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((1, -1, 3, LaurentPoly.t(-2), LaurentPoly.t(1, -2))))
        a[j] = [x * c for x in a[i]]
    if not any(isinstance(x, LaurentPoly) for row in a for x in row):
        i, j = draw(index), draw(index)
        a[i][j] = LaurentPoly(0, (a[i][j],))
    return a


@given(kronecker_cases())
@settings(max_examples=200, deadline=None)
# one term equal to the coefficient bound 5 * 7 = 35, the widest digit
@example([[LaurentPoly.t(-2, 5), 0], [0, LaurentPoly.t(3, 7)]])
# a 35 x 35 Fox matrix, ints and LaurentPolys mixed
@example(fox_matrix(" ".join(["1 -2 3 -4 5 -6"] * 6)))
def test_kronecker_det_matches_laurent_bareiss(a):
    det = det_exact(a)
    assert isinstance(det, LaurentPoly)
    assert det == ref_laurent_det(a)


@given(square_matrices, square_matrices)
def test_det_multiplicative(a, b):
    if len(a) != len(b):
        return
    assert det_exact(mat_mul(a, b)) == det_exact(a) * det_exact(b)


def test_smith_frozen_example():
    form = smith_normal_form([[2, 4], [6, 8]])
    assert form.invariant_factors == (2, 4)


def test_smith_zero_and_identity():
    assert smith_normal_form([[0, 0], [0, 0]]).invariant_factors == (0, 0)
    assert smith_normal_form([[1, 0], [0, 1]]).invariant_factors == (1, 1)


@given(int_matrices)
@settings(max_examples=200)
def test_smith_contract(a):
    form = smith_normal_form(a)
    d = form.invariant_factors
    assert len(d) == min(len(a), len(a[0]))
    # entries nonnegative, zeros last, each nonzero entry divides the next
    assert all(x >= 0 for x in d)
    nonzero = [x for x in d if x != 0]
    assert tuple(nonzero) == d[: len(nonzero)]
    assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
    # U A V is the diagonal matrix of invariant factors
    uav = mat_mul(mat_mul(form.u, a), form.v)
    assert uav == form.diagonal_matrix()
    # the transforms are unimodular
    assert abs(det_exact(form.u)) == 1
    assert abs(det_exact(form.v)) == 1
    # square case: |det| is preserved
    if len(a) == len(a[0]):
        assert math.prod(d) == abs(det_exact(a))


def test_cokernel_cases():
    assert cokernel([[3]]) == AbelianGroup((3,), 0)
    assert cokernel([[2, 0], [0, 1]]) == AbelianGroup((2,), 0)
    assert cokernel([[0]]) == AbelianGroup((), 1)
    assert cokernel([[2, 4], [6, 8]]) == AbelianGroup((2, 4), 0)
    group = cokernel([[1, 0], [0, 0], [0, 0]])
    assert group.free_rank == 2 and group.invariant_factors == ()


def test_abelian_group_text_and_order():
    assert AbelianGroup((), 0).to_text() == "0"
    assert AbelianGroup((3,), 0).to_text() == "Z/3"
    assert AbelianGroup((2, 4), 1).to_text() == "Z + Z/2 + Z/4"
    assert AbelianGroup((), 2).to_text() == "Z^2"
    assert AbelianGroup((5,), 0).order() == 5
    assert AbelianGroup((), 1).order() is None
    assert AbelianGroup((), 0).is_trivial()


@pytest.mark.parametrize("n", range(2, 9))
def test_companion_tau_has_order_n(n):
    tau = companion_tau(n)
    assert len(tau) == n - 1
    assert mat_pow(tau, n) == [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
    assert abs(det_exact(tau)) == 1
    # characteristic structure: 1 + tau + ... + tau^(n-1) = 0
    acc = [[0] * (n - 1) for _ in range(n - 1)]
    for k in range(n):
        p = mat_pow(tau, k)
        acc = [[acc[i][j] + p[i][j] for j in range(n - 1)] for i in range(n - 1)]
    assert all(all(x == 0 for x in row) for row in acc)


def horner_at_tau(p, n):
    """The reference evaluation of p at companion_tau(n): Horner with
    mat_mul, then the t^min_deg factor as a power of tau or of
    tau^-1 = tau^(n-1)."""
    tau = companion_tau(n)
    size = n - 1
    acc = [[0] * size for _ in range(size)]
    for c in reversed(p.coeffs):
        acc = mat_mul(tau, acc)
        for i in range(size):
            acc[i][i] += c
    step = tau if p.min_deg >= 0 else mat_pow(tau, n - 1)
    return mat_mul(mat_pow(step, abs(p.min_deg)), acc)


laurent_polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-60, max_value=20),
    st.lists(st.integers(min_value=-50, max_value=50), max_size=70),
)


@given(laurent_polys, st.integers(min_value=2, max_value=40))
@settings(max_examples=150, deadline=None)
# the symmetrized trefoil at the double cover, where tau = [-1]
@example(LaurentPoly(-1, (1, -1, 1)), 2)
# t^3 times the figure-eight polynomial: the shift goes through tau^3
@example(LaurentPoly(2, (-1, 3, -1)), 2)
@example(LaurentPoly(2, (-1, 3, -1)), 3)
@example(LaurentPoly(2, (-1, 3, -1)), 4)
@example(LaurentPoly(2, (-1, 3, -1)), 5)
def test_poly_at_matrix_matches_horner_reference(p, n):
    assert poly_at_matrix(p, n) == horner_at_tau(p, n)


def test_poly_at_matrix_trefoil():
    # tau for the double cover is the 1 x 1 matrix [-1]; the symmetrized
    # trefoil polynomial takes the value -3 there, so the cover group is Z/3
    delta = LaurentPoly(-1, (1, -1, 1))
    assert poly_at_matrix(delta, 2) == [[-3]]
    assert cokernel(poly_at_matrix(delta, 2)) == AbelianGroup((3,), 0)


def test_poly_at_matrix_shift_invariance():
    # t^s * p evaluated at an invertible matrix equals tau^s * p(tau)
    delta = LaurentPoly(-1, (-1, 3, -1))
    for n in (2, 3, 4, 5):
        tau = companion_tau(n)
        lhs = poly_at_matrix(LaurentPoly(2, delta.coeffs), n)
        rhs = mat_mul(mat_pow(tau, 3), poly_at_matrix(delta, n))
        assert lhs == rhs


def test_delta_tau_needs_no_matrix_products(monkeypatch):
    # delta(tau) is built by reduction alone; a matrix product or power on
    # this path would bring back the cubic cost at large N.
    def refuse(*args):
        raise AssertionError("matrix product on the delta(tau) path")

    monkeypatch.setattr(exact_linalg, "mat_mul", refuse)
    monkeypatch.setattr(exact_linalg, "mat_pow", refuse)
    delta = alexander_checked(KnotTable.default().get("5_2"))
    order = q_relative(delta, 60).value
    assert branched_cover_homology(delta, 60).order() == order
    assert len(kernel_torus_solutions(delta, 5)) == q_relative(delta, 5).value


@pytest.mark.parametrize("n", (1, 2, 3, 4, 6, 12))
def test_cyc_zeta_has_order_n(n):
    z = CycNumber.zeta(n)
    acc = CycNumber.one(n)
    for _ in range(n):
        acc = acc * z
    assert acc == CycNumber.one(n)


@pytest.mark.parametrize("n", (3, 4, 5, 12))
def test_cyc_field_axioms_spot(n):
    a = CycNumber.zeta(n) + CycNumber.integer(n, 2)
    b = CycNumber.zeta(n) * CycNumber.integer(n, 3) - CycNumber.one(n)
    assert a * b == b * a
    assert (a + b) - b == a
    assert a * (b + CycNumber.one(n)) == a * b + a
    assert CycNumber.zeta(n, -1) * CycNumber.zeta(n) == CycNumber.one(n)


def test_cyc_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        CycNumber.make(5, [1, Fraction(1, 2)])
    with pytest.raises(TypeError):
        CycNumber.make(5, [Fraction(2)])
    with pytest.raises(TypeError):
        CycNumber.integer(5, Fraction(-6, 4))
    with pytest.raises(TypeError):
        CycNumber.zeta(5) * Fraction(1, 3)
    with pytest.raises(TypeError):
        Fraction(1, 3) * CycNumber.zeta(5)


def test_eval_at_zeta_matches_complex_evaluation():
    delta = LaurentPoly(-1, (1, -1, 1))
    for n in (2, 3, 4, 5, 6):
        for k in range(1, n):
            num = eval_at_zeta(delta, n, k).num
            zeta = complex(math.cos(2 * math.pi / n), math.sin(2 * math.pi / n))
            exact = 0j
            for c in reversed(num):
                exact = exact * zeta + c
            z = zeta ** k
            assert abs(exact - delta.eval_complex(z)) < 1e-9


# A Fraction-coefficient reference for Q(zeta_N), independent of
# CycNumber: an element is the tuple of its coefficients of 1, zeta, ...,
# zeta^(d-1); multiplication reduces modulo Phi_N over Q, and the inverse is
# the extended Euclidean algorithm against Phi_N.


def ref_reduce(n, coeffs):
    phi = LaurentPoly.cyclotomic(n).coeffs
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        top = work[i]
        if top == 0:
            continue
        for j, pc in enumerate(phi):
            work[i - deg + j] -= top * pc
    out = work[:deg]
    out += [Fraction(0)] * (deg - len(out))
    return tuple(out)


def _fp_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _fp_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _fp_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _fp_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem.pop()
        _fp_trim(rem)
    return quo, rem


def ref_mul(n, a, b):
    return ref_reduce(n, _fp_mul(list(a), list(b)))


def ref_inverse(n, a):
    r0 = _fp_trim([Fraction(c) for c in LaurentPoly.cyclotomic(n).coeffs])
    r1 = _fp_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        quo, rem = _fp_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _fp_trim(_fp_sub(s0, _fp_mul(quo, s1)))
    assert len(r0) == 1
    return ref_reduce(n, [c / r0[0] for c in s0])


def ref_eval_at_zeta(p, n, k):
    raw = [Fraction(0)] * n
    for i, c in enumerate(p.coeffs):
        raw[(k * (p.min_deg + i)) % n] += c
    return ref_reduce(n, raw)


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def assert_canonical(x):
    assert isinstance(x.num, tuple)
    assert all(isinstance(c, int) for c in x.num)
    assert len(x.num) == len(LaurentPoly.cyclotomic(x.n).coeffs) - 1


integers_ = st.integers(min_value=-30, max_value=30)
coefficients = st.lists(integers_, max_size=40)


@given(st.integers(min_value=2, max_value=16), coefficients, coefficients, integers_)
@settings(max_examples=200, deadline=None)
@example(3, [1, 0, 1], [1, 1], -2)
@example(12, [0, 1, 0, 0, -1], [5], 0)
def test_cyc_number_matches_fraction_reference(n, a_coeffs, b_coeffs, q):
    a, b = CycNumber.make(n, a_coeffs), CycNumber.make(n, b_coeffs)
    ra, rb = ref_reduce(n, a_coeffs), ref_reduce(n, b_coeffs)
    assert a.num == ra and b.num == rb
    results = [a, b, a + b, a - b, -a, a * b, a * q, q * a]
    expected = [
        ra,
        rb,
        tuple(x + y for x, y in zip(ra, rb)),
        ref_sub(ra, rb),
        tuple(-x for x in ra),
        ref_mul(n, ra, rb),
        tuple(x * q for x in ra),
        tuple(x * q for x in ra),
    ]
    for got, want in zip(results, expected):
        assert_canonical(got)
        assert got.num == want
    assert a.is_zero() == all(c == 0 for c in ra)


@given(laurent_polys, st.integers(min_value=2, max_value=16), st.integers(min_value=-20, max_value=20))
@settings(max_examples=150, deadline=None)
def test_eval_at_zeta_matches_fraction_reference(p, n, k):
    value = eval_at_zeta(p, n, k)
    assert_canonical(value)
    assert value.num == ref_eval_at_zeta(p, n, k)


@pytest.mark.parametrize("n", range(1, 17))
def test_cyc_constructors_are_canonical(n):
    deg = len(LaurentPoly.cyclotomic(n).coeffs) - 1
    for x in (CycNumber.zero(n), CycNumber.one(n), CycNumber.integer(n, -6)):
        assert_canonical(x)
    assert CycNumber.zero(n).num == (0,) * deg
    assert CycNumber.one(n).num == ref_reduce(n, [1])
    assert CycNumber.integer(n, -6).num == ref_reduce(n, [-6])
    for k in range(-n, 2 * n):
        z = CycNumber.zeta(n, k)
        assert_canonical(z)
        assert z.num == ref_reduce(n, [0] * (k % n) + [1])


def cyc_det(a):
    """Reference determinant over Q(zeta_N) by Gaussian elimination with
    field inverses, on the Fraction reference above; the entries are in
    Z[zeta_N], so the determinant is, and it comes back as a CycNumber."""
    size = len(a)
    if any(len(row) != size for row in a):
        raise NonSquare("determinant of a rectangular matrix")
    if size == 0:
        raise ValueError("empty cyclotomic determinant has no field order")
    n = a[0][0].n
    m = [[ref_reduce(n, x.num) for x in row] for row in a]
    det = ref_reduce(n, [1])
    for col in range(size):
        piv = next((i for i in range(col, size) if any(m[i][col])), None)
        if piv is None:
            return CycNumber.zero(n)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = tuple(-x for x in det)
        det = ref_mul(n, det, m[col][col])
        inv = ref_inverse(n, m[col][col])
        for i in range(col + 1, size):
            if not any(m[i][col]):
                continue
            f = ref_mul(n, m[i][col], inv)
            m[i] = [ref_sub(x, ref_mul(n, f, y)) for x, y in zip(m[i], m[col])]
    assert all(c.denominator == 1 for c in det)
    return CycNumber.make(n, [int(c) for c in det])


def det_via_lift(a):
    """det over Z[zeta_N]: lift each integral entry to Z[t], take det_exact,
    and reduce at zeta_N."""
    lift = [[LaurentPoly(0, x.num) for x in row] for row in a]
    return eval_at_zeta(det_exact(lift), a[0][0].n, 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_clock_shift_determinants_by_lift_match_field_elimination(n):
    clock, shift = clock_shift(n)
    assert det_via_lift(shift) == cyc_det(shift) == CycNumber.one(n)
    want = CycNumber.integer(n, (-1) ** (n - 1))
    assert det_via_lift(clock) == cyc_det(clock) == want


@st.composite
def integral_cyc_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    size = draw(st.integers(min_value=1, max_value=3))
    entry = st.lists(st.integers(min_value=-3, max_value=3), max_size=n).map(
        lambda cs: CycNumber.make(n, cs)
    )
    return [[draw(entry) for _ in range(size)] for _ in range(size)]


@given(integral_cyc_matrices())
@settings(max_examples=60, deadline=None)
@example([[CycNumber.zeta(5), CycNumber.zero(5)], [CycNumber.zero(5), CycNumber.zeta(5)]])
def test_det_via_lift_matches_field_elimination(a):
    assert det_via_lift(a) == cyc_det(a)


def ref_sparse_rank(n, rows):
    """rep_variety._sparse_rank as it was with normalised pivots, on the
    Fraction reference: each new pivot row is scaled by the field inverse of
    its leading entry, and a row is reduced by row - f * pivot_row."""
    zero = ref_reduce(n, [])
    pivots = {}
    for row in rows:
        row = {c: ref_reduce(n, v.num) for c, v in row.items() if not v.is_zero()}
        while row:
            col = min(row)
            if col not in pivots:
                inv = ref_inverse(n, row[col])
                pivots[col] = {c: ref_mul(n, v, inv) for c, v in row.items()}
                break
            factor = row.pop(col)
            for c, v in pivots[col].items():
                if c == col:
                    continue
                acc = ref_sub(row.get(c, zero), ref_mul(n, factor, v))
                if any(acc):
                    row[c] = acc
                else:
                    row.pop(c, None)
    return len(pivots)


@st.composite
def sparse_cyc_systems(draw):
    """(N, rows) with rows sparse dicts column -> CycNumber.  Besides fresh
    rows, rank-deficient ones: zero rows, repeats, earlier rows scaled by
    zeta^k or by 2, and sums of two scaled earlier rows."""
    n = draw(st.integers(min_value=2, max_value=12))
    columns = st.integers(min_value=0, max_value=draw(st.integers(min_value=0, max_value=7)))
    entry = st.lists(st.integers(min_value=-3, max_value=3), max_size=n).map(
        lambda cs: CycNumber.make(n, cs)
    )
    scale = st.one_of(
        st.integers(min_value=0, max_value=n - 1).map(lambda k: CycNumber.zeta(n, k)),
        st.just(CycNumber.integer(n, 2)),
    )
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(("fresh", "zero", "scaled", "sum") if rows else ("fresh", "zero")))
        if kind == "fresh":
            rows.append(draw(st.dictionaries(columns, entry, max_size=4)))
        elif kind == "zero":
            rows.append({c: CycNumber.zero(n) for c in draw(st.sets(columns, max_size=2))})
        elif kind == "scaled":
            s, base = draw(scale), draw(st.sampled_from(rows))
            rows.append({c: s * v for c, v in base.items()})
        else:
            s, a = draw(scale), draw(st.sampled_from(rows))
            t, b = draw(scale), draw(st.sampled_from(rows))
            row = {c: s * v for c, v in a.items()}
            for c, v in b.items():
                row[c] = row.get(c, CycNumber.zero(n)) + t * v
            rows.append(row)
    return n, rows


@given(sparse_cyc_systems())
@settings(max_examples=200, deadline=None)
@example((3, [{0: CycNumber.integer(3, 2), 1: CycNumber.one(3)}, {0: CycNumber.one(3)}]))
@example((4, [{0: CycNumber.zeta(4)}, {0: CycNumber.zeta(4, 2)}, {}]))
def test_sparse_rank_matches_normalised_pivot_reference(system):
    n, rows = system
    before = [dict(row) for row in rows]
    assert rep_variety._sparse_rank(rows) == ref_sparse_rank(n, rows)
    assert rows == before


@given(square_matrices)
def test_mat_pow_matches_repeated_multiplication(a):
    by_squaring = mat_pow(a, 5)
    direct = a
    for _ in range(4):
        direct = mat_mul(direct, a)
    assert by_squaring == direct
