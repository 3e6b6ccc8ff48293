"""Braid words, the two Alexander routes, and the bundled knot table."""
import pytest
from hypothesis import given, settings, strategies as st

from knotcover.exact_linalg import det_exact
from knotcover.knots import (
    BraidSyntaxError,
    BraidWord,
    DuplicateName,
    IndexOutOfRange,
    KnotTable,
    NotAKnot,
    alexander_burau,
    alexander_checked,
    alexander_fox,
    alexander_seifert,
    braid_closure_wirtinger,
    parse_braid,
    seifert_matrix,
)
from knotcover.laurent_poly import LaurentPoly, symmetrize_alexander

# knot name -> (symmetrized Alexander polynomial, determinant |Delta(-1)|)
CORPUS_ORACLE = {
    "unknot": ("1", 1),
    "3_1": ("1*t^-1 - 1 + 1*t^1", 3),
    "4_1": ("-1*t^-1 + 3 - 1*t^1", 5),
    "5_1": ("1*t^-2 - 1*t^-1 + 1 - 1*t^1 + 1*t^2", 5),
    "5_2": ("2*t^-1 - 3 + 2*t^1", 7),
    "6_1": ("-2*t^-1 + 5 - 2*t^1", 9),
}


@st.composite
def braid_words(draw, max_strands=4, max_letters=8):
    """Random braids whose closure is a knot: random letters, then one
    letter +-i for each adjacent pair i, i + 1 of strands that still lie in
    different cycles of the braid permutation; a transposition across two
    cycles joins them into one."""
    n = draw(st.integers(min_value=2, max_value=max_strands))
    letter = st.integers(min_value=1, max_value=n - 1)
    letters = [
        v * draw(st.sampled_from((1, -1)))
        for v in draw(st.lists(letter, max_size=max_letters))
    ]
    perm = list(range(n))
    for v in letters:
        a = abs(v) - 1
        perm[a], perm[a + 1] = perm[a + 1], perm[a]
    cycle = [0] * n
    for start in range(n):
        if cycle[start] == 0:
            j = start
            while cycle[j] == 0:
                cycle[j] = start + 1
                j = perm[j]
    for i in range(1, n):
        old, new = cycle[i], cycle[i - 1]
        if old != new:
            letters.append(i * draw(st.sampled_from((1, -1))))
            cycle = [new if c == old else c for c in cycle]
    return n, letters


def test_parse_braid_accepts_whitespace_and_prefix():
    b = parse_braid("strands=3;  1   2")
    assert b.strands == 3 and b.letters == (1, 2)
    c = parse_braid("1 2")
    assert c.strands == 3


def test_parse_braid_rejections():
    with pytest.raises(BraidSyntaxError):
        parse_braid("strands=3; x")
    with pytest.raises(BraidSyntaxError):
        parse_braid("strands=3; 0")
    with pytest.raises(IndexOutOfRange):
        parse_braid("strands=2; 2")
    with pytest.raises(IndexOutOfRange):
        parse_braid("strands=2; -2")
    with pytest.raises(NotAKnot):
        parse_braid("strands=3; 1 1")


def test_constructor_checks_closure():
    with pytest.raises(NotAKnot):
        BraidWord(2, ())
    # the empty 1-strand braid closes to the unknot
    assert BraidWord(1, ()).strands == 1


def _no_permutation(self):
    raise AssertionError("the closure permutation was built")


def test_huge_strand_count_is_refused_before_the_permutation(monkeypatch):
    # More than len(letters) + 1 strands close to at least two components;
    # the refusal must not build a permutation as long as the strand count.
    monkeypatch.setattr(BraidWord, "permutation", _no_permutation)
    with pytest.raises(NotAKnot, match="at least 999999999 components"):
        parse_braid("strands=1000000000; 1")
    with pytest.raises(NotAKnot, match="at least 2 components"):
        BraidWord(5, (1, -2, 3))


def test_strand_count_at_the_bound_still_checks_the_closure():
    assert BraidWord(4, (1, -2, 3)).strands == 4
    with pytest.raises(NotAKnot, match="3-component link"):
        BraidWord(4, (1, -2, 1))


def test_permutation_and_writhe():
    b = parse_braid("strands=3; 1 -2")
    assert b.writhe() == 0
    assert b.permutation() == (2, 0, 1)
    assert parse_braid("strands=2; 1 1 1").writhe() == 3


def test_to_text_round_trip():
    for text in ("strands=2; 1 1 1", "strands=4; 1 -2 3", "strands=1;"):
        b = parse_braid(text)
        assert parse_braid(b.to_text()) == b


@pytest.mark.parametrize("name, expected", sorted(CORPUS_ORACLE.items()))
def test_corpus_alexander_polynomials(name, expected):
    text, determinant = expected
    braid = KnotTable.default().get(name)
    delta = alexander_checked(braid)
    assert delta.to_text() == text
    assert abs(delta.eval_rational(-1)) == determinant
    # defining normalizations: symmetric under t -> 1/t, value 1 at t = 1
    assert delta.involute() == delta
    assert delta.eval_rational(1) == 1


@pytest.mark.parametrize("name", sorted(CORPUS_ORACLE))
def test_two_routes_agree_on_corpus(name):
    braid = KnotTable.default().get(name)
    assert alexander_burau(braid) == alexander_fox(braid_closure_wirtinger(braid))


@pytest.mark.parametrize(
    "text, expected",
    [
        # 3_1: loops (0, 1) and (1, 2) of column 1 share the positive crossing 1.
        ("1 1 1", [[1, -1], [0, 1]]),
        # The mirror trefoil: the shared crossing is negative.
        ("-1 -1 -1", [[-1, 0], [1, -1]]),
        # 4_1: loop (0, 2) of column 1 and (1, 3) of column 2 interleave as
        # p1 < q1 < p2 < q2.
        ("1 -2 1 -2", [[1, 1], [0, -1]]),
        # A conjugate of 4_1: loop (1, 3) of column 1 and (0, 2) of column 2
        # interleave as q1 < p1 < q2 < p2.
        ("2 -1 2 -1", [[-1, -1], [0, 1]]),
        # 6_1: column 1 has loops (0, 1) and (1, 3), the second of mixed
        # signs; (1, 3) against column 2's (2, 5), and (2, 5) against
        # column 3's (4, 6), interleave as p1 < q1 < p2 < q2.
        (
            "1 1 2 -1 -3 2 -3",
            [[1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, -1]],
        ),
        ("strands=1;", []),
    ],
)
def test_seifert_matrix_by_hand(text, expected):
    assert seifert_matrix(parse_braid(text)) == expected


@given(braid_words(max_strands=5, max_letters=12))
@settings(max_examples=100, deadline=None)
def test_seifert_route_matches_alexander_and_is_unimodular(nl):
    braid = BraidWord(*nl)
    v = seifert_matrix(braid)
    assert len(v) == len(braid.letters) - braid.strands + 1
    assert alexander_seifert(braid) == alexander_checked(braid)
    assert det_exact([[v[j][i] - v[i][j] for j in range(len(v))] for i in range(len(v))]) in (1, -1)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("name", sorted(CORPUS_ORACLE))
def test_markov_stabilization_fixed_corpus(name, sign):
    braid = KnotTable.default().get(name)
    once = braid.stabilized(sign)
    twice = once.stabilized(-sign)
    assert alexander_burau(once) == alexander_burau(braid)
    assert alexander_burau(twice) == alexander_burau(braid)
    assert once.strands == braid.strands + 1


@given(braid_words())
@settings(max_examples=60, deadline=None)
def test_markov_stabilization_random(nl):
    n, letters = nl
    braid = BraidWord(n, letters)
    delta = alexander_checked(braid)
    assert alexander_checked(braid.stabilized(1)) == delta
    assert alexander_checked(braid.stabilized(-1)) == delta


@given(braid_words())
@settings(max_examples=60, deadline=None)
def test_fox_route_always_matches_burau(nl):
    n, letters = nl
    braid = BraidWord(n, letters)
    delta = alexander_checked(braid)
    assert delta.eval_rational(1) == 1
    assert delta.involute() == delta


@given(braid_words(max_strands=5, max_letters=12))
@settings(max_examples=80, deadline=None)
def test_alexander_invariant_under_mirror_image(nl):
    # The mirror image negates every letter; it turns Delta(t) into
    # Delta(1/t), which is the same symmetrized polynomial.
    n, letters = nl
    mirror = BraidWord(n, [-v for v in letters])
    assert alexander_checked(mirror) == alexander_checked(BraidWord(n, letters))


@given(braid_words(max_strands=5, max_letters=12), st.data())
@settings(max_examples=80, deadline=None)
def test_alexander_invariant_under_conjugation(nl, data):
    # A rotated word is a conjugate braid, whose closure is the same knot.
    n, letters = nl
    k = data.draw(st.integers(min_value=1, max_value=len(letters)))
    rotated = BraidWord(n, letters[k:] + letters[:k])
    assert alexander_checked(rotated) == alexander_checked(BraidWord(n, letters))


def ref_burau_letter(v, n):
    # Unreduced Burau matrix of one letter; fixes the all-ones column vector.
    m = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
    a = abs(v) - 1
    t = LaurentPoly.t
    if v > 0:
        m[a][a], m[a][a + 1] = 1 - t(), t()
        m[a + 1][a], m[a + 1][a + 1] = LaurentPoly.one(), LaurentPoly.zero()
    else:
        m[a][a], m[a][a + 1] = LaurentPoly.zero(), LaurentPoly.one()
        m[a + 1][a], m[a + 1][a + 1] = t(-1), 1 - t(-1)
    return m


def ref_alexander_burau(braid):
    """The Burau route with the word's matrix built as a full product of
    n x n letter matrices, one LaurentPoly matrix product per letter."""
    n = braid.strands
    if n == 1:
        return LaurentPoly.one()
    full = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
    for v in braid.letters:
        step = ref_burau_letter(v, n)
        nxt = [[LaurentPoly.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if full[i][k].is_zero():
                    continue
                for j in range(n):
                    if not step[k][j].is_zero():
                        nxt[i][j] = nxt[i][j] + full[i][k] * step[k][j]
        full = nxt
    quot = [[full[i][j] - full[n - 1][j] for j in range(n - 1)] for i in range(n - 1)]
    char = [[(LaurentPoly.one() if i == j else LaurentPoly.zero()) - quot[i][j] for j in range(n - 1)]
            for i in range(n - 1)]
    return symmetrize_alexander(det_exact(char) / LaurentPoly.all_ones(n))


@given(braid_words(max_strands=6, max_letters=20))
@settings(max_examples=60, deadline=None)
def test_burau_column_updates_match_full_products(nl):
    braid = BraidWord(*nl)
    assert alexander_burau(braid) == ref_alexander_burau(braid)


def test_wirtinger_shapes():
    trefoil = KnotTable.default().get("3_1")
    pres = braid_closure_wirtinger(trefoil)
    assert pres.n_generators == 3
    assert len(pres.relations) == 3
    unknot = parse_braid("strands=1;")
    pres1 = braid_closure_wirtinger(unknot)
    assert pres1.n_generators == 1
    assert pres1.relations == ()
    fig8 = KnotTable.default().get("4_1")
    pres8 = braid_closure_wirtinger(fig8)
    assert pres8.n_generators == 4
    assert len(pres8.relations) == 4


def test_wirtinger_relations_reference_valid_arcs():
    for name in sorted(CORPUS_ORACLE):
        pres = braid_closure_wirtinger(KnotTable.default().get(name))
        for k, i, j, s in pres.relations:
            assert 0 <= k < pres.n_generators
            assert 0 <= i < pres.n_generators
            assert 0 <= j < pres.n_generators
            assert s in (1, -1)
        assert 0 <= pres.base_meridian < pres.n_generators


def test_table_parsing_errors():
    with pytest.raises(DuplicateName):
        KnotTable.parse("a: strands=2; 1 1 1\na: strands=2; 1 1 1")
    with pytest.raises(BraidSyntaxError):
        KnotTable.parse("just a line without separator")
    with pytest.raises(BraidSyntaxError):
        KnotTable.parse(": strands=2; 1 1 1")


def test_table_comments_and_resolve():
    table = KnotTable.parse("# comment\ntref: strands=2; 1 1 1\n\n")
    assert table.names() == ("tref",)
    assert "tref" in table
    name, braid = table.resolve("tref")
    assert name == "tref" and braid.strands == 2
    literal_name, literal = table.resolve("strands=2; 1 1 1")
    assert literal_name is None and literal == braid
    with pytest.raises(KeyError):
        table.get("missing")


def test_default_table_contents():
    table = KnotTable.default()
    for name in CORPUS_ORACLE:
        assert name in table


def test_burau_rejects_nothing_on_corpus():
    # a 1-strand word has an empty Burau matrix; the quotient convention
    # still produces the unknot polynomial
    assert alexander_burau(parse_braid("strands=1;")) == LaurentPoly.one()
