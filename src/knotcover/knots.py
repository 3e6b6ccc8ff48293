"""
Braid words, their knot closures, and Alexander polynomials by two
independent routes.

A braid on n strands is a word in the generators 1..n-1, written as a
whitespace-separated list of nonzero integers: the letter i is the positive
crossing of strands i and i+1, the letter -i its inverse.  An optional
"strands=k;" prefix fixes the strand count (required for the empty word).
The closure of a braid is a knot exactly when the induced permutation is a
single n-cycle.

The two Alexander routes:

* the quotient of the unreduced Burau representation, via
  det(I - Q(braid)) / (1 + t + ... + t^(n-1)), and
* Fox calculus on the Wirtinger presentation of the closure, dropping one
  relation and the column of a chosen base meridian.

The Burau matrix of a word is built letter by letter, each letter
rewriting two columns in place; the Fox matrix is read off the relations.
Both determinants are exact_linalg.det_exact over Laurent-polynomial
entries (an integer determinant by Kronecker substitution), and the Burau
quotient is LaurentPoly's exact division.  The two matrices share nothing
but the determinant routine.

Both are normalized to the symmetric representative with value 1 at t = 1,
and agreement of the two routes is the standard cross-check on every knot
this package touches.

A third route, det(V^T - t V) for the Seifert matrix V of the closed braid
(seifert_matrix, alexander_seifert), is compared with the other two by the
tests and the selftest but not on every call: its real use is the
cyclic branched-cover homology in invariants.cover_homology, which needs V
and nothing of size N.
"""
from __future__ import annotations

import dataclasses
import functools
import re
from importlib import resources
from typing import Iterable

from .errors import CrossCheckMismatch, InternalError
from .exact_linalg import det_exact
from .laurent_poly import LaurentPoly, symmetrize_alexander


class BraidSyntaxError(ValueError):
    """Unparseable braid text: a non-integer token or a zero letter."""


class IndexOutOfRange(IndexError):
    """A braid letter references a strand outside 1..strands-1."""


class NotAKnot(ValueError):
    """The braid closure has more than one component."""


class DegenerateMatrix(ArithmeticError):
    """A presentation matrix whose determinant vanishes identically."""


class DuplicateName(ValueError):
    """A knot table defines the same name twice."""


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class BraidWord:
    """
    A braid word with an explicit strand count.  Construction checks that
    every letter is in range and that the closure is a knot, so any braid
    that exists can be fed to the downstream invariants.

    >>> BraidWord(2, (1, 1, 1)).writhe()
    3
    >>> BraidWord(3, (1, -2, 1, -2)).permutation()
    (1, 2, 0)
    >>> BraidWord(2, (1, 1))
    Traceback (most recent call last):
        ...
    knotcover.knots.NotAKnot: braid closure is a 2-component link
    """

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: Iterable[int]):
        letters = tuple(int(v) for v in letters)
        if strands < 1:
            raise BraidSyntaxError(f"strand count must be >= 1, got {strands}")
        for v in letters:
            if v == 0:
                raise BraidSyntaxError("0 is not a braid letter")
            if abs(v) >= strands:
                raise IndexOutOfRange(f"letter {v} out of range for {strands} strands")
        if strands > len(letters) + 1:
            # An s-cycle needs at least s - 1 transpositions, so the closure
            # has at least strands - len(letters) components; refusing here
            # keeps a huge strand count from building its permutation.
            raise NotAKnot(f"braid closure has at least {strands - len(letters)} components")
        self.strands = strands
        self.letters = letters
        components = sum(1 for _ in self._closure_cycles())
        if components != 1:
            raise NotAKnot(f"braid closure is a {components}-component link")

    def writhe(self) -> int:
        return sum(1 if v > 0 else -1 for v in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """
        The closure permutation: entry s is the top position a strand reaches
        next after entering at top position s and wrapping around the closure.
        """
        arr = list(range(self.strands))
        for v in self.letters:
            a = abs(v) - 1
            arr[a], arr[a + 1] = arr[a + 1], arr[a]
        out = [0] * self.strands
        for pos, strand in enumerate(arr):
            out[strand] = pos
        return tuple(out)

    def _closure_cycles(self) -> Iterable[tuple[int, ...]]:
        perm = self.permutation()
        seen = [False] * self.strands
        for start in range(self.strands):
            if seen[start]:
                continue
            cycle = []
            p = start
            while not seen[p]:
                seen[p] = True
                cycle.append(p)
                p = perm[p]
            yield tuple(cycle)

    def stabilized(self, sign: int = 1) -> BraidWord:
        """One Markov stabilization: add a strand and one crossing with it."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return BraidWord(self.strands + 1, self.letters + (sign * self.strands,))

    def to_text(self) -> str:
        body = " ".join(str(v) for v in self.letters)
        if not self.letters or self.strands != max(abs(v) for v in self.letters) + 1:
            return f"strands={self.strands}; {body}".rstrip()
        return body


def parse_braid(text: str) -> BraidWord:
    """
    >>> parse_braid("1 -2 1 -2")
    BraidWord(strands=3, letters=(1, -2, 1, -2))
    >>> parse_braid("strands=1;")
    BraidWord(strands=1, letters=())
    """
    s = text.strip()
    declared = None
    m = re.match(r"strands\s*=\s*(-?\d+)\s*;(.*)", s, re.S)
    if m:
        declared = int(m.group(1))
        s = m.group(2)
    letters = []
    for tok in s.split():
        try:
            v = int(tok)
        except ValueError:
            raise BraidSyntaxError(f"bad braid letter {tok!r}") from None
        letters.append(v)
    if declared is None:
        if not letters:
            raise BraidSyntaxError("empty braid word needs an explicit strands=k; prefix")
        declared = max(abs(v) for v in letters) + 1
    return BraidWord(declared, letters)


@dataclasses.dataclass(frozen=True)
class WirtingerPresentation:
    """
    A Wirtinger presentation of a knot group.  Each relation (k, i, j, s)
    reads m_k = m_j^s m_i m_j^-s: arc k continues arc i after passing under
    the conjugating arc j at a crossing of sign s.
    """

    n_generators: int
    relations: tuple[tuple[int, int, int, int], ...]
    base_meridian: int


def braid_closure_wirtinger(braid: BraidWord) -> WirtingerPresentation:
    """
    The Wirtinger presentation read off the closed-braid diagram: one
    generator per arc, one relation per crossing.  For a knot closure the
    number of arcs equals the number of crossings (or is 1 for the crossing
    free unknot diagram).

    >>> pres = braid_closure_wirtinger(BraidWord(2, (1, 1, 1)))
    >>> pres.n_generators, len(pres.relations)
    (3, 3)
    """
    n = braid.strands
    parent = list(range(n + len(braid.letters)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cur = list(range(n))
    raw_relations: list[tuple[int, int, int, int]] = []
    new = n
    for v in braid.letters:
        a, s = abs(v) - 1, (1 if v > 0 else -1)
        b = a + 1
        over, under = (cur[a], cur[b]) if s > 0 else (cur[b], cur[a])
        raw_relations.append((new, under, over, s))
        if s > 0:
            cur[a], cur[b] = new, over
        else:
            cur[a], cur[b] = over, new
        new += 1
    for p in range(n):
        parent[find(cur[p])] = find(p)

    labels: dict[int, int] = {}

    def cls(x: int) -> int:
        r = find(x)
        if r not in labels:
            labels[r] = len(labels)
        return labels[r]

    base = cls(0)
    relations = tuple((cls(k), cls(i), cls(j), s) for k, i, j, s in raw_relations)
    n_gen = len(labels)
    return WirtingerPresentation(
        n_generators=n_gen,
        relations=relations,
        base_meridian=base,
    )


def alexander_burau(braid: BraidWord) -> LaurentPoly:
    """
    Alexander polynomial through the quotient of the unreduced Burau
    representation by its invariant all-ones vector.

    The Burau matrix of the word is built left to right.  The matrix of one
    letter differs from the identity only in columns a and a+1, so
    right-multiplying by it rewrites just those two columns, entrywise:
    (x, y) -> (x - x*t + y, x*t) for the letter a+1 and
    (x, y) -> (y*t^-1, x + y - y*t^-1) for its inverse.

    >>> alexander_burau(BraidWord(2, (1, 1, 1))).to_text()
    '1*t^-1 - 1 + 1*t^1'
    >>> alexander_burau(parse_braid("strands=1;")).to_text()
    '1'
    """
    n = braid.strands
    if n == 1:
        return LaurentPoly.one()
    full = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
    for v in braid.letters:
        a = abs(v) - 1
        for row in full:
            x, y = row[a], row[a + 1]
            if v > 0:
                xt = LaurentPoly(x.min_deg + 1, x.coeffs)
                row[a], row[a + 1] = x - xt + y, xt
            else:
                yt = LaurentPoly(y.min_deg - 1, y.coeffs)
                row[a], row[a + 1] = yt, x + y - yt
    # Quotient action on C^n / span(1,...,1), in the basis of the first n-1
    # coordinate images.
    quot = [[full[i][j] - full[n - 1][j] for j in range(n - 1)] for i in range(n - 1)]
    char = [[(LaurentPoly.one() if i == j else LaurentPoly.zero()) - quot[i][j] for j in range(n - 1)]
            for i in range(n - 1)]
    det = det_exact(char)
    if det.is_zero():
        raise InternalError("Burau characteristic determinant vanished for a knot closure")
    try:
        quotient = det / LaurentPoly.all_ones(n)
    except ValueError as exc:
        raise InternalError(f"non-exact cyclotomic division in the Burau route: {exc}") from None
    return symmetrize_alexander(quotient)


def alexander_fox(pres: WirtingerPresentation) -> LaurentPoly:
    """
    Alexander polynomial by Fox calculus: differentiate each Wirtinger
    relation, send every meridian to t, drop the last relation row and the
    base meridian column, and take the determinant.

    >>> alexander_fox(braid_closure_wirtinger(BraidWord(3, (1, -2, 1, -2)))).to_text()
    '-1*t^-1 + 3 - 1*t^1'
    """
    g = pres.n_generators
    square = len(pres.relations) == g or (not pres.relations and g == 1)
    if not square:
        raise DegenerateMatrix(
            f"presentation with {g} generators and {len(pres.relations)} relations is not square"
        )
    t = LaurentPoly.t
    rows: list[list[LaurentPoly]] = []
    for k, i, j, s in pres.relations[:-1]:
        row = [LaurentPoly.zero() for _ in range(g)]
        if s > 0:
            row[j] = row[j] + (1 - t())
            row[i] = row[i] + t()
        else:
            row[j] = row[j] + (1 - t(-1))
            row[i] = row[i] + t(-1)
        row[k] = row[k] - 1
        del row[pres.base_meridian]
        rows.append(row)
    # The crossing-free unknot diagram leaves an empty matrix.
    det = det_exact(rows) if rows else LaurentPoly.one()
    if det.is_zero():
        raise DegenerateMatrix("Fox matrix determinant vanished")
    return symmetrize_alexander(det)


def seifert_matrix(braid: BraidWord) -> list[list[int]]:
    """
    The Seifert matrix of the closed braid, from Seifert's algorithm on the
    braid diagram: one disk per strand and one half-twisted band per
    crossing (J. Collins, "An algorithm for computing the Seifert matrix of
    a link from a braid representation").  H_1 of that surface has one loop
    per pair of consecutive crossings in the same braid column, so V is
    2g x 2g with 2g = crossings - strands + 1 for a knot.  Loops are
    ordered column by column, and in braid order within a column.

    The checks that can be made from outside (det(V^T - t V) is the
    Alexander polynomial, V^T - V is unimodular, the cover homology matches
    the Wirtinger presentation) fix only the diagonal: sixteen choices of
    the off-diagonal orientations, V <-> -V^T among them, pass them all.
    This function pins the following one.  Positions are letter indices,
    and a positive letter has sign e = +1:

    * V[x][x] = e when both crossings of loop x have sign e, 0 when they
      differ;
    * consecutive loops x, y of one column share a crossing: V[x][y] = -1
      if it is positive, V[y][x] = +1 if it is negative;
    * loop x of column i spanning positions p1 < p2 and loop y of column
      i + 1 spanning q1 < q2: V[x][y] = +1 if p1 < q1 < p2 < q2, and -1 if
      q1 < p1 < q2 < p2; nested or disjoint spans give 0.

    >>> seifert_matrix(BraidWord(2, (1, 1, 1)))
    [[1, -1], [0, 1]]
    >>> seifert_matrix(BraidWord(3, (1, -2, 1, -2)))
    [[1, 1], [0, -1]]
    """
    columns: dict[int, list[int]] = {}
    for pos, v in enumerate(braid.letters):
        columns.setdefault(abs(v), []).append(pos)
    loops = [
        (col, p1, p2)
        for col in sorted(columns)
        for p1, p2 in zip(columns[col], columns[col][1:])
    ]
    sign = [1 if v > 0 else -1 for v in braid.letters]
    size = len(loops)
    out = [[0] * size for _ in range(size)]
    for x, (col, p1, p2) in enumerate(loops):
        if sign[p1] == sign[p2]:
            out[x][x] = sign[p1]
        if x + 1 < size and loops[x + 1][0] == col:
            if sign[p2] > 0:
                out[x][x + 1] = -1
            else:
                out[x + 1][x] = 1
        for y, (other, q1, q2) in enumerate(loops):
            if other != col + 1:
                continue
            if p1 < q1 < p2 < q2:
                out[x][y] = 1
            elif q1 < p1 < q2 < p2:
                out[x][y] = -1
    return out


def alexander_seifert(braid: BraidWord) -> LaurentPoly:
    """
    Alexander polynomial as det(V^T - t V) for the Seifert matrix V.

    >>> alexander_seifert(BraidWord(3, (1, -2, 1, -2))).to_text()
    '-1*t^-1 + 3 - 1*t^1'
    >>> alexander_seifert(parse_braid("strands=1;")).to_text()
    '1'
    """
    v = seifert_matrix(braid)
    if not v:
        return LaurentPoly.one()
    size = len(v)
    det = det_exact(
        [[LaurentPoly(0, (v[j][i], -v[i][j])) for j in range(size)] for i in range(size)]
    )
    return symmetrize_alexander(det)


def alexander_checked(braid: BraidWord) -> LaurentPoly:
    """
    Alexander polynomial with the two routes compared; raises
    CrossCheckMismatch when they disagree.
    """
    via_burau = alexander_burau(braid)
    via_fox = alexander_fox(braid_closure_wirtinger(braid))
    if via_burau != via_fox:
        raise CrossCheckMismatch(
            f"Burau gives {via_burau.to_text()} but Fox calculus gives {via_fox.to_text()}"
        )
    return via_burau


class KnotTable:
    """
    Named braid words loaded from a table file of "name: braid" lines.
    The packaged default, parsed once per process, holds the standard knots.

    >>> KnotTable.default().get("3_1")
    BraidWord(strands=2, letters=(1, 1, 1))
    """

    def __init__(self, entries: dict[str, BraidWord]):
        self._entries = dict(entries)

    @staticmethod
    def parse(text: str) -> KnotTable:
        entries: dict[str, BraidWord] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise BraidSyntaxError(f"table line without a colon: {line!r}")
            name, braid_text = (part.strip() for part in line.split(":", 1))
            if not name:
                raise BraidSyntaxError(f"table line without a name: {line!r}")
            if name in entries:
                raise DuplicateName(f"knot name defined twice: {name}")
            entries[name] = parse_braid(braid_text)
        return KnotTable(entries)

    @staticmethod
    def load(path: str) -> KnotTable:
        with open(path, encoding="utf-8") as fh:
            return KnotTable.parse(fh.read())

    @staticmethod
    @functools.cache
    def default() -> KnotTable:
        text = resources.files("knotcover").joinpath("tables/standard_knots.txt").read_text("utf-8")
        return KnotTable.parse(text)

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> BraidWord:
        if name not in self._entries:
            raise KeyError(name)
        return self._entries[name]

    def resolve(self, ref: str) -> tuple[str | None, BraidWord]:
        """A table name, or failing that a literal braid word."""
        if ref in self._entries:
            return ref, self._entries[ref]
        return None, parse_braid(ref)
