"""
Answer checks for the knotcover benchmark.

Every query's answer is checked by a route other than the one the CLI took,
coded here from the textbook formulas so that the checks do not lean on the
package's internals:

* invariant / homology / repvar: the value, the group order and both counts
  against root_product(), |prod delta(z)| over the nontrivial N-th roots of
  unity as one integer determinant of a companion-matrix power (the CLI uses
  a resultant, a delta(tau) determinant, a float product and Smith forms);
  the figure-eight ladder |q_N| = L_2N - 2 (Lucas numbers) and the trefoil
  period-6 pattern 0, 1, 3, 4, 3, 1 as closed forms; for repvar, the
  expected refusal (Degenerate when the product is 0, CapExceeded above the
  cap) instead of an answer;
* alexander: symmetry, delta(1) = 1, |delta(-1)| against the determinant of
  the Fox colouring matrix of the closed braid, degree c - s + 1 and a unit
  leading coefficient for positive braids, the textbook polynomial of each
  table knot, and (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) for torus braids;
* series / mahler: a digest of the JSON answer recorded from the reference
  implementation (digests.json, written by record_digests.py).

The Alexander polynomial of a knot that is not in the table comes from the
CLI's own `alexander` answer, itself checked as above on the braid workload.
check() returns None for a correct answer and a one-line reason otherwise.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# A Laurent polynomial as (lowest degree, coefficients upward from it).
Poly = tuple[int, tuple[int, ...]]

# Textbook symmetrized Alexander polynomials of the table knots.
TABLE_DELTAS: dict[str, Poly] = {
    "unknot": (0, (1,)),
    "3_1": (-1, (1, -1, 1)),
    "4_1": (-1, (-1, 3, -1)),
    "5_1": (-2, (1, -1, 1, -1, 1)),
    "5_2": (-1, (2, -3, 2)),
    "6_1": (-1, (-2, 5, -2)),
}
TREFOIL_PATTERN = (0, 1, 3, 4, 3, 1)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """
    (exit code, stdout, stderr) of one in-process knotcover CLI call.  An
    exception the CLI lets escape reads as exit code -1.
    """
    from knotcover import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an answer the CLI should never give
            code = -1
            print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def lucas(k: int) -> int:
    """
    >>> [lucas(k) for k in range(6)]
    [2, 1, 3, 4, 7, 11]
    """
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination."""
    m = [row[:] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def root_product(delta: Poly, n: int) -> int:
    """
    |prod of delta(z)| over the nontrivial n-th roots of unity z.  With P the
    polynomial part of delta, of degree d and leading coefficient a, and D
    the integer matrix a * companion(P), the product over all n-th roots is
    a^n det(D^n - a^n I) / a^(nd) up to sign, and z = 1 contributes P(1).

    >>> [root_product(TABLE_DELTAS["4_1"], n) for n in (2, 3, 4)]
    [5, 16, 45]
    """
    coeffs = delta[1]
    d, a = len(coeffs) - 1, coeffs[-1]
    if d == 0:
        return abs(a) ** (n - 1)
    comp = [[0] * d for _ in range(d)]
    for i in range(d):
        if i:
            comp[i][i - 1] = a
        comp[i][d - 1] = -coeffs[i]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    base, k = comp, n
    while k:
        if k & 1:
            power = _mat_mul(power, base)
        base, k = _mat_mul(base, base), k >> 1
    for i in range(d):
        power[i][i] -= a**n
    return abs(_det(power)) // (abs(a) ** (n * (d - 1)) * abs(sum(coeffs)))


def parse_braid(text: str) -> tuple[int, tuple[int, ...]]:
    """
    (strands, letters) of a braid word as the CLI reads it.

    >>> parse_braid("strands=3; 1 -2"), parse_braid("1 -2 1 -2")
    ((3, (1, -2)), (3, (1, -2, 1, -2)))
    """
    m = re.fullmatch(r"\s*strands\s*=\s*(\d+)\s*;(.*)", text, re.S)
    letters = tuple(int(tok) for tok in (m.group(2) if m else text).split())
    return (int(m.group(1)) if m else max(map(abs, letters)) + 1), letters


def colouring_determinant(strands: int, letters: tuple[int, ...]) -> int:
    """
    |delta(-1)| of the closed braid, from its diagram alone: one unknown per
    arc, the Fox colouring relation 2 * over - under_in - under_out = 0 per
    crossing, and the determinant of any first minor of that matrix.

    >>> colouring_determinant(2, (1, 1, 1)), colouring_determinant(3, (1, -2, 1, -2))
    (3, 5)
    """
    if not letters:
        return 1
    parent = list(range(strands + len(letters)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arc_at = list(range(strands))  # the arc at each braid position
    crossings = []
    for new, v in enumerate(letters, start=strands):
        i = abs(v) - 1
        left, right = arc_at[i], arc_at[i + 1]
        if v > 0:  # the left strand passes over and keeps its arc
            crossings.append((left, right, new))
            arc_at[i], arc_at[i + 1] = new, left
        else:
            crossings.append((right, left, new))
            arc_at[i], arc_at[i + 1] = right, new
    for position, arc in enumerate(arc_at):
        parent[find(arc)] = find(position)
    index = {root: k for k, root in enumerate(sorted({find(x) for x in range(len(parent))}))}
    if len(index) != len(crossings):
        raise ValueError(f"{len(index)} arcs for {len(crossings)} crossings: not a knot diagram")
    matrix = [[0] * len(index) for _ in crossings]
    for row, (over, under_in, under_out) in zip(matrix, crossings):
        row[index[find(over)]] += 2
        row[index[find(under_in)]] -= 1
        row[index[find(under_out)]] -= 1
    return abs(_det([row[:-1] for row in matrix[:-1]]))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def torus_delta(p: int, q: int) -> Poly:
    """
    Symmetrized (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)).

    >>> torus_delta(2, 3), torus_delta(3, 4)
    ((-1, (1, -1, 1)), (-3, (1, -1, 0, 1, 0, -1, 1)))
    """
    def binom(k: int) -> list[int]:
        return [-1] + [0] * (k - 1) + [1]

    rem = _poly_mul(binom(p * q), binom(1))
    den = _poly_mul(binom(p), binom(q))
    quo = [0] * (len(rem) - len(den) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        quo[shift] = rem[shift + len(den) - 1] // den[-1]
        for j, c in enumerate(den):
            rem[shift + j] -= quo[shift] * c
    return -(len(quo) - 1) // 2, tuple(quo)


def torus_type(strands: int, letters: tuple[int, ...]) -> tuple[int, int] | None:
    """(p, q) when the word is (1 2 ... p-1)^q, else None."""
    period = tuple(range(1, strands))
    if not period or len(letters) % len(period):
        return None
    q = len(letters) // len(period)
    return (strands, q) if letters == period * q else None


def canonical_digest(text: str) -> str:
    """
    sha256 of a JSON answer with floats rounded to 8 significant digits, so
    an answer that differs from the recorded one only in its last float bits
    still matches.
    """
    def canon(v: Any) -> Any:
        if isinstance(v, float):
            return float(f"{v:.8g}")
        if isinstance(v, list):
            return [canon(x) for x in v]
        if isinstance(v, dict):
            return {k: canon(x) for k, x in v.items()}
        return v

    body = json.dumps(canon(json.loads(text)), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def query_key(argv: list[str]) -> str:
    return " | ".join(argv)


def _group_order(text: str) -> tuple[int, int]:
    """(order of the torsion, free rank) of a group written like 'Z + Z/3'."""
    order, free = 1, 0
    for part in ([] if text == "0" else text.split(" + ")):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        else:
            order *= int(part[2:])
    return order, free


class Oracle:
    """Checks answers; keeps the Alexander polynomials it has asked for."""

    def __init__(self, digests: dict[str, str] | None = None) -> None:
        self._deltas: dict[str, Poly] = dict(TABLE_DELTAS)
        if digests is None and DIGESTS_PATH.is_file():
            digests = json.loads(DIGESTS_PATH.read_text())
        self._digests = digests or {}

    def delta(self, ref: str) -> Poly:
        if ref not in self._deltas:
            code, out, err = call_cli(["alexander", ref, "--json"])
            if code != 0:
                raise ValueError(f"alexander {ref!r} exited {code}: {err.strip()[:200]}")
            d = json.loads(out)["delta"]
            self._deltas[ref] = (d["min_deg"], tuple(int(c) for c in d["coeffs"]))
        return self._deltas[ref]

    def expected_product(self, ref: str, n: int) -> int:
        """|q_N|, by the closed forms where they apply, else by root_product."""
        delta = self.delta(ref)
        if delta == TABLE_DELTAS["4_1"]:
            return lucas(2 * n) - 2
        if delta == TABLE_DELTAS["3_1"]:
            return TREFOIL_PATTERN[n % 6]
        return root_product(delta, n)

    def check(self, argv: list[str], code: int, out: str, err: str) -> str | None:
        verb = argv[0]
        try:
            if verb in ("series", "mahler"):
                return self._check_digest(argv, code, out)
            if verb == "repvar":
                return self._check_repvar(argv, code, out, err)
            if code != 0:
                return f"exit {code}: {err.strip()[:200]}"
            answer = json.loads(out)
            if verb == "alexander":
                return self._check_alexander(argv[1], answer)
            if verb in ("invariant", "homology"):
                return self._check_cover(verb, argv[1], int(argv[3]), answer)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable answer: {type(exc).__name__}: {exc}"
        return f"no check for verb {verb!r}"

    def _check_digest(self, argv: list[str], code: int, out: str) -> str | None:
        want = self._digests.get(query_key(argv))
        if want is None:
            return "no recorded answer for this query"
        if code != 0:
            return f"exit {code}"
        if canonical_digest(out) != want:
            return "answer differs from the recorded one"
        return None

    def _check_cover(self, verb: str, ref: str, n: int, answer: dict) -> str | None:
        m = self.expected_product(ref, n)
        if verb == "invariant":
            if int(answer["value"]) != m:
                return f"value {answer['value']} != {m}"
            if answer["degenerate"] != (m == 0):
                return "degenerate flag is wrong"
            if answer["sign_determined"] != (n % 2 == 1):
                return "sign_determined flag is wrong"
            if answer["method_agreement"] is not True:
                return "methods disagree"
            factors, free = answer["homology"], answer["free_rank"]
        else:
            factors, free = answer["invariant_factors"], answer["free_rank"]
            if _group_order(answer["text"]) != (math.prod(map(int, factors)), free):
                return "group text does not match its factors"
        order = math.prod(map(int, factors))
        if m == 0:
            return None if free >= 1 else "degenerate cover has no free part"
        if free != 0 or order != m:
            return f"group order {order} (free rank {free}) != {m}"
        return None

    def _check_repvar(self, argv: list[str], code: int, out: str, err: str) -> str | None:
        ref, n, cap = argv[1], int(argv[3]), int(argv[5])
        m = self.expected_product(ref, n)
        if m == 0 or m > cap:
            want = "Degenerate" if m == 0 else "CapExceeded"
            if code == 1 and err.startswith(f"error: {want}:"):
                return None
            return f"expected a {want} refusal, got exit {code}: {err.strip()[:200]}"
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        answer = json.loads(out)
        if answer["t3_points"] != n:
            return f"t3_points {answer['t3_points']} != {n}"
        ladder = [Fraction((n - k) % n, n) for k in range(n)]
        if answer["cs_ladder"] != [f"{x.numerator}/{x.denominator}" for x in ladder]:
            return "action ladder is wrong"
        for key in ("kernel_count", "wirtinger_count"):
            if int(answer[key]) != m:
                return f"{key} {answer[key]} != {m}"
        if _group_order(answer["group"]) != (m, 0):
            return f"group {answer['group']} does not have order {m}"
        return None

    def _check_alexander(self, ref: str, answer: dict) -> str | None:
        lo, coeffs = answer["delta"]["min_deg"], tuple(int(c) for c in answer["delta"]["coeffs"])
        if coeffs != coeffs[::-1] or lo != -(len(coeffs) - 1) // 2 or sum(coeffs) != 1:
            return "not a symmetric polynomial with value 1 at t = 1"
        if ref in TABLE_DELTAS:
            return None if (lo, coeffs) == TABLE_DELTAS[ref] else "differs from the table knot's"
        strands, letters = parse_braid(ref)
        at_minus_one = abs(sum(c * (-1) ** i for i, c in enumerate(coeffs)))
        det = colouring_determinant(strands, letters)
        if at_minus_one != det:
            return f"|delta(-1)| = {at_minus_one} but the colouring determinant is {det}"
        if all(v > 0 for v in letters):
            if len(coeffs) - 1 != len(letters) - strands + 1 or abs(coeffs[-1]) != 1:
                return "positive braid: degree or leading coefficient is wrong"
        pq = torus_type(strands, letters)
        if pq is not None and (lo, coeffs) != torus_delta(*pq):
            return f"differs from the torus knot T{pq} closed form"
        return None
