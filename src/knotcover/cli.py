"""
Command-line front end.

Verbs: alexander, invariant, homology, repvar, series, mahler, dim,
selftest.  Knots are referenced by table name or literal braid word; JSON
output carries a top-level schema number, with big integers and rationals
rendered as decimal / "p/q" strings so consumers never truncate them.

Exit codes: 0 success, 1 computation error (the module's error name is
printed), 2 usage error, 3 selftest failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Callable, Sequence

from . import acceptance, invariants, knots, mahler, rep_variety, series
from .errors import CrossCheckMismatch
from .exact_linalg import AbelianGroup

SCHEMA = 1


class CliUsageError(ValueError):
    """A structurally invalid command line that argparse cannot see."""


_USAGE_ERRORS = (
    CliUsageError,
    knots.BraidSyntaxError,
    knots.IndexOutOfRange,
    knots.NotAKnot,
    knots.DuplicateName,
    KeyError,
    OSError,
)


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _resolve(args: argparse.Namespace) -> tuple[str, knots.BraidWord]:
    table = knots.KnotTable.load(args.table) if args.table else knots.KnotTable.default()
    name, braid = table.resolve(args.knot)
    return (name if name is not None else braid.to_text()), braid


def _group_json(group: AbelianGroup) -> dict:
    return {
        "invariant_factors": [str(d) for d in group.invariant_factors],
        "free_rank": group.free_rank,
        "text": group.to_text(),
    }


def _cmd_alexander(args: argparse.Namespace) -> int:
    name, braid = _resolve(args)
    delta = knots.alexander_checked(braid)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "knot": name,
                "braid": braid.to_text(),
                "delta": {
                    "min_deg": delta.min_deg,
                    "coeffs": [str(c) for c in delta.coeffs],
                },
                "text": delta.to_text(),
            }
        )
    else:
        print(delta.to_text())
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    name, braid = _resolve(args)
    delta = knots.alexander_checked(braid)
    rel = invariants.q_relative(delta, args.n)
    group = invariants.cover_homology(braid, args.n)
    agree = (group.free_rank >= 1) if rel.degenerate else (group.order() == rel.value)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "knot": name,
                "N": args.n,
                "value": str(rel.value),
                "sign_determined": rel.sign_determined,
                "degenerate": rel.degenerate,
                "homology": [str(d) for d in group.invariant_factors],
                "free_rank": group.free_rank,
                "method_agreement": agree,
            }
        )
    else:
        tag = (
            "degenerate"
            if rel.degenerate
            else ("sign determined" if rel.sign_determined else "magnitude only")
        )
        print(f"q({name}, N={args.n}) = {rel.value} ({tag})")
        print(f"cover homology: {group.to_text()}")
        print(f"methods agree: {'yes' if agree else 'NO'}")
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    name, braid = _resolve(args)
    delta = knots.alexander_checked(braid)
    group = invariants.cover_homology(braid, args.n)
    magnitude = invariants.cyclic_product_magnitude(delta, args.n)
    if not (group.free_rank >= 1 if magnitude == 0 else group.order() == magnitude):
        raise CrossCheckMismatch(
            f"cover homology {group.to_text()} but the root-of-unity product has magnitude {magnitude}"
        )
    if args.json:
        _emit({"schema": SCHEMA, "knot": name, "N": args.n, **_group_json(group)})
    else:
        print(group.to_text())
    return 0


def _cmd_repvar(args: argparse.Namespace) -> int:
    name, braid = _resolve(args)
    delta = knots.alexander_checked(braid)
    pres = knots.braid_closure_wirtinger(braid)
    t3 = rep_variety.verify_t3_points(args.n)
    ladder = rep_variety.chern_simons_ladder(args.n)
    kernel_count = rep_variety.kernel_torus_count(delta, args.n, args.cap)
    wirt = rep_variety.wirtinger_torus_count(pres, args.n)
    group = invariants.cover_homology(braid, args.n)
    if not kernel_count == wirt == group.order():
        raise CrossCheckMismatch(
            f"{kernel_count} kernel solutions, {wirt} Wirtinger solutions, cover homology {group.to_text()}"
        )
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "knot": name,
                "N": args.n,
                "t3_points": t3,
                "cs_ladder": [_frac(v) for v in ladder],
                "kernel_count": str(kernel_count),
                "wirtinger_count": str(wirt),
                "group": group.to_text(),
            }
        )
    else:
        print(f"3-torus flat points: {t3}")
        print(f"action ladder: {', '.join(_frac(v) for v in ladder)}")
        print(f"kernel solutions: {kernel_count}")
        print(f"Wirtinger solutions: {wirt}")
        print(f"cover homology: {group.to_text()}")
    return 0


def _series_text(ps: series.PowerSeries) -> str:
    parts: list[str] = []
    for k, c in enumerate(ps.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        coeff = str(mag.numerator) if mag.denominator == 1 else _frac(mag)
        term = coeff if k == 0 else (f"{coeff}*s" if k == 1 else f"{coeff}*s^{k}")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def _cmd_series(args: argparse.Namespace) -> int:
    name, braid = _resolve(args)
    delta = knots.alexander_checked(braid)
    ps = series.donaldson_series_xk(delta, args.q_h, args.f_h, args.order)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "knot": name,
                "q_h": args.q_h,
                "f_h": args.f_h,
                "order": args.order,
                "coefficients": [_frac(c) for c in ps.coeffs],
            }
        )
    else:
        print(_series_text(ps))
    return 0


def _cmd_mahler(args: argparse.Namespace) -> int:
    name, braid = _resolve(args)
    delta = knots.alexander_checked(braid)
    by_roots = mahler.mahler_measure_roots(delta)
    by_integral = mahler.mahler_measure_integral(delta, args.samples)
    ns = [n for n in range(3, args.n_max + 1) if n % 2 == 1]
    rows = mahler.asymptotic_table(delta, ns)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "knot": name,
                "measure_roots": by_roots,
                "measure_integral": by_integral,
                "samples": args.samples,
                "rows": [
                    {
                        "n": r.n,
                        "q": str(r.q),
                        "rate": r.rate,
                        "log_alpha": r.log_alpha,
                        "gap": r.gap,
                        "degenerate": r.degenerate,
                    }
                    for r in rows
                ],
            }
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "q", "rate", "log_alpha", "gap", "degenerate"])
        for r in rows:
            writer.writerow(
                [
                    r.n,
                    r.q,
                    "" if r.rate is None else repr(r.rate),
                    repr(r.log_alpha),
                    "" if r.gap is None else repr(r.gap),
                    "true" if r.degenerate else "false",
                ]
            )
    return 0


def _cmd_dim(args: argparse.Namespace) -> int:
    if args.k3:
        bundle = invariants.k3_bundle_data(args.n)
        topology = invariants.K3_TOPOLOGY
        c2, c1_sq = bundle.c2, bundle.c1_sq
    else:
        if args.c2 is None:
            raise CliUsageError("dim needs --k3 or an explicit --c2")
        c2, c1_sq = args.c2, args.c1_sq
        topology = invariants.ManifoldTopology(b2_plus=args.b2_plus, b1=args.b1)
    if topology.b2_plus < 2:
        print(
            f"warning: b2+ = {topology.b2_plus} < 2; the relative invariants"
            " need b2+ >= 2",
            file=sys.stderr,
        )
    kap = invariants.kappa(args.n, c2, c1_sq)
    dim = invariants.formal_dimension(args.n, kap, topology)
    if args.json:
        _emit({"schema": SCHEMA, "kappa": _frac(kap), "dim": dim})
    else:
        print(f"kappa = {_frac(kap)}")
        print(f"dim = {dim}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    numbers = None
    if args.only:
        try:
            numbers = [int(tok) for tok in args.only.split(",") if tok.strip()]
        except ValueError:
            raise CliUsageError(f"--only wants comma-separated integers, got {args.only!r}")
        known = {number for number, _, _ in acceptance.CRITERIA}
        unknown = [k for k in numbers if k not in known]
        if unknown:
            raise CliUsageError(f"no such criterion: {unknown}")
    results = acceptance.run_criteria(numbers)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 3 if failed else 0


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer >= low, so that argparse reports a
    smaller value as a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotcover",
        description="Exact knot invariants, flat-connection counts, and surgery formulas.",
    )
    parser.add_argument(
        "--table", metavar="PATH", help="knot table file overriding the built-in one"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def knot_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("knot", help="table name or literal braid word")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    knot_command("alexander", "symmetrized Alexander polynomial, cross-checked")

    p = knot_command("invariant", "root-of-unity product and branched-cover homology")
    p.add_argument(
        "--n", type=_int_at_least(2), required=True, metavar="N", help="cover degree / rank"
    )

    p = knot_command("homology", "first homology of the cyclic branched cover")
    p.add_argument("--n", type=_int_at_least(2), required=True, metavar="N")

    p = knot_command("repvar", "flat-connection counts at rank N")
    p.add_argument("--n", type=_int_at_least(2), required=True, metavar="N")
    p.add_argument("--cap", type=_int_at_least(1), default=100_000, help="enumeration cap")

    p = knot_command("series", "surgery series expansion in s")
    p.add_argument("--q-h", type=int, default=0, help="self-intersection Q(h)")
    p.add_argument("--f-h", type=int, default=1, help="pairing F.h of the fiber class")
    p.add_argument("--order", type=_int_at_least(0), default=10, help="truncation order")

    p = knot_command("mahler", "Mahler measure and the growth table (CSV)")
    p.add_argument("--n-max", type=_int_at_least(3), default=99, help="largest odd ladder degree")
    p.add_argument("--samples", type=_int_at_least(1), default=4096, help="integration grid size")

    p = sub.add_parser("dim", help="instanton charge and formal moduli dimension")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--n", type=_int_at_least(2), required=True, metavar="N", help="bundle rank")
    p.add_argument("--k3", action="store_true", help="the standard zero-dimension charge on K3")
    p.add_argument("--c2", type=int, help="instanton number")
    p.add_argument("--c1-sq", type=int, default=0, help="obstruction self-intersection")
    p.add_argument("--b2-plus", type=int, default=3)
    p.add_argument("--b1", type=int, default=0)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--only", metavar="NUMBERS", help="comma-separated criterion numbers")
    return parser


_DISPATCH = {
    "alexander": _cmd_alexander,
    "invariant": _cmd_invariant,
    "homology": _cmd_homology,
    "repvar": _cmd_repvar,
    "series": _cmd_series,
    "mahler": _cmd_mahler,
    "dim": _cmd_dim,
    "selftest": _cmd_selftest,
}


# Parsing leaves no state in the parser, so one serves every call to main.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, RuntimeError, AssertionError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
