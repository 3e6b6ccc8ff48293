"""
Tests of the benchmark itself: seeded generation, the answer oracle, the
tracer and the metric names.  Run from the repository root:

    python3 -m pytest knotbench
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run
import worker
import workloads
from oracle import (Oracle, call_cli, canonical_digest, colouring_determinant, parse_braid,
                    query_key, root_product, torus_delta)
from tracer import Stats, Tracer

from knotcover import exact_linalg, invariants, knots, rep_variety
from knotcover.invariants import cyclic_product_magnitude

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def take(name: str, seed: int, count: int = 3) -> list:
    stream = workloads.blocks(name, seed)
    return [next(stream) for _ in range(count)]


@pytest.fixture(scope="module")
def oracle() -> Oracle:
    return Oracle()


def test_benchmark_declares_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_queries_other_seed_other_queries(name):
    assert take(name, 5) == take(name, 5)
    assert take(name, 5) != take(name, 6)


@pytest.mark.parametrize("seed", range(25))
def test_random_braids_close_to_knots(seed):
    rng = random.Random(seed)
    strands = rng.randint(2, 7)
    crossings = rng.choice(workloads.knot_lengths(strands, strands - 1, 30))
    text = workloads.random_braid(rng, strands, crossings, positive=seed % 2 == 0)
    braid = knots.parse_braid(text)  # raises NotAKnot for a link
    assert (braid.strands, len(braid.letters)) == (strands, crossings)


def test_wrong_parity_is_refused_at_once():
    # An even word on 4 strands is an even permutation, never a 4-cycle.
    with pytest.raises(ValueError):
        workloads.random_braid(random.Random(0), 4, 10, positive=False)


def test_rejection_loop_gives_up():
    with pytest.raises(workloads.GenerationExhausted):
        workloads.random_braid(random.Random(0), 5, 2, positive=False, tries=50)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_queries_are_answered_correctly(oracle, name):
    for argv in take(name, 3, count=1)[0][:4]:
        assert oracle.check(argv, *call_cli(argv)) is None, argv


def test_digests_cover_the_growth_workload():
    recorded = json.loads(Path(workloads.__file__).with_name("digests.json").read_text())
    assert sorted(recorded) == sorted(query_key(q) for q in workloads.growth_queries())


def test_oracle_routes_agree_with_the_package():
    # The oracle's own formulas against the package's independent routes.
    for ref, delta in [(r, knots.alexander_burau(knots.KnotTable.default().get(r)))
                       for r in workloads.TABLE_KNOTS]:
        assert Oracle().delta(ref) == (delta.min_deg, delta.coeffs)
        for n in range(2, 40):
            assert Oracle().expected_product(ref, n) == cyclic_product_magnitude(delta, n)
    for p, q in [(2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (7, 5)]:
        delta = knots.alexander_burau(knots.parse_braid(workloads.torus_braid(p, q)))
        assert torus_delta(p, q) == (delta.min_deg, delta.coeffs)


@pytest.mark.parametrize("seed", range(10))
def test_colouring_determinant_matches_the_wirtinger_count(seed):
    rng = random.Random(seed)
    strands = rng.randint(2, 7)
    text = workloads.random_braid(rng, strands, rng.choice(
        workloads.knot_lengths(strands, strands + 3, 30)), positive=False)
    s, letters = parse_braid(text)
    pres = knots.braid_closure_wirtinger(knots.parse_braid(text))
    assert colouring_determinant(s, letters) == rep_variety.wirtinger_torus_count(pres, 2)
    delta = knots.alexander_burau(knots.parse_braid(text))
    assert root_product((delta.min_deg, delta.coeffs), 5) == cyclic_product_magnitude(delta, 5)


CORRECT = [
    ["invariant", "4_1", "--n", "5", "--json"],
    ["invariant", "3_1", "--n", "12", "--json"],
    ["homology", "6_1", "--n", "4", "--json"],
    ["alexander", workloads.torus_braid(3, 4), "--json"],
    ["repvar", "4_1", "--n", "3", "--cap", "5000", "--json"],
    ["repvar", "3_1", "--n", "6", "--cap", "5000", "--json"],
    ["repvar", "6_1", "--n", "10", "--cap", "5000", "--json"],
    ["series", "5_2", "--order", "20", "--json"],
    ["mahler", "4_1", "--n-max", "99", "--json"],
]


@pytest.mark.parametrize("argv", CORRECT, ids=" ".join)
def test_oracle_accepts_correct_answers_and_refusals(oracle, argv):
    assert oracle.check(argv, *call_cli(argv)) is None


def _plant_delta(a: dict) -> None:
    # Symmetric, value 1 at t = 1, but |delta(-1)| = 11 where 5_2 has 7.
    a["delta"] = {"min_deg": -1, "coeffs": ["3", "-5", "3"]}


PLANTED = [
    (["invariant", "4_1", "--n", "5", "--json"], lambda a: a.update(value="122")),
    (["invariant", "3_1", "--n", "12", "--json"], lambda a: a.update(degenerate=False)),
    (["homology", "6_1", "--n", "4", "--json"], lambda a: a.update(invariant_factors=["3", "9"])),
    (["alexander", "5_2", "--json"], _plant_delta),
    (["alexander", "strands=3; 1 1 1 2 -1 2", "--json"], _plant_delta),
    (["alexander", workloads.torus_braid(3, 5), "--json"],
     # Symmetric, monic, of the right degree and |delta(-1)|; only the
     # torus closed form tells it from the answer.
     lambda a: a["delta"].update(coeffs=["1", "-1", "1", "1", "-3", "1", "1", "-1", "1"])),
    (["repvar", "4_1", "--n", "3", "--cap", "5000", "--json"], lambda a: a.update(kernel_count="15")),
    (["series", "3_1", "--order", "20", "--json"], lambda a: a["coefficients"].__setitem__(2, "5/1")),
    (["mahler", "4_1", "--n-max", "99", "--json"], lambda a: a["rows"][0].update(q="17")),
]


@pytest.mark.parametrize("argv,plant", PLANTED, ids=[" ".join(p[0]) for p in PLANTED])
def test_oracle_rejects_planted_wrong_answers(oracle, argv, plant):
    code, out, err = call_cli(argv)
    tampered = json.loads(out)
    plant(tampered)
    assert oracle.check(argv, code, json.dumps(tampered, indent=2), err) is not None


def test_oracle_rejects_wrong_exit_codes(oracle):
    refused = ["repvar", "3_1", "--n", "6", "--cap", "5000", "--json"]
    assert oracle.check(refused, 0, "{}", "") is not None
    assert oracle.check(refused, 1, "", "error: CapExceeded: 9 solutions exceed the cap 5") is not None
    answered = ["invariant", "4_1", "--n", "5", "--json"]
    assert oracle.check(answered, 1, "", "error: CrossCheckMismatch: x") is not None
    assert oracle.check(answered, -1, "", "raised KeyError: 'x'") is not None


def test_float_digits_beyond_eight_do_not_change_a_digest():
    assert canonical_digest('{"x": 0.123456789012}') == canonical_digest('{"x": 0.123456789013}')
    assert canonical_digest('{"x": 0.1234567}') != canonical_digest('{"x": 0.1234568}')


def test_tracer_partitions_time_and_restores_the_package():
    before = invariants.poly_at_matrix
    tracer, stats = Tracer(), Stats()
    tracer.install()
    try:
        assert invariants.poly_at_matrix is not before
        assert exact_linalg.poly_at_matrix is invariants.poly_at_matrix
        with tracer.query(stats):
            code, _, _, _ = worker.run_query(["invariant", "4_1", "--n", "7", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert invariants.poly_at_matrix is before and exact_linalg.poly_at_matrix is before
    assert stats.calls["cli.main"] == 1 and stats.calls["exact_linalg.poly_at_matrix"] >= 1
    # Self times partition the root span's duration.
    assert sum(stats.self_s.values()) == pytest.approx(stats.incl_s["cli.main"], rel=1e-9)
    assert 0 < stats.self_s["invariants.q_relative"] < stats.incl_s["invariants.q_relative"]


def test_every_declared_metric_is_emitted_with_its_unit():
    checker = worker.Checker()
    latencies, slowdowns = worker.closed_loop(checker, "braid_alexander", 1,
                                              seconds=0.2, min_queries=20)
    assert len(latencies) == len(slowdowns) >= 20
    run_result = {"latencies": latencies, "slowdowns": slowdowns, "peak_rss_mb": 1.0,
                  "attempted": checker.attempted, "failed": checker.failed}
    e2e = run.end_to_end([{"setup_s": 0.1, "setup_slowdown": 1.2}], run_result)
    assert {k: unit for k, (_, unit) in e2e.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = worker.traced_loop(checker, "flat_counts", 1, seconds=0.5)
    assert {k: unit for k, (_, unit) in layers.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert checker.failed == 0, checker.examples
