"""
The acceptance gate: one test per criterion, each delegating to the
cross-checked implementation in knotcover.acceptance.  A failing criterion
raises VerificationFailed carrying the exact inequality that broke; a passing
one prints its PASS line with the measured detail.  Also: the package's
exports.
"""
import re

import pytest

import knotcover
from knotcover.acceptance import CRITERIA, run_criteria


def _ident(entry):
    number, title, _ = entry
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
    return f"{number:02d}_{slug}"


@pytest.mark.parametrize("entry", CRITERIA, ids=[_ident(e) for e in CRITERIA])
def test_criterion(entry, capsys):
    number, title, fn = entry
    detail = fn()  # raises VerificationFailed with the specific failure
    with capsys.disabled():
        print(f"\nPASS {number:2d}. {title}: {detail}", end="")


def test_run_criteria_covers_all_eleven():
    results = run_criteria()
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_run_criteria_subset_and_capture():
    only_two = run_criteria([4, 9])
    assert [r.number for r in only_two] == [4, 9]
    assert all(r.line().startswith("PASS") for r in only_two)


def test_exports_resolve_and_deleted_names_are_gone():
    for name in knotcover.__all__:
        assert hasattr(knotcover, name), name
    # Names the package must not export: test-only API, a second polynomial type.
    deleted = (
        "IntPoly", "cyc_det", "cyc_mat_mul", "mat_vec", "lift_shift", "LiftIndex",
        "FlatPoint", "flat_points",
    )
    for name in deleted:
        assert name not in knotcover.__all__
        assert not hasattr(knotcover, name), name
