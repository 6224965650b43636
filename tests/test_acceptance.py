"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

The expected values are frozen from independent derivations: closed-form
number theory for the modular family, field arithmetic for the division
rings, and the pure-Python oracles in oracles.py for scans.  Time budgets
are asserted where stated.
"""

from __future__ import annotations

import time

import numpy as np

from deltaring import cli, core, dsl, harness, subsets
from deltaring import constructions as cons
from deltaring.predicates import check_class, class_verdict, revalidate_witness
from deltaring.report import CheckReport, Witness


def _announce(number: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:.2f}s): {detail}")
    assert ok, detail


def _two_three_numbers(limit: int) -> set[int]:
    # independent derivation: m with no prime factor other than 2 and 3
    out = set()
    for m in range(2, limit + 1):
        k = m
        for p in (2, 3):
            while k % p == 0:
                k //= p
        if k == 1:
            out.add(m)
    return out


EXPECTED_ZM = {2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 54, 64,
               72, 81, 96, 108}


def test_criterion_01_modular_classification():
    start = time.monotonic()
    assert _two_three_numbers(120) == EXPECTED_ZM  # the frozen list is the closed form
    got = {m for m in range(2, 121) if class_verdict(dsl.build_str(f"Z{m}"), "2-delta-u")}
    elapsed = time.monotonic() - start
    ok = got == EXPECTED_ZM and elapsed < 5.0
    _announce(1, ok, elapsed,
              f"Zm sweep 2..120 matches the 2^a*3^b set exactly ({len(got)} rings; "
              "exponents read as non-negative, m=1 excluded)")


def test_criterion_02_division_rings():
    start = time.monotonic()
    got = {q for q in (2, 3, 4, 5, 7, 8, 9)
           if class_verdict(dsl.build_str(f"GF({q})"), "2-delta-u")}
    elapsed = time.monotonic() - start
    ok = got == {2, 3} and elapsed < 1.0
    _announce(2, ok, elapsed, f"2-delta-u fields among GF(2..9): {sorted(got)}")


def test_criterion_03_matrix_rings():
    start = time.monotonic()
    ok = True
    for base_text in ("Z2", "Z3"):
        ring = dsl.build_str(f"M(2,{base_text})")
        base = dsl.build_str(base_text)
        report = check_class(ring, "2-delta-u")
        ok &= not report.verdict
        ok &= revalidate_witness(ring, report)
        # the witness from the scan is a unit whose square minus one escapes
        roles = {w.role for w in report.witness}
        ok &= roles == {"unit", "unit-square-minus-one"}
        # the specific matrix [[0,1],[1,1]] must be accepted by the re-validator
        a = cons.matrix_index(base, 2, [[base.zero, base.one], [base.one, base.one]])
        diff = ring.sub(ring.pow(a, 2), ring.one)
        manual = CheckReport(ring.label, "2-delta-u", False,
                             [Witness("unit", a, ring.names[a]),
                              Witness("unit-square-minus-one", diff, ring.names[diff])])
        ok &= diff == a  # its square minus the identity is the matrix itself
        ok &= revalidate_witness(ring, manual)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _announce(3, ok, elapsed,
              "M2(Z2) and M2(Z3) fail 2-delta-u; the [[0,1],[1,1]] witness is accepted")


def test_criterion_04_triangular_rings():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        ring = dsl.build_str(f"T({n},Z3)")
        ok &= class_verdict(ring, "2-delta-u") is True
        ok &= class_verdict(ring, "delta-u") is False
    ok &= dsl.build_str("T(3,Z3)").order == 729
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _announce(4, ok, elapsed, "T_n(Z3) for n=1,2,3 is 2-delta-u but never delta-u")


def test_criterion_05_finite_ring_equivalences():
    start = time.monotonic()
    rings = harness.catalog_rings()
    assert all(r.order <= 1024 for r in rings)
    discrepancies = []
    for r in rings:
        if not (class_verdict(r, "delta-u") == class_verdict(r, "uj")
                == class_verdict(r, "uu")):
            discrepancies.append((r.label, "delta-u/uj/uu"))
        if class_verdict(r, "2-delta-u") != class_verdict(r, "semi-tripotent"):
            discrepancies.append((r.label, "2-delta-u/semi-tripotent"))
        if class_verdict(r, "2-delta-u") != class_verdict(r, "strongly-2-nil-clean"):
            discrepancies.append((r.label, "2-delta-u/strongly-2-nil-clean"))
        if class_verdict(r, "delta-u") != class_verdict(r, "j-clean"):
            discrepancies.append((r.label, "delta-u/j-clean"))
    elapsed = time.monotonic() - start
    ok = not discrepancies and elapsed < 300.0
    _announce(5, ok, elapsed,
              f"verdict equalities over {len(rings)} catalog rings; "
              f"discrepancies: {discrepancies or 'none'}")


def test_criterion_06_oracle_identity():
    start = time.monotonic()
    result = harness.run_check("T-oracle")
    elapsed = time.monotonic() - start
    ok = result.verdict and result.scope_size == len(harness.catalog_rings())
    _announce(6, ok, elapsed,
              f"delta set equals the unit-subring radical on {result.scope_size} rings")


def test_criterion_07_quotient_stability():
    start = time.monotonic()
    result = harness.run_check("T3.5")
    elapsed = time.monotonic() - start
    ok = result.verdict and result.scope_size == len(harness.catalog_rings())
    _announce(7, ok, elapsed,
              f"2-delta-u stable under radical-ideal quotients on {result.scope_size} rings")


def test_criterion_08_group_rings():
    start = time.monotonic()
    ok = True
    for text in ("GR(Z2,C2)", "GR(Z4,C2)", "GR(Z2,V4)", "GR(Z9,C3)"):
        expr = dsl.parse(text)
        ring = dsl.build(expr)
        ok &= class_verdict(ring, "2-delta-u") is True
        _, kernel = cons.augmentation(ring, dsl.build(expr.base), cons.group_catalog()[expr.group])
        ok &= bool(subsets.jacobson_mask(ring)[kernel].all())
    ok &= class_verdict(dsl.build_str("GR(Z2,C3)"), "2-delta-u") is False
    ok &= dsl.build_str("GR(Z9,C3)").order == 729
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _announce(8, ok, elapsed,
              "p-group instances are 2-delta-u with augmentation ideal in the radical; "
              "GR(Z2,C3) is not 2-delta-u")


def test_criterion_09_extension_biconditionals():
    start = time.monotonic()
    ok = dsl.build_str("K(Z4,s=2)").order == 256
    ok &= class_verdict(dsl.build_str("K(Z4,s=2)"), "2-delta-u") is True
    ok &= dsl.build_str("FM(2,Z4,s=2)").order == 256
    ok &= class_verdict(dsl.build_str("FM(2,Z4,s=2)"), "2-delta-u") is True
    ok &= class_verdict(dsl.build_str("Triv(Z5,Z5)"), "2-delta-u") is False
    ok &= class_verdict(dsl.build_str("Triv(Z3,Z3)"), "2-delta-u") is True
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _announce(9, ok, elapsed,
              "scaled block and formal matrix rings over Z4 pass; trivial extensions "
              "split on Z3 versus Z5")


_MUTATION_RINGS = ("Z6", "Z8", "GF(4)", "T(2,Z2)", "M(2,Z2)", "GR(Z2,C2)")


def test_criterion_10_property_suites():
    start = time.monotonic()
    diagram = harness.run_check("T-diagram")
    ok = diagram.verdict

    # every single-cell mutation of these catalog rings must be caught
    missed = []
    for text in _MUTATION_RINGS:
        ring = dsl.build_str(text)
        n = ring.order
        for which in ("add", "mul"):
            table = getattr(ring, which)
            for i in range(n):
                for j in range(n):
                    bad = np.array(table)
                    bad[i, j] = (bad[i, j] + 1) % n
                    add = bad if which == "add" else ring.add
                    mul = bad if which == "mul" else ring.mul
                    try:
                        core.validate_ring(add, mul, ring.zero, ring.one)
                        missed.append((text, which, i, j))
                    except core.AxiomViolation:
                        pass
    ok &= not missed

    exit_code = cli.main(["verify", "all"])
    ok &= exit_code == 0

    first = harness.results_to_json(harness.run_all())
    second = harness.results_to_json(harness.run_all())
    ok &= first == second

    elapsed = time.monotonic() - start
    _announce(10, ok, elapsed,
              f"diagram holds, {'no' if not missed else len(missed)} mutations missed, "
              f"verify-all exit {exit_code}, reports byte-identical: {first == second}")
