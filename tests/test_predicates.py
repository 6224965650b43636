from __future__ import annotations

import ast
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from deltaring import core, dsl, harness, predicates as pr, subsets
from deltaring.errors import UnknownClass
from deltaring.predicates import check_class, class_verdict, revalidate_witness
from deltaring.report import CheckReport, Witness

import oracles
from conftest import bench_pool, traced_peak
from oracles import members


def b(expr: str):
    return dsl.build_str(expr)


# ---------------------------------------------------------------------------
# unit classes


def test_two_delta_u_examples():
    assert class_verdict(b("Z12"), "2-delta-u") is True
    report = check_class(b("Z5"), "2-delta-u")
    assert report.verdict is False
    roles = {w.role: w.element for w in report.witness}
    assert roles == {"unit": 2, "unit-square-minus-one": 3}
    assert class_verdict(b("Z3"), "delta-u") is False
    assert class_verdict(b("Z3"), "2-delta-u") is True


def test_unit_classes_against_naive():
    for expr in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z8", "Z9", "Z12", "GF(4)",
                 "M(2,Z2)", "T(2,Z3)", "Prod(Z2,Z2)", "GR(Z2,C2)"):
        R = b(expr)
        assert class_verdict(R, "delta-u") == oracles.naive_is_delta_u(R), expr
        assert class_verdict(R, "uj") == oracles.naive_is_uj(R), expr
        assert class_verdict(R, "uu") == oracles.naive_is_uu(R), expr
        assert class_verdict(R, "2-delta-u") == oracles.naive_is_two_delta_u(R), expr


def test_uuc_counts_trivial_decomposition():
    # in Z2 the unit 1 decomposes as 0+1 and 1+... 1 = 1 + 0 is not allowed
    # (0 is not a unit), so the count is exactly one and Z2 is uuc
    assert class_verdict(b("Z2"), "uuc") is True
    report = check_class(b("Z6"), "uuc")
    # 5 = 0+5 and 5 = 1+4? 4 is not a unit; 5 = 3+2? 2 is not a unit.
    # 1 = 0+1 = 4+3? 3 is not a unit... scan decides; re-check any failure
    assert revalidate_witness(b("Z6"), report) or report.verdict


def test_unj_uses_literal_sumset():
    R = b("Z12")
    report = check_class(R, "unj")
    assert "sumset" in report.notes
    nil = members(subsets.nilpotent_mask(R))
    jac = members(subsets.jacobson_mask(R))
    sums = {int(R.add[q, j]) for q in nil for j in jac}
    expected = all(R.sub(u, R.one) in sums for u in members(subsets.unit_mask(R))) and \
        all(int(R.add[R.one, s]) in set(members(subsets.unit_mask(R))) for s in sums)
    assert report.verdict == expected


def test_uq_notes_record_definition():
    report = check_class(b("Z4"), "uq")
    assert "quasinilpotent" in report.notes


def test_two_uu_examples():
    assert class_verdict(b("Z4"), "2-uu") is True    # both unit squares are 1
    assert class_verdict(b("Z9"), "2-uu") is True    # squares land in 1 + {0,3,6}
    assert class_verdict(b("GF(4)"), "2-uu") is False


def test_strongly_nil_clean_examples():
    assert class_verdict(b("Z4"), "strongly-nil-clean") is True   # 3 = 1 + 2
    assert class_verdict(b("Z3"), "strongly-nil-clean") is False  # 2 is neither e nor e+q
    assert class_verdict(b("T(2,Z2)"), "strongly-nil-clean") is True


# ---------------------------------------------------------------------------
# regularity


def test_regularity_examples():
    assert class_verdict(b("Z6"), "regular") is True
    report = check_class(b("Z4"), "regular")
    assert report.verdict is False and report.witness[0].element == 2
    assert class_verdict(b("Z4"), "semiregular") is True
    assert class_verdict(b("GF(9)"), "unit-regular") is True
    for expr in ("Z4", "Z6", "Z12", "M(2,Z2)", "T(2,Z2)"):
        R = b(expr)
        assert class_verdict(R, "pi-regular") is True, expr        # finite ring
        assert class_verdict(R, "strongly-pi-regular") is True, expr


def test_strongly_regular_matches_brute_force():
    for expr in ("Z4", "Z6", "M(2,Z2)", "GF(8)"):
        R = b(expr)
        expected = all(
            any(int(R.mul[int(R.mul[a, a]), r]) == a for r in range(R.order))
            for a in range(R.order))
        assert class_verdict(R, "strongly-regular") == expected, expr


def _literal_element_masks(R) -> dict[str, list[bool]]:
    """Each element's condition for the eight classes whose scans read
    `subsets.idempotent_reach`, a product set, the idempotent commutant or
    rows of `mul` in blocks, by plain loops over the defining condition."""
    n, mul = R.order, R.mul.tolist()
    idem = oracles.naive_idempotents(R)
    units = oracles.naive_units(R)
    jac = set(oracles.naive_jacobson(R))
    nil = set(oracles.naive_nilpotents(R))
    right = [set(row) for row in mul]                 # a*R

    def powers(a):
        p = a
        for _ in range(n):
            yield p
            p = mul[p][a]

    regular = [any(mul[mul[a][x]][a] == a for x in range(n)) for a in range(n)]
    return {
        "regular": regular,
        "unit-regular": [any(mul[mul[a][u]][a] == a for u in units) for a in range(n)],
        "pi-regular": [any(regular[p] for p in powers(a)) for a in range(n)],
        "exchange": [any(e in right[a] and R.sub(R.one, e) in right[R.sub(R.one, a)]
                         for e in idem) for a in range(n)],
        "semipotent": [a in jac or any(e != R.zero and e in right[a] for e in idem)
                       for a in range(n)],
        "strongly-regular": [a in right[mul[a][a]] for a in range(n)],
        "strongly-pi-regular": [any(p in right[mul[p][a]] for p in powers(a)) for a in range(n)],
        "strongly-nil-clean": [any(R.sub(a, e) in nil and mul[e][R.sub(a, e)] == mul[R.sub(a, e)][e]
                                   for e in idem) for a in range(n)],
    }


ELEMENT_MASKS = {"regular": pr._regular_mask, "unit-regular": pr._unit_regular_mask,
                 "pi-regular": pr._pi_regular_mask, "exchange": pr._exchange_mask,
                 "semipotent": pr._semipotent_mask, "strongly-regular": pr._strongly_regular_mask,
                 "strongly-pi-regular": pr._strongly_pi_regular_mask,
                 "strongly-nil-clean": pr._strongly_nil_clean_mask}
MASK_SAMPLE = ("Z4", "Z6", "Z8", "Z12", "GF(8)", "M(2,Z2)", "T(2,Z2)", "T(2,Z3)", "T(3,Z2)",
               "GR(Z2,C3)", "GR(Z2,S3)", "K(Z4,s=2)", "Triv(Z4,Z4)", "Prod(Z4,GF(4))",
               "TruncSkew(GF(4),frob,2)", "M(2,Z3)")


@pytest.mark.parametrize("block_cells", [None, 4])
def test_element_masks_match_literal_conditions(monkeypatch, block_cells, computed):
    # the regular, pi-regular, exchange and semipotent masks come from the
    # idempotents-in-a*R matrix, the unit-regular mask from the product set
    # E*U, the strongly-nil-clean mask from the idempotent commutant, and the
    # strongly-(pi-)regular masks from rows of mul; each must equal its
    # defining condition element by element, with tables in one block and
    # split into blocks of a few rows
    if block_cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", block_cells)
    seen_false = set()
    for expr in MASK_SAMPLE:
        R = core._relabel(b(expr), expr)              # a fresh memo
        for name, expected in _literal_element_masks(R).items():
            assert ELEMENT_MASKS[name](R).tolist() == expected, (expr, name)
            if not all(expected):
                seen_false.add(name)
        for key in ("idem_reach", "regular_mask", "idem_commutant"):
            assert computed.count((expr, key)) == 1, (expr, key)
    assert seen_false == {"regular", "unit-regular", "strongly-regular", "strongly-nil-clean"}


@pytest.mark.parametrize("block_cells", [None, 4])
def test_idempotent_commutant_is_literal_commuting(monkeypatch, block_cells, computed):
    # row j of the commutant says which x commute with the j-th smallest
    # idempotent e: e*x == x*e, cell by cell
    if block_cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", block_cells)
    for expr in MASK_SAMPLE:
        R = core._relabel(b(expr), expr)              # a fresh memo
        mul = R.mul.tolist()
        expected = [[mul[e][x] == mul[x][e] for x in range(R.order)]
                    for e in oracles.naive_idempotents(R)]
        assert subsets.idempotent_commutant(R).tolist() == expected, expr
        assert computed.count((expr, "idem_commutant")) == 1, expr


# ---------------------------------------------------------------------------
# clean family


def test_clean_examples():
    assert class_verdict(b("Z4"), "semi-tripotent") is True
    assert class_verdict(b("Z2"), "j-clean") is True
    assert class_verdict(b("Z6"), "clean") is True
    R = b("Z6")
    e, u = 3, 5
    assert int(R.add[e, u]) == 2  # 2 = 3 + 5 is one clean decomposition


def test_clean_family_against_naive():
    for expr in ("Z4", "Z6", "Z9", "Z12", "M(2,Z2)", "T(2,Z3)", "GR(Z2,C3)"):
        R = b(expr)
        assert class_verdict(R, "j-clean") == oracles.naive_is_j_clean(R), expr
        assert class_verdict(R, "semi-tripotent") == \
            oracles.naive_is_semi_tripotent(R), expr
        assert class_verdict(R, "strongly-2-nil-clean") == \
            oracles.naive_is_strongly_2_nil_clean(R), expr


def test_exchange_true_on_finite_rings():
    for expr in ("Z4", "Z6", "Z12", "M(2,Z2)", "T(2,Z2)", "GF(8)"):
        assert class_verdict(b(expr), "exchange") is True, expr


# ---------------------------------------------------------------------------
# structural


def test_structural_examples():
    assert class_verdict(b("Prod(Z2,Z2)"), "boolean") is True
    assert class_verdict(b("Z6"), "tripotent") is True
    assert class_verdict(b("Z4"), "local") is True
    assert class_verdict(b("T(2,Z2)"), "2-primal") is True
    assert class_verdict(b("GF(8)"), "division") is True
    assert class_verdict(b("Z6"), "division") is False
    assert class_verdict(b("M(2,Z2)"), "semisimple") is True
    assert class_verdict(b("Z4"), "semisimple") is False
    assert class_verdict(b("M(2,Z2)"), "abelian") is False
    assert class_verdict(b("Z12"), "abelian") is True
    assert class_verdict(b("M(2,Z2)"), "2-primal") is False
    assert class_verdict(b("Z9"), "2-boolean") is False
    assert class_verdict(b("Z8"), "2-boolean") is False  # 4 squares to 0, not 4
    assert class_verdict(b("Prod(Z2,Z3)"), "2-boolean") is True  # squares land on idempotents
    assert class_verdict(b("Z3"), "2-boolean") is True  # squares are 0 or 1


def test_dedekind_finite_always_true_on_catalog_sample():
    for expr in ("Z4", "M(2,Z2)", "M(2,Z3)", "T(3,Z2)", "GR(Z2,S3)", "K(Z4,s=2)"):
        assert class_verdict(b(expr), "dedekind-finite") is True, expr


def test_semipotent_and_potent():
    for expr in ("Z4", "Z6", "M(2,Z2)", "T(2,Z2)", "GR(Z2,C2)"):
        assert class_verdict(b(expr), "semipotent") is True, expr
        assert class_verdict(b(expr), "potent") is True, expr
    report = check_class(b("Z8"), "semipotent")
    assert "principal right ideal" in report.notes


def test_jacobson_pair_examples():
    assert pr.jacobson_pair_check(b("Z4")).verdict is True
    assert pr.jacobson_pair_check(b("Prod(Z2,Z2)")).verdict is True
    assert pr.jacobson_pair_check(b("Z30")).verdict is True  # commutative
    report = pr.jacobson_pair_check(b("M(2,Z2)"))
    assert "hypothesis" in report.notes


@pytest.mark.parametrize("block_cells", [None, 4, 37])
def test_jacobson_pair_scan_matches_the_whole_array_scan(monkeypatch, block_cells, computed):
    # T2.11 compares square tiles of [1 - ab in delta] with the transposed
    # tiles of [1 - ba in delta] (`core._is_symmetric`); the report must be
    # the literal n-by-n comparison's, its witness the first failing pair in
    # row-major order.  37 cells make tiles of side 6, which most orders
    # here are not multiples of, so a row of tiles ends in a narrower tile.
    # Every catalog ring passes with its own delta set, so seeded random
    # sets stand in for it as well, to reach failing pairs
    if block_cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(7)
    rings = [R for R in harness.catalog_rings() if R.order <= 64]
    assert any(not class_verdict(R, "delta-u") for R in rings)
    failed, fresh = 0, []
    for ring in rings:
        R = core._relabel(ring, ring.label)                 # a fresh memo
        fresh.append(R)
        notes = f"delta-u hypothesis {'holds' if class_verdict(R, 'delta-u') else 'does not hold'}"
        for delta in (subsets.delta_mask(R), rng.random(R.order) < 0.5):
            in_delta = delta[R.add[R.one, R.neg][R.mul]]
            bad = np.argwhere(in_delta != in_delta.T)
            expected = [int(x) for x in bad[0]] if bad.size else []
            with monkeypatch.context() as mp:
                mp.setattr(subsets, "delta_mask", lambda ring, delta=delta: delta)
                report = pr.jacobson_pair_check(R)
            assert report.verdict == (not expected), R.label
            assert [w.element for w in report.witness] == expected, R.label
            assert [w.role for w in report.witness] == (
                ["left-factor", "right-factor"] if expected else []), R.label
            assert report.notes == notes, R.label
            failed += not report.verdict
    assert failed > 10
    # each delta set read above was computed in this test, once for its tables
    labels = {label for label, key in computed if key == "delta_mask"}
    for R in fresh:
        assert labels & {S.label for S in fresh if S._tables is R._tables}, R.label


def test_jacobson_pair_scan_holds_no_table():
    # the two sides are compared one pair of square tiles at a time; the
    # whole-array gather and its transpose held 1.26 tables
    R = b("Prod(Z32,Z64)")
    assert traced_peak(pr.jacobson_pair_check, R) < 0.25 * R.order ** 2 * 4


# ---------------------------------------------------------------------------
# registry, implications, witnesses


def test_unknown_class():
    with pytest.raises(UnknownClass):
        check_class(b("Z4"), "totally-made-up")


def _bench_categories() -> tuple[str, ...]:
    """The categories whose `predicates.{cat}.self_s` bench/run.py reports."""
    source = (Path(__file__).parent.parent / "bench" / "run.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_CATEGORIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py no longer names its class categories")


def test_registry_is_the_class_table_seen_by_the_tracer():
    # bench/tracer.py wraps each scan in CLASS_REGISTRY and names its span
    # after the category stored beside it; bench/run.py reads one metric per
    # category, so each must have a row
    assert list(pr.CLASS_REGISTRY) == list(pr.CLASSES)
    for name, row in pr.CLASSES.items():
        assert pr.CLASS_REGISTRY[name] == (row[0], row[2]), name
    categories = {category for category, *_ in pr.CLASSES.values()}
    assert categories == set(_bench_categories())


def test_racing_threads_share_one_memoized_report():
    # more threads than cores start together on a fresh ring, with frequent
    # switches; each may compute a report, but all must get the one stored first
    R = b("T(3,Z2)")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in ("2-delta-u", "semiregular", "exchange"):
            fresh = core.validate_ring(R.add, R.mul, R.zero, R.one, label=R.label)
            barrier = threading.Barrier(4)
            got = [None] * 4

            def work(i):
                barrier.wait(timeout=60)
                got[i] = check_class(fresh, name)
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), name
            assert got[0] is not None and all(g is got[0] for g in got), name
            assert check_class(fresh, name) is got[0], name
    finally:
        sys.setswitchinterval(interval)


def test_implication_diagram_on_sample():
    arrows = [("uj", "2-uj"), ("uj", "delta-u"), ("2-uj", "2-delta-u"),
              ("delta-u", "2-delta-u"), ("delta-u", "uuc")]
    for expr in ("Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z12", "GF(4)", "GF(5)",
                 "M(2,Z2)", "T(2,Z2)", "T(2,Z3)", "Prod(Z2,Z2)", "GR(Z2,C2)",
                 "Triv(Z3,Z3)"):
        R = b(expr)
        for low, high in arrows:
            if class_verdict(R, low):
                assert class_verdict(R, high), (expr, low, high)


def test_regular_implies_semiregular_implies_exchange():
    for expr in ("Z2", "Z4", "Z6", "Z9", "GF(8)", "M(2,Z2)", "T(2,Z2)",
                 "Prod(Z2,Z3)", "GR(Z3,C2)"):
        R = b(expr)
        if class_verdict(R, "regular"):
            assert class_verdict(R, "semiregular"), expr
        if class_verdict(R, "semiregular"):
            assert class_verdict(R, "exchange"), expr


def test_clean_iff_exchange_on_abelian():
    for expr in ("Z4", "Z6", "Z12", "Z16", "GF(4)", "Prod(Z2,Z3)", "GR(Z2,C2)",
                 "Triv(Z5,Z5)"):
        R = b(expr)
        if class_verdict(R, "abelian"):
            assert class_verdict(R, "clean") == class_verdict(R, "exchange"), expr


def _squarefree(m: int) -> bool:
    for p in range(2, m + 1):
        if p * p > m:
            break
        if m % (p * p) == 0:
            return False
    return True


def _prime_power(m: int) -> bool:
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
        p += 1
    return True  # m itself is prime


def test_semisimple_matches_squarefree_on_modular_rings():
    for m in range(2, 121):
        assert class_verdict(b(f"Z{m}"), "semisimple") == _squarefree(m), m


def test_local_matches_prime_power_on_modular_rings():
    for m in range(2, 121):
        assert class_verdict(b(f"Z{m}"), "local") == _prime_power(m), m


def test_group_rings_match_maschke():
    # a group ring over Zm (or GF(p^k)) is semisimple exactly when the
    # coefficient ring is and the group order is invertible there
    import math

    from deltaring.constructions import group_catalog
    cases = [("Z2", 2, "C2"), ("Z2", 2, "C3"), ("Z3", 3, "C2"), ("Z3", 3, "C3"),
             ("Z5", 5, "C2"), ("Z6", 6, "C2"), ("GF(4)", 2, "C2"),
             ("GF(4)", 2, "C3"), ("Z2", 2, "S3"), ("Z5", 5, "C3"),
             ("Z7", 7, "C2")]
    for base, char_base, gname in cases:
        ring = dsl.build_str(f"GR({base},{gname})")
        order = group_catalog()[gname].order
        base_semisimple = class_verdict(b(base), "semisimple")
        expected = base_semisimple and math.gcd(char_base, order) == 1
        assert class_verdict(ring, "semisimple") == expected, (base, gname)


def test_every_false_witness_revalidates():
    checked = 0
    for R in harness.catalog_rings():
        for name in pr.ALL_CLASSES:
            report = check_class(R, name)
            if not report.verdict:
                assert report.witness, (R.label, name)
                assert revalidate_witness(R, report), (R.label, name)
                checked += 1
    assert checked == 3459  # every false verdict of class_reports.json


def test_every_false_witness_revalidates_on_the_inspect_pool():
    # orders 256-2048, where witnesses fall past the first row block of the
    # blocked masks
    checked = 0
    for expr, _ in bench_pool().INSPECT_POOL:
        R = b(expr)
        for name in pr.ALL_CLASSES:
            report = check_class(R, name)
            if not report.verdict:
                assert revalidate_witness(R, report), (expr, name)
                checked += 1
    assert checked == 602


# For every class, witness roles as its scan reports them, pointing at
# elements that satisfy the condition: the re-check must refuse each.  For
# clean, exchange, semiregular, pi-regular, strongly-pi-regular, semipotent,
# potent and dedekind-finite, which no catalog ring fails, these are the only
# reports their re-checks see.
_NEGATIVE_CONTROLS = {
    "uj": ("Z4", {"unit": 3, "unit-minus-one": 2}),
    "uu": ("Z4", {"unit": 3, "unit-minus-one": 2}),
    "delta-u": ("Z4", {"unit": 3, "unit-minus-one": 2}),
    "uq": ("Z4", {"set-element": 2, "one-plus-set-element": 3}),
    "unj": ("Z4", {"set-element": 2, "one-plus-set-element": 3}),
    "uuc": ("Z2", {"unit": 1}),
    "2-uj": ("Z4", {"unit": 3, "unit-square-minus-one": 0}),
    "2-uu": ("Z9", {"unit": 2, "unit-square-minus-one": 3}),
    "2-delta-u": ("Z3", {"unit": 2, "unit-square-minus-one": 0}),
    "2-uq": ("Z4", {"unit": 3, "unit-square-minus-one": 0}),
    "2-unj": ("Z9", {"unit": 4, "unit-square-minus-one": 6}),
    "regular": ("Z6", {"element": 2}),
    "unit-regular": ("Z6", {"element": 2}),
    "strongly-regular": ("Z6", {"element": 2}),
    "pi-regular": ("Z4", {"element": 2}),
    "strongly-pi-regular": ("Z4", {"element": 2}),
    "semiregular": ("Z4", {"element-with-nonregular-image": 1}),
    "clean": ("Z6", {"element": 2}),
    "exchange": ("Z6", {"element": 2}),
    "j-clean": ("Z4", {"element": 3}),
    "delta-clean": ("Z4", {"element": 3}),
    "strongly-nil-clean": ("Z4", {"element": 3}),
    "strongly-2-nil-clean": ("Z4", {"element": 3}),
    "semi-tripotent": ("Z4", {"element": 3}),
    "boolean": ("Z2", {"element": 1, "square": 1}),
    "2-boolean": ("Z3", {"element": 2, "square": 1}),
    "tripotent": ("Z3", {"element": 2, "cube": 2}),
    "reduced": ("Z6", {"nonzero-nilpotent": 3}),
    "abelian": ("Z6", {"idempotent": 3, "non-commuting-element": 2}),
    "dedekind-finite": ("Z6", {"left-factor": 5, "right-factor": 5}),
    "local": ("Z4", {"non-unit-non-radical": 1}),
    "division": ("Z5", {"nonzero-non-unit": 2}),
    "semisimple": ("Z6", {"nonzero-radical-element": 3}),
    "semipotent": ("Z6", {"element": 2}),
    "potent": ("Z4", {"unlifted-idempotent-rep": 1}),
    "2-primal": ("Z4", {"nilpotent-outside-prime-radical": 2}),
}


@pytest.mark.parametrize("name", pr.ALL_CLASSES)
def test_witness_recheck_refuses_elements_that_satisfy_the_condition(name):
    expr, roles = _NEGATIVE_CONTROLS[name]
    R = b(expr)
    report = CheckReport(R.label, name, False,
                         [Witness(role, e, R.names[e]) for role, e in roles.items()])
    assert revalidate_witness(R, report) is False


# the classes decided element by element, with the role of the element
# their reports name
ELEMENTWISE = {
    **dict.fromkeys(("regular", "unit-regular", "strongly-regular", "pi-regular",
                     "strongly-pi-regular", "clean", "exchange", "j-clean", "delta-clean",
                     "strongly-nil-clean", "strongly-2-nil-clean", "semi-tripotent",
                     "boolean", "2-boolean", "tripotent", "semipotent", "potent"), "element"),
    "semiregular": "element-with-nonregular-image",
    "reduced": "nonzero-nilpotent",
    "abelian": "idempotent",
    "dedekind-finite": "left-factor",
    "local": "non-unit-non-radical",
    "division": "nonzero-non-unit",
    "semisimple": "nonzero-radical-element",
    "2-primal": "nilpotent-outside-prime-radical",
}


@pytest.mark.parametrize("name", ELEMENTWISE)
def test_recheck_decides_each_element_of_an_elementwise_scan(name):
    # the re-check tests one element literally, apart from the scan, so it
    # also checks true verdicts: it must confirm a false report's witness,
    # refuse every element below it, and refuse every element of a ring the
    # scan puts in the class (orders <= 32 keep the literal loops quick)
    role, recheck = ELEMENTWISE[name], pr.CLASSES[name][3]
    for R in harness.catalog_rings():
        if R.order > 32:
            continue
        report = check_class(R, name)
        roles = {w.role: w.element for w in report.witness}
        if not report.verdict:
            assert recheck(R, name, roles), (R.label, name)
        for a in range(roles.get(role, R.order)):
            assert not recheck(R, name, {role: a}), (R.label, name, a)


def test_class_reports_match_golden():
    # verdict and witness element indices of every class on every catalog
    # ring: a faster scan must pick the same smallest counterexample
    golden = json.loads((Path(__file__).parent / "golden" / "class_reports.json").read_text())
    rings = harness.catalog_rings()
    assert [R.label for R in rings] == list(golden)
    for R in rings:
        got = {name: [report.verdict, [w.element for w in report.witness]]
               for name in pr.ALL_CLASSES for report in [check_class(R, name)]}
        assert got == golden[R.label], R.label


def test_class_report_roles_and_notes_match_golden():
    # witness roles and notes of every class on every catalog ring, which
    # the verdict golden above does not pin
    golden = json.loads((Path(__file__).parent / "golden" / "class_report_notes.json")
                        .read_text(encoding="utf-8"))
    rings = harness.catalog_rings()
    assert [R.label for R in rings] == list(golden)
    for R in rings:
        got = {name: [[w.role for w in report.witness], report.notes]
               for name in pr.ALL_CLASSES for report in [check_class(R, name)]}
        assert got == golden[R.label], R.label


def test_block_scans_match_per_element_oracles(monkeypatch):
    rings = [R for R in harness.catalog_rings()
             if not class_verdict(R, "strongly-2-nil-clean")]
    assert len(rings) > 100
    expected = {R.label: {"exchange": oracles.naive_first_non_exchange(R),
                          "strongly-2-nil-clean": oracles.naive_first_non_strongly_2_nil_clean(R)}
                for R in rings}
    # the default blocks, then blocks of a few rows so witnesses fall past
    # the first block
    for cells in (core._BLOCK_CELLS, 64):
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        for R in rings:
            for kind, first_bad in expected[R.label].items():
                report = pr.CLASSES[kind][2](R, kind)
                assert report.verdict == (first_bad is None), (R.label, kind)
                assert [w.element for w in report.witness] == (
                    [] if first_bad is None else [first_bad]), (R.label, kind)
                assert revalidate_witness(R, report), (R.label, kind)
