from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from deltaring import core, dsl, harness, subsets
from deltaring import constructions as cons
from deltaring.errors import (
    AxiomViolation,
    InvalidBimodule,
    NotCentral,
    OrderGuardExceeded,
)
from deltaring.predicates import class_verdict

import oracles
from conftest import bench_pool, traced_peak
from oracles import members


def test_direct_product_examples(zmod):
    Z2, Z3 = zmod(2), zmod(3)
    P = cons.direct_product([Z2, Z3])
    assert P.order == 6
    crt = [(k % 2) * 3 + (k % 3) for k in range(6)]
    hom = core.validate_hom(zmod(6), P, crt)
    assert hom.is_injective and hom.is_surjective
    assert cons.direct_product([Z2]) is Z2
    boolean = cons.direct_product([Z2, Z2])
    assert class_verdict(boolean, "boolean")


def test_matrix_ring_examples(zmod):
    Z2 = zmod(2)
    M2 = cons.matrix_ring(Z2, 2)
    assert M2.order == 16
    assert subsets.unit_mask(M2).sum() == 6  # the invertible 2x2 matrices over F2
    assert cons.matrix_ring(zmod(5), 1) is zmod(5)
    T2 = cons.upper_triangular(Z2, 2)
    assert T2.order == 8
    assert cons.upper_triangular(zmod(5), 1) is zmod(5)


def test_order_guard_checked_before_building(zmod):
    with pytest.raises(OrderGuardExceeded):
        cons.matrix_ring(zmod(3), 3)  # 3^9 elements
    with pytest.raises(OrderGuardExceeded):
        cons.direct_product([zmod(100), zmod(100)], order_guard=1000)


def test_order_guard_fires_before_any_element_name(monkeypatch):
    # naming all 64^4 or 16^6 elements first would take seconds and, for
    # larger expressions, all memory
    def refuse(*args, **kwargs):
        raise AssertionError("element names built before the order guard")

    for helper in ("_element_names", "_tuple_names", "_poly_names"):
        monkeypatch.setattr(cons, helper, refuse)
    for expr, reach in (("K(Z64,s=0)", 262144), ("GR(Z16,S3)", 65536)):
        message = f"{expr}: order would reach at least {reach}, past the guard 4096"
        with pytest.raises(OrderGuardExceeded, match=re.escape(message)):
            dsl.build_str(expr)


def test_order_guard_fires_before_per_coordinate_work(zmod):
    # lists of endomorphism powers, entry positions or diagonal entries, one
    # per coordinate, are made only once the order is known to fit
    for build in (lambda: cons.truncated_skew_poly(zmod(3), None, 300000),
                  lambda: cons.upper_triangular(zmod(3), 1000),
                  lambda: cons.matrix_ring(zmod(3), 1000)):
        start = time.perf_counter()
        with pytest.raises(OrderGuardExceeded):
            build()
        assert time.perf_counter() - start < 0.1


def test_order_guard_fires_before_per_coordinate_lists(zmod):
    # the order is sized from |R| and the number of coordinates, so the
    # sizes, tables and identity lists of 9 million or 4.5 million
    # coordinates are never built; the guard's message is the builder's
    Z3 = zmod(3)
    for build, label in ((lambda: cons.matrix_ring(Z3, 3000), "M(3000,Z3)"),
                         (lambda: cons.upper_triangular(Z3, 3000), "T(3000,Z3)")):
        message = f"{label}: order would reach at least 6561, past the guard 4096"
        tracemalloc.start()
        try:
            with pytest.raises(OrderGuardExceeded, match=re.escape(message)):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, label


@pytest.mark.parametrize("cells", [None, 64, 324])
def test_tuple_ring_fills_from_the_generator_rows(monkeypatch, zmod, cells):
    # every construction evaluates its product on the zero row and the r
    # additive generator rows only, one row at a time, and the filled table
    # is the one that evaluating it on every row gives.  The fill writes the
    # cosets of the generator at position s of the reach order in chunks of
    # min(s, _BLOCK_CELLS // n) rows: 64 cells make chunks of one row on
    # the larger rings, and 324 cells chunks of 4 rows at order 81, wider
    # than one row and narrower than the 27-row cosets of M(2,Z3)'s last
    # generator
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    real, products = cons._tuple_ring, cons._term_products
    calls, evaluated, partial = [], [], []

    def counted(add_tables, terms, left, right):
        evaluated.append(len(left[0]))
        return products(add_tables, terms, left, right)

    def spy(label, sizes, add_tables, zero, one, terms, names, **kwargs):
        terms, before = list(terms), len(evaluated)
        ring = real(label, sizes, add_tables, zero, one, terms, names, **kwargs)
        rows = evaluated[before:]
        strides = cons._strides(sizes)
        coords = [(np.arange(ring.order) // st) % sz for st, sz in zip(strides, sizes)]
        full = products(add_tables, terms, [c[:, None] for c in coords], [c[None, :] for c in coords])
        assert np.array_equal(ring.mul, sum(st * np.asarray(c) for st, c in zip(strides, full)))
        calls.append((label, rows,
                      1 + len(oracles.additive_generators(ring.add, ring.zero))))
        gens, span = core._coset_walk(ring.add, ring.zero)
        width = max(1, core._BLOCK_CELLS // ring.order)
        partial.extend(label for s in map(span.index, gens) if 1 < min(s, width) < s)
        return ring

    monkeypatch.setattr(cons, "_tuple_ring", spy)
    monkeypatch.setattr(cons, "_term_products", counted)
    Z2, Z3, Z4 = zmod(2), zmod(3), zmod(4)
    groups = cons.group_catalog()
    cons.direct_product([Z4, Z3, Z2])
    cons.matrix_ring(Z3, 2)
    cons.upper_triangular(Z4, 2)
    cons.truncated_skew_poly(Z3, None, 3)
    cons.dt_extension(Z3)
    cons.formal_triangular(Z2, Z3)
    cons.generalized_matrix(Z4, 2)
    cons.formal_matrix(Z4, 2, 2)
    cons.group_ring(Z2, groups["S3"])
    cons.group_ring(Z3, groups["V4"])
    # one tuple ring per construction: DT is one ring on quadruples
    assert len(calls) == 10
    for label, rows, expected in calls:
        assert rows == [1] * expected, label
    assert ("M(2,Z3)" in partial) == (cells == 324)


@pytest.mark.parametrize("cells", [None, 64])
def test_generator_rows_that_break_an_additive_relation_are_rejected(monkeypatch, zmod, cells):
    # Z4 x Z2 coordinates, element 2b + a for (b, a).  The generators are
    # (0,1) of order 2 and (1,0) of order 4; the identity (1,0) gets the
    # identity row, and (0,1) a row f of order 4, which twice (0,1) = 0
    # cannot carry.  The term (a, d) -> a·f_b(d) into Z4 is not additive in
    # a, so the certificate refuses it.  Every filled row is additive in the
    # generator (0,1) and both identity laws hold, so the first law to fail
    # is right distributivity at x = g = (0,1): 0*c = 0 but f(c) + f(c) != 0.
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    f_b, f_a = np.array([0, 0, 1, 0]), np.array([0, 1, 0, 0])
    a, d = np.arange(2)[:, None], np.arange(4)[None, :]
    Z4, Z2 = zmod(4), zmod(2)
    terms = [(0, 0, 0, Z4.mul), (0, 1, 0, (a * f_b[d]) % 4),
             (1, 0, 1, (np.arange(4)[:, None] * np.arange(2)[None, :]) % 2),
             (1, 1, 0, (a * f_a[d]) % 2)]
    real, certified = cons._structure_certified, []

    def spy(*args):
        certified.append(real(*args))
        return certified[-1]

    monkeypatch.setattr(cons, "_structure_certified", spy)
    with pytest.raises(AxiomViolation) as err:
        cons._tuple_ring("Z4xZ2", [4, 2], [Z4.add, Z2.add], (0, 0), (1, 0),
                         terms, lambda: None, order_guard=None)
    assert (err.value.kind, err.value.witness) == ("right-distributivity", (1, 1, 4))
    assert certified == [False]


def _products_mod(m: int, rows: int, cols: int) -> np.ndarray:
    return (np.arange(rows)[:, None] * np.arange(cols)[None, :]) % m


def _group_table(name: str) -> np.ndarray:
    """The addition of a coordinate: a ring's, V4's, the trivial group Z1's,
    or one that is not a group: B, ({0,1}, or), where 1 has no inverse, X,
    Z2 with 1 as its identity, so that 0 + x != x, and S10, the Steiner
    loop of the affine plane over Z3 (0 and the 9 points of Z3^2, p + p = 0
    and p + q = -p - q), which is not associative."""
    if name == "Z1":
        return np.zeros((1, 1), dtype=np.int32)
    if name == "B":
        return np.array([[0, 1], [1, 1]], dtype=np.int32)
    if name == "X":
        return np.array([[1, 0], [0, 1]], dtype=np.int32)
    if name == "S10":
        x, y = np.arange(9) // 3, np.arange(9) % 3
        table = np.zeros((10, 10), dtype=np.int32)
        table[0] = table[:, 0] = np.arange(10)
        table[1:, 1:] = 1 + 3 * ((-x[:, None] - x) % 3) + (-y[:, None] - y) % 3
        np.fill_diagonal(table[1:, 1:], 0)
        return table
    return dsl.build_str("Prod(Z2,Z2)" if name == "V4" else name).add


# Term structures that are not rings.  Where the coset walk on the addition
# completes, the filled tables satisfy both identity laws and are
# associative on the generator triples, and one check of the certificate
# alone refuses them.  (1) The near-ring of the
# zero-preserving maps of V4 under composition, coordinate p-1 holding the
# value at p: (fg)(p) = f(g(p)) is additive in f only.  (2) On Z2 x Z4 x Z4
# with the 1 in the last coordinate, the generator g = (1,0,0) of order 2
# acts on (0,1,0) by a term additive in its right argument only, with order
# 4.  (3) A term from a coordinate of order 1 adds b_1 to every product, 0·b
# included; a_0 b_1 is written twice, so 1·b = b.  (4) The Boolean semiring
# ({0,1}, or, and).  (5) The trivial extension of Z2 by S10.  (6) Z2 x X,
# whose zero row is not the identity.  The last field says whether the walk
# completes, so that the certificate runs: on (5) and (6) it gives up, and
# every row is evaluated from the terms for the full procedure.
_V4 = np.arange(4)
_ACT = np.array([[0] * 10, list(range(10))])        # Z2 acting on S10 by 1·y = y
_NOT_RINGS = {
    "near-ring": (["V4"] * 3, (1, 2, 3),
                  [(p - 1, q - 1, p - 1, _V4[:, None] * (_V4[None, :] == q))
                   for p in range(1, 4) for q in range(1, 4)],
                  ("left-distributivity", (1, 1, 2)), True),
    "order-breaking": (["Z2", "Z4", "Z4"], (0, 0, 1),
                       [(2, 2, 2, _products_mod(4, 4, 4)), (1, 2, 1, _products_mod(4, 4, 4)),
                        (0, 2, 0, _products_mod(2, 4, 2)), (0, 0, 2, _products_mod(2, 2, 4)),
                        (0, 0, 0, _products_mod(2, 2, 2)), (1, 0, 1, _products_mod(4, 2, 4)),
                        (1, 1, 2, _products_mod(4, 4, 4))],
                       ("right-distributivity", (16, 16, 4)), True),
    "constant": (["Z2", "Z2", "Z1"], (1, 0, 0),
                 [(0, 0, 0, _products_mod(2, 2, 2)), (1, 0, 1, _products_mod(2, 2, 2)),
                  (1, 0, 1, _products_mod(2, 2, 2)), (1, 1, 0, _products_mod(2, 2, 2)),
                  (1, 2, 1, np.array([[0, 1]])), (2, 0, 0, np.zeros((2, 2), dtype=int))],
                 ("right-distributivity", (0, 1, 1)), True),
    "boolean": (["B"], (1,), [(0, 0, 0, _products_mod(2, 2, 2))], ("add-inverse", (1,)), True),
    "steiner": (["Z2", "S10"], (1, 0),
                [(0, 0, 0, _products_mod(2, 2, 2)), (1, 0, 1, _ACT), (1, 1, 0, _ACT.T.copy())],
                ("add-associativity", (2, 1, 4)), False),
    "no-zero": (["Z2", "X"], (1, 0),
                [(0, 0, 0, _products_mod(2, 2, 2)), (1, 0, 1, _products_mod(2, 2, 2)),
                 (1, 1, 0, _products_mod(2, 2, 2))],
                ("add-identity", (0, 0)), False),
}


@pytest.mark.parametrize("case", list(_NOT_RINGS))
def test_structures_that_are_not_rings_are_refused(monkeypatch, case):
    groups, one, terms, violation, walked = _NOT_RINGS[case]
    adds = [_group_table(g) for g in groups]
    real, certified = cons._structure_certified, []

    def spy(*args):
        certified.append(real(*args))
        return certified[-1]

    monkeypatch.setattr(cons, "_structure_certified", spy)
    with pytest.raises(AxiomViolation) as err:
        cons._tuple_ring(case, [len(a) for a in adds], adds, (0,) * len(adds), one, terms,
                         lambda: None, order_guard=None)
    assert (err.value.kind, err.value.witness) == violation
    assert certified == ([False] if walked else [])


@pytest.mark.parametrize("fill", [None, 0, "max"])
def test_every_product_row_is_written_under_a_non_associative_addition(monkeypatch, zmod, fill):
    # a Bimodule checks no law; this module addition is commutative, with
    # identity 0 and inverses, but (1+1)+2 != 1+(1+2).  The certificate
    # fails, every row is evaluated from the terms, and the full procedure
    # reads no uninitialised memory: it names the same law whatever
    # np.empty returns.  "max" fills an integer array with its dtype's
    # largest value, which fits the uint16 tables and is no element index
    if fill is not None:
        empty = np.empty

        def prefilled(*args, **kwargs):
            out = empty(*args, **kwargs)
            integer = out.dtype.kind in "iu"
            out.fill(np.iinfo(out.dtype).max if fill == "max" and integer else bool(fill))
            return out

        monkeypatch.setattr(np, "empty", prefilled)
    Z2 = zmod(2)
    la = np.array([[0, 0, 0, 0], [0, 1, 2, 3]], dtype=np.int32)
    add = np.array([[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 3, 1], [3, 3, 1, 0]], dtype=np.int32)
    M = cons.Bimodule(Z2, Z2, 4, add, la, la.T.copy(), 0, "M", ("0", "1", "2", "3"))
    with pytest.raises(AxiomViolation) as err:
        cons.trivial_extension(Z2, M)
    assert (err.value.kind, err.value.witness) == ("add-associativity", (1, 1, 2))


@pytest.mark.parametrize("order", [1, 2])
def test_zero_equal_to_one_is_refused_before_the_certificate(zmod, order):
    # a one-element structure, and a structure whose 1 is its zero tuple,
    # are refused for 0 = 1 before the certificate reads the tables (on one
    # element it had no generators to check associativity on)
    if order == 2:
        add, mul = zmod(2).add, zmod(2).mul
    else:
        add = mul = np.zeros((1, 1), dtype=np.int32)
    with pytest.raises(AxiomViolation) as err:
        cons._tuple_ring("Z", [order], [add], (0,), (0,), [(0, 0, 0, mul)], lambda: None,
                         order_guard=None)
    assert (err.value.kind, err.value.witness) == ("identity-distinct", (0, 0))


def test_bimodule_has_no_default_label_or_names(zmod):
    # with the names defaulted to (), every construction over the module
    # failed with an IndexError when it named its elements
    Z2 = zmod(2)
    with pytest.raises(TypeError):
        cons.Bimodule(Z2, Z2, 2, Z2.add, Z2.mul, Z2.mul, 0)
    assert cons.trivial_extension(
        Z2, cons.Bimodule(Z2, Z2, 2, Z2.add, Z2.mul, Z2.mul, 0, "M", ("0", "1"))).order == 4


def test_catalog_and_pool_rings_are_certified_without_fallback(monkeypatch):
    # a certificate that refused every ring would still pass every golden
    # through the full procedure, so the refusals are counted on a cold
    # build of the 182 catalog rings, the 31 rings of the benchmark's
    # inspect pool and T4.11's three trivial extensions by M+N; the
    # generators the fill found, which the certificate's associativity step
    # uses, are the greedy ones of the whole table
    pool = bench_pool()
    certified, verdicts, labels = cons._structure_certified, [], []
    validated, other_generators = core._validated_ring, []

    def counted(*args):
        verdicts.append((certified(*args), args[-1]))
        return verdicts[-1][0]

    def compared(add, mul, zero, one, label, names, certified=False):
        if certified:
            labels.append(label)
            if verdicts[-1][1] != oracles.additive_generators(add, zero):
                other_generators.append(label)
        return validated(add, mul, zero, one, label, names, certified)

    monkeypatch.setattr(cons, "_structure_certified", counted)
    monkeypatch.setattr(core, "_validated_ring", compared)
    dsl.clear_build_cache()
    for _, expr in dsl.catalog():
        dsl.build(expr)
    for expr, _ in pool.INSPECT_POOL:
        dsl.build_str(expr)
    for base in ("Z2", "Z3", "Z4"):
        prod = dsl.build_str(f"Prod({base},{base})")
        cons.trivial_extension(prod, harness._cross_bimodule(prod, dsl.build_str(base)))
    assert len(verdicts) >= len(pool.INSPECT_POOL) + 3
    assert all(v for v, _ in verdicts) and len(labels) == len(verdicts)
    assert {f"Triv(Prod({b},{b}),MxN)" for b in ("Z2", "Z3", "Z4")} <= set(labels)
    assert other_generators == []


def test_every_ring_holds_one_table_dtype(monkeypatch):
    # `core._certified_ring` is the one place a FiniteRing is made; every ring
    # made by a cold build of the catalog, the 31 rings of the benchmark's
    # inspect pool, a run of every check and two dump loads holds its add,
    # mul and neg at core.TABLE_DTYPE, C-contiguous and read-only.  Only the
    # dump that is not canonical passes through `core.validate_ring`, which
    # copies the tables json.loads made: every ring the program builds, and
    # a canonical dump, is proved on tables made for it
    made, real = [], core._certified_ring
    validated, validate = [], core.validate_ring

    def recorded(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    def counted(*args, **kwargs):
        validated.append(validate(*args, **kwargs))
        return validated[-1]

    monkeypatch.setattr(core, "_certified_ring", recorded)
    monkeypatch.setattr(core, "validate_ring", counted)
    harness.catalog_rings.cache_clear()
    dsl.clear_build_cache()
    rings = harness.catalog_rings()
    for expr, _ in bench_pool().INSPECT_POOL:
        dsl.build_str(expr)
    harness.run_all(threads=1)
    text = core.ring_to_json(rings[-1])
    loaded = core.ring_from_json(text)
    spaced = core.ring_from_json(json.dumps(json.loads(text)))
    dsl.clear_build_cache()
    assert made[-2:] == [loaded, spaced] and len(made) > len(rings) + 32
    assert validated == [spaced]
    for R in made:
        for table in (R.add, R.mul, R.neg):
            assert table.dtype == core.TABLE_DTYPE, R.label
            assert table.flags.c_contiguous and not table.flags.writeable, R.label


@pytest.mark.parametrize("m, shift", [(2, 1), (4, 1), (4, 3)])
def test_constructions_over_a_ring_whose_zero_is_not_index_0(zmod, m, shift):
    # R is Z_m storing x at index x + shift; the direct product R x R and
    # the trivial extension of R are Z_m's under the same relabelling of
    # each coordinate, (a, b) being at index m*a + b in both
    at = np.roll(np.arange(m), shift)           # the element stored at each index
    index = np.argsort(at)
    Z = zmod(m)
    R = core.validate_ring(index[Z.add[at][:, at]], index[Z.mul[at][:, at]],
                           int(index[0]), int(index[1]), label="R")
    relabel = (m * index[:, None] + index[None, :]).ravel()
    for plain, shifted in [(cons.direct_product([Z, Z]), cons.direct_product([R, R])),
                           (cons.trivial_extension(Z), cons.trivial_extension(R))]:
        hom = core.validate_hom(plain, shifted, relabel)
        assert hom.is_injective and hom.is_surjective, shifted.label


def test_truncated_skew_examples(zmod):
    Z2 = zmod(2)
    TS = cons.truncated_skew_poly(Z2, None, 2)
    assert TS.order == 4
    assert [TS.names[i] for i in members(subsets.unit_mask(TS))] == ["1", "1+x"]

    gf4 = dsl.build_str("GF(4)")
    frob = dsl.frobenius(gf4, 2)
    skew = cons.truncated_skew_poly(gf4, frob, 2)
    assert skew.order == 16 and core._is_symmetric(skew.mul) is not None
    # the defining relation: x * w = w^2 * x for the field generator w
    w = gf4.names.index("x")
    w_sq = int(gf4.mul[w, w])
    x_elem = skew.names.index("x")
    w_scalar = w * 4           # the constant polynomial w
    left = int(skew.mul[x_elem, w_scalar])
    assert skew.names[left] == f"({gf4.names[w_sq]})x"

    # 1 + x is a unit in every truncation (x is nilpotent)
    for base, n in ((zmod(3), 2), (zmod(4), 3), (gf4, 2)):
        ring = cons.truncated_skew_poly(base, None, n)
        x_idx = ring.names.index("x")
        one_plus_x = int(ring.add[ring.one, x_idx])
        assert bool(subsets.unit_mask(ring)[one_plus_x])

    with pytest.raises(ValueError):
        cons.truncated_skew_poly(Z2, None, 1)


def test_truncated_skew_with_nontrivial_endomorphism(zmod):
    # twist by the coordinate swap of Z2 x Z2: the twisted product must still
    # validate (a genuine associativity workout) and the extension keeps the
    # 2-delta-u verdict of its base
    Z2 = zmod(2)
    P = cons.direct_product([Z2, Z2])
    swap = core.validate_hom(P, P, [0, 2, 1, 3])
    ring = cons.truncated_skew_poly(P, swap, 3)
    assert ring.order == 64 and core._is_symmetric(ring.mul) is not None
    assert class_verdict(ring, "2-delta-u") == class_verdict(P, "2-delta-u")


def test_trivial_extension_examples(zmod):
    Z2, Z3 = zmod(2), zmod(3)
    TR = cons.trivial_extension(Z2)
    TS = cons.truncated_skew_poly(Z2, None, 2)
    assert np.array_equal(TR.add, TS.add) and np.array_equal(TR.mul, TS.mul)
    assert subsets.unit_mask(cons.trivial_extension(Z3)).sum() == 6
    with_zero = cons.trivial_extension(Z3, cons.zero_bimodule(Z3, Z3))
    assert np.array_equal(with_zero.add, Z3.add)
    assert np.array_equal(with_zero.mul, Z3.mul)


def test_dt_extension_examples(zmod):
    Z2, Z3 = zmod(2), zmod(3)
    DT2 = cons.dt_extension(Z2)
    assert DT2.order == 16
    assert class_verdict(DT2, "local") and class_verdict(DT2, "2-delta-u")

    DT0 = cons.dt_extension(Z3, cons.zero_bimodule(Z3, Z3))
    TR = cons.trivial_extension(Z3)
    assert np.array_equal(DT0.add, TR.add) and np.array_equal(DT0.mul, TR.mul)

    # DT(R,R) carries the same tables as R[x,y]/(x^2,y^2) built as an
    # iterated truncation
    DT3 = cons.dt_extension(Z3)
    inner = cons.truncated_skew_poly(Z3, None, 2)
    outer = cons.truncated_skew_poly(inner, None, 2)
    assert DT3.order == outer.order == 81
    assert np.array_equal(DT3.add, outer.add) and np.array_equal(DT3.mul, outer.mul)


@pytest.mark.parametrize("base", ["Z2", "Z4", "GF(4)"])
@pytest.mark.parametrize("module", ["regular", "zero"])
def test_dt_extension_is_the_trivial_extension_of_the_trivial_extension(base, module):
    # the nested build that DT once was is its reference: Triv(T, T) for
    # T = Triv(R, M), whose element ((a,m),(b,n)) DT names (a,m,b,n)
    R = dsl.build_str(base)
    M = cons.regular_bimodule(R) if module == "regular" else cons.zero_bimodule(R, R)
    DT = cons.dt_extension(R, M)
    nested = cons.trivial_extension(cons.trivial_extension(R, M))
    assert DT.label == f"DT({R.label},{M.label})"
    assert np.array_equal(DT.add, nested.add) and np.array_equal(DT.mul, nested.mul)
    assert (DT.zero, DT.one) == (nested.zero, nested.one)
    assert DT.names == tuple("(" + name.replace("(", "").replace(")", "") + ")"
                             for name in nested.names)


def test_formal_triangular_examples(zmod):
    Z2, Z3 = zmod(2), zmod(3)
    FT = cons.formal_triangular(Z2, Z2, cons.regular_bimodule(Z2))
    T2 = cons.upper_triangular(Z2, 2)
    assert np.array_equal(FT.add, T2.add) and np.array_equal(FT.mul, T2.mul)

    FT0 = cons.formal_triangular(Z2, Z3)
    P = cons.direct_product([Z2, Z3])
    # with the zero module the triple (r, 0, s) is the pair (r, s)
    assert np.array_equal(FT0.add, P.add) and np.array_equal(FT0.mul, P.mul)
    assert FT0.order == 6

    with pytest.raises(InvalidBimodule):
        cons.formal_triangular(Z2, Z3, cons.regular_bimodule(Z2))


def test_generalized_matrix_examples(zmod):
    Z2, Z4 = zmod(2), zmod(4)
    K1 = cons.generalized_matrix(Z2, 1)
    M2 = cons.matrix_ring(Z2, 2)
    assert np.array_equal(K1.add, M2.add) and np.array_equal(K1.mul, M2.mul)

    K2 = cons.generalized_matrix(Z4, 2)
    assert K2.order == 256
    assert class_verdict(K2, "2-delta-u")

    K0 = cons.generalized_matrix(Z2, 0)
    FM0 = cons.formal_matrix(Z2, 2, 0)
    # both scale the cross products x*y and y*x by a power of s = 0, and
    # nothing else: the same trivial Morita context
    assert np.array_equal(K0.add, FM0.add) and np.array_equal(K0.mul, FM0.mul)

    M2z3 = cons.matrix_ring(zmod(3), 2)
    with pytest.raises(NotCentral):
        cons.generalized_matrix(M2z3, 1 * 27)  # a non-central matrix index


def test_scale_exponent_values():
    # exhaustive evaluation of the Kronecker exponent on 2x2 indices
    for i in (1, 2):
        for k in (1, 2):
            for j in (1, 2):
                expected = 1 + (i == j) - (i == k) - (k == j)
                assert cons.scale_exponent(i, k, j) == expected
    assert cons.scale_exponent(1, 1, 1) == 0
    assert cons.scale_exponent(1, 2, 1) == 2
    assert cons.scale_exponent(1, 1, 2) == 0


def test_formal_matrix_examples(zmod):
    Z4 = zmod(4)
    FM = cons.formal_matrix(Z4, 2, 2)
    K_sq = cons.generalized_matrix(Z4, 0)  # s^2 = 0 in Z4
    assert np.array_equal(FM.add, K_sq.add) and np.array_equal(FM.mul, K_sq.mul)
    FM1 = cons.formal_matrix(Z4, 2, 1)
    M2 = cons.matrix_ring(Z4, 2)
    assert np.array_equal(FM1.mul, M2.mul)
    assert cons.formal_matrix(Z4, 1, 2) is Z4


def test_group_catalog():
    groups = cons.group_catalog()
    assert set(groups) == {"C1", "C2", "C3", "C4", "C5", "C6", "V4", "S3"}
    s3 = groups["S3"]
    assert s3.order == 6
    assert any(int(s3.table[a, b]) != int(s3.table[b, a])
               for a in range(6) for b in range(6))
    assert groups["C4"].prime == 2 and groups["V4"].prime == 2
    assert groups["C3"].prime == 3 and groups["C6"].prime is None
    assert groups["S3"].prime is None


def test_group_catalog_is_whole_to_concurrent_first_callers():
    # eight threads released at once into a cold catalog, switching often:
    # each must see all eight groups, never a catalog still being filled
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            cons.group_catalog.cache_clear()
            barrier = threading.Barrier(8)

            def call():
                barrier.wait()
                seen.append(len(cons.group_catalog()))

            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [8] * 1600


@pytest.mark.parametrize("table, identity, message", [
    (np.array(0), 0, "bad group table"),                      # 0-d
    (np.zeros((0, 0), dtype=int), 0, "bad group table"),      # empty
    (np.array([[0, 1], [1, 0]]), 2, "bad group identity 2"),  # out of range
    (np.array([[0, 1], [1, 0]]), False, "bad group identity False"),
])
def test_validate_group_refuses_malformed_input(table, identity, message):
    with pytest.raises(ValueError, match=message):
        cons.validate_group(table, identity, "G")


def test_validate_group_checks_associativity_one_row_block_at_a_time():
    # (ab)c and a(bc) are n^3 products: gathered whole, C256's 0.12 MB table
    # peaked at 80 MB, so they are compared one row block of a at a time
    i = np.arange(256)
    table = (i[:, None] + i[None, :]) % 256
    assert traced_peak(cons.validate_group, table, 0, "C256") < 1 << 20
    table[3, [5, 6]] = table[3, [6, 5]]
    with pytest.raises(ValueError, match="associativity fails"):
        cons.validate_group(table, 0, "C256")


def test_group_ring_examples(zmod):
    Z2 = zmod(2)
    G = cons.group_catalog()
    RG = cons.group_ring(Z2, G["C2"])
    assert RG.order == 4
    unit_names = {RG.names[i] for i in members(subsets.unit_mask(RG))}
    assert unit_names == {"1", "g"}
    eps, kernel = cons.augmentation(RG, Z2, G["C2"])
    assert {RG.names[i] for i in members(kernel)} == {"0", "1+g"}
    assert eps.is_surjective and kernel.sum() == 2

    RG3 = cons.group_ring(Z2, G["C3"])
    assert not class_verdict(RG3, "2-delta-u")
    # explicit isomorphism with Z2 x GF(4): g goes to (1, x)
    gf4 = dsl.build_str("GF(4)")
    P = cons.direct_product([Z2, gf4])
    mapping = []
    for idx in range(RG3.order):
        c0, rem = divmod(idx, 4)
        c1, c2 = divmod(rem, 2)
        left = (c0 + c1 + c2) % 2
        right = gf4.zero
        for coeff, elem in ((c0, gf4.one), (c1, 2), (c2, int(gf4.mul[2, 2]))):
            if coeff:
                right = int(gf4.add[right, elem])
        mapping.append(left * 4 + right)
    hom = core.validate_hom(RG3, P, mapping)
    assert hom.is_injective and hom.is_surjective


def test_augmentation_needs_group_ring(zmod):
    with pytest.raises(ValueError, match="is not a group ring"):
        cons.augmentation(zmod(4), zmod(2), cons.group_catalog()["C3"])


def _frobenius_map(F, p: int) -> np.ndarray:
    x = np.arange(F.order)
    out = x
    for _ in range(p - 1):
        out = F.mul[out, x]
    return out


# each ring next to the size and count of its coordinates and its textbook
# product; the GF(q) moduli are x^2+x+1 and x^3+x+1 over Z2 and x^2+1 over Z3
_TEXTBOOK_PRODUCTS = {
    "GF(4)": lambda: (2, 2, lambda a, b: oracles.poly_mul(a, b, 2, (1, 1))),
    "GF(8)": lambda: (2, 3, lambda a, b: oracles.poly_mul(a, b, 2, (0, 1, 1))),
    "GF(9)": lambda: (3, 2, lambda a, b: oracles.poly_mul(a, b, 3, (0, 1))),
    "FM(3,Z2,s=0)": lambda: (2, 9, oracles.formal_matrix_product(dsl.build_str("Z2"), 3, 0)),
    "K(Z3,s=1)": lambda: (3, 4, oracles.morita_product(dsl.build_str("Z3"), 1)),
    "K(GF(4),s=1)": lambda: (4, 4, oracles.morita_product(dsl.build_str("GF(4)"), 1)),
    "GR(Z3,V4)": lambda: (3, 4, oracles.group_ring_product(dsl.build_str("Z3"),
                                                             cons.group_catalog()["V4"])),
    "TruncSkew(GF(9),frob,2)": lambda: (9, 2, oracles.skew_product(
        dsl.build_str("GF(9)"), _frobenius_map(dsl.build_str("GF(9)"), 3), 2)),
    "FM(2,Z3,s=1)": lambda: (3, 4, oracles.formal_matrix_product(dsl.build_str("Z3"), 2, 1)),
    # a scalar that is not 1 and whose square is not itself, and a group
    # that is not abelian, which the rings above cannot tell apart
    "K(Z3,s=2)": lambda: (3, 4, oracles.morita_product(dsl.build_str("Z3"), 2)),
    "FM(2,Z3,s=2)": lambda: (3, 4, oracles.formal_matrix_product(dsl.build_str("Z3"), 2, 2)),
    "GR(Z2,S3)": lambda: (2, 6, oracles.group_ring_product(dsl.build_str("Z2"),
                                                             cons.group_catalog()["S3"])),
}


@pytest.mark.parametrize("expr", list(_TEXTBOOK_PRODUCTS))
def test_products_match_their_textbook_definitions(expr):
    size, k, product = _TEXTBOOK_PRODUCTS[expr]()
    R = dsl.build_str(expr)
    assert R.order == size ** k
    assert np.array_equal(R.mul, oracles.product_table(size, k, product)), expr


# The rings each construction makes at order 4096, the largest the default
# guard admits, next to their coordinate size and count and their sum and
# product on coordinate lists of int64 arrays, from the textbook
# definitions: so the tables, which are uint16, are compared with values
# that no narrowing or uint16 arithmetic touched.  Z_n is taken at 4095:
# reduced mod 4096, a product that wrapped mod 2^16 would still come out
# right.
def _z(m):
    return dsl.build_str(f"Z{m}")


def _mod(m, *coords):
    return [c % m for c in coords]


def _matrix2(m, s=1):
    # (AB)_ij = sum over k of s^(1 + [i=j] - [i=k] - [k=j]) a_ik b_kj
    def product(a, b):
        return _mod(m, *(sum(s ** (1 + (i == j) - (i == k) - (k == j)) * a[2 * i + k]
                             * b[2 * k + j] for k in range(2)) for i in range(2) for j in range(2)))
    return product


def _triv(m, a, b):
    return _mod(m, a[0] * b[0], a[0] * b[1] + a[1] * b[0])


def _coordinatewise(m):
    return lambda a, b: _mod(m, *(x + y for x, y in zip(a, b)))


def _cross_triv(prod, base):
    return cons.trivial_extension(prod, harness._cross_bimodule(prod, base))


_LARGEST = {
    "Z4095": (4095, 1, lambda: core.validate_ring(*dsl._zmod_tables(4095), 0, 1),
              lambda a, b: _mod(4095, a[0] * b[0])),
    # (a0 x + a1)(b0 x + b1) with x^2 = -1
    "GF(9)": (3, 2, lambda: dsl.galois_field(9),
              lambda a, b: _mod(3, a[0] * b[1] + a[1] * b[0], a[1] * b[1] - a[0] * b[0])),
    "Prod(Z64,Z64)": (64, 2, lambda: cons.direct_product([_z(64), _z(64)]),
                      lambda a, b: _mod(64, a[0] * b[0], a[1] * b[1])),
    "M(2,Z8)": (8, 4, lambda: cons.matrix_ring(_z(8), 2), _matrix2(8)),
    "T(2,Z16)": (16, 3, lambda: cons.upper_triangular(_z(16), 2),
                 lambda a, b: _mod(16, a[0] * b[0], a[0] * b[1] + a[1] * b[2], a[2] * b[2])),
    "TruncSkew(Z64,id,2)": (64, 2, lambda: cons.truncated_skew_poly(_z(64), None, 2),
                            lambda a, b: _triv(64, a, b)),
    "Triv(Z64,Z64)": (64, 2, lambda: cons.trivial_extension(_z(64)),
                      lambda a, b: _triv(64, a, b)),
    "DT(Z8,Z8)": (8, 4, lambda: cons.dt_extension(_z(8)), lambda a, b: [
        *_triv(8, a[:2], b[:2]),
        *_mod(8, *(x + y for x, y in zip(_triv(8, a[:2], b[2:]), _triv(8, a[2:], b[:2]))))]),
    "FT(Z16,Z16,Z16)": (16, 3, lambda: cons.formal_triangular(
        _z(16), _z(16), cons.regular_bimodule(_z(16))),
        lambda a, b: _mod(16, a[0] * b[0], a[0] * b[1] + a[1] * b[2], a[2] * b[2])),
    "K(Z8,s=2)": (8, 4, lambda: cons.generalized_matrix(_z(8), 2), lambda a, b: _mod(
        8, a[0] * b[0] + 2 * a[1] * b[2], a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2], 2 * a[2] * b[1] + a[3] * b[3])),
    "FM(2,Z8,s=2)": (8, 4, lambda: cons.formal_matrix(_z(8), 2, 2), _matrix2(8, 2)),
    "GR(Z4,C6)": (4, 6, lambda: cons.group_ring(_z(4), cons.group_catalog()["C6"]),
                  lambda a, b: _mod(4, *(sum(a[g] * b[(h - g) % 6] for g in range(6))
                                         for h in range(6)))),
    # (a,b,m,n)(a',b',m',n') = (aa', bb', am' + mb', bn' + na')
    "Triv(Prod(Z8,Z8),MxN)": (8, 4, lambda: _cross_triv(cons.direct_product([_z(8), _z(8)]),
                                                        _z(8)),
                              lambda a, b: _mod(8, a[0] * b[0], a[1] * b[1],
                                                a[0] * b[2] + a[2] * b[1],
                                                a[1] * b[3] + a[3] * b[0])),
}


def _assert_rows_equal(table, expected_rows, label):
    """`table` equals the int64 rows that `expected_rows(lo, hi)` gives, one
    block of 32 rows at a time, so no full-size int64 table is held."""
    for lo in range(0, table.shape[0], 32):
        hi = min(table.shape[0], lo + 32)
        assert np.array_equal(table[lo:hi], expected_rows(lo, hi)), (label, lo)


@pytest.mark.parametrize("expr", list(_LARGEST))
def test_tables_at_the_largest_orders_never_wrap(expr):
    size, k, make, product = _LARGEST[expr]
    R = make()
    assert R.order == size ** k and R.order in (9, 4095, 4096)
    for table, op in ((R.add, _coordinatewise(size)), (R.mul, product)):
        assert table.dtype == core.TABLE_DTYPE
        _assert_rows_equal(table, lambda lo, hi: oracles.product_table(
            size, k, op, slice(lo, hi)), expr)


def test_derived_tables_at_the_largest_orders_never_wrap():
    # Prod(Z64,Z64)/{0,(32,0)} (order 2048) and the subring {(a,b) : a = b
    # mod 2} (order 2048), each against a literal gather through an int64
    # index map; with every (a,0) added the subset still holds 0 and its
    # negatives but is not closed, (1,0) + (1,1) = (2,1), which a sentinel
    # for "outside" that wrapped into the tables' range would let through
    R = cons.direct_product([_z(64), _z(64)])
    a, b = np.divmod(np.arange(R.order), 64)
    ideal = [0, 32 * 64]
    Q, proj = core.quotient_ring(R, core._marked(ideal, R.order))
    least = R.add[:, ideal].min(axis=1).astype(np.int64)   # each coset's least member
    reps = np.unique(least)
    through = np.searchsorted(reps, least)
    assert Q.order == reps.size == 2048 and np.array_equal(proj.map, through)
    for src, table in ((R.add, Q.add), (R.mul, Q.mul)):
        _assert_rows_equal(table, lambda lo, hi: through[src[reps[lo:hi]][:, reps]], Q.label)
    mask = a % 2 == b % 2
    S, elems = core.induced_subring(R, mask, R.one)
    pos = np.full(R.order, -1, dtype=np.int64)
    pos[elems] = np.arange(elems.size)
    assert S.order == 2048
    for src, table in ((R.add, S.add), (R.mul, S.mul)):
        _assert_rows_equal(table, lambda lo, hi: pos[src[elems[lo:hi]][:, elems]], S.label)
    assert all(t.dtype == core.TABLE_DTYPE for t in (Q.add, Q.mul, Q.neg, S.add, S.mul, S.neg))
    with pytest.raises(ValueError, match="not closed"):
        core.induced_subring(R, mask | (b == 0), R.one)


def _bimodule_cases():
    """(R, S, [add, left action, right action]) of bimodules whose tables
    hold every law, then of tables that break only the action laws
    (rr')m, m(ss'), m(s+s') and (rm)s, which a changed cell rarely reaches."""
    for expr in ("Z4", "M(2,Z2)", "T(2,Z3)", "GF(4)"):
        R = dsl.build_str(expr)
        yield R, R, [R.add, R.mul, R.mul]
    for r, m in ((4, 2), (8, 4)):                     # Z_m over Z_r and Z_m
        R, M = dsl.build_str(f"Z{r}"), dsl.build_str(f"Z{m}")
        yield R, M, [M.add, np.arange(r)[:, None] * np.arange(m) % m, M.mul]
    # GF(4) through phi, additive with phi(1) = phi(x) = 1 but not multiplicative
    F = dsl.build_str("GF(4)")
    phi = np.array([0, 1, 1, 0])
    yield F, F, [F.add, F.mul[phi], F.mul]
    yield F, F, [F.add, F.mul, F.mul[:, phi]]
    # ... and through psi, multiplicative with psi(1) = 1 but not additive
    yield F, F, [F.add, F.mul, F.mul[:, [0, 1, 1, 1]]]
    # Z2^2 over Prod(Z2,Z2) acting through the non-commuting idempotents P
    # (left) and Q (right): (a,b) acts as aP + b(I - P)
    P2 = dsl.build_str("Prod(Z2,Z2)")
    vec = np.array([[i >> 1, i & 1] for i in range(4)])
    idem = {"P": np.array([[1, 0], [0, 0]]), "Q": np.array([[1, 1], [0, 0]])}

    def action(E):                                    # [r, x] the index of r acting on x
        ops = [(a * E + b * (np.eye(2, dtype=int) - E)) % 2 for a, b in vec]
        return np.array([[int("".join(map(str, op @ v % 2)), 2) for v in vec] for op in ops])
    yield P2, P2, [P2.add, action(idem["P"]), action(idem["Q"]).T]


def _bimodule_rings(R, S, tables, most=1024):
    """The rings built on the (R,S)-bimodule with the given tables, up to
    order `most`, each as its (kind, witness) refusal or "ring": [[R, M],
    [0, S]], and Triv(R, M) when S is R."""
    m = tables[0].shape[0]
    M = cons.Bimodule(R, S, m, *tables, 0, "M", tuple(str(i) for i in range(m)))
    builds = []
    if R.order * m * S.order <= most:
        builds.append(lambda: cons.formal_triangular(R, S, M))
    if S is R and R.order * m <= most:
        builds.append(lambda: cons.trivial_extension(R, M))
    out = []
    for build in builds:
        try:
            build()
            out.append("ring")
        except AxiomViolation as exc:
            out.append((exc.kind, exc.witness))
    return out


@pytest.mark.parametrize("cells", [None, 4])
def test_rings_on_a_bimodule_are_accepted_exactly_when_it_is_one(monkeypatch, cells):
    # [[R, M], [0, S]] is a ring exactly when M is an (R,S)-bimodule, and so
    # is Triv(R, M) when S is R: each build is accepted exactly when the
    # literal check of every bimodule law passes, for the tables as they
    # are and with one cell changed.  A changed cell that the fill never
    # reads still changes the construction's own product, which is what the
    # ring is refused on.  FT over M(2,Z2) and T(2,Z3) has 16^3 and 27^3
    # elements, and refusing a ring of order 4096 takes about a second; at 4
    # cells a block, where a pass over a ring of order 256 or 729 takes
    # thousands of blocks, the rings above order 128 are left out too
    most = 1024
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        most = 128
    rng = np.random.default_rng(11)
    seen = set()
    for R, S, tables in _bimodule_cases():
        for trial in range(41):
            changed = [np.array(t) for t in tables]
            if trial:
                t = changed[trial % 3]
                a, c = rng.integers(t.shape[0]), rng.integers(t.shape[1])
                t[a, c] = (t[a, c] + 1) % tables[0].shape[0]
            bimodule = oracles.naive_bimodule_violation(R, S, *changed) is None
            seen.add(bimodule)
            for outcome in _bimodule_rings(R, S, changed, most):
                assert (outcome == "ring") == bimodule, (R.label, S.label, trial, outcome)
    assert seen == {True, False}
    # Z4 over (Z8, Z4) with 5·2 read as 3: the filled product is a ring,
    # the product of the terms is not
    Z8, Z4 = dsl.build_str("Z8"), dsl.build_str("Z4")
    la = np.arange(8)[:, None] * np.arange(4) % 4
    la[5, 2] = 3
    assert _bimodule_rings(Z8, Z4, [Z4.add, la, Z4.mul]) == [("left-distributivity", (80, 4, 4))]


@pytest.mark.parametrize("kind, cell", [("bimodule", 2 ** 32 + 1), ("bimodule", 1.5),
                                        ("bimodule", 2), ("bimodule", -1),
                                        ("group", 2 ** 32), ("group", 0.7)])
def test_wide_or_fractional_cells_are_refused_before_narrowing(zmod, kind, cell):
    # a cell is range-checked at the width it is given: as int32, 2^32 + 1
    # would read as 1 and 2^32 as 0, and 1.5 or 0.7 would truncate into
    # range; a bimodule's cell of 2 or -1 is no element of Z2 (-1 would
    # index the last one)
    Z2 = zmod(2)
    if kind == "bimodule":
        table = np.array(Z2.mul, dtype=np.int64 if isinstance(cell, int) else float)
        build = lambda t: cons.Bimodule(Z2, Z2, 2, Z2.add, t, Z2.mul, 0, "M", ("0", "1"))
        error = InvalidBimodule
    else:
        table = np.array([[0, 1], [1, 0]], dtype=np.int64 if isinstance(cell, int) else float)
        build = lambda t: cons.validate_group(t, 0, "C2")
        error = ValueError
    if isinstance(cell, int):
        assert build(table).order == 2            # the same table at its own width is valid
    table[1, 1] = cell
    with pytest.raises(error):
        build(table)


def test_bimodule_tables_must_have_the_module_shapes(zmod):
    Z2, Z3 = zmod(2), zmod(3)
    with pytest.raises(InvalidBimodule, match="left action table must be a 3-by-2 array"):
        cons.Bimodule(Z3, Z2, 2, Z2.add, Z2.mul, Z2.mul, 0, "M", ("0", "1"))
    with pytest.raises(InvalidBimodule, match="add table must be a 2-by-2 array"):
        cons.Bimodule(Z2, Z2, 2, Z2.add.tolist(), Z2.mul, Z2.mul, 0, "M", ("0", "1"))
    with pytest.raises(InvalidBimodule, match="zero must be"):
        cons.Bimodule(Z2, Z2, 2, Z2.add, Z2.mul, Z2.mul, 2, "M", ("0", "1"))


def test_construction_outputs_are_validated(zmod):
    # a certified construction gets its negation vector from its addition
    # table: x + (-x) = 0 and 1·x = x for every x of two built rings
    for ring in (cons.matrix_ring(zmod(3), 2),
                 cons.group_ring(zmod(3), cons.group_catalog()["C2"])):
        for a in range(ring.order):
            assert int(ring.add[a, ring.neg[a]]) == ring.zero
            assert int(ring.mul[ring.one, a]) == a


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table_hashes(R) -> dict:
    return {"add": _sha256(np.ascontiguousarray(R.add, dtype="<i4").tobytes()),
            "mul": _sha256(np.ascontiguousarray(R.mul, dtype="<i4").tobytes()),
            "zero": R.zero, "one": R.one,
            "names": _sha256(json.dumps(list(R.names)).encode())}


def _golden(name: str) -> dict:
    return json.loads((Path(__file__).parent / "golden" / name).read_text())


def test_catalog_tables_match_golden():
    # tables and names of every catalog ring, hashed: any change to how
    # constructions fill their tables must leave these bytes alone
    golden = _golden("catalog_tables.json")
    got = {R.label: _table_hashes(R) for R in harness.catalog_rings()}
    assert list(got) == list(golden)
    for label, row in golden.items():
        assert got[label] == row, label


# one ring per constructor, orders 256 to 2048, none of them in the catalog
LARGE_EXPRS = ["Prod(Z8,Z8,Z8)", "T(2,Z9)", "M(2,Z5)", "GR(Z4,V4)", "TruncSkew(GF(4),frob,4)",
               "Triv(Z25,Z25)", "DT(GF(4),GF(4))", "FM(2,Z4,s=0)", "K(Z5,s=2)",
               "Prod(Z32,Z64)", "FT(Z8,Z8,Z8)"]


def test_large_tables_match_golden():
    # the same hashes past the catalog's orders, where the tables are filled
    # and validated in row blocks
    golden = _golden("large_tables.json")
    assert list(golden) == LARGE_EXPRS
    catalog = {R.label for R in harness.catalog_rings()}
    for expr in LARGE_EXPRS:
        R = dsl.build_str(expr)
        assert R.label not in catalog and 256 <= R.order <= 2048
        assert _table_hashes(R) == golden[expr], expr
