from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from deltaring import constructions as cons
from deltaring import core, dsl, harness, subsets
from deltaring.constructions import direct_product, matrix_index, matrix_ring, upper_triangular
from deltaring.errors import (
    AxiomViolation,
    HomViolation,
    InternalInconsistency,
    MalformedRing,
    NotAnIdeal,
    NotIdempotent,
    OrderGuardExceeded,
    RingError,
)

import oracles
from oracles import members
from conftest import cell_offset, traced_peak, zmod_tables


# ---------------------------------------------------------------------------
# validate_ring


def test_validate_z6(zmod):
    R = zmod(6)
    assert R.order == 6 and R.zero == 0 and R.one == 1


def test_corrupted_mul_cell_is_caught(zmod):
    add, mul = zmod_tables(4)
    mul[2][2] = 1
    with pytest.raises(AxiomViolation) as exc:
        core.validate_ring(add, mul, 0, 1)
    assert exc.value.kind in ("mul-associativity", "left-distributivity",
                              "right-distributivity")


def test_order_one_rejected():
    with pytest.raises(AxiomViolation) as exc:
        core.validate_ring([[0]], [[0]], 0, 0)
    assert exc.value.kind == "identity-distinct"


def test_zero_equals_one_rejected(zmod):
    add, mul = zmod_tables(4)
    with pytest.raises(AxiomViolation):
        core.validate_ring(add, mul, 1, 1)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        core.validate_ring([[0, 1]], [[0, 1]], 0, 1)


def test_out_of_range_rejected():
    add, mul = zmod_tables(3)
    add[1][1] = 9
    with pytest.raises(ValueError):
        core.validate_ring(add, mul, 0, 1)


def test_order_guard():
    add, mul = zmod_tables(6)
    with pytest.raises(OrderGuardExceeded):
        core.validate_ring(add, mul, 0, 1, order_guard=5)


def test_generator_path_matches_exhaustive(zmod):
    # the library's generator-based validator and the literal triple scan of
    # the oracle accept the same tables and reject the same corrupted cell
    add, mul = zmod_tables(60)
    core.validate_ring(add, mul, 0, 1)
    assert oracles.first_axiom_violation(add, mul, 0, 1) is None
    mul[17][23] = (mul[17][23] + 1) % 60
    with pytest.raises(AxiomViolation):
        core.validate_ring(add, mul, 0, 1)
    assert oracles.first_axiom_violation(add, mul, 0, 1) is not None


# ---------------------------------------------------------------------------
# lookup kernel and blocked passes


@pytest.mark.parametrize("cells", [None, 64])
def test_lookup_matches_fancy_indexing(monkeypatch, cells):
    # the row-blocked flat gather equals numpy's table[rows, cols] on
    # broadcast shapes, and _outer equals np.ix_ as a C-ordered array; at 64
    # cells a block holds a row or a few
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(5)
    shapes = lambda n: [((n, n), (n, n)), ((n, 1), (n,)), ((1, n), (n, 1)),
                        ((n,), (n,)), ((3, 1, n), (1, 5, 1)), ((0, n), (n,))]
    for n in (1, 2, 7, 40, 300):
        table = rng.integers(0, n, size=(n, n), dtype=np.int32)
        for t in (table, table.T):
            for rshape, cshape in shapes(n):
                rows = rng.integers(0, n, size=rshape)
                cols = rng.integers(0, n, size=cshape).astype(np.int32)
                got = core._lookup(t, rows, cols)
                assert got.dtype == t.dtype
                assert np.array_equal(got, t[rows, cols]), (n, rshape, cshape)
            for size in (1, n // 3, 2 * n):
                rows = rng.integers(0, n, size=size)
                cols = rng.integers(0, n, size=2 * n - size)
                got = core._outer(t, rows, cols)
                assert got.flags.c_contiguous
                assert np.array_equal(got, t[np.ix_(rows, cols)])


def test_flat_index_dtype_widens_at_two_to_the_31():
    # r*n + c <= n^2 - 1 fits int32 exactly while n^2 < 2^31, i.e. n <= 46340
    assert 46340 ** 2 < 2 ** 31 <= 46341 ** 2
    assert core._index_dtype(2) is np.int32
    assert core._index_dtype(46340) is np.int32
    assert core._index_dtype(46341) is np.int64
    assert core._index_dtype(10 ** 6) is np.int64


def _first_asymmetric_pair(table):
    """The first (a, c) in row-major order with table[a, c] != table[c, a]."""
    bad = np.argwhere(table != table.T)
    return tuple(int(v) for v in bad[0]) if bad.size else None


@pytest.mark.parametrize("cells", [None, 64])
def test_is_symmetric_compares_every_pair(monkeypatch, cells):
    # the pair named is the first in row-major order, also where a later tile
    # of its row of tiles holds it: at 64 cells the tiles are 8 by 8, and
    # (1, 30) precedes (6, 10) though its tile comes later
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(9)
    for n in (1, 5, 9, 33, 300):
        t = rng.integers(0, n, size=(n, n))
        sym = np.triu(t) + np.triu(t, 1).T
        assert core._is_symmetric(sym) is None
        cases = [{(0, n - 1)}, {(n - 1, n // 2)}, {(n // 3, n - 2)}, {(1, 0)},
                 {(6, 10), (1, 30)}, {(n - 1, 2), (3, n - 2)}]
        for cells_broken in cases:
            if all(0 <= b < n and a < n and a != b for a, b in cells_broken):
                broken = sym.copy()
                for a, b in cells_broken:
                    broken[a, b] += 1
                assert core._is_symmetric(broken) == _first_asymmetric_pair(broken), (
                    n, cells_broken)
                rows = rng.permutation(n)
                assert core._is_symmetric(broken, rows) == _first_asymmetric_pair(
                    broken[rows]), (n, cells_broken)


def _corrupt(R, row):
    """The tables of a golden row: one cell set to a value, or a mul row
    replaced by the matching column."""
    table = np.array(getattr(R, row["table"]))
    if "cell" in row:
        a, b = row["cell"]
        table[a, b] = row["value"]
    else:
        table[row["row"]] = R.mul[:, row["from_column"]]
    return (table, R.mul) if row["table"] == "add" else (R.add, table)


@pytest.mark.parametrize("cells", [None, 64])
def test_validation_witnesses_match_golden(monkeypatch, cells):
    # law and first failing instance for seeded corruptions of catalog rings
    # up to order 729, frozen from the validator as it was before its passes
    # ran in row blocks: single cells of both tables, many past the first
    # block, and mul rows replaced by columns (right-distributivity)
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    golden = json.loads((Path(__file__).parent / "golden" / "validation_witnesses.json")
                        .read_text())
    assert {row["law"] for row in golden} >= {
        "add-commutativity", "add-associativity", "left-distributivity",
        "right-distributivity"}
    for row in golden:
        R = dsl.build_str(row["ring"])
        add, mul = _corrupt(R, row)
        with pytest.raises(AxiomViolation) as exc:
            core.validate_ring(add, mul, R.zero, R.one)
        assert (exc.value.kind, list(exc.value.witness)) == (row["law"], row["instance"]), row


def test_light_passes_hold_one_table_at_a_time():
    # Light's passes compare add[add[:, g]] with its transpose tile by tile
    # and the distributivity passes, the span passes' column gathers
    # included, run in row blocks, so the checks gather no n-by-n table at
    # all (one such gather per pass held 1 table)
    for expr, order, rank in (("Prod(Z32,Z64)", 2048, 2), ("K(Z6,s=0)", 1296, 4)):
        R = dsl.build_str(expr)
        gens = oracles.additive_generators(R.add, R.zero)
        assert (R.order, len(gens)) == (order, rank)
        peak = traced_peak(lambda: core._generator_triple_checks(
            R.add, R.mul, core._group_generators(R.add, R.zero)))
        assert peak < 0.25 * R.order ** 2 * 4, expr


def test_valid_ring_runs_full_left_passes_only(monkeypatch):
    # a valid ring of rank r pays one full left pass, L(g1), then span
    # passes on the columns of <g2>, <g2, g3>, ..., <g2..gr> in turn, and no
    # full right pass; the right side is checked on the generator columns only
    calls = {"left": [], "right": [], "spans": []}
    for side in ("left", "right"):
        real = getattr(core, f"_{side}_pass")

        def spy(add, mul, g, real=real, side=side):
            calls[side].append(g)
            return real(add, mul, g)

        monkeypatch.setattr(core, f"_{side}_pass", spy)
    chain = core._span_chain

    def chain_spy(add, gens):
        spans = chain(add, gens)
        over = spans[1].tolist()
        calls["spans"].append([(g, over.count(g)) for g in dict.fromkeys(over)])
        return spans

    monkeypatch.setattr(core, "_span_chain", chain_spy)
    for expr in ("M(2,Z3)", "GR(Z2,S3)", "K(Z4,s=2)"):
        R = dsl.build_str(expr)
        for seen in calls.values():
            seen.clear()
        core.validate_ring(R.add, R.mul, R.zero, R.one)
        gens = oracles.additive_generators(R.add, R.zero)
        assert len(gens) >= 4
        sizes = [(g, oracles._magma_closure(R.add, np.array(gens[1:k + 1])).size)
                 for k, g in enumerate(gens[1:], 1)]
        assert calls == {"left": gens[:1], "right": [], "spans": [sizes]}, expr


def test_the_literal_order_alone_accepts_the_catalog(monkeypatch, full_passes):
    # with every span pass failing, validation falls to the literal order
    # L(g1), R(g1), L(g2), R(g2), ...: a complete check on its own, which
    # accepts every catalog ring of additive rank 2 or more (orders up to
    # 256), with one full pass of each side per generator, in order
    monkeypatch.setattr(core, "_span_passes_hold", lambda add, mul, gens: False)
    checked = 0
    for R in (R for R in harness.catalog_rings() if R.order <= 256):
        gens = oracles.additive_generators(R.add, R.zero)
        if len(gens) < 2:
            continue
        full_passes.clear()
        core.validate_ring(R.add, R.mul, R.zero, R.one, label=R.label)
        assert full_passes == [(side, g) for g in gens for side in ("left", "right")], R.label
        checked += 1
    assert checked == 55


def test_span_chain_is_the_closure_of_the_later_generators():
    # for every catalog ring of rank >= 2, the columns c of gk's span pass
    # are <g2..gk>, each member once, as the literal closure under addition
    # finds it, one span after another, each with its gk + c.  No catalog
    # ring has g1 in <g2..gr>, so Z4 with the elements 1 and 2 swapped stands
    # in for one: its generators are 1 (the element 2) and 2 (the element 1),
    # whose span is the whole ring
    add, mul = (np.array(t) for t in zmod_tables(4))
    swap = np.array([0, 2, 1, 3])
    Z4 = core.validate_ring(swap[add[swap][:, swap]], swap[mul[swap][:, swap]], 0, 2)
    assert oracles.additive_generators(Z4.add, Z4.zero) == [1, 2]
    for R in [*harness.catalog_rings(), Z4]:
        gens = oracles.additive_generators(R.add, R.zero)
        if len(gens) < 2:
            continue
        cols, over, sums = core._span_chain(R.add, gens)
        assert over.tolist() == sorted(over.tolist(), key=gens.index), R.label
        assert np.array_equal(sums, R.add[over, cols]), R.label
        for k, g in enumerate(gens[1:], 1):
            closure = oracles._magma_closure(R.add, np.array(gens[1:k + 1]))
            assert sorted(cols[over == g].tolist()) == closure.tolist(), (R.label, g)
        assert (gens[0] in closure) == (R is Z4), R.label


# ---------------------------------------------------------------------------
# element arithmetic


def test_ring_arithmetic_examples(zmod):
    Z6, Z12 = zmod(6), zmod(12)
    assert int(Z6.mul[4, 4]) == 4
    assert Z12.pow(6, 2) == 0
    for a in range(Z12.order):
        assert int(Z12.add[a, Z12.neg[a]]) == 0
    assert Z6.sub(2, 5) == 3
    assert Z6.pow(5, 0) == 1
    with pytest.raises(ValueError):
        Z6.pow(2, -1)


# ---------------------------------------------------------------------------
# subrings, ideals, quotients


def test_subring_generated_examples(zmod):
    Z8, Z6 = zmod(8), zmod(6)
    full = core.subring_generated(Z8, np.flatnonzero(subsets.unit_mask(Z8)), unital=True)
    assert members(full) == list(range(8))
    closed = core.subring_generated(Z6, [3], unital=False)
    assert members(closed) == [0, 3]
    prime_sub = core.subring_generated(Z6, [], unital=True)
    assert members(prime_sub) == list(range(6))  # 1 generates everything


def test_subring_generated_idempotent(zmod):
    Z12 = zmod(12)
    s = core.subring_generated(Z12, [4, 6], unital=False)
    again = core.subring_generated(Z12, np.flatnonzero(s), unital=False)
    assert np.array_equal(s, again) and not s.flags.writeable


@pytest.mark.parametrize("closure", [core.ideal_generated, core.subring_generated])
def test_closure_generators_are_element_indices(zmod, closure):
    # generators are indices of the ring's elements: a mask in their place
    # would seed {0, 1}, and -1 would wrap to the last element
    Z6 = zmod(6)
    assert members(closure(Z6, np.array([2, 4]))) == members(closure(Z6, [4, 2]))
    for bad in (oracles.mask_of(Z6, [0, 3]), [-1], [6], [1.0], np.array([2.5])):
        with pytest.raises(ValueError, match="generators must be element indices"):
            closure(Z6, bad)


def test_ideal_generated_examples(zmod):
    Z12 = zmod(12)
    assert members(core.ideal_generated(Z12, [6])) == [0, 6]
    assert members(core.ideal_generated(Z12, [1])) == list(range(12))
    T2 = upper_triangular(zmod(2), 2)
    e12 = T2.names.index("[[0,1],[0,0]]")
    ideal = core.ideal_generated(T2, [e12])
    assert members(ideal) == [T2.zero, e12]  # the strictly upper triangular set


@pytest.mark.parametrize("expr", ["T(2,Z2)", "M(2,Z2)", "T(2,Z3)", "GR(Z2,S3)"])
def test_closures_match_naive_on_noncommutative_rings(monkeypatch, expr):
    # each round's products are marked in one block, then in blocks of a row
    R = dsl.build_str(expr)
    for cells in (core._BLOCK_CELLS, 4):
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        for gens in ([], [R.one], *([a] for a in range(R.order)), [2, 5], [3, R.order - 1]):
            assert (members(core.ideal_generated(R, gens))
                    == oracles.naive_ideal_generated(R, gens)), (cells, gens)
            for unital in (True, False):
                assert (members(core.subring_generated(R, gens, unital=unital))
                        == oracles.naive_subring_generated(R, gens, unital)), (cells, gens)


def test_closures_mark_their_products_block_by_block():
    # a round marks each product (sums, left and right multiples) one row
    # block at a time; joining the whole products before marking them held
    # 6.0 tables for this ideal and 3.8 for this subring
    R = dsl.build_str("Prod(Z32,Z64)")
    table = R.order ** 2 * 4
    assert traced_peak(core.ideal_generated, R, [65]) < 0.25 * table
    assert traced_peak(core.subring_generated, R, [3]) < 0.25 * table


def test_quotient_examples(zmod):
    Z12, Z6 = zmod(12), zmod(6)
    Q, proj = core.quotient_ring(Z12, core.ideal_generated(Z12, [6]))
    assert Q.order == 6
    assert np.array_equal(Q.add, Z6.add) and np.array_equal(Q.mul, Z6.mul)
    assert proj.is_surjective and members(proj.kernel()) == [0, 6]

    R, ident = core.quotient_ring(Z6, core.ideal_generated(Z6, [0]))
    assert R.order == 6 and np.array_equal(R.add, Z6.add)
    assert list(ident.map) == list(range(6))

    Q3, _ = core.quotient_ring(Z6, core.ideal_generated(Z6, [3]))
    assert Q3.order == 3
    one_plus_one = int(Q3.add[Q3.one, Q3.one])
    assert int(Q3.add[one_plus_one, Q3.one]) == Q3.zero  # 1+1+1 = 0


def test_quotient_by_zero_ideal_is_the_ring_itself(monkeypatch):
    # R/{0} shares R's frozen arrays, brackets the names and projects by the
    # identity, with no certificate to check
    def refuse(*args, **kwargs):
        raise AssertionError("the identity needs no certificate")

    monkeypatch.setattr(core, "validate_hom", refuse)
    monkeypatch.setattr(core, "_certified_projection", refuse)
    R = dsl.build_str("T(2,Z3)")
    Q, proj = core.quotient_ring(R, core.ideal_generated(R, []))
    for ours, theirs in ((Q.add, R.add), (Q.mul, R.mul), (Q.neg, R.neg)):
        assert np.shares_memory(ours, theirs) and not ours.flags.writeable
    assert Q.label == f"{R.label}/{{{R.zero}}}" and (Q.zero, Q.one) == (R.zero, R.one)
    assert Q.names == tuple(f"[{s}]" for s in R.names)
    assert proj.source is R and proj.target is Q
    assert np.array_equal(proj.map, np.arange(R.order)) and not proj.map.flags.writeable
    ident = cons.identity_endomorphism(R)
    assert ident.source is ident.target is R and np.array_equal(ident.map, proj.map)


def _rejects(certify) -> bool:
    try:
        certify()
    except HomViolation:
        return True
    return False


@pytest.mark.parametrize("cells", [None, 64])
def test_coset_certificate_rejects_what_validate_hom_rejects(monkeypatch, cells):
    # one corrupted cell of a quotient table, or one moved image of the
    # projection: the certificate on coset representatives and the full
    # homomorphism check reject the same ones, the zero ideal included
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = random.Random(3)
    cases = 0
    for expr in ("Z12", "Z16", "T(2,Z3)", "GR(Z4,C2)", "K(Z4,s=2)", "T(3,Z2)"):
        R = dsl.build_str(expr)
        for ideal in harness.ideals_inside_radical(R):
            reps = np.unique(R.add[:, np.flatnonzero(ideal)].min(axis=1))
            Q, proj = core.quotient_ring(R, ideal)
            q = Q.order
            variants = [(Q.add, Q.mul, proj.map)]
            for _ in range(3):
                add, mul = np.array(Q.add), np.array(Q.mul)
                table = add if rng.random() < 0.5 else mul
                a, b = rng.randrange(q), rng.randrange(q)
                table[a, b] = (table[a, b] + rng.randrange(1, q)) % q
                variants.append((add, mul, proj.map))
                m = np.array(proj.map)
                x = rng.randrange(R.order)
                m[x] = (m[x] + rng.randrange(1, q)) % q
                variants.append((Q.add, Q.mul, m))
            for add, mul, m in variants:
                target = core._certified_ring(Q.label, add, mul, Q.zero, Q.one, Q.names)
                full = _rejects(lambda: core.validate_hom(R, target, m))
                assert full == (add is not Q.add or mul is not Q.mul or m is not proj.map)
                assert _rejects(lambda: core._certified_projection(
                    R, ideal, reps, target, np.array(m))) == full, (expr, members(ideal))
                cases += 1
    assert cases > 200


def test_coset_certificate_pins_the_kernel_to_the_ideal(zmod):
    # validate_hom accepts both maps, which are homomorphisms onto rings of
    # the right tables; the certificate also proves that the kernel is I.
    # Z8 -> Z2 has kernel {0,2,4,6}, larger than I = {0,4}: a - s lies
    # outside I at a = 2 (check (a)).  The identity of Z4 has kernel {0},
    # smaller than I = {0,2}: its 4 representatives are too many for the
    # 4/|I| = 2 cosets (the count |S|·|I| = n).
    Z8, Z4, Z2 = zmod(8), zmod(4), zmod(2)
    for R, idx, reps, Q, m, kind, instance in (
            (Z8, [0, 4], [0, 1], Z2, np.arange(8) % 2, "coset", (2, 0)),
            (Z4, [0, 2], [0, 1, 2, 3], Z4, np.arange(4), "coset-count", ())):
        core.validate_hom(R, Q, m)
        with pytest.raises(HomViolation) as exc:
            core._certified_projection(R, np.isin(np.arange(R.order), idx), np.array(reps), Q,
                                       m.astype(np.int32))
        assert (exc.value.kind, exc.value.witness) == (kind, instance)


def test_quotient_requires_ideal(zmod, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no quotient is made for a one-sided ideal")

    Z12 = zmod(12)
    with pytest.raises(NotAnIdeal):
        core.quotient_ring(Z12, oracles.mask_of(Z12, [0, 5]))
    # an additive subgroup that is a left ideal but not a two-sided one
    M2 = matrix_ring(zmod(2), 2)
    first_column = [matrix_index(zmod(2), 2, [[a, 0], [c, 0]]) for a in (0, 1) for c in (0, 1)]
    left_ideal = oracles.mask_of(M2, first_column)
    assert not core.is_ideal(M2, left_ideal)
    with pytest.raises(NotAnIdeal):
        core.quotient_ring(M2, left_ideal)
    # the coset certificate's step m(sb + ib) = m(sb) needs ib in the ideal,
    # so a left ideal is refused before any quotient table is made
    monkeypatch.setattr(core, "_certified_ring", refuse)
    with pytest.raises(NotAnIdeal):
        core.quotient_ring(M2, left_ideal)


def test_quotient_is_certified_not_revalidated(zmod, monkeypatch):
    Z12 = zmod(12)

    def refuse(*args, **kwargs):
        raise AssertionError("derived rings must not be re-validated")

    monkeypatch.setattr(core, "validate_ring", refuse)
    Q, proj = core.quotient_ring(Z12, core.ideal_generated(Z12, [4]))
    assert Q.order == 4 and proj.is_surjective
    corner = core.corner_ring(Z12, 4)          # 4 is idempotent: 4*Z12*4 = {0,4,8}
    assert corner.order == 3 and corner.one == 1


def test_induced_subring_certificate_rejections(zmod):
    Z6 = zmod(6)
    # {0,2,4} = 2*Z6 is closed, with identity 4 (a copy of Z3)
    evens = oracles.mask_of(Z6, [0, 2, 4])
    sub, elems = core.induced_subring(Z6, evens, 4)
    assert sub.order == 3 and list(elems) == [0, 2, 4] and sub.one == 2
    assert oracles.first_axiom_violation(sub.add, sub.mul, sub.zero, sub.one) is None
    # 2 is in the subset but is not an identity on it: 2*2 = 4
    with pytest.raises(AxiomViolation) as exc:
        core.induced_subring(Z6, evens, 2)
    assert exc.value.kind == "mul-identity"
    # the identity must be a member
    with pytest.raises(ValueError):
        core.induced_subring(Z6, evens, 1)
    # {0,1,5} holds its negatives but is not closed: 1+1 = 2
    with pytest.raises(ValueError):
        core.induced_subring(Z6, oracles.mask_of(Z6, [0, 1, 5]), 1)
    # {1,2} misses 0
    with pytest.raises(ValueError):
        core.induced_subring(Z6, oracles.mask_of(Z6, [1, 2]), 1)
    # {0} has no identity distinct from 0
    with pytest.raises(AxiomViolation):
        core.induced_subring(Z6, oracles.mask_of(Z6, [0]), 0)


@pytest.mark.parametrize("expr", ["Z8", "M(2,Z2)", "T(2,Z3)", "GR(Z2,S3)"])
def test_full_induced_subrings_share_the_parent_tables(expr, computed):
    # a subset of every element induces the ring's own tables: the unit
    # subring of a ring its units generate, and the corner at the identity,
    # share R's frozen arrays, under their own label and names and memo
    R = core._relabel(dsl.build_str(expr), expr)          # a fresh memo
    span, elems = subsets.unit_subring(R)
    assert np.array_equal(elems, np.arange(R.order))
    corner = core.corner_ring(R, R.one)
    pos = np.full(R.order, -1)
    pos[elems] = np.arange(elems.size)
    literal = {"add": pos[R.add[np.ix_(elems, elems)]], "mul": pos[R.mul[np.ix_(elems, elems)]],
               "neg": pos[R.neg[elems]]}
    for sub, label in ((span, f"unitspan({expr})"), (corner, f"corner({expr},{R.one})")):
        assert sub.label == label and sub.names == R.names
        assert (sub.order, sub.zero, sub.one) == (R.order, R.zero, R.one)
        for name, gathered in literal.items():
            ours, theirs = getattr(sub, name), getattr(R, name)
            assert np.shares_memory(ours, theirs) and not ours.flags.writeable, name
            assert np.array_equal(ours, gathered), name
        assert sub._cache is not R._cache
    assert span._cache is not corner._cache
    # the radical of the unit subring is computed once for its tables, R's
    memo = subsets._table_memo(R)
    assert subsets._table_memo(span) is memo and "jac_mask" not in memo
    subsets.jacobson_mask(span)
    assert "jac_mask" in memo
    assert computed.count((span.label, "jac_mask")) == 1
    # a full subset still needs its identity, and all but 1 and -1 holds 0
    # and its negatives but is not closed: x + (1 - x) = 1
    with pytest.raises(AxiomViolation, match="mul-identity"):
        core.induced_subring(R, np.ones(R.order, dtype=bool), R.zero)
    short = np.ones(R.order, dtype=bool)
    short[[R.one, R.neg[R.one]]] = False
    with pytest.raises(ValueError, match="not closed"):
        core.induced_subring(R, short, R.zero)


def test_quotient_kernel_equals_ideal_across_small_rings(zmod):
    for m in (4, 6, 8, 9, 12, 16, 18):
        R = zmod(m)
        for g in range(m):
            ideal = core.ideal_generated(R, [g])
            if ideal.sum() == m:
                with pytest.raises(ValueError):
                    core.quotient_ring(R, ideal)
                continue
            Q, proj = core.quotient_ring(R, ideal)
            assert proj.is_surjective
            assert np.array_equal(proj.kernel(), ideal)
            assert Q.order * ideal.sum() == R.order


def test_corner_examples(zmod):
    Z2, Z3 = zmod(2), zmod(3)
    P = direct_product([Z2, Z3])
    e = 3  # (1,0)
    corner = core.corner_ring(P, e)
    assert corner.order == 2
    assert int(corner.add[corner.one, corner.one]) == corner.zero

    M2 = matrix_ring(Z2, 2)
    e11 = matrix_index(Z2, 2, [[1, 0], [0, 0]])
    assert core.corner_ring(M2, e11).order == 2

    same = core.corner_ring(P, P.one)
    assert same.order == P.order
    assert np.array_equal(same.add, P.add) and np.array_equal(same.mul, P.mul)

    with pytest.raises(NotIdempotent):
        core.corner_ring(Z3, 2)
    with pytest.raises(NotIdempotent):
        core.corner_ring(Z3, 0)


def test_center_examples(zmod):
    Z2 = zmod(2)
    M2 = matrix_ring(Z2, 2)
    eye = matrix_index(Z2, 2, [[1, 0], [0, 1]])
    assert members(core.center(M2)) == [0, eye] == oracles.naive_center(M2)
    Z12 = zmod(12)
    assert members(core.center(Z12)) == list(range(12))
    T2 = upper_triangular(Z2, 2)
    assert members(core.center(T2)) == oracles.naive_center(T2)
    assert core.center(T2).sum() == 2


# ---------------------------------------------------------------------------
# homomorphisms


def test_validate_hom_examples(zmod):
    Z4, Z2 = zmod(4), zmod(2)
    ident = core.validate_hom(Z4, Z4, list(range(4)))
    assert ident.is_injective
    reduction = core.validate_hom(Z4, Z2, [0, 1, 0, 1])
    assert reduction.is_surjective and not reduction.is_injective
    gf4 = dsl.build_str("GF(4)")
    frob = dsl.frobenius(gf4, 2)
    assert sorted(int(v) for v in frob.map) == list(range(4))
    with pytest.raises(HomViolation):
        core.validate_hom(Z4, Z2, [0, 1, 1, 0])


def _hom_outcome(check, *args):
    try:
        check(*args)
    except HomViolation as exc:
        return exc.kind, exc.witness
    return None


@pytest.mark.parametrize("cells", [None, 64])
def test_validate_hom_witness_matches_naive_double_loop(monkeypatch, cells):
    # corrupted projections R -> R/J (one image moved), and the projection
    # into the opposite ring of R/J, which is always additive and is
    # multiplicative exactly when R/J is commutative: the blocked passes
    # report the oracle's first failing pair, or none.  The coset certificate
    # on the same maps names the oracle's first failure on its representative
    # rows, unless its own checks of the cosets (between the images of 0 and 1
    # and the pass) refuse the map first.
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = random.Random(11)
    kinds, certified = set(), set()
    for label in ("Z12", "M(2,Z3)", "K(Z4,s=2)", "DT(Z4,Z4)", "T(3,Z3)"):
        R = dsl.build_str(label)
        J = subsets.jacobson_mask(R)
        reps = np.unique(R.add[:, np.flatnonzero(J)].min(axis=1))
        Q, proj = core.quotient_ring(R, J)
        opposite = core.validate_ring(Q.add, np.ascontiguousarray(Q.mul.T), Q.zero, Q.one)
        cases = [(opposite, proj.map)]
        for x in [R.one] + [rng.randrange(R.order) for _ in range(3)]:
            m = proj.map.copy()
            m[x] = (m[x] + rng.randrange(1, Q.order)) % Q.order
            cases.append((Q, m))
        for target, m in cases:
            expect = oracles.naive_hom_violation(R, target, m)
            assert _hom_outcome(core.validate_hom, R, target, m) == expect, label
            kinds.add(expect and expect[0])
            got = _hom_outcome(core._certified_projection, R, J, reps, target, np.array(m))
            expect = oracles.naive_hom_violation(R, target, m, rows=reps)
            if got is not None and got[0] in ("onto", "coset", "coset-count"):
                assert expect is None or expect[0] not in ("zero", "one"), (label, got)
            else:
                assert got == expect, (label, got)
            certified.add(got and got[0])
    assert kinds >= {"one", "additive", "multiplicative", None}
    assert certified >= {"one", "multiplicative", None}


def test_validate_hom_shape_errors(zmod):
    Z4, Z2 = zmod(4), zmod(2)
    with pytest.raises(ValueError):
        core.validate_hom(Z4, Z2, [0, 1, 0])       # wrong length
    with pytest.raises(ValueError):
        core.validate_hom(Z4, Z2, [0, 1, 0, 9])    # image out of range
    with pytest.raises(ValueError):                # would wrap to 1 in int32
        core.validate_hom(Z4, Z2, np.array([0, 1, 0, 2 ** 32 + 1]))
    with pytest.raises(ValueError):
        core.validate_hom(Z4, Z2, [0.0, 1.5, 0.0, 1.0])


@pytest.mark.parametrize("entry, good", [
    (lambda R, mask: core.is_ideal(R, mask), [0, 2]),
    (lambda R, mask: core.quotient_ring(R, mask), [0, 2]),
    (lambda R, mask: core.induced_subring(R, mask, R.one), [0, 1, 2, 3]),
], ids=["is_ideal", "quotient_ring", "induced_subring"])
def test_element_set_inputs_are_masks_of_the_ring_order(zmod, entry, good):
    # an element set is a bool vector with one entry per element: a mask of
    # another length or shape, or element indices in its place, is refused
    Z4 = zmod(4)
    mask = oracles.mask_of(Z4, good)
    assert entry(Z4, mask)
    for bad in (mask[:-1], np.append(mask, False), mask[:, None], mask.astype(np.int64), good):
        with pytest.raises(ValueError, match="bool vector of length equal to the ring order"):
            entry(Z4, bad)


# ---------------------------------------------------------------------------
# serialization


def test_dump_round_trip(zmod):
    R = zmod(12)
    text = core.ring_to_json(R)
    back = core.ring_from_json(text)
    assert core.ring_to_json(back) == text
    data = json.loads(text)
    assert set(data) == {"label", "order", "add", "mul", "zero", "one"}


def _z2_dump() -> dict:
    return {"label": "Z2", "order": 2, "add": [[0, 1], [1, 0]],
            "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}


def _edited(compact: bool = False, **changes) -> str:
    """The Z2 dump with `changes` (None drops a key), as `json.dumps` writes
    it by default or, with `compact`, in the sorted compact form of
    `ring_to_json`, which `ring_from_json` decodes without `json.loads`."""
    data = _z2_dump()
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    if compact:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
    return json.dumps(data)


_MALFORMED_EDITS = [
    dict(mul=[[0, 0], [0, 2 ** 32 + 1]]),   # wrapped to 1 when narrowed first
    dict(mul=[[0, 0], [0, 2 ** 70]]),
    dict(add=[[0, 1], [1, 10 ** 18]]), dict(mul=[[0, 0], [0, 2 ** 63]]),   # int64, float64
    dict(add=[[0, 1], [1, -1]]),
    dict(one=1.5), dict(one=True), dict(zero="0"), dict(zero=None),
    dict(add=[[0, True], [True, 0]]), dict(mul=[[0.0, 0], [0, 1]]),
    dict(mul=[["0", "0"], ["0", "1"]]), dict(add=[[0, 1], [1]]),
    dict(add=[[0, 1], None]), dict(add={}), dict(add=[]),
    dict(add=[[[0], [1]], [[1], [0]]]), dict(mul=[[0]]),
    dict(label=5),
]


@pytest.mark.parametrize("text", [
    *(_edited(**edit) for edit in _MALFORMED_EDITS),
    "{}", "[]", "7", '"Z2"', "not json", _edited()[:-3],
    pytest.param("[" * 100000, id="past-the-decoder-recursion-limit"),
    *(_edited(compact=True, **edit) for edit in _MALFORMED_EDITS),
    _edited(compact=True)[:-3],
    _edited(compact=True, one=None, order=None, zero=None).replace("}", ",}"),
])
def test_malformed_dumps_raise_one_error(text):
    with pytest.raises(MalformedRing) as exc:
        core.ring_from_json(text)
    assert isinstance(exc.value, ValueError) and str(exc.value)
    # the error that decoding with json.loads gives, word for word
    with pytest.raises(MalformedRing) as expected:
        oracles.ring_from_loaded_json(text)
    assert str(exc.value) == str(expected.value)


def _compact(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _moved_last_cell(table: list) -> list:
    return [table[0][:-1], table[1] + table[0][-1:], *table[2:]]


# edits of the Z9 dump, loaded under an order guard of 8, with whether the
# guard refuses it from the text alone: a missing identity, a non-string
# label, and an add table that is not square or not JSON win over the guard
_OVER_GUARD_EDITS = [
    ("pristine", lambda text: text, True),
    ("shorter-mul", lambda text: _compact({**json.loads(text), "mul": json.loads(text)["mul"][:3]}),
     True),
    ("no-zero", lambda text: _compact({k: v for k, v in json.loads(text).items() if k != "zero"}),
     False),
    ("no-identities", lambda text: _compact(
        {k: v for k, v in json.loads(text).items() if k not in ("zero", "one")}), False),
    ("label-not-a-string", lambda text: _compact({**json.loads(text), "label": 5}), False),
    ("add-not-square", lambda text: _compact(
        {**json.loads(text), "add": [row + [0] for row in json.loads(text)["add"]]}), False),
    ("ragged-add", lambda text: _compact(
        {**json.loads(text), "add": _moved_last_cell(json.loads(text)["add"])}), False),
    ("leading-zero-in-add", lambda text: text.replace('"add":[[0,', '"add":[[00,', 1), False),
    ("leading-zero-in-mul", lambda text: text.replace('"mul":[[0,0,', '"mul":[[0,00,', 1), False),
]


@pytest.mark.parametrize("edit, refused_from_text", [edit[1:] for edit in _OVER_GUARD_EDITS],
                         ids=[edit[0] for edit in _OVER_GUARD_EDITS])
def test_over_guard_dump_is_refused_before_its_cells_are_parsed(zmod, monkeypatch, edit,
                                                                 refused_from_text):
    text = edit(core.ring_to_json(zmod(9)))
    parsed = []
    parse = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *a, **k: parsed.append(a) or parse(*a, **k))
    with pytest.raises((MalformedRing, OrderGuardExceeded)) as exc:
        core.ring_from_json(text, order_guard=8)
    # the error that json.loads and ring_from_dict give, word for word
    with pytest.raises(type(exc.value)) as expected:
        oracles.ring_from_loaded_json(text, order_guard=8)
    assert str(exc.value) == str(expected.value)
    if refused_from_text:
        assert isinstance(exc.value, OrderGuardExceeded) and parsed == []


def test_dump_at_the_order_guard_loads(zmod):
    R = zmod(9)
    back = core.ring_from_json(core.ring_to_json(R), order_guard=9)
    assert np.array_equal(back.add, R.add) and np.array_equal(back.mul, R.mul)


def _leading_zero(dump, at):
    return dump[:at] + "0" + dump[at:]


def _emptied_last(dump, at):
    cut = dump.rindex(",", 0, at - 3) + 1
    return dump[:cut] + dump[at - 3:]


def _moved_across(dump, at):
    cut = dump.rindex(",", 0, at - 3) + 1
    return dump[:cut - 1] + dump[at - 3:at] + dump[cut:at - 3] + "," + dump[at:]


def _repeated_row(dump, at):
    return dump[:at] + dump[at:dump.index("]", at)] + "],[" + dump[at:]


def _garbled_separator(dump, at):
    return dump[:at - 3] + "]_[" + dump[at:]


@pytest.mark.parametrize("edit", [_leading_zero, _emptied_last, _moved_across, _repeated_row,
                                  _garbled_separator],
                         ids=["leading-zero", "empty-token", "ragged", "extra-row",
                              "garbled-separator"])
@pytest.mark.parametrize("cells", [4, 37])
def test_over_guard_walk_checks_every_block(zmod, monkeypatch, cells, edit):
    # the refusal's walk checks later blocks as it checks the first: edited
    # at the start of the third block (a leading zero on its first token,
    # the token before it emptied or moved into its first row, that row
    # repeated, or the "],[" before it garbled), either table has the
    # outcome that json.loads and ring_from_dict give, message included
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    dump = core.ring_to_json(zmod(9))
    row = core._row_blocks(9, 9)[2][0]
    for table in ("add", "mul"):
        text = edit(dump, cell_offset(dump, table, row, 0))
        with pytest.raises((MalformedRing, OrderGuardExceeded)) as exc:
            core.ring_from_json(text, order_guard=8)
        with pytest.raises(type(exc.value)) as expected:
            oracles.ring_from_loaded_json(text, order_guard=8)
        assert str(exc.value) == str(expected.value)


def test_over_guard_refusal_holds_one_block_of_the_text():
    # the refusal walks both tables' text (7.8 MiB for Z1024) one row block
    # at a time without parsing it, so it holds no copy of a whole table
    text = core.ring_to_json(dsl.build_str("Z1024"))

    def refused():
        with pytest.raises(OrderGuardExceeded, match="order 1024 exceeds the order guard 1000"):
            core.ring_from_json(text, order_guard=1000)

    assert traced_peak(refused) < 0.25 * len(text)


def test_canonical_load_holds_no_copy_of_the_text():
    # a load holds the text, its two uint16 tables and one row block of the
    # text and its uint32 parse: no whole-table copy of the text and no
    # uint32 table.  Here the text is about 13 MB and the two tables 6.7 MB
    R = dsl.build_str("K(Z6,s=0)")
    text = core.ring_to_json(R)
    loaded = []
    assert traced_peak(lambda: loaded.append(core.ring_from_json(text))) < 0.8 * len(text)
    assert np.array_equal(loaded[0].add, R.add) and np.array_equal(loaded[0].mul, R.mul)


def _load_outcome(load, text, order_guard=None):
    """The tables, label and identities that `load(text)` returns, or the
    class and message of the ring error it raises."""
    try:
        R = load(text, order_guard=order_guard)
    except RingError as exc:
        return type(exc), str(exc)
    return R.add.tobytes(), R.mul.tobytes(), R.label, R.zero, R.one


def _json_edit(change):
    return lambda text, n: _compact(change(json.loads(text)))


def _row_0(table: str, cells: int):
    def change(data):
        row = data[table][0]
        data[table][0] = row + row[:1] if cells > 0 else row[:-1]
        return data
    return _json_edit(change)


# edits of a dump around where `_row_starts` finds its tables' rows and ends,
# with whether the text stays canonical, and the order guard it is loaded at
# as an offset from the ring's order (None: the default guard)
_END_EDITS = [
    ("brackets-in-the-label", _json_edit(lambda data: {**data, "label": ']],"mul":[[0]]'}),
     True, None),
    ("brackets-in-a-tail-string", _json_edit(lambda data: {**data, "note": "]]"}), True, None),
    *((f"{table}-row-0-{name}", _row_0(table, cells), False, None)
      for table in ("add", "mul") for name, cells in (("longer", 1), ("shorter", -1))),
    *((f"{table}-closed-a-row-early", _json_edit(lambda data, t=table: {**data, t: data[t][:-1]}),
       False, None) for table in ("add", "mul")),
    *((f"cut-short-in-{table}", lambda text, n, t=table: text[:cell_offset(text, t, n // 2, 1)],
       False, None) for table in ("add", "mul")),
    ("mul-of-another-order-past-the-guard", _json_edit(
        lambda data: {**data, "add": [row[:-1] for row in data["add"][:-1]]}), False, -1),
]


@pytest.mark.parametrize("edit, canonical, guard", [edit[1:] for edit in _END_EDITS],
                         ids=[edit[0] for edit in _END_EDITS])
@pytest.mark.parametrize("cells", [core._BLOCK_CELLS, 4, 37])
@pytest.mark.parametrize("m", [12, 182], ids=["one-block", "past-one-block"])
def test_table_rows_and_ends_are_found_by_the_walk(zmod, monkeypatch, m, cells, edit, canonical,
                                                   guard):
    # a table's rows and its end are found from "[" to "[": a "]]" in the
    # label or in a string of the tail is no table end, and a row 0 of
    # another length, a table that ends a row early, a body cut short, or
    # an add table of an order other than the mul table's, have the outcome
    # that json.loads and ring_from_dict give, message included, whether
    # the tables are walked on one thread or two (Z182 at the default block)
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    text = edit(core.ring_to_json(zmod(m)), m)
    guard = None if guard is None else m + guard
    assert (core._canonical_dump(text, core._resolve_guard(guard)) is not None) == canonical
    assert (_load_outcome(core.ring_from_json, text, guard)
            == _load_outcome(oracles.ring_from_loaded_json, text, guard))


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("cells", [core._BLOCK_CELLS, 4, 37])
def test_a_cell_of_n_on_a_block_edge_is_out_of_range(zmod, monkeypatch, cells, table):
    # a cell equal to the order, on the first or the last token of a later
    # block, fails the walk, so _as_table refuses it as json.loads read it
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    R = zmod(182)
    dump = core.ring_to_json(R)
    n = R.order
    lo, hi = core._row_blocks(n, n)[1]
    for i, j in ((lo, 0), (hi - 1, n - 1)):
        at = cell_offset(dump, table, i, j)
        text = dump[:at] + str(n) + dump[dump.index("]" if j == n - 1 else ",", at):]
        with pytest.raises(MalformedRing, match=f"^{table} entries out of range$"):
            core.ring_from_json(text)
        assert (_load_outcome(core.ring_from_json, text)
                == _load_outcome(oracles.ring_from_loaded_json, text))


def test_a_failed_add_walk_stops_the_mul_walk_at_its_next_block(zmod, monkeypatch):
    # Z182 in blocks of one row: the add walk fails on its first cell, which
    # is not ASCII; the worker, held back until then, parses one block of the
    # mul table and stops, and json.loads reads the text
    monkeypatch.setattr(core, "_BLOCK_CELLS", 37)
    text = core.ring_to_json(zmod(182)).replace('"add":[[0,', '"add":[[\u0661,', 1)
    add_walked = threading.Event()
    read, parse = core._read_table, np.fromstring
    worker_parses = []

    def read_spy(*args):
        try:
            return read(*args)
        finally:
            if threading.current_thread() is threading.main_thread():
                add_walked.set()

    def parse_spy(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            assert add_walked.wait(60)
            worker_parses.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(core, "_read_table", read_spy)
    monkeypatch.setattr(np, "fromstring", parse_spy)
    assert (_load_outcome(core.ring_from_json, text)
            == _load_outcome(oracles.ring_from_loaded_json, text))
    assert len(worker_parses) == 1


def test_no_thread_outlives_ring_from_json(zmod, monkeypatch):
    # tables past one block are parsed on two threads; the worker is joined
    # before every return and raise (harness.run_all forks, which is only
    # safe with no other thread running), and its error reaches the caller
    R = zmod(182)
    assert R.order ** 2 > core._BLOCK_CELLS
    text = core.ring_to_json(R)
    data = json.loads(text)
    data["mul"][1][1] = 2
    not_an_identity = _compact(data)
    leading_zero = text.replace('"mul":[[0,', '"mul":[[00,', 1)
    start = threading.active_count()
    parsers = []
    parse = np.fromstring

    def spy(*args, **kwargs):
        parsers.append(threading.current_thread() is threading.main_thread())
        return parse(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", spy)
    for dump, error in ((text, None), (not_an_identity, AxiomViolation),
                        (leading_zero, MalformedRing)):
        parsers.clear()
        if error is None:
            back = core.ring_from_json(dump)
            assert np.array_equal(back.add, R.add) and np.array_equal(back.mul, R.mul)
        else:
            with pytest.raises(error):
                core.ring_from_json(dump)
        # the load parsed on both threads, and left no thread behind
        assert True in parsers and False in parsers
        assert threading.active_count() == start

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("the worker's parse failed")
        return parse(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", failing)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(MemoryError, match="the worker's parse failed"):
            core.ring_from_json(text)
        # the error's frames and the text they hold were freed by reference
        # count: no cycle waits for the collector
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert threading.active_count() == start


def test_concurrent_loads_each_join_their_worker(zmod):
    # four callers at once, each with its own worker, switching often; two
    # more load a dump whose add walk fails, which stops only their own
    # workers
    R = zmod(182)
    text = core.ring_to_json(R)
    bad = text.replace('"add":[[0,', '"add":[[\u0661,', 1)
    start = threading.active_count()
    loaded, refused = [], []

    def refuse():
        with pytest.raises(MalformedRing):
            core.ring_from_json(bad)
        refused.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=lambda: loaded.append(core.ring_from_json(text)))
                   for _ in range(4)] + [threading.Thread(target=refuse) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(loaded) == 4 and len(refused) == 2
    assert all(np.array_equal(B.add, R.add) and np.array_equal(B.mul, R.mul) for B in loaded)
    assert threading.active_count() == start


def test_dumps_match_the_json_encoder():
    # ring_to_json writes the bytes json.dumps writes from nested lists, and
    # reads them back on the canonical path, hostile labels included
    rings = [dsl.build(expr) for _, expr in dsl.catalog()]
    for R in rings:
        text = core.ring_to_json(R)
        assert text == oracles.ring_dump(R), R.label
        assert core._canonical_dump(text, core.DEFAULT_ORDER_GUARD) is not None, R.label
    for label in ['"', "\\", "\u0394", "\x01", ']],"mul":[[']:
        R = core._relabel(rings[5], label)
        text = core.ring_to_json(R)
        assert text == oracles.ring_dump(R), label
        back = core.ring_from_json(text)
        assert back.label == label
        assert core._canonical_dump(text, core.DEFAULT_ORDER_GUARD)["label"] == label
        assert np.array_equal(back.add, R.add) and np.array_equal(back.mul, R.mul)


def test_table_cells_are_range_checked_before_narrowing():
    # an int64 table is checked at its own width, not after a wrap to int32
    add = np.array([[0, 1], [1, 0]], dtype=np.int64)
    mul = np.array([[0, 0], [0, 2 ** 32 + 1]], dtype=np.int64)
    with pytest.raises(MalformedRing, match="mul entries out of range"):
        core.validate_ring(add, mul, 0, 1)
    with pytest.raises(MalformedRing):
        core.validate_ring(add, [[0, 0], [0, np.int64(2 ** 32 + 1)]], 0, 1)
    with pytest.raises(MalformedRing, match="not bools"):
        core.validate_ring(add, [[0, 0], [0, np.True_]], 0, 1)
    assert core.ring_from_json(_edited(label=None)).label == "R"
    assert core.validate_ring(add, [[0, 0], [0, 1]], np.int32(0), np.int64(1)).one == 1


@pytest.mark.parametrize("cell", [65536, 65537])
@pytest.mark.parametrize("form", ["list", "int64", "dump"])
def test_cells_past_the_table_dtype_are_refused_not_wrapped(form, cell):
    # Z2's mul table with its 1*1 cell at 2^16 or 2^16 + 1, which uint16
    # would wrap to 0 or 1: 65537 would read as Z2 itself
    add, mul = [[0, 1], [1, 0]], [[0, 0], [0, cell]]
    with pytest.raises(MalformedRing, match="mul entries out of range"):
        if form == "dump":
            text = json.dumps({"add": add, "label": "Z2", "mul": mul, "one": 1, "order": 2,
                               "zero": 0}, sort_keys=True, separators=(",", ":"))
            # the reader hands this text to json.loads, whose int64 table
            # _as_table range-checks before narrowing
            assert core._canonical_dump(text, core.DEFAULT_ORDER_GUARD) is None
            core.ring_from_json(text)
        else:
            core.validate_ring(add, mul if form == "list" else np.array(mul, dtype=np.int64), 0, 1)


def test_orders_past_the_table_dtype_are_refused_before_allocation():
    # an order above 2^16 is past every guard, however high it is set, and
    # is refused before anything of its size is allocated: a broadcast
    # table of 65537^2 cells allocates nothing, and neither does the refusal
    assert core._resolve_guard(10 ** 6) == core.MAX_ORDER == 65536
    big = np.broadcast_to(np.int64(0), (65537, 65537))
    factors = [dsl.build_str("Z256"), dsl.build_str("Z257")]    # 65792 elements

    def refused():
        with pytest.raises(OrderGuardExceeded, match="order 65537 exceeds the order guard 65536"):
            core.validate_ring(big, big, 0, 1, order_guard=10 ** 6)
        with pytest.raises(OrderGuardExceeded, match="past the guard 65536"):
            dsl.build_str("Z65537", order_guard=10 ** 6)
        with pytest.raises(OrderGuardExceeded, match="past the guard 65536"):
            direct_product(factors, order_guard=10 ** 6)

    assert traced_peak(refused) < 1 << 20


def test_validation_copies_the_callers_tables():
    # a validated ring neither freezes nor aliases the arrays it was given,
    # so writing to them later cannot change the ring
    buf = np.array([[[0, 1], [1, 0]], [[0, 0], [0, 1]]], dtype=np.int32)
    R = core.validate_ring(buf[0], buf[1], 0, 1)
    buf[:] = 0
    assert R.add.tolist() == [[0, 1], [1, 0]] and R.mul.tolist() == [[0, 0], [0, 1]]
    assert not R.add.flags.writeable


def test_order_guard_is_checked_before_the_cells():
    # an over-guard dump is refused for its order before any cell is read
    add = [[0, 1, 2], [1, 2, 0], [2, 0, 7]]
    with pytest.raises(OrderGuardExceeded):
        core.validate_ring(add, [[0, True, 2], [1, 2, 0], [2, 0, 7]], 0, 1, order_guard=2)


def test_semantic_tags_revalidated(zmod):
    Z12 = zmod(12)
    not_ideal = oracles.mask_of(Z12, [0, 5])
    assert not core.is_ideal(Z12, not_ideal)
    assert core.is_ideal(Z12, core.ideal_generated(Z12, [6]))


@pytest.mark.parametrize("edits, kind", [
    ([("add", 1, 2, 4)], "add-commutativity"),
    ([("add", 1, 4, 1), ("add", 4, 1, 1)], "add-inverse"),
    ([("add", 1, 1, 0)], "add-associativity"),
    ([("mul", 2, 3, 0)], "left-distributivity"),
])
def test_a_rejection_leaves_no_reference_cycle(edits, kind):
    # dropping the caught error frees the rejected tables at once: an error
    # raised from a local of the frame that raises it would tie the
    # traceback's frames, and the tables they hold, into a cycle that only
    # the cyclic collector frees, so a stream of rejected dumps piles up
    add, mul = (np.array(t, dtype=np.int32) for t in zmod_tables(5))
    for name, i, j, value in edits:
        (add if name == "add" else mul)[i, j] = value
    freed = weakref.ref(add)
    gc.disable()
    try:
        try:
            core._validated_ring(add, mul, 0, 1, "R", None)
        except AxiomViolation as exc:
            got = exc.kind
        del add, mul
        assert got == kind and freed() is None
    finally:
        gc.enable()


def test_catalog_rings_take_their_generators_from_the_coset_walk():
    # on every catalog ring the walk reaches all n elements with the greedy
    # generators, as re-closing the whole span after each one finds them,
    # and validation passes on them
    for label, expr in dsl.catalog():
        R = dsl.build(expr)
        gens, span = core._coset_walk(R.add, R.zero)
        assert sorted(span) == list(range(R.order)), label
        assert gens == oracles.additive_generators(R.add, R.zero), label
        core.validate_ring(R.add, R.mul, R.zero, R.one)


# commutative with identity 0 and inverses, but x -> x + 2 sends both
# members 0 and 1 of the span <1> to 2
_NOT_INJECTIVE = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 0, 1], [3, 3, 1, 0]]


def _not_injective_ring() -> tuple[np.ndarray, np.ndarray]:
    """`_NOT_INJECTIVE` with a product whose identity is 1."""
    mul = np.zeros((4, 4), dtype=np.int64)
    mul[1] = mul[:, 1] = np.arange(4)
    return np.array(_NOT_INJECTIVE), mul


def test_coset_walk_gives_up_where_a_translation_is_not_injective():
    # the coset <1> + 2 repeats an element, so the walk gives up at 2 with
    # the span <1>, and Light's test on its generators names the rejection
    # that the greedy set names
    add, mul = _not_injective_ring()
    gens, span = core._coset_walk(add, 0)
    assert gens == [1, 2] and len(span) < 4
    with pytest.raises(AxiomViolation) as exc:
        core.validate_ring(add, mul, 0, 1)
    with pytest.raises(AxiomViolation) as expected:
        oracles.two_sided_generator_checks(add, mul, oracles.additive_generators(add, 0))
    assert (exc.value.kind, exc.value.witness) == (expected.value.kind, expected.value.witness)
    assert exc.value.kind == "add-associativity"


def test_a_short_walk_past_light_is_an_internal_inconsistency(monkeypatch):
    # Light's test failing where the walk gives up is forced (`_coset_walk`),
    # so validation asserts that the span is whole once the test has passed
    add, mul = _not_injective_ring()
    monkeypatch.setattr(core, "_check_light", lambda add, gens: None)
    with pytest.raises(InternalInconsistency):
        core.validate_ring(add, mul, 0, 1)


# the walk on two tables it gives up on: `_NOT_INJECTIVE`, and Z2 x X, X
# being Z2 with 1 as its identity, laid out as `constructions._tuple_ring`
# lays it out (x + y = x ^ y ^ 1), where 0 + 1 = 0 leaves the generator 1
# unreached after its cosets
_WALK_ENDS = """
import json, numpy as np
from deltaring import core
tables = [%r, [[i ^ j ^ 1 for j in range(4)] for i in range(4)]]
print(json.dumps([core._coset_walk(np.array(add), 0) for add in tables]))
""" % (_NOT_INJECTIVE,)


def test_coset_walk_ends_where_it_gives_up():
    # a walk that never ended would hang the suite, which has no per-test
    # timeout, so the walk runs in a child process that has one (a broken
    # walk that loops appends a generator each round, about 12 MB/s)
    src = str(Path(core.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _WALK_ENDS], capture_output=True, text=True,
                          env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[[1, 2], [0, 1]], [[1], [0]]]
