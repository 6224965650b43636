from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from deltaring import core, dsl, harness, predicates, subsets
from deltaring.errors import InternalInconsistency

import oracles
from conftest import traced_peak
from oracles import members

# every element set memoized per tables, under its memo key
SHARED_SETS = {"unit_mask": subsets.unit_mask, "idem_mask": subsets.idempotent_mask,
               "nil_mask": subsets.nilpotent_mask, "trip_mask": subsets.tripotent_mask,
               "one_minus": subsets.one_minus, "jac_mask": subsets.jacobson_mask,
               "delta_mask": subsets.delta_mask, "nilstar_mask": subsets.prime_radical,
               "idem_commutant": subsets.idempotent_commutant,
               "qn_mask": subsets.quasinilpotent_mask, "idem_reach": subsets.idempotent_reach,
               "regular_mask": predicates._regular_mask}


def test_units_examples(zmod):
    assert members(subsets.unit_mask(zmod(6))) == [1, 5] == oracles.naive_units(zmod(6))
    assert members(subsets.unit_mask(zmod(8))) == [1, 3, 5, 7]
    gf4 = dsl.build_str("GF(4)")
    assert members(subsets.unit_mask(gf4)) == [1, 2, 3]


def test_idempotents_nilpotents_tripotents(zmod):
    assert members(subsets.idempotent_mask(zmod(6))) == [0, 1, 3, 4]
    assert members(subsets.nilpotent_mask(zmod(12))) == [0, 6]
    assert members(subsets.tripotent_mask(zmod(3))) == [0, 1, 2]
    for m in (4, 6, 9, 10, 12, 16, 27):
        R = zmod(m)
        assert members(subsets.idempotent_mask(R)) == oracles.naive_idempotents(R)
        assert members(subsets.nilpotent_mask(R)) == oracles.naive_nilpotents(R)
        assert members(subsets.tripotent_mask(R)) == oracles.naive_tripotents(R)


def test_jacobson_examples(zmod):
    assert members(subsets.jacobson_mask(zmod(12))) == [0, 6] == oracles.naive_jacobson(zmod(12))
    assert members(subsets.jacobson_mask(zmod(6))) == [0]
    T2 = dsl.build_str("T(2,Z2)")
    strict_upper = [0, 2]  # (0,0,0) and (0,1,0) in the (1,1),(1,2),(2,2) encoding
    assert members(subsets.jacobson_mask(T2)) == strict_upper == oracles.naive_jacobson(T2)


def test_delta_examples(zmod):
    assert members(subsets.delta_mask(zmod(4))) == [0, 2]
    assert members(subsets.delta_mask(zmod(6))) == [0]
    assert members(subsets.delta_mask(zmod(8))) == [0, 2, 4, 6]
    for m in (4, 6, 8, 9, 10, 12):
        assert members(subsets.delta_mask(zmod(m))) == oracles.naive_delta(zmod(m))


def test_unit_subring_examples(zmod):
    sub, elems = subsets.unit_subring(zmod(8))
    assert elems.tolist() == list(range(8)) and sub.order == 8
    P = dsl.build_str("Prod(Z2,Z3)")
    sub, elems = subsets.unit_subring(P)
    assert len(elems) == sub.order == P.order  # units generate everything
    gf4 = dsl.build_str("GF(4)")
    sub, elems = subsets.unit_subring(gf4)
    assert len(elems) == sub.order == 4


def test_prime_radical_examples(zmod):
    assert members(subsets.prime_radical(zmod(12))) == [0, 6]
    M2 = dsl.build_str("M(2,Z2)")
    assert members(subsets.prime_radical(M2)) == [0]
    T2 = dsl.build_str("T(2,Z2)")
    assert members(subsets.prime_radical(T2)) == members(subsets.jacobson_mask(T2))


def test_quasinilpotents_examples(zmod):
    assert members(subsets.quasinilpotent_mask(zmod(4))) == [0, 2]
    assert members(subsets.quasinilpotent_mask(zmod(6))) == [0]
    gf4 = dsl.build_str("GF(4)")
    assert members(subsets.quasinilpotent_mask(gf4)) == [0]
    for m in (4, 6, 9, 12):
        assert members(subsets.quasinilpotent_mask(zmod(m))) == \
            oracles.naive_quasinilpotents(zmod(m))


# orders 256-729 from the inspect pool, outside the catalog
LARGE_SAMPLE = ("M(2,Z4)", "GR(Z4,C4)", "Triv(Z16,Z16)", "T(2,Z7)", "T(2,Z8)", "M(2,Z5)")


def test_radical_identities_against_definitions():
    # a finite ring is artinian and strongly pi-regular, so J(R) = {a : R*a
    # nil}, the prime radical is J(R) and the quasinilpotents are Nil(R); the
    # oracles compute each set from its definition
    rings = harness.catalog_rings() + [dsl.build_str(e) for e in LARGE_SAMPLE]
    assert len(rings) == 182 + len(LARGE_SAMPLE)
    for R in rings:
        assert members(subsets.jacobson_mask(R)) == oracles.naive_jacobson(R), R.label
        assert members(subsets.prime_radical(R)) == oracles.naive_prime_radical(R), R.label
        assert members(subsets.quasinilpotent_mask(R)) == \
            oracles.naive_quasinilpotents(R), R.label


def test_radical_at_split_blocks(monkeypatch, computed):
    # the radical scan reads `mul` in row blocks; one row per block must give
    # the radical too
    monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
    for expr in ("T(2,Z4)", "GR(Z4,C2)", "M(2,Z2)", "K(Z4,s=2)"):
        R = core._relabel(dsl.build_str(expr), expr)          # a fresh memo
        assert members(subsets.jacobson_mask(R)) == oracles.naive_jacobson(R), expr
        assert computed.count((expr, "jac_mask")) == 1, expr


@pytest.mark.parametrize("block_cells", [None, 4])
def test_idempotent_reach_is_membership_in_principal_right_ideals(monkeypatch, block_cells,
                                                                  computed):
    # P[a, j] says whether the j-th smallest idempotent lies in a*R; checked
    # against the literal sets a*R, with the table in one block and in
    # blocks of one row
    if block_cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", block_cells)
    for expr in ("Z12", "M(2,Z2)", "T(2,Z3)", "GR(Z2,S3)", "Prod(Z4,GF(4))", "M(2,Z3)"):
        R = core._relabel(dsl.build_str(expr), expr)          # a fresh memo
        idem = oracles.naive_idempotents(R)
        expected = [[e in set(row) for e in idem] for row in R.mul.tolist()]
        assert subsets.idempotent_reach(R).tolist() == expected, expr
        assert computed.count((expr, "idem_reach")) == 1, expr


def test_oracle_identity_on_sample(zmod):
    # delta computed by definition equals the radical of the unit-generated
    # subring, mapped back through the element correspondence
    for expr in ("Z4", "Z6", "Z8", "Z12", "Z16", "Z30", "GF(4)", "GF(9)",
                 "M(2,Z2)", "T(2,Z3)", "GR(Z2,C2)", "Triv(Z4,Z4)"):
        R = dsl.build_str(expr)
        sub, elems = subsets.unit_subring(R)
        mapped = sorted(int(elems[j]) for j in members(subsets.jacobson_mask(sub)))
        assert mapped == members(subsets.delta_mask(R)), expr


def test_radical_inside_delta_and_closures(zmod):
    for m in range(2, 40):
        R = zmod(m)
        jac = members(subsets.jacobson_mask(R))
        delta = members(subsets.delta_mask(R))
        assert set(jac) <= set(delta)
        u = members(subsets.unit_mask(R))
        for d in delta:
            for x in u:
                assert int(R.mul[d, x]) in delta and int(R.mul[x, d]) in delta


def test_delta_of_radical_quotient_is_projected_delta():
    for expr in ("Z12", "Z16", "Z18", "T(2,Z4)", "M(2,Z2)", "GR(Z4,C2)",
                 "Triv(Z9,Z9)", "K(Z4,s=2)"):
        R = dsl.build_str(expr)
        quotient, proj = subsets.radical_quotient(R)
        image = sorted({int(proj.map[d]) for d in members(subsets.delta_mask(R))})
        assert image == members(subsets.delta_mask(quotient)), expr


def test_delta_equals_radical_iff_ideal():
    for expr in ("Z4", "Z6", "Z12", "GF(8)", "M(2,Z3)", "T(3,Z2)", "GR(Z2,V4)"):
        R = dsl.build_str(expr)
        delta = subsets.delta_mask(R)
        if core.is_ideal(R, delta):
            assert np.array_equal(delta, subsets.jacobson_mask(R)), expr


def test_prime_radical_inside_nilpotents():
    for expr in ("Z12", "Z16", "M(2,Z2)", "T(2,Z3)", "GR(Z2,C3)", "K(Z4,s=0)"):
        R = dsl.build_str(expr)
        assert set(members(subsets.prime_radical(R))) <= set(members(subsets.nilpotent_mask(R)))


def test_known_group_and_radical_orders():
    # independent closed-form values: |GL_2(F_q)| = (q^2-1)(q^2-q)
    assert subsets.unit_mask(dsl.build_str("M(2,Z2)")).sum() == 6
    assert subsets.unit_mask(dsl.build_str("M(2,Z3)")).sum() == 48
    # triangular matrices: units have invertible diagonal
    assert subsets.unit_mask(dsl.build_str("T(2,Z4)")).sum() == 2 * 2 * 4
    # the radical of a triangular ring over a field is the strict upper part
    assert subsets.jacobson_mask(dsl.build_str("T(3,Z3)")).sum() == 27
    # local group algebra: the radical is the complement of the units
    rg = dsl.build_str("GR(Z9,C3)")
    assert subsets.jacobson_mask(rg).sum() == 243
    assert subsets.unit_mask(rg).sum() == 729 - 243


def test_internal_inconsistency_guard(zmod):
    # sabotage the radical in the memo of the ring's tables, so the delta
    # postcondition J <= Delta trips; the memo is empty, so no other live ring
    # holds it, and it dies with the ring
    R = core._relabel(dsl.build_str("Quot(Z16,8)"), "Quot(Z16,8)")
    memo = subsets._table_memo(R)
    assert not memo
    bad_jac = np.zeros(R.order, dtype=bool)
    bad_jac[R.zero] = True
    bad_jac[R.one] = True  # 1 is never in the radical
    memo["jac_mask"] = bad_jac
    with pytest.raises(InternalInconsistency):
        subsets.delta_mask(R)


def test_rings_on_equal_tables_compute_each_set_once(computed):
    # GF(p) is Z_p under its own name, R/{0} is R's tables under bracketed
    # names, and the T3.5 quotients Z4/J and Z8/J are both Z2's tables: each
    # set is computed once for each pair of tables, and every ring on them
    # reads that value
    dsl.clear_build_cache()
    Z5, F5 = dsl.build_str("Z5"), dsl.build_str("GF(5)")
    R = dsl.build_str("T(2,Z3)")
    R0, _ = core.quotient_ring(R, np.arange(R.order) == R.zero)
    Z4, Z8 = dsl.build_str("Z4"), dsl.build_str("Z8")
    Q4, _ = core.quotient_ring(Z4, subsets.jacobson_mask(Z4))
    Q8, _ = core.quotient_ring(Z8, subsets.jacobson_mask(Z8))
    assert R0.add is R.add and Q4.add is not Q8.add
    for A, B in ((Z5, F5), (R, R0), (Q4, Q8)):
        for key, fn in SHARED_SETS.items():
            assert fn(B) is fn(A), (A.label, key)
            assert sum(label in (A.label, B.label) for label, k in computed if k == key) == 1
        assert B._tables is A._tables and B._cache is not A._cache


def test_each_memoized_value_has_one_home():
    # a shared set lives only in the memo of the ring's tables, and a ring's
    # own memo holds only what names or holds the ring: its class reports,
    # R/J and the unit subring
    rings = list(harness.catalog_rings())
    rings += [subsets.radical_quotient(R)[0] for R in rings[::20]]
    rings += [subsets.unit_subring(R)[0] for R in rings]
    own = {"rj", "unit_subring"} | {("class", predicates.class_key(name))
                                    for name in predicates.ALL_CLASSES}
    for R in rings:
        for name in predicates.ALL_CLASSES:
            predicates.class_verdict(R, name)
        memo = subsets._table_memo(R)
        for key, fn in SHARED_SETS.items():
            assert fn(R) is memo[key], (R.label, key)
        assert set(R._cache) <= own, R.label
        assert set(memo) <= set(SHARED_SETS), R.label


def test_rings_on_unequal_tables_with_one_fingerprint_share_nothing(computed):
    # T(2,Z2) and its opposite ring have one order, 0, 1, squares and 1 + x,
    # but not one product; a third ring on T(2,Z2)'s tables still shares them
    R = core._relabel(dsl.build_str("T(2,Z2)"), "T(2,Z2)")
    op = core.validate_ring(R.add, R.mul.T, R.zero, R.one, label="T(2,Z2)op")
    again = core._relabel(R, "again")
    assert subsets._fingerprint(op) == subsets._fingerprint(R)
    reach = [subsets.idempotent_reach(S) for S in (R, op, again)]
    assert op._tables is not R._tables and again._tables is R._tables
    assert reach[2] is reach[0] and not np.array_equal(reach[1], reach[0])
    for S, got in zip((R, op), reach):
        idem = oracles.naive_idempotents(S)
        assert got.tolist() == [[e in set(row) for e in idem] for row in S.mul.tolist()]
    assert [label for label, key in computed if key == "idem_reach"] == ["T(2,Z2)", "T(2,Z2)op"]


def test_table_memo_dies_with_its_last_ring():
    # a ring built twice has equal tables in distinct arrays; the memo holds
    # the tables of the ring that registered it, and later rings are compared
    # with those, also once that ring is gone
    dsl.clear_build_cache()
    first = dsl.build_str("Z6")
    dsl.clear_build_cache()
    second = dsl.build_str("Z6")
    assert second.add is not first.add and second.mul is not first.mul
    subsets.unit_mask(first)
    subsets.unit_mask(second)
    key, memo = subsets._fingerprint(first), first._tables
    assert subsets._TABLE_MEMOS[key] is memo is second._tables
    del first, memo
    gc.collect()
    # the ring that registered the memo is gone, the one that shares it is not
    dsl.clear_build_cache()
    third = dsl.build_str("Z6")
    assert third.add is not second.add and third.mul is not second.mul
    subsets.unit_mask(third)
    assert third._tables is second._tables is subsets._TABLE_MEMOS[key]
    del second, third
    dsl.clear_build_cache()
    gc.collect()
    assert key not in subsets._TABLE_MEMOS


def test_class_reports_on_equal_tables_name_their_own_ring():
    R = dsl.build_str("M(2,Z2)")
    R0, _ = core.quotient_ring(R, np.arange(R.order) == R.zero)
    ours, theirs = (predicates.check_class(S, "2-delta-u") for S in (R, R0))
    assert R0._tables is R._tables and not ours.verdict and ours is not theirs
    assert (ours.subject, theirs.subject) == (R.label, R0.label)
    assert [w.element for w in theirs.witness] == [w.element for w in ours.witness]
    assert [w.display for w in theirs.witness] == [f"[{w.display}]" for w in ours.witness]


def test_table_lookup_holds_no_table():
    # a ring built twice has equal tables in distinct arrays, compared one
    # row block at a time; the whole comparison would trace n^2 bytes
    dsl.clear_build_cache()
    first = dsl.build_str("Prod(Z32,Z64)")
    subsets._table_memo(first)
    dsl.clear_build_cache()
    second = dsl.build_str("Prod(Z32,Z64)")
    assert second.add is not first.add and second.mul is not first.mul
    assert traced_peak(subsets._table_memo, second) < 0.05 * second.order ** 2
    assert second._tables is first._tables
    dsl.clear_build_cache()


def test_racing_threads_share_one_memoized_set():
    # threads on distinct rings with equal tables start together; each may
    # compute the radical, but all must get the one stored first
    R = dsl.build_str("T(3,Z2)")
    rings = [core._relabel(R, f"copy{i}") for i in range(4)]
    barrier, got = threading.Barrier(4), [None] * 4

    def work(i):
        barrier.wait(timeout=60)
        got[i] = subsets.jacobson_mask(rings[i])
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert got[0] is not None and all(g is got[0] for g in got)
    assert all(S._tables is rings[0]._tables for S in rings)
