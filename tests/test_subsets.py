from __future__ import annotations

import numpy as np
import pytest

from deltaring import core, dsl, harness, subsets
from deltaring.errors import InternalInconsistency

import oracles


def test_units_examples(zmod):
    assert subsets.units(zmod(6)).indices == [1, 5] == oracles.naive_units(zmod(6))
    assert subsets.units(zmod(8)).indices == [1, 3, 5, 7]
    gf4 = dsl.build_str("GF(4)")
    assert subsets.units(gf4).indices == [1, 2, 3]


def test_idempotents_nilpotents_tripotents(zmod):
    assert subsets.idempotents(zmod(6)).indices == [0, 1, 3, 4]
    assert subsets.nilpotents(zmod(12)).indices == [0, 6]
    assert subsets.tripotent_elements(zmod(3)).indices == [0, 1, 2]
    for m in (4, 6, 9, 10, 12, 16, 27):
        R = zmod(m)
        assert subsets.idempotents(R).indices == oracles.naive_idempotents(R)
        assert subsets.nilpotents(R).indices == oracles.naive_nilpotents(R)
        assert subsets.tripotent_elements(R).indices == oracles.naive_tripotents(R)


def test_jacobson_examples(zmod):
    assert subsets.jacobson_radical(zmod(12)).indices == [0, 6] == oracles.naive_jacobson(zmod(12))
    assert subsets.jacobson_radical(zmod(6)).indices == [0]
    T2 = dsl.build_str("T(2,Z2)")
    strict_upper = [0, 2]  # (0,0,0) and (0,1,0) in the (1,1),(1,2),(2,2) encoding
    assert subsets.jacobson_radical(T2).indices == strict_upper == oracles.naive_jacobson(T2)


def test_delta_examples(zmod):
    assert subsets.delta_set(zmod(4)).indices == [0, 2]
    assert subsets.delta_set(zmod(6)).indices == [0]
    assert subsets.delta_set(zmod(8)).indices == [0, 2, 4, 6]
    for m in (4, 6, 8, 9, 10, 12):
        assert subsets.delta_set(zmod(m)).indices == oracles.naive_delta(zmod(m))


def test_unit_subring_examples(zmod):
    members, sub = subsets.unit_subring(zmod(8))
    assert members.indices == list(range(8)) and sub.order == 8
    P = dsl.build_str("Prod(Z2,Z3)")
    members, sub = subsets.unit_subring(P)
    assert len(members) == P.order  # units generate everything
    gf4 = dsl.build_str("GF(4)")
    members, _ = subsets.unit_subring(gf4)
    assert len(members) == 4


def test_prime_radical_examples(zmod):
    assert subsets.prime_radical(zmod(12)).indices == [0, 6]
    M2 = dsl.build_str("M(2,Z2)")
    assert subsets.prime_radical(M2).indices == [0]
    T2 = dsl.build_str("T(2,Z2)")
    assert subsets.prime_radical(T2).indices == subsets.jacobson_radical(T2).indices


def test_quasinilpotents_examples(zmod):
    assert subsets.quasinilpotents(zmod(4)).indices == [0, 2]
    assert subsets.quasinilpotents(zmod(6)).indices == [0]
    gf4 = dsl.build_str("GF(4)")
    assert subsets.quasinilpotents(gf4).indices == [0]
    for m in (4, 6, 9, 12):
        assert subsets.quasinilpotents(zmod(m)).indices == \
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
        assert subsets.jacobson_radical(R).indices == oracles.naive_jacobson(R), R.label
        assert subsets.prime_radical(R).indices == oracles.naive_prime_radical(R), R.label
        assert subsets.quasinilpotents(R).indices == \
            oracles.naive_quasinilpotents(R), R.label


def test_radical_at_split_blocks(monkeypatch):
    # the radical scan reads `mul` in row blocks; one row per block must give
    # the radical too
    monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
    for expr in ("T(2,Z4)", "GR(Z4,C2)", "M(2,Z2)", "K(Z4,s=2)"):
        R = core._relabel(dsl.build_str(expr), expr)          # a fresh memo
        assert subsets.jacobson_radical(R).indices == oracles.naive_jacobson(R), expr


@pytest.mark.parametrize("block_cells", [None, 4])
def test_idempotent_reach_is_membership_in_principal_right_ideals(monkeypatch, block_cells):
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


def test_oracle_identity_on_sample(zmod):
    # delta computed by definition equals the radical of the unit-generated
    # subring, mapped back through the element correspondence
    for expr in ("Z4", "Z6", "Z8", "Z12", "Z16", "Z30", "GF(4)", "GF(9)",
                 "M(2,Z2)", "T(2,Z3)", "GR(Z2,C2)", "Triv(Z4,Z4)"):
        R = dsl.build_str(expr)
        _, sub = subsets.unit_subring(R)
        elems = subsets.unit_subring_elements(R)
        mapped = sorted(int(elems[j]) for j in subsets.jacobson_radical(sub).indices)
        assert mapped == subsets.delta_set(R).indices, expr


def test_radical_inside_delta_and_closures(zmod):
    for m in range(2, 40):
        R = zmod(m)
        jac = subsets.jacobson_radical(R)
        delta = subsets.delta_set(R)
        assert set(jac.indices) <= set(delta.indices)
        u = subsets.units(R).indices
        for d in delta.indices:
            for x in u:
                assert int(R.mul[d, x]) in delta and int(R.mul[x, d]) in delta


def test_delta_of_radical_quotient_is_projected_delta():
    for expr in ("Z12", "Z16", "Z18", "T(2,Z4)", "M(2,Z2)", "GR(Z4,C2)",
                 "Triv(Z9,Z9)", "K(Z4,s=2)"):
        R = dsl.build_str(expr)
        quotient, proj = subsets.radical_quotient(R)
        image = sorted({int(proj.map[d]) for d in subsets.delta_set(R).indices})
        assert image == subsets.delta_set(quotient).indices, expr


def test_delta_equals_radical_iff_ideal():
    for expr in ("Z4", "Z6", "Z12", "GF(8)", "M(2,Z3)", "T(3,Z2)", "GR(Z2,V4)"):
        R = dsl.build_str(expr)
        delta = subsets.delta_set(R)
        if core.is_ideal(R, delta):
            assert delta == subsets.jacobson_radical(R), expr


def test_prime_radical_inside_nilpotents():
    for expr in ("Z12", "Z16", "M(2,Z2)", "T(2,Z3)", "GR(Z2,C3)", "K(Z4,s=0)"):
        R = dsl.build_str(expr)
        assert set(subsets.prime_radical(R).indices) <= set(subsets.nilpotents(R).indices)


def test_known_group_and_radical_orders():
    # independent closed-form values: |GL_2(F_q)| = (q^2-1)(q^2-q)
    assert len(subsets.units(dsl.build_str("M(2,Z2)"))) == 6
    assert len(subsets.units(dsl.build_str("M(2,Z3)"))) == 48
    # triangular matrices: units have invertible diagonal
    assert len(subsets.units(dsl.build_str("T(2,Z4)"))) == 2 * 2 * 4
    # the radical of a triangular ring over a field is the strict upper part
    assert len(subsets.jacobson_radical(dsl.build_str("T(3,Z3)"))) == 27
    # local group algebra: the radical is the complement of the units
    rg = dsl.build_str("GR(Z9,C3)")
    assert len(subsets.jacobson_radical(rg)) == 243
    assert len(subsets.units(rg)) == 729 - 243


def test_internal_inconsistency_guard(zmod):
    # sabotage the cached radical so the delta postcondition J <= Delta trips
    R = dsl.build_str("Quot(Z16,8)")  # fresh ring object, clean cache
    bad_jac = np.zeros(R.order, dtype=bool)
    bad_jac[R.zero] = True
    bad_jac[R.one] = True  # 1 is never in the radical
    R._cache["jac_mask"] = bad_jac
    with pytest.raises(InternalInconsistency):
        subsets.delta_set(R)
