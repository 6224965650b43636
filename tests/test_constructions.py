from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from deltaring import core, dsl, harness, subsets
from deltaring import constructions as cons
from deltaring.errors import (
    InvalidBimodule,
    NotCentral,
    OrderGuardExceeded,
)
from deltaring.predicates import class_verdict


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
    assert len(subsets.units(M2)) == 6  # the invertible 2x2 matrices over F2
    assert cons.matrix_ring(zmod(5), 1) is zmod(5)
    T2 = cons.upper_triangular(Z2, 2)
    assert T2.order == 8
    assert cons.upper_triangular(zmod(5), 1) is zmod(5)


def test_order_guard_checked_before_building(zmod):
    with pytest.raises(OrderGuardExceeded):
        cons.matrix_ring(zmod(3), 3)  # 3^9 elements
    with pytest.raises(OrderGuardExceeded):
        cons.direct_product([zmod(100), zmod(100)], order_guard=1000)


def test_truncated_skew_examples(zmod):
    Z2 = zmod(2)
    TS = cons.truncated_skew_poly(Z2, None, 2)
    assert TS.order == 4
    assert [TS.names[i] for i in subsets.units(TS).indices] == ["1", "1+x"]

    gf4 = dsl.build_str("GF(4)")
    frob = dsl.frobenius(gf4, 2)
    skew = cons.truncated_skew_poly(gf4, frob, 2)
    assert skew.order == 16 and not skew.is_commutative
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
    assert ring.order == 64 and not ring.is_commutative
    assert class_verdict(ring, "2-delta-u") == class_verdict(P, "2-delta-u")


def test_find_matrix_units_in_bigger_matrix_ring(zmod):
    M2 = cons.matrix_ring(zmod(3), 2)
    system = core.find_matrix_units(M2, 2)
    assert system is not None and system.validate()


def test_trivial_extension_examples(zmod):
    Z2, Z3 = zmod(2), zmod(3)
    TR = cons.trivial_extension(Z2)
    TS = cons.truncated_skew_poly(Z2, None, 2)
    assert np.array_equal(TR.add, TS.add) and np.array_equal(TR.mul, TS.mul)
    assert len(subsets.units(cons.trivial_extension(Z3))) == 6
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
    TM = cons.trivial_morita(Z2, Z2, cons.regular_bimodule(Z2), cons.regular_bimodule(Z2))
    # K_0 coordinates are (a,x,y,b); the trivial context uses (a,m,n,b)
    assert np.array_equal(K0.add, TM.add) and np.array_equal(K0.mul, TM.mul)

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


def test_group_ring_examples(zmod):
    Z2 = zmod(2)
    G = cons.group_catalog()
    RG = cons.group_ring(Z2, G["C2"])
    assert RG.order == 4
    unit_names = {RG.names[i] for i in subsets.units(RG).indices}
    assert unit_names == {"1", "g"}
    eps, kernel = cons.augmentation(RG)
    assert {RG.names[i] for i in kernel.indices} == {"0", "1+g"}
    assert eps.is_surjective and len(kernel) == 2

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
    with pytest.raises(ValueError):
        cons.augmentation(zmod(4))


def test_bimodule_validation(zmod):
    Z4 = zmod(4)
    reg = cons.regular_bimodule(Z4)
    rebuilt = cons.validate_bimodule(Z4, Z4, reg.add, reg.left_act, reg.right_act)
    assert rebuilt.order == 4
    broken = np.array(reg.left_act)
    broken[2][3] = (broken[2][3] + 1) % 4
    with pytest.raises(InvalidBimodule):
        cons.validate_bimodule(Z4, Z4, reg.add, broken, reg.right_act)


def test_construction_outputs_are_validated(zmod):
    # the builder funnels everything through the full axiom validator; spot
    # check that derived rings expose consistent neg vectors and identities
    for ring in (cons.matrix_ring(zmod(3), 2),
                 cons.group_ring(zmod(3), cons.group_catalog()["C2"])):
        for a in range(ring.order):
            assert int(ring.add[a, ring.neg[a]]) == ring.zero
            assert int(ring.mul[ring.one, a]) == a


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_catalog_tables_match_golden():
    # tables and names of every catalog ring, hashed: any change to how
    # constructions fill their tables must leave these bytes alone
    golden = json.loads((Path(__file__).parent / "golden" / "catalog_tables.json").read_text())
    got = {R.label: {"add": _sha256(np.ascontiguousarray(R.add, dtype="<i4").tobytes()),
                     "mul": _sha256(np.ascontiguousarray(R.mul, dtype="<i4").tobytes()),
                     "zero": R.zero, "one": R.one,
                     "names": _sha256(json.dumps(list(R.names)).encode())}
           for R in harness.catalog_rings()}
    assert list(got) == list(golden)
    for label, row in golden.items():
        assert got[label] == row, label
