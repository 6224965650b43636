from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from deltaring import core, dsl, subsets
from deltaring.constructions import direct_product, matrix_index, matrix_ring, upper_triangular
from deltaring.errors import (
    AxiomViolation,
    HomViolation,
    MalformedRing,
    NotAnIdeal,
    NotIdempotent,
    OrderGuardExceeded,
)

import oracles
from conftest import zmod_tables


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


@pytest.mark.parametrize("cells", [None, 64])
def test_is_symmetric_compares_every_pair(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(9)
    for n in (1, 5, 9, 33, 300):
        t = rng.integers(0, n, size=(n, n))
        sym = np.triu(t) + np.triu(t, 1).T
        assert core._is_symmetric(sym)
        for a, b in {(0, n - 1), (n - 1, n // 2), (n // 3, n - 2), (1, 0)}:
            if 0 <= b < n and a < n and a != b:
                broken = sym.copy()
                broken[a, b] += 1
                assert not core._is_symmetric(broken), (n, a, b)


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


# ---------------------------------------------------------------------------
# element arithmetic


def test_element_arith_examples(zmod):
    Z6, Z12 = zmod(6), zmod(12)
    assert core.element_arith(Z6, "mul", 4, 4) == 4
    assert core.element_arith(Z12, "pow", 6, 2) == 0
    for a in range(Z12.order):
        assert core.element_arith(Z12, "add", a, core.element_arith(Z12, "neg", a)) == 0
    assert core.element_arith(Z6, "sub", 2, 5) == 3
    assert core.element_arith(Z6, "pow", 5, 0) == 1


def test_element_arith_errors(zmod):
    Z6 = zmod(6)
    with pytest.raises(ValueError):
        core.element_arith(Z6, "mul", 6, 0)
    with pytest.raises(ValueError):
        core.element_arith(Z6, "pow", 2, -1)
    with pytest.raises(ValueError):
        core.element_arith(Z6, "frobnicate", 1)


def test_inverse_examples(zmod):
    Z6 = zmod(6)
    assert core.inverse(Z6, 5) == 5 == oracles.naive_inverse(Z6, 5)
    assert core.inverse(Z6, 2) is None is oracles.naive_inverse(Z6, 2)
    assert core.inverse(Z6, 1) == 1
    for a in range(Z6.order):
        assert core.inverse(Z6, a) == oracles.naive_inverse(Z6, a)


# ---------------------------------------------------------------------------
# subrings, ideals, quotients


def test_subring_generated_examples(zmod):
    Z8, Z6 = zmod(8), zmod(6)
    full = core.subring_generated(Z8, subsets.units(Z8), unital=True)
    assert full.indices == list(range(8))
    closed = core.subring_generated(Z6, [3], unital=False)
    assert closed.indices == [0, 3]
    prime_sub = core.subring_generated(Z6, [], unital=True)
    assert prime_sub.indices == list(range(6))  # 1 generates everything


def test_subring_generated_idempotent(zmod):
    Z12 = zmod(12)
    s = core.subring_generated(Z12, [4, 6], unital=False)
    again = core.subring_generated(Z12, s, unital=False)
    assert s == again


def test_ideal_generated_examples(zmod):
    Z12 = zmod(12)
    assert core.ideal_generated(Z12, [6]).indices == [0, 6]
    assert core.ideal_generated(Z12, [1]).indices == list(range(12))
    T2 = upper_triangular(zmod(2), 2)
    e12 = T2.names.index("[[0,1],[0,0]]")
    ideal = core.ideal_generated(T2, [e12])
    assert ideal.indices == [T2.zero, e12]  # the strictly upper triangular set


@pytest.mark.parametrize("expr", ["T(2,Z2)", "M(2,Z2)", "T(2,Z3)", "GR(Z2,S3)"])
def test_closures_match_naive_on_noncommutative_rings(expr):
    R = dsl.build_str(expr)
    for gens in ([], [R.one], *([a] for a in range(R.order)), [2, 5], [3, R.order - 1]):
        assert core.ideal_generated(R, gens).indices == oracles.naive_ideal_generated(R, gens)
        for unital in (True, False):
            assert (core.subring_generated(R, gens, unital=unital).indices
                    == oracles.naive_subring_generated(R, gens, unital))


def test_quotient_examples(zmod):
    Z12, Z6 = zmod(12), zmod(6)
    Q, proj = core.quotient_ring(Z12, core.ideal_generated(Z12, [6]))
    assert Q.order == 6
    assert np.array_equal(Q.add, Z6.add) and np.array_equal(Q.mul, Z6.mul)
    assert proj.is_surjective and proj.kernel().indices == [0, 6]

    R, ident = core.quotient_ring(Z6, core.ideal_generated(Z6, [0]))
    assert R.order == 6 and np.array_equal(R.add, Z6.add)
    assert list(ident.map) == list(range(6))

    Q3, _ = core.quotient_ring(Z6, core.ideal_generated(Z6, [3]))
    assert Q3.order == 3
    one_plus_one = int(Q3.add[Q3.one, Q3.one])
    assert int(Q3.add[one_plus_one, Q3.one]) == Q3.zero  # 1+1+1 = 0


def test_quotient_requires_ideal(zmod):
    Z12 = zmod(12)
    with pytest.raises(NotAnIdeal):
        core.quotient_ring(Z12, core.ElementSet.from_indices(Z12, [0, 5]))
    # an additive subgroup that is a left ideal but not a two-sided one
    M2 = matrix_ring(zmod(2), 2)
    first_column = [matrix_index(zmod(2), 2, [[a, 0], [c, 0]]) for a in (0, 1) for c in (0, 1)]
    left_ideal = core.ElementSet.from_indices(M2, first_column)
    assert not core.is_ideal(M2, left_ideal)
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
    evens = core.ElementSet.from_indices(Z6, [0, 2, 4])
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
        core.induced_subring(Z6, core.ElementSet.from_indices(Z6, [0, 1, 5]), 1)
    # {1,2} misses 0
    with pytest.raises(ValueError):
        core.induced_subring(Z6, core.ElementSet.from_indices(Z6, [1, 2]), 1)
    # {0} has no identity distinct from 0
    with pytest.raises(AxiomViolation):
        core.induced_subring(Z6, core.ElementSet.from_indices(Z6, [0]), 0)


def test_quotient_kernel_equals_ideal_across_small_rings(zmod):
    for m in (4, 6, 8, 9, 12, 16, 18):
        R = zmod(m)
        for g in range(m):
            ideal = core.ideal_generated(R, [g])
            if len(ideal) == m:
                with pytest.raises(ValueError):
                    core.quotient_ring(R, ideal)
                continue
            Q, proj = core.quotient_ring(R, ideal)
            assert proj.is_surjective
            assert proj.kernel() == ideal
            assert Q.order * len(ideal) == R.order


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
    assert core.center(M2).indices == [0, eye] == oracles.naive_center(M2)
    Z12 = zmod(12)
    assert core.center(Z12).indices == list(range(12))
    T2 = upper_triangular(Z2, 2)
    assert core.center(T2).indices == oracles.naive_center(T2)
    assert len(core.center(T2)) == 2


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


def _hom_outcome(source, target, mapping):
    try:
        core.validate_hom(source, target, mapping)
    except HomViolation as exc:
        return exc.kind, exc.witness
    return None


@pytest.mark.parametrize("cells", [None, 64])
def test_validate_hom_witness_matches_naive_double_loop(monkeypatch, cells):
    # corrupted projections R -> R/J (one image moved), and the projection
    # into the opposite ring of R/J, which is always additive and is
    # multiplicative exactly when R/J is commutative: the blocked passes
    # report the oracle's first failing pair, or none
    if cells is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = random.Random(11)
    kinds = set()
    for label in ("Z12", "M(2,Z3)", "K(Z4,s=2)", "DT(Z4,Z4)", "T(3,Z3)"):
        R = dsl.build_str(label)
        Q, proj = core.quotient_ring(R, subsets.jacobson_radical(R))
        opposite = core.validate_ring(Q.add, np.ascontiguousarray(Q.mul.T), Q.zero, Q.one)
        expect = oracles.naive_hom_violation(R, opposite, proj.map)
        assert _hom_outcome(R, opposite, proj.map) == expect, label
        kinds.add(expect and expect[0])
        for x in [R.one] + [rng.randrange(R.order) for _ in range(3)]:
            m = proj.map.copy()
            m[x] = (m[x] + rng.randrange(1, Q.order)) % Q.order
            expect = oracles.naive_hom_violation(R, Q, m)
            assert _hom_outcome(R, Q, m) == expect, (label, x)
            kinds.add(expect and expect[0])
    assert kinds >= {"one", "additive", "multiplicative", None}


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


def test_element_set_range_checked(zmod):
    with pytest.raises(ValueError):
        core.ElementSet.from_indices(zmod(4), [0, 7])


def test_alpha_compatible(zmod):
    Z4 = zmod(4)
    ident = core.validate_hom(Z4, Z4, list(range(4)))
    assert core.alpha_compatible(Z4, ident).verdict

    gf4 = dsl.build_str("GF(4)")
    frob = dsl.frobenius(gf4, 2)
    assert core.alpha_compatible(gf4, frob).verdict

    Z2 = zmod(2)
    P = direct_product([Z2, Z2])
    swap = core.validate_hom(P, P, [0, 2, 1, 3])
    report = core.alpha_compatible(P, swap)
    # independent double loop
    expected = all(
        (int(P.mul[a, b]) == 0) == (int(P.mul[a, int(swap.map[b])]) == 0)
        for a in range(4) for b in range(4))
    assert report.verdict == expected
    assert report.verdict is False
    a = report.witness[0].element
    b = report.witness[1].element
    assert (int(P.mul[a, b]) == 0) != (int(P.mul[a, int(swap.map[b])]) == 0)


def test_find_endomorphisms(zmod):
    Z6 = zmod(6)
    endos = core.find_endomorphisms(Z6)
    assert len(endos) == 1  # the identity: 1 must map to 1
    gf4 = dsl.build_str("GF(4)")
    assert len(core.find_endomorphisms(gf4)) == 2  # identity and frobenius
    Z2 = zmod(2)
    P = direct_product([Z2, Z2])
    assert len(core.find_endomorphisms(P)) == 4
    with pytest.raises(ValueError):
        core.find_endomorphisms(zmod(100), limit=64)


# ---------------------------------------------------------------------------
# matrix units


def test_find_matrix_units(zmod):
    Z2, Z6 = zmod(2), zmod(6)
    M2 = matrix_ring(Z2, 2)
    system = core.find_matrix_units(M2, 2)
    assert system is not None and system.validate()
    assert system.corner_identity == matrix_index(Z2, 2, [[1, 0], [0, 1]])
    assert core.find_matrix_units(Z6, 2) is None
    assert core.find_matrix_units(upper_triangular(Z2, 2), 2) is None


def test_find_matrix_units_within(zmod):
    Z2 = zmod(2)
    M2 = matrix_ring(Z2, 2)
    nowhere = core.ElementSet.from_indices(M2, [M2.zero, M2.one])
    assert core.find_matrix_units(M2, 2, within=nowhere) is None


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


def _edited(**changes) -> str:
    data = _z2_dump()
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    _edited(mul=[[0, 0], [0, 2 ** 32 + 1]]),   # wrapped to 1 when narrowed first
    _edited(mul=[[0, 0], [0, 2 ** 70]]),
    _edited(add=[[0, 1], [1, -1]]),
    _edited(one=1.5), _edited(one=True), _edited(zero="0"), _edited(zero=None),
    _edited(add=[[0, True], [True, 0]]), _edited(mul=[[0.0, 0], [0, 1]]),
    _edited(mul=[["0", "0"], ["0", "1"]]), _edited(add=[[0, 1], [1]]),
    _edited(add=[[0, 1], None]), _edited(add={}), _edited(add=[]),
    _edited(add=[[[0], [1]], [[1], [0]]]), _edited(mul=[[0]]),
    _edited(label=5), "{}", "[]", "7", '"Z2"', "not json", _edited()[:-3],
    pytest.param("[" * 100000, id="past-the-decoder-recursion-limit"),
])
def test_malformed_dumps_raise_one_error(text):
    with pytest.raises(MalformedRing) as exc:
        core.ring_from_json(text)
    assert isinstance(exc.value, ValueError) and str(exc.value)


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
    not_ideal = core.ElementSet.from_indices(Z12, [0, 5])
    assert not core.is_ideal(Z12, not_ideal)
    assert core.is_ideal(Z12, core.ideal_generated(Z12, [6]))
    assert core.is_unital_subring(Z12, core.subring_generated(Z12, [], unital=True))
    assert not core.is_unital_subring(Z12, core.ElementSet.from_indices(Z12, [0, 6]))


def test_additive_generators_match_whole_span_closure_on_catalog():
    # the frontier closure picks the same generators as re-closing the whole
    # span after each one, on every catalog ring
    for label, expr in dsl.catalog():
        R = dsl.build(expr)
        assert core.additive_generators(R.add, R.zero) == \
            oracles.additive_generators(R.add, R.zero), label
