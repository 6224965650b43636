from __future__ import annotations

import copy
import functools
import json
import math
import random
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from deltaring import constructions as cons
from deltaring import core, dsl, subsets
from deltaring.errors import AxiomViolation, MalformedRing, RingError

import oracles
from oracles import members
from conftest import cell_offset, zmod_tables


def zmod(m: int) -> core.FiniteRing:
    add, mul = zmod_tables(m)
    return core.validate_ring(add, mul, 0, 1, label=f"Z{m}")


moduli = st.integers(min_value=2, max_value=48)


@given(moduli)
@settings(max_examples=30, deadline=None)
def test_radical_sits_inside_delta(m):
    R = zmod(m)
    assert set(members(subsets.jacobson_mask(R))) <= set(members(subsets.delta_mask(R)))


@given(moduli)
@settings(max_examples=25, deadline=None)
def test_delta_matches_naive_and_unit_subring_radical(m):
    R = zmod(m)
    delta = members(subsets.delta_mask(R))
    assert delta == oracles.naive_delta(R)
    sub, elems = subsets.unit_subring(R)
    mapped = sorted(int(elems[j]) for j in members(subsets.jacobson_mask(sub)))
    assert mapped == delta


@given(moduli)
@settings(max_examples=25, deadline=None)
def test_sets_match_naive(m):
    R = zmod(m)
    assert members(subsets.unit_mask(R)) == oracles.naive_units(R)
    assert members(subsets.nilpotent_mask(R)) == oracles.naive_nilpotents(R)
    assert members(subsets.jacobson_mask(R)) == oracles.naive_jacobson(R)


@given(moduli, st.sets(st.integers(min_value=0, max_value=47), max_size=4))
@settings(max_examples=30, deadline=None)
def test_subring_generated_is_idempotent(m, gens):
    R = zmod(m)
    gens = {g % m for g in gens}
    first = core.subring_generated(R, gens, unital=False)
    assert np.array_equal(core.subring_generated(R, np.flatnonzero(first), unital=False), first)


@given(moduli, st.sets(st.integers(min_value=0, max_value=47), max_size=3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_closures_match_naive(m, gens, unital):
    R = zmod(m)
    gens = {g % m for g in gens}
    assert members(core.ideal_generated(R, gens)) == oracles.naive_ideal_generated(R, gens)
    assert (members(core.subring_generated(R, gens, unital=unital))
            == oracles.naive_subring_generated(R, gens, unital))


@given(moduli, st.integers(min_value=0, max_value=47))
@settings(max_examples=30, deadline=None)
def test_principal_ideal_quotient_sizes(m, g):
    R = zmod(m)
    ideal = core.ideal_generated(R, [g % m])
    if ideal.sum() == m:
        return
    quotient, proj = core.quotient_ring(R, ideal)
    assert quotient.order * ideal.sum() == m
    assert np.array_equal(proj.kernel(), ideal)


@given(moduli)
@settings(max_examples=20, deadline=None)
def test_dump_round_trip(m):
    R = zmod(m)
    assert core.ring_to_json(core.ring_from_json(core.ring_to_json(R))) == core.ring_to_json(R)


@given(moduli, st.data())
@settings(max_examples=40, deadline=None)
def test_single_cell_corruption_is_caught(m, data):
    R = zmod(m)
    i = data.draw(st.integers(min_value=0, max_value=m - 1))
    j = data.draw(st.integers(min_value=0, max_value=m - 1))
    shift = data.draw(st.integers(min_value=1, max_value=m - 1))
    which = data.draw(st.sampled_from(["add", "mul"]))
    table = np.array(getattr(R, which))
    table[i, j] = (table[i, j] + shift) % m
    add = table if which == "add" else R.add
    mul = table if which == "mul" else R.mul
    # the library's generator-based validator and the oracle's literal scan
    # of every pair and triple must both reject it
    try:
        core.validate_ring(add, mul, 0, 1)
    except core.AxiomViolation:
        pass
    else:
        raise AssertionError(f"corruption at {which}[{i}][{j}] (+{shift}) was accepted")
    assert oracles.first_axiom_violation(add, mul, 0, 1) is not None, \
        f"the oracle missed the corruption at {which}[{i}][{j}] (+{shift})"


# additive rank 2 to 6, orders 4 to 256
RANK_RINGS = ("Prod(Z2,Z2)", "Prod(Z4,Z6)", "T(2,Z2)", "GF(8)", "M(2,Z2)", "T(2,Z3)",
              "GR(Z2,S3)", "Triv(Z8,Z8)", "K(Z4,s=2)")


def _coset_shifted(R: core.FiniteRing, mul: np.ndarray, row: int, shift: int) -> None:
    """Add `shift` to mul[row, c] for every c in the coset X = g2 + gr +
    <g1> of R's generators g1..gr (X = 2g2 + <g1> at rank 2).  Unless X is
    <g1> itself, the row stays additive along the cosets of <g1>, so L(g1)
    holds on it, and X holds no generator, so the column passes hold; but
    the row is not additive on <g2..gr> when R/<g1> has more than two
    elements or 2*shift != 0, so a span pass fails and the literal order of
    full passes runs from R(g1) on (unless the identity's row or column
    changed, which its identity check names first)."""
    gens = oracles.additive_generators(R.add, R.zero)
    coset = R.add[R.add[gens[1], gens[-1]], oracles._magma_closure(R.add, np.array(gens[:1]))]
    mul[row, coset] = R.add[mul[row, coset], shift]


@st.composite
def corrupted_ring_tables(draw):
    """A ring of additive rank at least 2 with one cell of either table
    changed (rows near the end drawn often, diagonal cells too, so that add
    stays commutative), with one mul row replaced by a column, or with one
    mul row shifted on a coset of <g1> (`_coset_shifted`)."""
    R = dsl.build_str(draw(st.sampled_from(RANK_RINGS)))
    n = R.order
    add, mul = np.array(R.add), np.array(R.mul)
    row = draw(st.one_of(st.integers(0, n - 1), st.integers(n - 3, n - 1)))
    how = draw(st.sampled_from(["add", "mul", "mul-row", "mul-coset"]))
    if how == "mul-row":
        mul[row] = R.mul[:, draw(st.integers(0, n - 1))]
    elif how == "mul-coset":
        _coset_shifted(R, mul, row, draw(st.sampled_from([a for a in range(n) if a != R.zero])))
    else:
        table = add if how == "add" else mul
        col = draw(st.one_of(st.integers(0, n - 1), st.just(row)))
        table[row, col] = (table[row, col] + draw(st.integers(1, n - 1))) % n
    return R, add, mul


def _validation_outcome(add, mul, zero, one):
    try:
        core.validate_ring(add, mul, zero, one)
    except AxiomViolation as exc:
        return exc.kind, tuple(exc.witness)
    return None


@given(corrupted_ring_tables())
@settings(max_examples=200, deadline=None)
def test_left_side_validation_names_the_two_sided_violation(case):
    # validation with one full distributivity side accepts and rejects the
    # same tables as the two-sided pass order, and names the same violation,
    # with whole-table blocks and with blocks of a few rows
    R, add, mul = case
    for cells in (core._BLOCK_CELLS, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_CELLS", cells)
            got = _validation_outcome(add, mul, R.zero, R.one)
            mp.setattr(core, "_generator_triple_checks", oracles.two_sided_generator_checks)
            assert got == _validation_outcome(add, mul, R.zero, R.one), (R.label, cells)


@pytest.mark.parametrize("expr", ["Prod(Z3,Z3)", "Prod(Z4,Z6)", "T(2,Z3)", "M(2,Z2)",
                                  "K(Z4,s=2)"])
def test_failed_span_pass_runs_the_literal_order(expr, monkeypatch, full_passes):
    # a mul row shifted on a coset of <g1> passes L(g1) and every column
    # pass but fails a span pass: validation then runs the literal order
    # from R(g1) on, never L(g1) twice, and names what the two-sided pass
    # order names (up to 12 rows of each ring)
    R = dsl.build_str(expr)
    gens = oracles.additive_generators(R.add, R.zero)
    order = [(side, g) for g in gens for side in ("left", "right")]
    literal, rows = 0, range(0, R.order, math.ceil(R.order / 12))
    for row in rows:
        for shift in (gens[0], gens[-1], R.order - 1):
            mul = np.array(R.mul)
            _coset_shifted(R, mul, row, shift)
            for cells in (core._BLOCK_CELLS, 64):
                monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
                full_passes.clear()
                got = _validation_outcome(R.add, mul, R.zero, R.one)
                # the full passes run in the literal order, so L(g1) at most
                # once, and R(g1) is the first right pass
                assert full_passes == order[:len(full_passes)], (row, shift)
                literal += full_passes[:2] == order[:2]
                with monkeypatch.context() as mp:
                    mp.setattr(core, "_generator_triple_checks",
                               oracles.two_sided_generator_checks)
                    assert got == _validation_outcome(R.add, mul, R.zero, R.one), (row, shift)
                assert got is not None
    # every row but the identity's (a mul-identity violation), at both
    # block sizes, under each shift
    assert literal == 2 * 3 * (len(rows) - (R.one in rows)), expr


# coordinate rings of the structure-table draws: T(2,Z2) has non-central
# elements, so a scaled term s(xy) can break associativity, and "shifted
# Z4" stores x at index x + 1, so its zero is not index 0
STRUCTURE_RINGS = ("Z2", "Z3", "Z4", "GF(4)", "T(2,Z2)", "shifted Z4")


@functools.cache
def _structure_ring(name: str) -> core.FiniteRing:
    if name != "shifted Z4":
        return dsl.build_str(name)
    x = (np.arange(4)[:, None], np.arange(4)[None, :])
    at = np.roll(np.arange(4), 1)               # the element stored at each index
    return core.validate_ring((at[x[0]] + at[x[1]] + 1) % 4, (at[x[0]] * at[x[1]] + 1) % 4,
                              1, 2, label=name)


def _random_table(draw, shape, values: int, zero_edges: bool) -> np.ndarray:
    """A random table, rarely biadditive; with `zero_edges` its row and
    column at 0 are 0, so it adds nothing to a product with 0."""
    table = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(0, values, shape)
    if zero_edges:
        table[0] = table[:, 0] = 0
    return table


def _cross_table(draw, rings, c, l, r, unit: bool) -> np.ndarray:
    """A table from coordinates l x r into c: s(xy) when the three share one
    ring, (x*y*k) mod m_c across Z_m coordinates (additive on a side only
    when m_c divides k times its modulus), else random with a zero row and
    column.  With `unit`, s = k = 1 and the random table's row at 1 is the
    identity map."""
    R = rings[c]
    if rings[l] is R and rings[r] is R:
        s = R.one if unit else draw(st.integers(0, R.order - 1))
        return R.mul[s][R.mul]
    x, y = np.arange(rings[l].order)[:, None], np.arange(rings[r].order)[None, :]
    if all(rings[i].label[0] == "Z" for i in (c, l, r)):
        return (x * y * (1 if unit else draw(st.integers(1, R.order - 1)))) % R.order
    table = _random_table(draw, (x.size, y.size), R.order, True)
    if unit:
        table[rings[l].one] = np.arange(R.order)
    return table


@st.composite
def unital_algebras(draw):
    """2-3 coordinates (order at most 64) whose last, e, carries the 1:
    e·b_i = b_i·e = b_i by unit tables and each other product b_i b_j a sum
    of cross tables, so the identity laws hold and the certificate's other
    steps decide.  Scaled products over T(2,Z2) have non-central s; mixed
    Z_m coordinates give products additive on one side only; an eighth of
    the draws change one cell of a coordinate's addition."""
    names = draw(st.lists(st.sampled_from(STRUCTURE_RINGS), min_size=2, max_size=3)
                 .filter(lambda ns: np.prod([_structure_ring(n).order for n in ns]) <= 64))
    rings = [_structure_ring(n) for n in names]
    e = len(rings) - 1
    terms = [(e, e, e, rings[e].mul)]
    for i in range(e):
        unit = _cross_table(draw, rings, i, e, i, True)
        terms += [(i, e, i, unit), (i, i, e, np.ascontiguousarray(unit.T))]
        for j in range(e):
            for c in draw(st.lists(st.integers(0, e), max_size=2)):
                terms.append((c, i, j, _cross_table(draw, rings, c, i, j, False)))
    adds = [R.add for R in rings]
    if draw(st.integers(0, 7)) == 0:
        c = draw(st.integers(0, e))
        adds[c] = add = np.array(adds[c])
        a, b = draw(st.integers(1, len(add) - 1)), draw(st.integers(1, len(add) - 1))
        add[a, b] = add[b, a] = add[a, a]
    return ([R.order for R in rings], adds, [R.zero for R in rings],
            [R.zero for R in rings[:e]] + [rings[e].one], terms)


@st.composite
def arbitrary_structures(draw):
    """1-3 coordinates (order at most 64), each with 1-3 terms: a scaled
    product s(xy) of the coordinate's ring, a product (x*y*k) mod m_c across
    Z_m coordinates (as in `_cross_table`), or a random table; sometimes one
    coordinate's addition has a changed cell, and the 1 has 1, 0 or any
    element per coordinate."""
    names = draw(st.lists(st.sampled_from(STRUCTURE_RINGS), min_size=1, max_size=3)
                 .filter(lambda ns: np.prod([_structure_ring(n).order for n in ns]) <= 64))
    rings = [_structure_ring(n) for n in names]
    sizes = [R.order for R in rings]
    adds = [R.add for R in rings]
    if draw(st.integers(0, 7)) == 0:
        c = draw(st.integers(0, len(rings) - 1))
        adds[c] = add = np.array(adds[c])
        a, b = draw(st.integers(1, sizes[c] - 1)), draw(st.integers(1, sizes[c] - 1))
        add[a, b] = add[b, a] = add[a, a]
    terms = []
    for c, R in enumerate(rings):
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["scaled", "modular", "random"]))
            if kind == "scaled":
                same = [i for i, ring in enumerate(rings) if ring is R]
                l, r = draw(st.sampled_from(same)), draw(st.sampled_from(same))
                s = draw(st.one_of(st.just(R.one), st.integers(0, R.order - 1)))
                terms.append((c, l, r, R.mul[s][R.mul]))
                continue
            l, r = draw(st.integers(0, len(rings) - 1)), draw(st.integers(0, len(rings) - 1))
            if kind == "modular" and all(rings[i].label[0] == "Z" for i in (c, l, r)):
                k = draw(st.integers(1, sizes[c] - 1))
                x, y = np.arange(sizes[l])[:, None], np.arange(sizes[r])[None, :]
                terms.append((c, l, r, (x * y * k) % sizes[c]))
            else:
                terms.append((c, l, r, _random_table(draw, (sizes[l], sizes[r]), sizes[c], False)))
    one = [draw(st.one_of(st.just(R.one), st.just(R.zero), st.integers(0, R.order - 1)))
           for R in rings]
    return sizes, adds, [R.zero for R in rings], one, terms


def _ring_outcome(make):
    try:
        ring = make()
    except AxiomViolation as exc:
        return exc.kind, tuple(exc.witness)
    return "ring", ring.add.tobytes(), ring.mul.tobytes()


@given(st.one_of(unital_algebras(), arbitrary_structures()))
@settings(max_examples=300, deadline=None)
def test_structure_certificate_accepts_what_validation_accepts(case):
    # `_tuple_ring` gives the ring, or the (kind, witness), that the full
    # procedure gives on the literal tables: the product of the coordinate
    # additions and the product of the terms, evaluated on every row
    sizes, adds, zeros, one, terms = case
    strides = cons._strides(sizes)
    x = np.arange(math.prod(sizes))
    coords = [(x // stride) % size for stride, size in zip(strides, sizes)]
    add = sum(stride * adds[c][coords[c][:, None], coords[c][None, :]]
              for c, stride in enumerate(strides))
    products = cons._term_products(adds, terms, [k[:, None] for k in coords],
                                   [k[None, :] for k in coords])
    mul = sum(stride * p for stride, p in zip(strides, products))
    zero, unit = (int(np.dot(strides, t)) for t in (zeros, one))
    expected = _ring_outcome(lambda: core.validate_ring(add, mul, zero, unit))
    got = _ring_outcome(lambda: cons._tuple_ring("S", sizes, adds, zeros, one, terms,
                                                 lambda: None, order_guard=None))
    assert got == expected


_WRONG_TYPES = st.sampled_from(
    [None, "x", "1", 1.5, 1.0, True, False, [], {}, [[0]], [1]]).map(copy.deepcopy)


@st.composite
def damaged_dumps(draw):
    """A valid dump of Z_m with one or two kinds of damage: a dropped key, a
    field, row or cell of another type, a ragged row, or truncated text.
    It is written as `json.dumps` writes by default or in the sorted compact
    form of `ring_to_json`, which `ring_from_json` decodes on its own path."""
    data = json.loads(core.ring_to_json(zmod(draw(st.integers(min_value=2, max_value=9)))))
    compact = draw(st.booleans())

    def render(data):
        if compact:
            return json.dumps(data, sort_keys=True, separators=(",", ":"))
        return json.dumps(data)

    kinds = ["drop", "retype", "row", "cell", "ragged", "truncate"]
    # distinct kinds: a second ragged edit could even the rows out again
    for how in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2, unique=True)):
        name = draw(st.sampled_from(["add", "mul"]))
        table = data.get(name)
        if how in ("drop", "retype") and data:
            key = draw(st.sampled_from(sorted(data)))
            if how == "drop":
                del data[key]
            else:
                data[key] = draw(_WRONG_TYPES)
        elif how == "truncate":
            text = render(data)
            return text[:draw(st.integers(min_value=0, max_value=len(text) - 1))]
        elif isinstance(table, list) and table and all(isinstance(r, list) and r for r in table):
            i = draw(st.integers(min_value=0, max_value=len(table) - 1))
            if how == "row":
                table[i] = draw(_WRONG_TYPES)
            elif how == "cell":
                table[i][draw(st.integers(min_value=0, max_value=len(table[i]) - 1))] = \
                    draw(_WRONG_TYPES)
            elif all(len(r) == len(table) for r in table):
                # only a square table: a row replaced earlier might be evened out
                if draw(st.booleans()):
                    table[i].pop()
                else:
                    table[i].append(0)
    return render(data)


@given(damaged_dumps())
@settings(max_examples=300, deadline=None)
def test_damaged_dumps_load_or_raise_malformed_ring(text):
    # a damaged dump never escapes as KeyError, TypeError, a numpy error or
    # a decoder error, and no damage here reaches the ring laws
    try:
        ring = core.ring_from_json(text)
    except MalformedRing as exc:
        assert isinstance(exc, ValueError) and str(exc)
    else:
        assert isinstance(ring, core.FiniteRing) and isinstance(ring.label, str)


CATALOG = dsl.catalog()
_MUTATIONS = ["shifted", "leading-zero", "wide", "twenty-digits", "not-an-index", "empty",
              "non-ascii", "ragged", "separator", "whitespace", "duplicate-add", "trailing",
              "bytes"]
# the text that replaces one cell, by mutation; json.loads makes an int64
# table of cells below 2^63 and a float64 one past it, and the direct
# decoder parses into uint32, which wraps or saturates a cell of 10 digits
# or more
_CELL_TOKENS = {
    "wide": st.one_of(st.sampled_from([10 ** 9 - 1, 10 ** 9, 2 ** 31 - 1, 2 ** 31, 2 ** 32,
                                       2 ** 32 + 1, 10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 2 ** 63]),
                      st.integers(10 ** 8, 10 ** 10), st.integers(10 ** 17, 10 ** 19 - 1)).map(str),
    "twenty-digits": st.integers(10 ** 19, 10 ** 20 - 1).map(str),
    "not-an-index": st.sampled_from(["-1", "1.0", "true"]),
    "empty": st.just(""),
    # Arabic-Indic and fullwidth one (both str.isdigit), a letter, superscript two
    "non-ascii": st.sampled_from(["\u0661", "\uff11", "1\u00e9", "\u00b2"]),
}


def _edit_table(text: str, name: str, edit) -> str:
    """`text` with the rows of table `name`, as lists of cell strings,
    changed in place by `edit`."""
    lo = text.index(f'"{name}":[[') + len(name) + 5
    hi = text.index("]]", lo)
    rows = [row.split(",") for row in text[lo:hi].split("],[")]
    edit(rows)
    return text[:lo] + "],[".join(",".join(row) for row in rows) + text[hi:]


def _mutation_arg(how: str, text: str):
    """The strategy of what mutation `how` of `text` is given: the token
    that replaces a cell, where which whitespace goes, or the text added."""
    if how in _CELL_TOKENS:
        return _CELL_TOKENS[how]
    if how == "whitespace":
        return st.tuples(st.integers(0, len(text)), st.sampled_from([" ", "\n", "\t", "\r"]))
    if how == "separator":
        return st.sampled_from(["]_", "5,", "] ", "]]", ",,", "0]"])
    if how == "duplicate-add":
        return st.sampled_from(["[[0]]", "[[0,1],[1,0]]"])
    if how == "trailing":
        return st.sampled_from([" ", "\n", "x", "}", "0", ",{}", '{"add":[[0]]}'])
    return st.none()


def _mutated(text: str, n: int, table: str, i: int, j: int, how: str, arg):
    """`text`, the dump of a ring of order n, with mutation `how` (given
    `arg`) of cell (i, j) of `table`, of its rows or of the text around it."""
    def set_cell(value):
        def edit(rows):
            rows[i][j] = value(rows[i][j])
        return edit

    def move_last_cell(rows):
        rows[(i + 1 + j % (n - 1)) % n].append(rows[i].pop())

    if how == "shifted":
        return _edit_table(text, table, set_cell(lambda cell: str((int(cell) + 1) % n)))
    if how == "leading-zero":
        return _edit_table(text, table, set_cell(lambda cell: "0" + cell))
    if how in _CELL_TOKENS:
        return _edit_table(text, table, set_cell(lambda cell: arg))
    if how == "ragged":
        return _edit_table(text, table, move_last_cell)
    if how == "separator":   # the "]," before the "[" that opens row i (row 1 for row 0)
        at = cell_offset(text, table, max(i, 1), 0)
        return text[:at - 3] + arg + text[at - 1:]
    if how == "whitespace":
        at, space = arg
        return text[:at] + space + text[at:]
    if how == "duplicate-add":
        return text[:-1] + ',"add":' + arg + "}"
    if how == "trailing":
        return text + arg
    return text.encode()


@st.composite
def mutated_dumps(draw):
    """The canonical dump of a catalog ring with one to three mutations: a
    cell changed by +1 mod n (still canonical), with a leading zero, of 9
    to 11 digits (about the widest cell the direct decoder takes) or of 18
    or 19 digits, of 20 digits, that is no element index (-1, 1.0, true),
    empty, or with a character that is not ASCII; the last cell of one row
    moved to another (ragged rows, square total); the "]," before the "["
    of a row garbled; whitespace anywhere; a duplicate trailing "add" key;
    data after the object; bytes instead of str."""
    R = dsl.build(draw(st.sampled_from(CATALOG))[1])
    text = core.ring_to_json(R)
    n = R.order
    table = draw(st.sampled_from(["add", "mul"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kinds = draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3, unique=True))
    for how in _MUTATIONS:   # cells first, then the text around them
        if how in kinds:
            text = _mutated(text, n, table, i, j, how, draw(_mutation_arg(how, text)))
    return text


def _load_outcome(load, text):
    """The tables, label and identities that `load(text)` returns, or the
    class and message of the ring error it raises; any warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            R = load(text)
        except RingError as exc:
            return type(exc), str(exc)
    return R.add.tobytes(), R.mul.tobytes(), R.add.shape, R.label, R.zero, R.one


def _load_with_path(text):
    """`_load_outcome(core.ring_from_json, text)`, how the decoder parsed
    cells itself (on "no thread", "one thread" or "two threads"), and
    whether it handed the text to `json.loads`, whose outcome is then the
    load's."""
    on_main, handed = [], []
    parse, loads = np.fromstring, json.loads

    def spy(*args, **kwargs):
        # the text is handed over as bytes: given an ndarray, numpy parses
        # its str() instead
        assert type(args[0]) is bytes
        on_main.append(threading.current_thread() is threading.main_thread())
        return parse(*args, **kwargs)

    def loads_spy(s, *args, **kwargs):
        handed.append(s is text)
        return loads(s, *args, **kwargs)

    with mock.patch.object(np, "fromstring", spy), mock.patch.object(json, "loads", loads_spy):
        outcome = _load_outcome(core.ring_from_json, text)
    threads = "no thread" if not on_main else "one thread" if all(on_main) else "two threads"
    return outcome, threads, any(handed)


# the default block and two that divide no catalog ring's row length, so
# that block edges fall at every row, or every few rows, of a small ring
_BLOCKS = (core._BLOCK_CELLS, 4, 37)


@given(mutated_dumps())
@settings(max_examples=300, deadline=None)
def test_ring_from_json_matches_json_loads_on_mutated_dumps(text):
    # decoding canonical text directly has the outcome of json.loads and
    # ring_from_dict on every mutant, accepted or rejected, message included,
    # whatever the block the text is walked in
    expected = _load_outcome(oracles.ring_from_loaded_json, text)
    for cells in _BLOCKS:
        with mock.patch.object(core, "_BLOCK_CELLS", cells):
            outcome, threads, handed = _load_with_path(text)
        if cells == core._BLOCK_CELLS:
            event(f"cells parsed: {'json.loads' if handed else threads}")
        assert outcome == expected, cells


@functools.cache
def _catalog_ring_of_order(least: int) -> core.FiniteRing:
    """The catalog ring of the least order at least `least`."""
    return min((dsl.build(expr) for _, expr in CATALOG if dsl.build(expr).order >= least),
               key=lambda R: R.order)


# what a mutation is given in the deterministic comparison below, one or
# more examples each: numpy's uint32 parse wraps 2^32 + 1 and saturates
# 2^64 and 2^64 + 1
_MUTATION_EXAMPLES = {"wide": [str(2 ** 32 + 1)],
                      "twenty-digits": [str(10 ** 19), str(2 ** 64), str(2 ** 64 + 1)],
                      "not-an-index": ["true"], "empty": [""], "non-ascii": ["\u0661"],
                      "separator": ["]_", "5,"],
                      "duplicate-add": ["[[0,1],[1,0]]"], "trailing": ["x"]}
# the mutations whose text passes the text checks, so its cells are parsed
_PARSED = {"shifted", "leading-zero", "wide", "twenty-digits"}


@pytest.mark.parametrize("past_one_block", [False, True], ids=["one-block", "past-one-block"])
@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("how", _MUTATIONS)
def test_ring_from_json_matches_json_loads_on_both_parse_paths(how, table, past_one_block,
                                                               monkeypatch):
    # every mutation kind, in either table, has the outcome of json.loads on
    # a ring whose tables are parsed on one thread and on one whose tables
    # (past one block of cells) are parsed on two; at each block size the
    # mutation is also made on the first and on the last token of the block
    # that holds the middle row, a later block than the first when there are
    # several
    R = _catalog_ring_of_order(math.isqrt(core._BLOCK_CELLS) + 1 if past_one_block else 12)
    assert (R.order ** 2 > core._BLOCK_CELLS) == past_one_block
    dump = core.ring_to_json(R)
    n = R.order
    for cells in _BLOCKS:
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        lo, hi = next(block for block in core._row_blocks(n, n) if block[1] > n // 2)
        for i, j in ((n // 2, n // 3), (lo, 0), (hi - 1, n - 1)):
            if how == "whitespace" and (i, j) == (n // 2, n // 3):   # after the table's first cell
                args = [(dump.index(",", dump.index(f'"{table}":[[')) + 1, " ")]
            elif how == "whitespace":   # before the token
                args = [(cell_offset(dump, table, i, j), " ")]
            else:
                args = _MUTATION_EXAMPLES.get(how, [None])
            for arg in args:
                text = _mutated(dump, n, table, i, j, how, arg)
                outcome, threads, handed = _load_with_path(text)
                assert outcome == _load_outcome(oracles.ring_from_loaded_json, text), \
                    (cells, i, j, arg)
                if how not in _PARSED:
                    assert handed, (cells, i, j)   # a text check fails, and json.loads decides
                else:
                    assert threads == ("two threads" if n * n > cells else "one thread"), \
                        (cells, i, j, arg)


# --- expression round-trip -------------------------------------------------

base_names = st.sampled_from(["Z2", "Z3", "Z4", "Z6", "Z9", "GF(4)", "GF(8)", "GF(9)"])


def leaf():
    return base_names.map(dsl.parse)


def extend(children):
    return st.one_of(
        st.tuples(st.integers(2, 3), children).map(lambda t: dsl.Matrix(t[0], t[1])),
        st.tuples(st.integers(2, 3), children).map(lambda t: dsl.Triangular(t[0], t[1])),
        st.lists(children, min_size=1, max_size=3).map(lambda f: dsl.Product(tuple(f))),
        children.map(dsl.Triv),
        children.map(dsl.DT),
        st.tuples(children, st.integers(2, 4)).map(
            lambda t: dsl.TruncSkew(t[0], "id", t[1])),
        st.tuples(children, st.integers(0, 3)).map(lambda t: dsl.Ks(t[0], t[1])),
        st.tuples(children, st.sampled_from(["C2", "C3", "V4", "S3"])).map(
            lambda t: dsl.GroupRing(t[0], t[1])),
    )


exprs = st.recursive(leaf(), extend, max_leaves=4)


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_parse_print_roundtrip(e):
    assert dsl.parse(dsl.print_expr(e)) == e


# the grammar's tokens and some it does not have, joined in any order
expr_tokens = st.sampled_from(
    sorted(dsl.CTORS | set(dsl.GROUP_ORDERS) | dsl.ENDO_NAMES)
    + ["Z", "Z0", "Z1", "Z2", "Z12", "GF", "s", "x", "0", "1", "2", "3", "9", "00",
       "(", ")", ",", "=", " ", "#", "-"])
expr_texts = st.lists(expr_tokens, max_size=24).map("".join)


@st.composite
def edited_exprs(draw):
    """A printed expression with one span replaced by a token."""
    text = dsl.print_expr(draw(exprs))
    lo = draw(st.integers(0, len(text)))
    hi = draw(st.integers(lo, min(len(text), lo + 3)))
    return text[:lo] + draw(expr_tokens) + text[hi:]


@given(st.one_of(st.text(max_size=40), expr_texts, edited_exprs()))
@settings(max_examples=600, deadline=None)
def test_any_string_parses_or_raises_ring_error(text):
    try:
        e = dsl.parse(text)
    except RingError:
        return
    assert dsl.parse(dsl.print_expr(e)) == e


@given(moduli, st.integers(min_value=0, max_value=47), st.integers(min_value=0, max_value=47))
@settings(max_examples=30, deadline=None)
def test_ring_arithmetic_consistency(m, a, b):
    R = zmod(m)
    a, b = a % m, b % m
    assert int(R.add[a, R.neg[a]]) == R.zero
    assert R.sub(a, b) == (a - b) % m
    assert R.pow(a, 3) == pow(a, 3, m)


@st.composite
def commutative_tables(draw):
    # commutative with 0 as identity (validation checks both before it asks
    # for generators), otherwise arbitrary: usually not associative
    n = draw(st.integers(min_value=2, max_value=12))
    cells = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          min_size=n * n, max_size=n * n))
    table = np.array(cells, dtype=np.int32).reshape(n, n)
    table = np.triu(table) + np.triu(table, 1).T
    table[0, :] = table[:, 0] = np.arange(n)
    return table


@st.composite
def inverse_tables(draw):
    """A `commutative_tables` table in which every element has an inverse:
    a drawn involution of 1..n-1 pairs the elements, and each pair sums to
    0, so the group laws but associativity hold."""
    table = draw(commutative_tables())
    rest = draw(st.permutations(range(1, table.shape[0])))
    for i, j in zip(rest[::2], rest[1::2]):
        table[i, j] = table[j, i] = 0
    if len(rest) % 2:
        table[rest[-1], rest[-1]] = 0
    return table


@st.composite
def relabeled_groups(draw):
    """The addition of Z_a x Z_b, order 2 to 24, with its elements other
    than 0 relabeled by a drawn permutation, so that the greedy generators
    are not in coordinate order."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    x = np.arange(a * b)
    table = ((x[:, None] // b + x // b) % a) * b + (x[:, None] + x) % b
    perm = np.array([0, *draw(st.permutations(range(1, a * b)))])
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _light_holds(add, g: int) -> bool:
    M = add[add[:, g]]
    return np.array_equal(M, M.T)


@given(st.one_of(inverse_tables(), relabeled_groups()))
@settings(max_examples=300, deadline=None)
def test_coset_walk_agrees_with_the_greedy_set_up_to_lights_failure(add):
    # the agreement half of `_coset_walk`'s argument: under the group laws
    # but associativity, the walk's generators are the greedy set's up to
    # the first that fails Light's test, that one included, and where none
    # fails they are the whole greedy set and the walk reaches every element
    gens, span = core._coset_walk(add, 0)
    greedy = oracles.additive_generators(add, 0)
    light = [_light_holds(add, g) for g in gens]
    k = light.index(False) + 1 if False in light else len(gens)
    event(f"walk: {'gave up' if len(span) < add.shape[0] else 'whole'}")
    assert gens[:k] == greedy[:k]
    if all(light):
        assert gens == greedy and len(span) == add.shape[0]


def _greedy_outcome(add, mul):
    """The violation, law and instance, that the group laws and then
    `oracles.two_sided_generator_checks` on the greedy generators name,
    Light's test first, or None: validation's outcome on the greedy set,
    for a product whose identity laws hold."""
    try:
        core._check_abelian(add, 0)
        oracles.two_sided_generator_checks(add, mul, oracles.additive_generators(add, 0))
    except AxiomViolation as exc:
        return exc.kind, tuple(exc.witness)
    return None


@given(st.one_of(commutative_tables(), inverse_tables(), relabeled_groups()), st.data())
@settings(max_examples=300, deadline=None)
def test_coset_walk_generators_are_the_greedy_ones(add, data):
    # whenever the walk reaches every element and its generators pass
    # Light's test they are the greedy set, and validation, with a drawn
    # product whose identity is 1, raises what the greedy set raises, law
    # and instance
    gens, span = core._coset_walk(add, 0)
    n = add.shape[0]
    light = all(_light_holds(add, g) for g in gens)
    whole = len(span) == n
    event(f"walk: {'gave up' if not whole else 'Light holds' if light else 'Light fails'}")
    if whole and light:
        assert gens == oracles.additive_generators(add, 0)
    cells = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    mul = np.array(cells).reshape(n, n)
    mul[1] = mul[:, 1] = np.arange(n)
    assert _validation_outcome(add, mul, 0, 1) == _greedy_outcome(add, mul)


def test_validation_names_the_greedy_sets_violation_on_a_seeded_sweep():
    # 2,000 tables drawn as `inverse_tables` draws them, of orders 2-9 and
    # from one seed, with a product whose identity is 1: validation names
    # the law and instance that the greedy set names, and the walk gives up
    # on most of the tables (1622 of them)
    rng = random.Random(39)
    gave_up = 0
    for _ in range(2000):
        n = rng.randint(2, 9)
        add = np.array([rng.randrange(n) for _ in range(n * n)]).reshape(n, n)
        add = np.triu(add) + np.triu(add, 1).T
        add[0, :] = add[:, 0] = np.arange(n)
        rest = rng.sample(range(1, n), n - 1)
        for i, j in zip(rest[::2], rest[1::2]):
            add[i, j] = add[j, i] = 0
        if len(rest) % 2:
            add[rest[-1], rest[-1]] = 0
        mul = np.array([rng.randrange(n) for _ in range(n * n)]).reshape(n, n)
        mul[1] = mul[:, 1] = np.arange(n)
        gave_up += len(core._coset_walk(add, 0)[1]) < n
        assert _validation_outcome(add, mul, 0, 1) == _greedy_outcome(add, mul), (add, mul)
    assert gave_up >= 1500
