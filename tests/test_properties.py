from __future__ import annotations

import copy
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from deltaring import core, dsl, subsets
from deltaring.errors import MalformedRing

import oracles
from conftest import zmod_tables


def zmod(m: int) -> core.FiniteRing:
    add, mul = zmod_tables(m)
    return core.validate_ring(add, mul, 0, 1, label=f"Z{m}")


moduli = st.integers(min_value=2, max_value=48)


@given(moduli)
@settings(max_examples=30, deadline=None)
def test_radical_sits_inside_delta(m):
    R = zmod(m)
    assert set(subsets.jacobson_radical(R).indices) <= set(subsets.delta_set(R).indices)


@given(moduli)
@settings(max_examples=25, deadline=None)
def test_delta_matches_naive_and_unit_subring_radical(m):
    R = zmod(m)
    delta = subsets.delta_set(R).indices
    assert delta == oracles.naive_delta(R)
    _, sub = subsets.unit_subring(R)
    elems = subsets.unit_subring_elements(R)
    mapped = sorted(int(elems[j]) for j in subsets.jacobson_radical(sub).indices)
    assert mapped == delta


@given(moduli)
@settings(max_examples=25, deadline=None)
def test_sets_match_naive(m):
    R = zmod(m)
    assert subsets.units(R).indices == oracles.naive_units(R)
    assert subsets.nilpotents(R).indices == oracles.naive_nilpotents(R)
    assert subsets.jacobson_radical(R).indices == oracles.naive_jacobson(R)


@given(moduli, st.sets(st.integers(min_value=0, max_value=47), max_size=4))
@settings(max_examples=30, deadline=None)
def test_subring_generated_is_idempotent(m, gens):
    R = zmod(m)
    gens = {g % m for g in gens}
    first = core.subring_generated(R, gens, unital=False)
    assert core.subring_generated(R, first, unital=False) == first


@given(moduli, st.sets(st.integers(min_value=0, max_value=47), max_size=3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_closures_match_naive(m, gens, unital):
    R = zmod(m)
    gens = {g % m for g in gens}
    assert core.ideal_generated(R, gens).indices == oracles.naive_ideal_generated(R, gens)
    assert (core.subring_generated(R, gens, unital=unital).indices
            == oracles.naive_subring_generated(R, gens, unital))


@given(moduli, st.integers(min_value=0, max_value=47))
@settings(max_examples=30, deadline=None)
def test_principal_ideal_quotient_sizes(m, g):
    R = zmod(m)
    ideal = core.ideal_generated(R, [g % m])
    if len(ideal) == m:
        return
    quotient, proj = core.quotient_ring(R, ideal)
    assert quotient.order * len(ideal) == m
    assert proj.kernel() == ideal


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


_WRONG_TYPES = st.sampled_from(
    [None, "x", "1", 1.5, 1.0, True, False, [], {}, [[0]], [1]]).map(copy.deepcopy)


@st.composite
def damaged_dumps(draw):
    """A valid dump of Z_m with one or two kinds of damage: a dropped key, a
    field, row or cell of another type, a ragged row, or truncated text."""
    data = json.loads(core.ring_to_json(zmod(draw(st.integers(min_value=2, max_value=9)))))
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
            text = json.dumps(data)
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
    return json.dumps(data)


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


@given(moduli, st.integers(min_value=0, max_value=47), st.integers(min_value=0, max_value=47))
@settings(max_examples=30, deadline=None)
def test_element_arith_consistency(m, a, b):
    R = zmod(m)
    a, b = a % m, b % m
    assert core.element_arith(R, "add", a, core.element_arith(R, "neg", a)) == R.zero
    assert core.element_arith(R, "sub", a, b) == (a - b) % m
    assert core.element_arith(R, "pow", a, 3) == pow(a, 3, m)


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


@given(commutative_tables())
@settings(max_examples=300, deadline=None)
def test_additive_generators_match_whole_span_closure(add):
    assert core.additive_generators(add, 0) == oracles.additive_generators(add, 0)
