from __future__ import annotations

import json
import pickle
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from deltaring import constructions as cons
from deltaring import core, dsl, predicates, subsets
from deltaring.errors import (
    BadArity,
    ExprSyntaxError,
    InvalidBimodule,
    InvalidEndomorphism,
    OrderGuardExceeded,
    UnknownName,
    UnsupportedField,
)

from conftest import traced_peak


def test_parse_examples():
    e = dsl.parse("M(2, Z3)")
    assert isinstance(e, dsl.Matrix) and e.size == 2
    assert isinstance(e.base, dsl.Named) and e.base.param == 3

    g = dsl.parse("GR(Z4, C2)")
    assert isinstance(g, dsl.GroupRing) and g.group == "C2"

    k = dsl.parse("K(Z4, s=2)")
    assert isinstance(k, dsl.Ks) and k.scalar == 2
    assert dsl.parse("K(Z4, 2)") == k  # the s= prefix is optional


def test_parse_is_whitespace_insensitive():
    a = dsl.parse("  Prod( Z2 ,Z3 ) ")
    b = dsl.parse("Prod(Z2,Z3)")
    assert a == b


def test_parse_error_positions():
    with pytest.raises(ExprSyntaxError) as exc:
        dsl.parse("M(2 Z3)")
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError):
        dsl.parse("Z3)")
    with pytest.raises(ExprSyntaxError):
        dsl.parse("Prod(Z2,")
    with pytest.raises(UnknownName):
        dsl.parse("Wat(Z2)")
    with pytest.raises(UnknownName):
        dsl.parse("GR(Z2,C9)")
    with pytest.raises(BadArity):
        dsl.parse("Quot(Z12)")
    with pytest.raises(InvalidBimodule):
        dsl.parse("Triv(Z2,Z3)")
    with pytest.raises(InvalidBimodule):
        dsl.parse("FT(Z2,Z2,Z3)")
    with pytest.raises(BadArity):
        dsl.parse("TruncSkew(Z2,id,1)")
    # integers past Python's limit on decimal digits are syntax errors too
    with pytest.raises(ExprSyntaxError, match="modulus at position 1 has too many digits"):
        dsl.parse("Z" + "9" * 5000)
    with pytest.raises(ExprSyntaxError, match="matrix size at position 2 has too many digits"):
        dsl.parse("M(" + "9" * 5000 + ",Z2)")


def test_nesting_past_the_limit_is_a_syntax_error():
    # the deepest allowed nesting parses, prints and builds; one level more
    # is refused by the parser, at the constructor that goes too deep
    depth = dsl.MAX_NESTING
    deepest = "Prod(" * depth + "Z2" + ")" * depth
    assert dsl.print_expr(dsl.parse(deepest)) == deepest
    assert dsl.build_str(deepest).order == 2
    for ctor in ("Prod(", "M(2,"):
        text = ctor * (depth + 1) + "Z2" + ")" * (depth + 1)
        with pytest.raises(ExprSyntaxError, match=f"nest deeper than {depth} levels") as exc:
            dsl.parse(text)
        assert exc.value.position == len(ctor) * depth


def test_print_parse_roundtrip():
    samples = [
        "Z2", "Z120", "GF(9)", "Prod(Z2,Z3)", "Prod(Z2,Z2,Z2)",
        "M(2,Z2)", "T(3,Z3)", "TruncSkew(GF(4),frob,2)", "TruncSkew(Z2,id,5)",
        "Triv(Z5,Z5)", "DT(Z3,Z3)", "FT(Z2,Z3)", "FT(Z4,Z4,Z4)",
        "K(GF(4),s=0)", "FM(2,Z4,s=2)", "GR(Z9,C3)", "Quot(Z12,6,4)",
        "Corner(M(2,Z2),9)",
    ]
    for text in samples:
        assert dsl.print_expr(dsl.parse(text)) == text


def test_print_limit_keeps_the_start_of_the_canonical_form():
    # past the limit the form is its first `limit` characters and "...";
    # within it, the whole form
    for text in ("Z2", "Prod(Z2,Z3)", "FT(Triv(Z2),Triv(Z2),Triv(Z2))",
                 "Triv(" * 6 + "Z2" + ")" * 6, "DT(" * 3 + "GF(4)" + ")" * 3,
                 "Prod(M(2,Triv(Z3)),GR(DT(Z2),C2),Quot(Z12,6,4))"):
        e = dsl.parse(text)
        full = dsl.print_expr(e)
        for limit in range(len(full) + 2):
            cut = full if len(full) <= limit else full[:limit] + "..."
            assert dsl.print_expr(e, limit) == cut, (text, limit)


def test_built_rings_carry_their_canonical_label():
    # a size-one constructor returns the ring it was given; the build labels
    # it with the constructor's own printed form and leaves that ring alone
    samples = [
        "Z2", "Z120", "GF(9)", "Prod(Z2,Z3)", "Prod(Z2,Z2,Z2)",
        "M(2,Z2)", "T(3,Z3)", "TruncSkew(GF(4),frob,2)", "TruncSkew(Z2,id,5)",
        "Triv(Z5,Z5)", "DT(Z3,Z3)", "FT(Z2,Z3)", "FT(Z4,Z4,Z4)",
        "K(GF(4),s=0)", "FM(2,Z4,s=2)", "GR(Z9,C3)", "Quot(Z12,6,4)",
        "Corner(M(2,Z2),9)", "M(1,Z4)", "T(1,Z3)", "FM(1,Z4,s=2)", "Prod(Z5)",
    ]
    for text in samples:
        assert dsl.build_str(text).label == dsl.print_expr(dsl.parse(text)), text
    for base in ("Z4", "Z3", "Z5"):
        assert dsl.build_str(base).label == base
    assert np.array_equal(dsl.build_str("M(1,Z4)").mul, dsl.build_str("Z4").mul)


def test_nodes_compare_and_hash_by_type_and_fields():
    b, c = dsl.parse("Z2"), dsl.parse("Z3")
    assert dsl.Matrix(2, b) != dsl.Triangular(2, b)
    assert dsl.Triv(b) != dsl.DT(b)
    assert dsl.FormalTri(c, b, True) != dsl.FormalTri(c, b, False)
    e = dsl.parse("M(2,Prod(Z2,Z3))")
    assert e == dsl.Matrix(2, dsl.Product((b, c))) and e is not dsl.parse("M(2,Prod(Z2,Z3))")
    assert hash(e) == hash(dsl.parse("M(2, Prod(Z2, Z3))"))
    table = {e: "m", dsl.Triangular(2, dsl.Product((b, c))): "t"}
    assert table[dsl.parse("M(2,Prod(Z2,Z3))")] == "m" and len(table) == 2
    assert repr(dsl.Matrix(2, b)) == "Matrix(size=2, base=Named(kind='Z', param=2))"
    assert repr(dsl.Quotient(c, (1, 2))) == "Quotient(base=Named(kind='Z', param=3), gens=(1, 2))"
    assert pickle.loads(pickle.dumps(e)) == e
    with pytest.raises(AttributeError):
        e.size = 3
    with pytest.raises(TypeError):
        dsl.Matrix(2)


def test_every_constructor_has_one_row():
    rows = [node._ctor for node in dsl.RingExpr.__subclasses__() if node is not dsl.Named]
    assert len(rows) == len(set(rows)) and set(rows) == dsl.CTORS
    assert all(dsl._TABLE[name]._ctor == name for name in dsl.CTORS)


def test_group_orders_match_the_group_catalog():
    # order_of reads this copy so that it never builds a group
    assert dsl.GROUP_ORDERS == {name: G.order for name, G in cons.group_catalog().items()}


def _deepest_frame(fn, *args) -> int:
    """The most Python frames on the stack while `fn(*args)` runs."""
    deepest = 0

    def profile(frame, event, arg):
        nonlocal deepest
        if event == "call":
            depth = 0
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            deepest = max(deepest, depth)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return deepest


@pytest.mark.parametrize("opening,closing,builds", [
    ("Prod(", ")", True), ("M(1,", ")", True), ("T(1,", ")", True),
    ("FM(1,", ",s=0)", True), ("GR(", ",C1)", True), ("Quot(", ",0)", True),
    ("Corner(", ",1)", True), ("FT(Z2,", ")", False), ("K(", ",s=0)", False),
    ("TruncSkew(", ",id,2)", False),
])
def test_frames_per_nesting_level(opening, closing, builds):
    # each level of nesting costs at most 2 frames to parse, 2 to print,
    # 3 for order_of and 2 to build, so MAX_NESTING levels stay far inside
    # the default recursion limit (Triv and DT are left out: their printed
    # form doubles with each level)
    def text(depth):
        return opening * depth + "Z2" + closing * depth

    def per_level(fn, wrap):
        return (_deepest_frame(fn, wrap(text(100))) - _deepest_frame(fn, wrap(text(50)))) / 50

    assert per_level(dsl.parse, str) <= 2
    assert per_level(dsl.print_expr, dsl.parse) <= 2
    assert per_level(lambda e: dsl.order_of(e, 4096), dsl.parse) <= 3
    if builds:
        assert per_level(lambda e: (dsl.clear_build_cache(), dsl.build(e)), dsl.parse) <= 2


def test_build_examples():
    R = dsl.build_str("Z12")
    assert R.order == 12
    from deltaring.predicates import class_verdict
    assert class_verdict(R, "2-delta-u")

    big = dsl.build_str("T(3, Z3)")
    assert big.order == 729

    gf4 = dsl.build_str("GF(4)")
    assert subsets.unit_mask(gf4).sum() == 3
    # the fixed irreducible: x^2 = x + 1
    x = gf4.names.index("x")
    assert gf4.names[int(gf4.mul[x, x])] == "x+1"


def test_gf8_gf9_field_axioms():
    for q in (8, 9):
        F = dsl.build_str(f"GF({q})")
        assert subsets.unit_mask(F).sum() == q - 1  # every nonzero element invertible


def test_build_memoization_and_determinism():
    a = dsl.build_str("Triv(Z4,Z4)")
    b = dsl.build_str("Triv( Z4 , Z4 )")
    assert a is b  # canonical-form cache hit returns the identical object
    dump_before = core.ring_to_json(a)
    dsl.clear_build_cache()
    c = dsl.build_str("Triv(Z4,Z4)")
    assert c is not a and core.ring_to_json(c) == dump_before


def test_concurrent_builds_validate_each_ring_once(monkeypatch):
    # every validation, from tables or from a construction, passes through
    # core._validated_ring, so that is the one function counted
    real = core._validated_ring
    labels = []

    def counted(add, mul, zero, one, label, *args):
        labels.append(label)
        return real(add, mul, zero, one, label, *args)

    monkeypatch.setattr(core, "_validated_ring", counted)
    dsl.clear_build_cache()
    exprs = ["T(2,Z4)", "Prod(Z4,Z9)", "GR(Z2,S3)", "K(Z3,s=0)"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(dsl.build_str, e) for e in exprs * 8]
            built = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i in range(len(exprs)):
        assert all(r is built[i] for r in built[i::len(exprs)])
    # every ring and every ring it is built from is validated exactly once
    assert sorted(labels) == sorted(set(labels))
    assert set(labels) == {"T(2,Z4)", "Prod(Z4,Z9)", "GR(Z2,S3)", "K(Z3,s=0)",
                           "Z2", "Z3", "Z4", "Z9"}


def test_unsupported_field():
    with pytest.raises(UnsupportedField):
        dsl.build_str("GF(6)")
    with pytest.raises(UnsupportedField):
        dsl.build_str("GF(16)")


def test_frob_binding():
    ring = dsl.build_str("TruncSkew(GF(4),frob,2)")
    assert core._is_symmetric(ring.mul) is not None
    prime_field = dsl.build_str("TruncSkew(GF(2),frob,2)")  # frobenius = identity
    plain = dsl.build_str("TruncSkew(Z2,id,2)")
    assert np.array_equal(prime_field.mul, plain.mul)
    with pytest.raises(InvalidEndomorphism):
        dsl.build_str("TruncSkew(Z4,frob,2)")
    with pytest.raises(InvalidEndomorphism):
        dsl.build_str("TruncSkew(M(2,Z2),frob,2)")


def test_quot_and_corner_exprs():
    Q = dsl.build_str("Quot(Z12,6)")
    assert Q.order == 6
    C = dsl.build_str("Corner(M(2,Z2),9)")  # 9 encodes the identity matrix
    assert C.order == 16
    C11 = dsl.build_str("Corner(M(2,Z2),8)")  # 8 encodes e_11
    assert C11.order == 2
    with pytest.raises(BadArity):
        dsl.build_str("Quot(Z12,99)")


def test_quot_and_corner_relabel_without_revalidation(monkeypatch):
    dsl.clear_build_cache()
    dsl.build_str("Z12")
    dsl.build_str("M(2,Z2)")

    def refuse(*args, **kwargs):
        raise AssertionError("derived rings must not be re-validated")

    monkeypatch.setattr(core, "validate_ring", refuse)
    monkeypatch.setattr(core, "_validated_ring", refuse)
    Q = dsl.build_str("Quot(Z12,6)")
    C11 = dsl.build_str("Corner(M(2,Z2),8)")
    assert (Q.label, Q.order) == ("Quot(Z12,6)", 6)
    assert (C11.label, C11.order) == ("Corner(M(2,Z2),8)", 2)


def test_galois_fields_are_made_from_the_built_z_p(monkeypatch):
    # GF(p) is Z_p under its own name, on Z_p's frozen tables with a memo of
    # its own, and costs no second proof; GF(p^k) is one structure-table ring
    # over the built Z_p
    dsl.clear_build_cache()
    Z5 = dsl.build_str("Z5")
    dsl.build_str("Z3")
    real, labels = core._validated_ring, []

    def counted(add, mul, zero, one, label, *args):
        labels.append(label)
        return real(add, mul, zero, one, label, *args)

    monkeypatch.setattr(core, "_validated_ring", counted)
    F = dsl.build_str("GF(5)")
    assert labels == [] and F.label == "GF(5)" and F._cache is not Z5._cache
    assert F.add is Z5.add and F.mul is Z5.mul and F.neg is Z5.neg and F.names == Z5.names
    assert dsl.build_str("GF(9)").order == 9 and labels == ["GF(9)"]


def test_building_z_n_holds_its_two_tables():
    # Z_n's fresh tables are proved and frozen in place, never copied
    dsl.clear_build_cache()
    table = 1024 * 1024 * np.dtype(core.TABLE_DTYPE).itemsize
    assert traced_peak(dsl.build_str, "Z1024") < 2.5 * table


def test_derived_rings_ignore_the_default_guard(monkeypatch):
    # R/J is no larger than R, so a class check on a ring built under a
    # raised guard must not fail on the default guard when it forms R/J
    monkeypatch.setattr(core, "DEFAULT_ORDER_GUARD", 64)
    ring = dsl.build_str("Prod(GF(9),GF(9))", order_guard=128)
    assert ring.order == 81 and subsets.jacobson_mask(ring).sum() == 1
    assert predicates.class_verdict(ring, "semiregular") is True


def test_order_guard_flows_through():
    with pytest.raises(OrderGuardExceeded):
        dsl.build_str("M(3,Z3)")
    with pytest.raises(OrderGuardExceeded):
        dsl.build_str("Z100", order_guard=50)
    # a cached ring re-checks the guard on later calls
    dsl.build_str("Z60")
    with pytest.raises(OrderGuardExceeded):
        dsl.build_str("Z60", order_guard=10)
    # and so does a first build whose constructor does not take the guard
    dsl.clear_build_cache()
    with pytest.raises(OrderGuardExceeded):
        dsl.build_str("GF(9)", order_guard=4)


@pytest.mark.parametrize("text", ["M(1500,Z3)", "GR(M(1500,Z3),C2)"])
def test_guard_names_the_expression_it_rejects(text):
    message = f"{text}: order would reach at least 6561, past the guard 4096"
    with pytest.raises(OrderGuardExceeded, match=re.escape(message)):
        dsl.build_str(text)


def test_guard_fires_before_any_construction_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("construction ran before the order guard")

    monkeypatch.setattr(cons, "identity_endomorphism", refuse)
    monkeypatch.setattr(cons, "truncated_skew_poly", refuse)
    with pytest.raises(OrderGuardExceeded):
        dsl.build_str("TruncSkew(Z3,id,300000)")


@pytest.mark.parametrize("text", ["Quot(Z12,6)", "Corner(M(2,Z2),8)"])
def test_guard_treats_cached_and_cold_builds_alike(text):
    # the guard reads the base's order off the expression, so a quotient or
    # corner small enough to pass is rejected whether or not it is cached
    dsl.clear_build_cache()
    with pytest.raises(OrderGuardExceeded):
        dsl.build_str(text, order_guard=8)
    assert dsl.build_str(text).order <= 8
    with pytest.raises(OrderGuardExceeded):
        dsl.build_str(text, order_guard=8)


def test_order_of_equals_the_built_order():
    large = json.loads((Path(__file__).parent / "golden" / "large_tables.json").read_text())
    exprs = [e for _, e in dsl.catalog()] + [dsl.parse(t) for t in large]
    assert len(exprs) == 182 + 11
    for e in exprs:
        assert dsl.order_of(e, core.DEFAULT_ORDER_GUARD) == dsl.build(e).order, e


def test_order_of_stops_at_the_first_product_past_the_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("order_of built a ring")

    monkeypatch.setattr(dsl, "_build_uncached", refuse)
    monkeypatch.setattr(cons, "group_catalog", refuse)
    start = time.perf_counter()
    for text, reach in (("M(99999999,Z2)", 8192), ("T(99999999,GF(9))", 6561),
                        ("TruncSkew(Z3,id,300000)", 6561), ("K(Z64,s=0)", 262144),
                        ("GR(Z16,S3)", 65536), ("FM(99999999,Z99999999,s=0)", 99999999),
                        ("Prod(Z4096,Z2,GF(6))", 8192), ("FT(Z2,Z3)", 6),
                        ("FT(Z8,Z8,Z8)", 512), ("Quot(M(2,Z2),1)", 16)):
        assert dsl.order_of(dsl.parse(text), 4096) == reach, text
    assert time.perf_counter() - start < 0.1
    with pytest.raises(UnsupportedField):
        dsl.order_of(dsl.parse("M(99999999,GF(6))"), 4096)


def test_catalog_contents_and_guard():
    entries = dsl.catalog()
    labels = [label for label, _ in entries]
    assert "Z6" in labels and "M(2,Z2)" in labels and "GR(Z9,C3)" in labels
    assert len(labels) == len(set(labels))
    built = [dsl.build(e) for _, e in entries]
    assert all(r.order <= dsl.CATALOG_MAX_ORDER for r in built)
    assert max(r.order for r in built) == 729


# --- parse-error golden ------------------------------------------------------

PARSE_ERRORS = Path(__file__).parent / "golden" / "parse_errors.json"

_GRAMMAR_TOKENS = sorted(dsl.CTORS | set(dsl.GROUP_ORDERS) | dsl.ENDO_NAMES) + [
    "Z", "Z0", "Z1", "Z2", "Z12", "GF", "s", "x", "0", "1", "2", "3", "9", "00",
    "(", ")", ",", "=", " ", "#", "-"]
_PRINTED = [
    "Z2", "GF(9)", "Prod(Z2,Z3)", "M(2,Z2)", "T(3,Z3)", "TruncSkew(GF(4),frob,2)",
    "Triv(Z5,Z5)", "DT(Z3,Z3)", "FT(Z2,Z3)", "FT(Z4,Z4,Z4)", "K(GF(4),s=0)",
    "FM(2,Z4,s=2)", "GR(Z9,C3)", "Quot(Z12,6,4)", "Corner(M(2,Z2),9)",
    "M(2,Prod(Z2,Triv(Z3,Z3)))", "GR(T(2,K(Z2,s=1)),S3)",
]
_EXPLICIT = [
    "M(2 Z3)", "Z3)", "Prod(Z2,", "Wat(Z2)", "GR(Z2,C9)", "Quot(Z12)", "Triv(Z2,Z3)",
    "FT(Z2,Z2,Z3)", "TruncSkew(Z2,id,1)", "Z" + "9" * 5000, "M(" + "9" * 5000 + ",Z2)",
    # checks that could fire in either order
    "M(0,Wat(Z2))", "T(0,Z1)", "FM(0,Z2,s=x)", "FM(0,Z2)", "TruncSkew(Z1,foo,1)",
    "TruncSkew(Z2,foo,1)", "Triv(Z2,Z1)", "DT(Z2,Z2", "FT(Z2,Z3,Wat)", "GR(Z1,C9)",
    "K(Z2,t=1)", "K(Z2,s 1)", "Quot(Z2,x)", "Corner(Z2)", "GF(", "GF(x)", "Z01",
    "", "   ", "Prod()", "M(2,Z2) Z3", "M(0,Z2)", "T(0,Z2)", "FM(0,Z2,s=0)",
    "TruncSkew(Z2,id,0)", "K(Z2,s=99)", "Quot(Z2,)", "Corner(Z2,x)", "GR(Z2,C1)",
    "Prod(Z2,,Z3)", "FT(Z2)", "Triv(Z2,Z2,Z2)", "DT(Z2,Z3)", "FT(Z2,Z3,Z3)", "K(Z2)",
    "FM(2,Z2)", "FM(2,Z2,0)", "GF(4", "Z", "s=1", "Triv(Z2,Z2)", "DT(Z2)",
    "Prod(" * (dsl.MAX_NESTING + 1) + "Z2" + ")" * (dsl.MAX_NESTING + 1),
    "M(2," * (dsl.MAX_NESTING + 1) + "Z2" + ")" * (dsl.MAX_NESTING + 1),
]


def _parse_error_inputs(seed: int = 16) -> list[str]:
    """About 300 texts: joined grammar tokens, printed expressions with one
    span replaced by a token, and explicit cases."""
    import random

    rng = random.Random(seed)
    texts = ["".join(rng.choices(_GRAMMAR_TOKENS, k=rng.randint(0, 24))) for _ in range(150)]
    for _ in range(120):
        text = rng.choice(_PRINTED)
        lo = rng.randint(0, len(text))
        hi = rng.randint(lo, min(len(text), lo + 3))
        texts.append(text[:lo] + rng.choice(_GRAMMAR_TOKENS) + text[hi:])
    return texts + _EXPLICIT


def _parse_outcome(text: str) -> dict:
    try:
        e = dsl.parse(text)
    except Exception as exc:
        return {"text": text, "error": type(exc).__name__, "message": str(exc),
                "position": getattr(exc, "position", None)}
    return {"text": text, "error": None, "message": dsl.print_expr(e), "position": None}


def test_parse_errors_match_golden():
    # every error keeps its type, message and position, and each text that
    # parses keeps its printed form
    golden = json.loads(PARSE_ERRORS.read_text())
    assert len(golden) >= 300
    for row in golden:
        assert _parse_outcome(row["text"]) == row


if __name__ == "__main__":
    # regenerate the golden: python tests/test_dsl.py
    PARSE_ERRORS.write_text(json.dumps([_parse_outcome(t) for t in _parse_error_inputs()],
                                       indent=1) + "\n")
