from __future__ import annotations

import json
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


def test_build_examples():
    R = dsl.build_str("Z12")
    assert R.order == 12
    from deltaring.predicates import class_verdict
    assert class_verdict(R, "2-delta-u")

    big = dsl.build_str("T(3, Z3)")
    assert big.order == 729

    gf4 = dsl.build_str("GF(4)")
    assert len(subsets.units(gf4)) == 3
    # the fixed irreducible: x^2 = x + 1
    x = gf4.names.index("x")
    assert gf4.names[int(gf4.mul[x, x])] == "x+1"


def test_gf8_gf9_field_axioms():
    for q in (8, 9):
        F = dsl.build_str(f"GF({q})")
        assert len(subsets.units(F)) == q - 1  # every nonzero element invertible


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
    assert not ring.is_commutative
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
    monkeypatch.setattr(dsl, "validate_ring", refuse)
    Q = dsl.build_str("Quot(Z12,6)")
    C11 = dsl.build_str("Corner(M(2,Z2),8)")
    assert (Q.label, Q.order) == ("Quot(Z12,6)", 6)
    assert (C11.label, C11.order) == ("Corner(M(2,Z2),8)", 2)


def test_derived_rings_ignore_the_default_guard(monkeypatch):
    # R/J is no larger than R, so a class check on a ring built under a
    # raised guard must not fail on the default guard when it forms R/J
    monkeypatch.setattr(core, "DEFAULT_ORDER_GUARD", 64)
    ring = dsl.build_str("Prod(GF(9),GF(9))", order_guard=128)
    assert ring.order == 81 and len(subsets.jacobson_radical(ring)) == 1
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
