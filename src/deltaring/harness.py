"""Desk-scale theorem checks over the ring catalog, plus class search.

Each registered check encodes one statement as an executable assertion
over a ring set (or over fixed construction instances).  Every check but
one is the runner `_each(test, where, instances)`: its scope is the rings
given (else the catalog), or with `instances` the fixed expressions among
them; it keeps the items where `where` holds and collects the
counterexamples that `test(item)` returns for each.  Two families of
tests come from data rows:

- `_agree(forms)`: verdict forms (conjunctions of classes) coincide on
  every catalog ring, after an optional hypothesis is re-verified;
- `_transfer(rows)`: each construction expression is 2-delta-u exactly
  when its parts are, plus an optional side condition per instance.

The construction rows are the catalog's own instances (`dsl`) plus a few
extra instances outside it.  The other tests are written out one per
check.  T3.8 is the only plain runner, since its notes are built from the
certificates it finds.  Biconditionals are always evaluated by computing
both sides independently; hypotheses that are automatic for finite rings
(exchange, potent, artinian, nil radical) are re-verified rather than
assumed wherever that is cheap.

Reports are deterministic: two runs over the same catalog are
byte-identical (timings default to zero and are opt-in).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import constructions as cons
from . import core, dsl, subsets
from .core import FiniteRing
from .errors import UnknownCheckId
from .predicates import (check_class, class_key, class_verdict, jacobson_pair_check,
                         revalidate_witness)
from .report import CheckReport, Witness


@dataclass
class TheoremCheck:
    """Result of one theorem check: pass iff zero counterexamples."""

    check_id: str
    statement: str
    scope_size: int
    verdict: bool
    counterexamples: list[dict] = field(default_factory=list)
    runtime_ms: int = 0
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "scope_size": self.scope_size,
            "verdict": bool(self.verdict),
            "counterexamples": self.counterexamples,
            "runtime_ms": int(self.runtime_ms),
            "notes": self.notes,
        }

    def __str__(self) -> str:
        mark = "pass" if self.verdict else "FAIL"
        line = f"{self.check_id:8s} {mark}  scope={self.scope_size}"
        if self.counterexamples:
            line += f"  counterexamples={[c['ring'] for c in self.counterexamples]}"
        if self.notes:
            line += f"  ({self.notes})"
        return line


def _counterexample(ring: FiniteRing, notes: str, witness: list[Witness] | None = None) -> dict:
    return {"ring": ring.label, "notes": notes,
            "witness": [w.to_json() for w in witness or ()]}


# ---------------------------------------------------------------------------
# catalog access

@functools.cache
def catalog_rings() -> list[FiniteRing]:
    """Every catalog ring, in catalog order, built on the first call and
    then returned from the cache (`catalog_rings.cache_clear()` empties
    it).  First callers on several threads may each make a list, but of
    the same rings, since `dsl.build` builds each expression once."""
    return [dsl.build(e) for _, e in dsl.catalog()]


def _scope(rings) -> list[FiniteRing]:
    return catalog_rings() if rings is None else list(rings)


# The catalog's construction instances, by constructor: the rows of the
# construction checks, which add only their instances outside the catalog.
_CATALOG = dsl._CATALOG_INSTANCES


def _instances(texts, rings) -> list[dsl.RingExpr]:
    """The fixed instances among `texts` that the scope admits, parsed: all
    of them for the whole catalog, else those that label a ring in `rings`."""
    allowed = None if rings is None else {r.label for r in rings}
    return [dsl.parse(t) for t in texts if allowed is None or t in allowed]


# ---------------------------------------------------------------------------
# helpers shared by several checks


def ideals_inside_radical(ring: FiniteRing) -> list[np.ndarray]:
    """The mask of every two-sided ideal contained in J(R), sorted by index
    tuple.

    Each such ideal is a sum of principal ideals generated inside J(R), so
    the search takes one closure per two-sided unit orbit {u*a*v} of the
    radical (P(u*a*v) = P(a) for units u, v) and then closes {0} under
    I -> I + P over the distinct principal ideals P, one sumset each.
    """
    u_idx = np.flatnonzero(subsets.unit_mask(ring))
    done = np.zeros(ring.order, dtype=bool)
    principal: dict[bytes, np.ndarray] = {}
    for a in np.flatnonzero(subsets.jacobson_mask(ring)):
        if done[a]:
            continue
        members = core.ideal_generated(ring, [int(a)])
        principal.setdefault(members.tobytes(), members)
        done |= core._marked_outer(ring.mul, ring.mul[u_idx, a], u_idx)
    zero = np.zeros(ring.order, dtype=bool)
    zero[ring.zero] = True
    seen = {zero.tobytes(): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for ideal in frontier:
            i_idx = np.flatnonzero(ideal)
            for p_mask in principal.values():
                if ideal[p_mask].all():
                    continue
                total = subsets.sumset_mask(ring, i_idx, np.flatnonzero(p_mask))
                key = total.tobytes()
                if key not in seen:
                    seen[key] = total
                    nxt.append(total)
        frontier = nxt
    return sorted(seen.values(), key=lambda ideal: np.flatnonzero(ideal).tolist())


def _two_in_delta(ring: FiniteRing) -> bool:
    two = int(ring.add[ring.one, ring.one])
    return bool(subsets.delta_mask(ring)[two])


def _holds(form: str):
    """Predicate: a ring lies in every class of the conjunction `form` ("a+b+c")."""
    return lambda r: all(class_verdict(r, c) for c in form.split("+"))


# ---------------------------------------------------------------------------
# the runner.  `_each(...)` returns rings -> (scope_size, counterexamples,
# notes); `_agree` and `_transfer` hand it a test built from their rows.


def _each(test, where=None, instances=None, notes: str = ""):
    """Runner: `test(item)` returns the counterexamples of one item in scope.

    The scope is the rings given (else the catalog) or, with `instances`,
    the fixed expressions among them (`_instances`).  Only the items where
    `where(item)` holds are in scope, and only they count towards its size.
    """
    def run(rings):
        scope = _scope(rings) if instances is None else _instances(instances, rings)
        if where is not None:
            scope = [item for item in scope if where(item)]
        return len(scope), [c for item in scope for c in test(item)], notes
    return run


def _agree(forms, hypothesis=None, notes: str = ""):
    """Runner: the verdict forms coincide on every ring in scope.

    A form is a conjunction of classes written "a+b+c".  `hypothesis` is an
    optional (predicate, note) pair, re-verified on each ring first; a ring
    that fails it is a counterexample under that note.
    """
    def test(r):
        if hypothesis is not None and not hypothesis[0](r):
            return [_counterexample(r, hypothesis[1])]
        verdicts = {f: _holds(f)(r) for f in forms}
        if len(set(verdicts.values())) != 1:
            return [_counterexample(r, f"equivalence broken: {verdicts}")]
        return []
    return _each(test, notes=notes)


def _parts(expr: dsl.RingExpr) -> tuple[dsl.RingExpr, ...]:
    """The rings a construction is made from: a product's factors, else its base."""
    return expr.factors if isinstance(expr, dsl.Product) else (expr.base,)


def _transfer(rows, notes: str, one_way: bool = False, side=None):
    """Runner: each construction in `rows` is 2-delta-u exactly when every
    one of its `_parts` is.

    Rows are expression strings, filtered like every fixed instance.  With
    `one_way` only the "only if" half is checked: a 2-delta-u construction
    forces 2-delta-u parts.  `side(expr, built, parts)` returns the note of
    a failed extra hypothesis or identity, or None; it is asked first.
    """
    def test(expr):
        built = dsl.build(expr)
        parts = [dsl.build(p) for p in _parts(expr)]
        note = side(expr, built, parts) if side is not None else None
        if note is None:
            whole = class_verdict(built, "2-delta-u")
            each = all(class_verdict(p, "2-delta-u") for p in parts)
            if whole != each and (whole or not one_way):
                note = f"construction={whole}, parts={each}"
        return [] if note is None else [_counterexample(built, note)]
    return _each(test, instances=rows, notes=notes)


def _radical_nil(r: FiniteRing) -> bool:
    return bool(subsets.nilpotent_mask(r)[np.flatnonzero(subsets.jacobson_mask(r))].all())


def _central_radical_scalar(expr, built, parts) -> str | None:
    """T4.9's hypothesis: the scalar lies in the center and in J(R)."""
    base, s = parts[0], expr.scalar
    if not (subsets.jacobson_mask(base)[s] and core.is_central(base, s)):
        return f"scalar {s} is not in the center-radical"
    return None


def _squared_scalar_twin(expr, built, parts) -> str | None:
    """T4.10: T4.9's hypothesis, and FM(2,R;s) has the tables of K(R,s^2)."""
    note = _central_radical_scalar(expr, built, parts)
    if note is None:
        s = expr.scalar
        twin = dsl.build(dsl.Ks(expr.base, int(parts[0].mul[s, s])))
        if not (np.array_equal(built.add, twin.add) and np.array_equal(built.mul, twin.mul)):
            note = "tables differ from the squared-scalar block ring"
    return note


def _context_isomorphism(expr, built, parts) -> str | None:
    """T4.11: (a,x,y,b) -> ((a,b),(x,y)) maps the trivial context K(R,0)
    isomorphically onto the trivial extension of R x R by M+N."""
    base = parts[0]
    n = base.order
    prod = dsl.build(dsl.Product((expr.base, expr.base)))
    triv = cons.trivial_extension(prod, _cross_bimodule(prod, base))
    a, x, y, b = np.unravel_index(np.arange(built.order), (n,) * 4)
    try:
        hom = core.validate_hom(built, triv, (a * n + b) * (n * n) + x * n + y)
    except core.HomViolation:
        return "coordinate map is not an isomorphism"
    if not (hom.is_injective and hom.is_surjective):
        return "coordinate map is not bijective"
    return None


def _cross_bimodule(prod: FiniteRing, R: FiniteRing) -> cons.Bimodule:
    """M+N over R x R with M = N = R: (a,b).(m,n) = (am,bn) and
    (m,n).(a,b) = (mb,na).  Its laws are proven by the ring built on it.

    `prod` is Prod(R,R), whose element (a,b) is a*|R| + b, and (m,n) is
    encoded the same way: so M+N adds and acts on the left by prod's own
    tables, and acts on the right by prod's product with the coordinates of
    (a,b) swapped.  No table cell takes part in arithmetic."""
    a, b = np.divmod(np.arange(prod.order), R.order)
    ra = np.take(prod.mul, b * R.order + a, axis=1)
    return cons.Bimodule(prod, prod, prod.order, prod.add, prod.mul, ra, prod.zero, "MxN",
                         tuple(str(i) for i in range(prod.order)))


# ---------------------------------------------------------------------------
# the remaining tests, one per check: a ring (or a fixed instance) in, its
# counterexamples out.  T3.8 is a plain runner.


def _test_T2_1(r):
    u_idx = np.flatnonzero(subsets.unit_mask(r))
    uu = subsets.sumset_mask(r, u_idx, u_idx)
    if (uu & ~subsets.delta_mask(r)).any():
        a = int(np.flatnonzero(uu & ~subsets.delta_mask(r))[0])
        return [_counterexample(r, "a unit sum escapes the delta set",
                                [Witness("unit-sum", a, r.names[a])])]
    if not class_verdict(r, "uuc"):
        return [_counterexample(r, "delta-u ring is not uuc", check_class(r, "uuc").witness)]
    if (np.flatnonzero(uu & subsets.idempotent_mask(r)) != r.zero).any():
        return [_counterexample(r, "(U+U) meets the idempotents beyond 0")]
    return []


def _test_T2_2(r):
    for ring in (r, subsets.radical_quotient(r)[0]):
        u_idx = np.flatnonzero(subsets.unit_mask(ring))
        if subsets.sumset_mask(ring, u_idx, u_idx)[ring.one]:
            return [_counterexample(r, f"two units of {ring.label} sum to 1")]
    return []


def _test_T2_4(r):
    if not class_verdict(r, "semipotent"):
        return [_counterexample(r, "finite ring failed the semipotent hypothesis")]
    quotient, _ = subsets.radical_quotient(r)
    verdicts = {
        "delta-u": class_verdict(r, "delta-u"),
        "quotient-boolean": class_verdict(quotient, "boolean"),
        "uj": class_verdict(r, "uj"),
        "quotient-uu": class_verdict(quotient, "uu"),
    }
    if len(set(verdicts.values())) != 1:
        return [_counterexample(r, f"equivalence broken: {verdicts}")]
    return []


def _test_T2_11(r):
    rep = jacobson_pair_check(r)
    return [] if rep.verdict else [
        _counterexample(r, "1-ab and 1-ba disagree about the delta set", rep.witness)]


def _test_T3_5(r):
    base = class_verdict(r, "2-delta-u")
    for ideal in ideals_inside_radical(r):
        quotient, _ = core.quotient_ring(r, ideal)
        if class_verdict(quotient, "2-delta-u") != base:
            return [_counterexample(
                r, f"quotient by {np.flatnonzero(ideal).tolist()} flips the 2-delta-u verdict")]
    return []


def _test_T3_7(r):
    for e in map(int, np.flatnonzero(subsets.idempotent_mask(r))):
        if e == r.zero:
            continue
        corner = core.corner_ring(r, e)
        if not class_verdict(corner, "2-delta-u"):
            return [_counterexample(r, f"corner at idempotent {e} is not 2-delta-u",
                                    [Witness("idempotent", e, r.names[e])])]
    return []


def _run_T3_8(rings):
    exprs = _instances(("M(2,Z2)", "M(2,Z3)"), rings)
    bad = []
    certs = []
    for expr in exprs:
        ring, base = dsl.build(expr), dsl.build(expr.base)
        rep = check_class(ring, "2-delta-u")
        if rep.verdict:
            bad.append(_counterexample(ring, "matrix ring unexpectedly 2-delta-u"))
            continue
        if not revalidate_witness(ring, rep):
            bad.append(_counterexample(ring, "scan witness failed revalidation", rep.witness))
            continue
        a = cons.matrix_index(base, 2, [[base.zero, base.one], [base.one, base.one]])
        sq_minus = ring.sub(ring.pow(a, 2), ring.one)
        manual = CheckReport(ring.label, "2-delta-u", False,
                             [Witness("unit", a, ring.names[a]),
                              Witness("unit-square-minus-one", sq_minus, ring.names[sq_minus])])
        if sq_minus != a or not revalidate_witness(ring, manual):
            bad.append(_counterexample(ring, "the [[0,1],[1,1]] witness was not accepted"))
            continue
        certs.append(f"{ring.label}: unit {ring.names[a]} has u^2-1 = u outside the delta set")
    return len(exprs), bad, "; ".join(certs) if certs else "no instances in scope"


def _test_T3_15(r):
    delta = subsets.delta_mask(r)
    sq = r.mul.diagonal()
    closed = not (delta[sq] & ~delta).any()
    rhs = _two_in_delta(r) and class_verdict(r, "2-delta-u") and closed
    lhs = class_verdict(r, "delta-u")
    return [] if lhs == rhs else [_counterexample(
        r, f"delta-u={lhs} but [2 in Delta]={_two_in_delta(r)} "
           f"2-delta-u={class_verdict(r, '2-delta-u')} sqrt-closed={closed}")]


def _test_T3_17(r):
    # they must agree, and on finite rings they are moreover all true
    v = {k: class_verdict(r, k) for k in ("semiregular", "exchange", "clean")}
    return [] if all(v.values()) else [_counterexample(r, f"expected all true, got {v}")]


_FIELD_PRODUCTS = ("Prod(GF(2),GF(2))", "Prod(GF(2),GF(3))", "Prod(GF(3),GF(3))",
                   "Prod(GF(2),GF(4))", "Prod(GF(4),GF(5))", "Prod(GF(3),GF(3),GF(2))",
                   "Prod(GF(8),GF(2))", "Prod(GF(9),GF(3))", "Prod(GF(5),GF(5))",
                   "Prod(GF(2),GF(3),GF(7))")


def _test_T3_26(expr):
    ring = dsl.build(expr)
    expected = all(f.param in (2, 3) for f in expr.factors)
    got = class_verdict(ring, "2-delta-u")
    return [] if got == expected else [
        _counterexample(ring, f"verdict {got}, factor rule says {expected}")]


def _test_T3_27(r):
    u_idx = np.flatnonzero(subsets.unit_mask(r))
    squares = np.flatnonzero(core._marked(r.mul[u_idx, u_idx], r.order))
    total = subsets.sumset_mask(r, squares, squares)
    if (total & ~subsets.delta_mask(r)).any():
        a = int(np.flatnonzero(total & ~subsets.delta_mask(r))[0])
        return [_counterexample(r, "a sum of two unit squares escapes the delta set",
                                [Witness("sum", a, r.names[a])])]
    if (np.flatnonzero(total & subsets.idempotent_mask(r)) != r.zero).any():
        return [_counterexample(r, "(U^2+U^2) meets the idempotents beyond 0")]
    return []


def _test_T3_28(r):
    return [] if class_verdict(r, "dedekind-finite") else [
        _counterexample(r, "finite ring not dedekind-finite: implementation bug")]


def _test_T4_5x(expr):
    ring, base = dsl.build(expr), dsl.build(expr.base)
    lead = (np.arange(ring.order, dtype=np.int64)
            // (ring.order // base.order)).astype(np.int32)
    same = np.array_equal(subsets.delta_mask(ring), subsets.delta_mask(base)[lead])
    return [] if same else [_counterexample(
        ring, "delta set is not [constant coefficient in the base delta set]")]


_P_GROUP_INSTANCES = ("GR(Z2,C2)", "GR(Z4,C2)", "GR(Z2,V4)", "GR(Z9,C3)")


def _test_TG2(expr):
    base = dsl.build(expr.base)
    p = cons.group_catalog()[expr.group].prime
    if p is None:
        return [_counterexample(base, f"{expr.group} is not a prime-power group")]
    p_elem = base.zero
    for _ in range(p):
        p_elem = int(base.add[p_elem, base.one])
    if not subsets.jacobson_mask(base)[p_elem]:
        return [_counterexample(base, f"{p}*1 is not in the radical")]
    if not class_verdict(base, "2-delta-u"):
        return [_counterexample(base, "chosen base ring is not 2-delta-u")]
    ring = dsl.build(expr)
    if not class_verdict(ring, "2-delta-u"):
        return [_counterexample(ring, "group ring over a fitting p-group is not 2-delta-u")]
    return []


def _test_TG3(expr):
    ring = dsl.build(expr)
    if class_verdict(ring, "2-delta-u") and _two_in_delta(ring):
        return [_counterexample(ring, "2-delta-u with 2 in the delta set over a non-2-group")]
    return []


def _test_TL4_14(expr):
    ring = dsl.build(expr)
    _, kernel = cons.augmentation(ring, dsl.build(expr.base), cons.group_catalog()[expr.group])
    inside = subsets.jacobson_mask(ring)[kernel].all()
    return [] if inside else [_counterexample(ring, "augmentation ideal escapes the radical")]


def _test_oracle(r):
    sub, elems = subsets.unit_subring(r)
    mapped = np.zeros(r.order, dtype=bool)
    mapped[elems[subsets.jacobson_mask(sub)]] = True
    return [] if np.array_equal(mapped, subsets.delta_mask(r)) else [
        _counterexample(r, "delta set differs from the unit-subring radical")]


_DIAGRAM_ARROWS = [("uj", "2-uj"), ("uj", "delta-u"), ("2-uj", "2-delta-u"),
                   ("delta-u", "2-delta-u"), ("delta-u", "uuc")]


def _test_diagram(r):
    return [_counterexample(r, f"{low} holds but {high} fails")
            for low, high in _DIAGRAM_ARROWS
            if class_verdict(r, low) and not class_verdict(r, high)]


CHECKS: dict[str, tuple[str, object]] = {
    "T2.1": ("On delta-u rings, unit sums land in the delta set, units are uniquely clean, "
             "and (U+U) meets the idempotents only in 0.",
             _each(_test_T2_1, _holds("delta-u"), notes="scope: catalog rings verified delta-u")),
    "T2.2": ("On delta-u rings, no two units sum to 1, in the ring or its radical quotient.",
             _each(_test_T2_2, _holds("delta-u"), notes="scope: catalog rings verified delta-u")),
    "T2.4": ("On finite (hence semipotent) rings: delta-u, Boolean radical quotient, uj, "
             "and uu radical quotient are one condition.",
             _each(_test_T2_4,
                   notes="finite rings are semipotent; the hypothesis is re-verified")),
    "T2.8": ("On finite rings the classes delta-u, uj, and uu coincide.",
             _agree(("delta-u", "uj", "uu"))),
    "T2.9": ("On finite rings delta-u and j-clean coincide.",
             _agree(("delta-u", "j-clean"),
                    notes="finite rings are potent, so the two classes must agree")),
    "T2.11": ("On delta-u rings, 1-ab is in the delta set exactly when 1-ba is.",
              _each(_test_T2_11, _holds("delta-u"), notes="scope: catalog rings verified delta-u")),
    "T3.1": ("A finite product is 2-delta-u exactly when every factor is.",
             _transfer(_CATALOG["Prod"] + ("Prod(Z3,Z9)",), "fixed product instances")),
    "T3.5": ("For every ideal inside the radical, the ring and its quotient agree "
             "about 2-delta-u.", _each(_test_T3_5, notes="every ideal inside the radical")),
    "T3.7": ("Corners of 2-delta-u rings at nonzero idempotents stay 2-delta-u.",
             _each(_test_T3_7, _holds("2-delta-u"),
                   notes="scope: catalog rings verified 2-delta-u; every nonzero idempotent")),
    "T3.8": ("2x2 matrix rings over Z2 and Z3 are not 2-delta-u, and the unit with "
             "u^2-1 = u certifies it.", _run_T3_8),
    "T3.13": ("Regular 2-delta-u, pi-regular reduced 2-delta-u, and the identity x^3 = x "
              "are one class.",
              _agree(("regular+2-delta-u", "pi-regular+reduced+2-delta-u", "tripotent"),
                     notes="x^3 = x rings are exactly the regular 2-delta-u rings")),
    "T3.14": ("Regular, strongly regular, and unit-regular 2-delta-u rings all equal the "
              "x^3 = x rings.",
              _agree(("regular+2-delta-u", "strongly-regular+2-delta-u",
                      "unit-regular+2-delta-u", "tripotent"))),
    "T3.15": ("delta-u holds exactly when 2 lies in the delta set, the ring is 2-delta-u, "
              "and delta-set membership descends along squares.", _each(_test_T3_15)),
    "T3.16": ("On finite (hence exchange) rings, 2-delta-u and semi-tripotent coincide.",
              _agree(("2-delta-u", "semi-tripotent"),
                     (_holds("exchange"), "finite ring failed the exchange hypothesis"),
                     "finite rings are exchange; the hypothesis is re-verified")),
    "T3.17": ("On 2-delta-u rings, semiregular, exchange, and clean coincide.",
              _each(_test_T3_17, _holds("2-delta-u"),
                    notes="scope: catalog rings verified 2-delta-u; "
                          "finite rings make all three hold")),
    "T3.18": ("With a nil radical, 2-delta-u and strongly 2-nil-clean coincide.",
              _agree(("2-delta-u", "strongly-2-nil-clean"),
                     (_radical_nil, "radical of a finite ring is not nil"),
                     "the nil-radical hypothesis is re-verified")),
    "T3.26": ("A product of fields is 2-delta-u exactly when every factor has 2 or 3 "
              "elements.",
              _each(_test_T3_26, instances=_FIELD_PRODUCTS,
                    notes="semisimple commutative instances: products of the built-in fields")),
    "T3.27": ("On 2-delta-u rings with 2 in the delta set, sums of two unit squares stay "
              "in the delta set and meet the idempotents only in 0.",
              _each(_test_T3_27, lambda r: _holds("2-delta-u")(r) and _two_in_delta(r),
                    notes="scope: 2-delta-u catalog rings with 2 in the delta set")),
    "T3.28": ("2-delta-u rings are dedekind-finite (automatic here: all finite rings are).",
              _each(_test_T3_28, notes="every finite ring is dedekind-finite, so 2-delta-u "
                                       "ones are too")),
    "T4.5": ("Trivial extensions, truncated skew-polynomial rings, and triangular matrix "
             "rings preserve and reflect 2-delta-u.",
             _transfer(_CATALOG["Triv"] + _CATALOG["TruncSkew"] + _CATALOG["T"]
                       + ("T(2,Z5)", "T(2,GF(4))"),
                       "trivial extensions, truncated skew rings, triangular rings")),
    "T4.5x": ("The delta set of a truncated skew-polynomial ring consists of the tuples "
              "whose constant coefficient lies in the base delta set.",
              _each(_test_T4_5x, instances=_CATALOG["TruncSkew"],
                    notes="truncation collapses the delta set onto the constant coefficient")),
    "TDT": ("The doubled trivial extension is 2-delta-u exactly when the base is.",
            _transfer(_CATALOG["DT"], "doubled trivial extensions")),
    "T4.9": ("For a central radical scalar, the scaled 2x2 block ring is 2-delta-u exactly "
             "when the base is.",
             _transfer(_CATALOG["K"],
                       "scaled 2x2 block rings with the scalar in the center-radical",
                       side=_central_radical_scalar)),
    "T4.10": ("For a central radical scalar, the scaled formal matrix ring is 2-delta-u "
              "exactly when the base is; its tables equal the squared-scalar block ring.",
              _transfer(_CATALOG["FM"] + ("FM(2,Z3,s=0)", "FM(2,Z4,s=0)", "FM(2,Z5,s=0)"),
                        "also verifies FM(2,R;s) has the same tables as K(R,s^2)",
                        side=_squared_scalar_twin)),
    "T4.11": ("A trivial 2x2 context is 2-delta-u exactly when both corners are, via the "
              "explicit isomorphism with a trivial extension.",
              _transfer(("K(Z2,s=0)", "K(Z3,s=0)", "K(Z4,s=0)"),
                        "trivial contexts match the trivial extension of the factor product",
                        side=_context_isomorphism)),
    "TG1": ("If a group ring is 2-delta-u then so is its coefficient ring.",
            _transfer(_CATALOG["GR"], "group ring 2-delta-u forces the coefficient ring 2-delta-u",
                      one_way=True)),
    "TG2": ("Over a 2-delta-u ring with the prime p in the radical, group rings of finite "
            "p-groups are 2-delta-u.",
            _each(_test_TG2, instances=_P_GROUP_INSTANCES,
                  notes="2-delta-u base with p in the radical and a p-group")),
    "TG3": ("A 2-delta-u group ring with 2 in its delta set forces a 2-group.",
            _each(_test_TG3, lambda e: cons.group_catalog()[e.group].prime != 2,
                  instances=_CATALOG["GR"],
                  notes="contrapositive on every catalog group ring with a non-2-group")),
    "TL4.14": ("With the prime p in the radical and a p-group, the augmentation ideal sits "
               "inside the radical of the group ring.",
               _each(_test_TL4_14, instances=_P_GROUP_INSTANCES,
                     notes="augmentation ideal inside the radical on the p-group instances")),
    "T-oracle": ("The delta set equals the radical of the unit-generated subring.",
                 _each(_test_oracle, notes="two independent algorithms, one identity")),
    "T-diagram": ("uj implies 2-uj and delta-u; delta-u implies 2-delta-u and uuc; 2-uj "
                  "implies 2-delta-u.",
                  _each(_test_diagram, notes="implication arrows as verdict-subset relations")),
}


def check_ids() -> list[str]:
    return list(CHECKS)


def run_check(check_id: str, rings: list[FiniteRing] | None = None,
              include_timings: bool = False) -> TheoremCheck:
    """Run one registered check; deterministic, pass iff no counterexamples."""
    if check_id not in CHECKS:
        raise UnknownCheckId(f"unknown check id {check_id!r}; known: {', '.join(CHECKS)}")
    statement, runner = CHECKS[check_id]
    start = time.monotonic()
    scope_size, counterexamples, notes = runner(rings)
    elapsed = int((time.monotonic() - start) * 1000)
    counterexamples = sorted(counterexamples, key=lambda c: c["ring"])
    if scope_size == 0:
        notes = (notes + "; " if notes else "") + "warning: empty scope, vacuous pass"
    return TheoremCheck(check_id, statement, scope_size, not counterexamples,
                        counterexamples, elapsed if include_timings else 0, notes)


# The checks that dominate a catalog run, longest first: alone in a fresh
# process on the built catalog, on a 2-core x86-64 VM, T3.5 takes
# 0.19-0.20 s, T-oracle 0.09-0.12 s and T2.4 0.07-0.08 s, every other check
# 0.07 s or less (median of 5).  Workers take checks in submission order, so
# these go first and the short checks fill in behind them.  In registry
# order T-oracle comes last and starts late on whichever worker is free,
# while the other worker idles.
_LONGEST = ("T3.5", "T-oracle", "T2.4")


# The scope and timing flag of the running `run_all`, set in the parent
# before its workers fork, so they inherit the built rings instead of
# receiving them pickled.
_INHERITED: tuple[list[FiniteRing] | None, bool] = (None, False)


def _run_inherited(check_id: str) -> TheoremCheck:
    rings, include_timings = _INHERITED
    return run_check(check_id, rings, include_timings)


def run_all(rings: list[FiniteRing] | None = None, threads: int = 1,
            include_timings: bool = False) -> list[TheoremCheck]:
    """Run every check; results in registry order regardless of scheduling.

    With `threads` above 1 the scope is built first, then the checks run on
    that many forked worker processes (at most one per check), which
    inherit the scope and every verdict memoized on it and take the
    longest checks first.  Forking is safe only while no other thread runs
    in the process, as in the CLI."""
    ids = check_ids()
    workers = min(threads or 1, len(ids))
    if workers <= 1:
        return [run_check(cid, rings, include_timings) for cid in ids]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _INHERITED
    if rings is None:
        catalog_rings()
    _INHERITED = (rings, include_timings)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        order = [*_LONGEST, *(cid for cid in ids if cid not in _LONGEST)]
        futures = {cid: pool.submit(_run_inherited, cid) for cid in order}
        return [futures[cid].result() for cid in ids]
    finally:
        pool.shutdown(cancel_futures=True)
        _INHERITED = (None, False)


def summary(results: list[TheoremCheck]) -> str:
    lines = [str(r) for r in results]
    passed = sum(r.verdict for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)


def results_to_json(results: list[TheoremCheck]) -> str:
    payload = {"checks": [r.to_json() for r in results],
               "verdict": all(r.verdict for r in results)}
    return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# class search


def search_classes(include: list[str], exclude: list[str],
                   max_order: int | None = None,
                   rings: list[FiniteRing] | None = None) -> list[str]:
    """Catalog rings in all `include` classes and none of the `exclude`
    classes, sorted by order then label."""
    for name in [*include, *exclude]:
        class_key(name)
    pool = _scope(rings)
    if max_order is not None:
        pool = [r for r in pool if r.order <= max_order]
    hits = []
    for r in pool:
        if all(class_verdict(r, c) for c in include) and \
                not any(class_verdict(r, c) for c in exclude):
            hits.append(r)
    hits.sort(key=lambda r: (r.order, r.label))
    return [r.label for r in hits]
