"""Desk-scale theorem checks over the ring catalog, plus class search.

Each registered check encodes one statement as an executable assertion
over a ring set (or over fixed construction instances).  Biconditionals
are always evaluated by computing both sides independently; hypotheses
that are automatic for finite rings (exchange, potent, artinian, nil
radical) are re-verified rather than assumed wherever that is cheap.

Reports are deterministic: two runs over the same catalog are
byte-identical (timings default to zero and are opt-in).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import constructions as cons
from . import core, dsl, subsets
from .core import ElementSet, FiniteRing, RingHom
from .errors import UnknownCheckId, UnknownClass
from .predicates import check_class, class_verdict, revalidate_witness
from .report import Witness


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
    out = {"ring": ring.label, "notes": notes}
    if witness:
        out["witness"] = [w.to_json() for w in witness]
    else:
        out["witness"] = []
    return out


# ---------------------------------------------------------------------------
# catalog access

_CATALOG_RINGS: list[FiniteRing] | None = None


def catalog_rings() -> list[FiniteRing]:
    """Build (once) and return every catalog ring, in catalog order."""
    global _CATALOG_RINGS
    if _CATALOG_RINGS is None:
        _CATALOG_RINGS = [dsl.build(e) for _, e in dsl.catalog()]
    return _CATALOG_RINGS


def _scope(rings) -> list[FiniteRing]:
    return catalog_rings() if rings is None else list(rings)


def _labels(rings) -> set[str] | None:
    return None if rings is None else {r.label for r in rings}


def _keep(label: str, allowed: set[str] | None) -> bool:
    return allowed is None or label in allowed


# ---------------------------------------------------------------------------
# helpers shared by several checks


def units_lift(hom: RingHom) -> tuple[bool, int | None]:
    """Does every unit of the target have a unit preimage?  Returns the
    smallest unliftable target unit otherwise."""
    src_units = np.flatnonzero(subsets.unit_mask(hom.source))
    covered = np.zeros(hom.target.order, dtype=bool)
    covered[hom.map[src_units]] = True
    missing = subsets.unit_mask(hom.target) & ~covered
    hits = np.flatnonzero(missing)
    if hits.size == 0:
        return True, None
    return False, int(hits[0])


def ideals_inside_radical(ring: FiniteRing) -> list[ElementSet]:
    """Every two-sided ideal contained in J(R), sorted by index tuple.

    Each such ideal is a sum of principal ideals generated inside J(R), so
    the search takes one closure per radical element and then closes {0}
    under I -> I + P over the distinct principal ideals P, one sumset each.
    """
    principal: dict[bytes, np.ndarray] = {}
    for a in np.flatnonzero(subsets.jacobson_mask(ring)):
        members = core.ideal_generated(ring, [int(a)]).members
        principal.setdefault(members.tobytes(), members)
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
    ideals = [ElementSet(ring, mask) for mask in seen.values()]
    return sorted(ideals, key=lambda ideal: ideal.indices)


def _sumset(ring: FiniteRing, a_idx, b_idx) -> np.ndarray:
    return subsets.sumset_mask(ring, np.asarray(a_idx, dtype=np.int64),
                               np.asarray(b_idx, dtype=np.int64))


def _two_in_delta(ring: FiniteRing) -> bool:
    two = int(ring.add[ring.one, ring.one])
    return bool(subsets.delta_mask(ring)[two])


# ---------------------------------------------------------------------------
# per-check runners.  Each returns (scope_size, counterexamples, notes).


def _run_T2_1(rings):
    scope = [r for r in _scope(rings) if class_verdict(r, "delta-u")]
    bad = []
    for r in scope:
        u_idx = np.flatnonzero(subsets.unit_mask(r))
        uu = _sumset(r, u_idx, u_idx)
        if (uu & ~subsets.delta_mask(r)).any():
            a = int(np.flatnonzero(uu & ~subsets.delta_mask(r))[0])
            bad.append(_counterexample(r, "a unit sum escapes the delta set",
                                       [Witness("unit-sum", a, r.names[a])]))
            continue
        if not class_verdict(r, "uuc"):
            bad.append(_counterexample(r, "delta-u ring is not uuc",
                                       check_class(r, "uuc").witness))
            continue
        idm = subsets.idempotent_mask(r)
        meet = np.flatnonzero(uu & idm)
        if any(int(e) != r.zero for e in meet):
            bad.append(_counterexample(r, "(U+U) meets the idempotents beyond 0"))
    return len(scope), bad, "scope: catalog rings verified delta-u"


def _run_T2_2(rings):
    scope = [r for r in _scope(rings) if class_verdict(r, "delta-u")]
    bad = []
    for r in scope:
        for ring in (r, subsets.radical_quotient(r)[0]):
            u_idx = np.flatnonzero(subsets.unit_mask(ring))
            if _sumset(ring, u_idx, u_idx)[ring.one]:
                bad.append(_counterexample(r, f"two units of {ring.label} sum to 1"))
                break
    return len(scope), bad, "scope: catalog rings verified delta-u"


def _run_T2_4(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        if not class_verdict(r, "semipotent"):
            bad.append(_counterexample(r, "finite ring failed the semipotent hypothesis"))
            continue
        quotient, _ = subsets.radical_quotient(r)
        verdicts = {
            "delta-u": class_verdict(r, "delta-u"),
            "quotient-boolean": class_verdict(quotient, "boolean"),
            "uj": class_verdict(r, "uj"),
            "quotient-uu": class_verdict(quotient, "uu"),
        }
        if len(set(verdicts.values())) != 1:
            bad.append(_counterexample(r, f"equivalence broken: {verdicts}"))
    return len(scope), bad, "finite rings are semipotent; the hypothesis is re-verified"


def _run_T2_8(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        a, b, c = (class_verdict(r, k) for k in ("delta-u", "uj", "uu"))
        if not (a == b == c):
            bad.append(_counterexample(r, f"delta-u={a} uj={b} uu={c}"))
    return len(scope), bad, ""


def _run_T2_9(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        a, b = class_verdict(r, "delta-u"), class_verdict(r, "j-clean")
        if a != b:
            bad.append(_counterexample(r, f"delta-u={a} j-clean={b}"))
    return len(scope), bad, "finite rings are potent, so the two classes must agree"


def _run_T2_11(rings):
    from .predicates import jacobson_pair_check
    scope = [r for r in _scope(rings) if class_verdict(r, "delta-u")]
    bad = []
    for r in scope:
        rep = jacobson_pair_check(r)
        if not rep.verdict:
            bad.append(_counterexample(r, "1-ab and 1-ba disagree about the delta set",
                                       rep.witness))
    return len(scope), bad, "scope: catalog rings verified delta-u"


_PRODUCT_INSTANCES = ["Prod(Z2,Z2)", "Prod(Z2,Z3)", "Prod(Z3,Z3)", "Prod(Z2,Z2,Z2)",
                      "Prod(Z2,Z5)", "Prod(Z4,Z9)", "Prod(GF(4),Z2)", "Prod(Z3,Z9)",
                      "Prod(Z8,Z27)"]


def _run_T3_1(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for text in _PRODUCT_INSTANCES:
        if not _keep(text, allowed):
            continue
        expr = dsl.parse(text)
        product = dsl.build(expr)
        factors = [dsl.build(f) for f in expr.factors]
        scope += 1
        lhs = class_verdict(product, "2-delta-u")
        rhs = all(class_verdict(f, "2-delta-u") for f in factors)
        if lhs != rhs:
            bad.append(_counterexample(product, f"product={lhs}, factors={rhs}"))
    return scope, bad, "fixed product instances"


def _run_T3_5(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        base = class_verdict(r, "2-delta-u")
        for ideal in ideals_inside_radical(r):
            quotient, _ = core.quotient_ring(r, ideal)
            if class_verdict(quotient, "2-delta-u") != base:
                bad.append(_counterexample(
                    r, f"quotient by {ideal.indices} flips the 2-delta-u verdict"))
                break
    return len(scope), bad, "every ideal inside the radical"


def _run_T3_7(rings):
    scope = [r for r in _scope(rings) if class_verdict(r, "2-delta-u")]
    bad = []
    for r in scope:
        for e in np.flatnonzero(subsets.idempotent_mask(r)):
            e = int(e)
            if e == r.zero:
                continue
            corner = core.corner_ring(r, e)
            if not class_verdict(corner, "2-delta-u"):
                bad.append(_counterexample(r, f"corner at idempotent {e} is not 2-delta-u",
                                           [Witness("idempotent", e, r.names[e])]))
                break
    return len(scope), bad, "scope: catalog rings verified 2-delta-u; every nonzero idempotent"


def _run_T3_8(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    certs = []
    for text in ("M(2,Z2)", "M(2,Z3)"):
        if not _keep(text, allowed):
            continue
        scope += 1
        ring = dsl.build_str(text)
        base = dsl.build(dsl.parse(text).base)
        rep = check_class(ring, "2-delta-u")
        if rep.verdict:
            bad.append(_counterexample(ring, "matrix ring unexpectedly 2-delta-u"))
            continue
        if not revalidate_witness(ring, rep):
            bad.append(_counterexample(ring, "scan witness failed revalidation", rep.witness))
            continue
        a = cons.matrix_index(base, 2, [[base.zero, base.one], [base.one, base.one]])
        sq_minus = ring.sub(ring.pow(a, 2), ring.one)
        manual = core.CheckReport(ring.label, "2-delta-u", False,
                                  [Witness("unit", a, ring.names[a]),
                                   Witness("unit-square-minus-one", sq_minus, ring.names[sq_minus])])
        if sq_minus != a or not revalidate_witness(ring, manual):
            bad.append(_counterexample(ring, "the [[0,1],[1,1]] witness was not accepted"))
            continue
        certs.append(f"{ring.label}: unit {ring.names[a]} has u^2-1 = u outside the delta set")
    return scope, bad, "; ".join(certs) if certs else "no instances in scope"


def _run_T3_13(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        lhs = class_verdict(r, "regular") and class_verdict(r, "2-delta-u")
        mid = (class_verdict(r, "pi-regular") and class_verdict(r, "reduced")
               and class_verdict(r, "2-delta-u"))
        rhs = class_verdict(r, "tripotent")
        if not (lhs == mid == rhs):
            bad.append(_counterexample(r, f"regular+2du={lhs} pi+reduced+2du={mid} tripotent={rhs}"))
    return len(scope), bad, "x^3 = x rings are exactly the regular 2-delta-u rings"


def _run_T3_14(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        two_du = class_verdict(r, "2-delta-u")
        forms = {
            "regular": class_verdict(r, "regular") and two_du,
            "strongly-regular": class_verdict(r, "strongly-regular") and two_du,
            "unit-regular": class_verdict(r, "unit-regular") and two_du,
            "tripotent": class_verdict(r, "tripotent"),
        }
        if len(set(forms.values())) != 1:
            bad.append(_counterexample(r, f"equivalence broken: {forms}"))
    return len(scope), bad, ""


def _run_T3_15(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        delta = subsets.delta_mask(r)
        sq = r.mul.diagonal()
        closed = not (delta[sq] & ~delta).any()
        rhs = _two_in_delta(r) and class_verdict(r, "2-delta-u") and closed
        lhs = class_verdict(r, "delta-u")
        if lhs != rhs:
            bad.append(_counterexample(
                r, f"delta-u={lhs} but [2 in Delta]={_two_in_delta(r)} "
                   f"2-delta-u={class_verdict(r, '2-delta-u')} sqrt-closed={closed}"))
    return len(scope), bad, ""


def _run_T3_16(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        if not class_verdict(r, "exchange"):
            bad.append(_counterexample(r, "finite ring failed the exchange hypothesis"))
            continue
        a, b = class_verdict(r, "2-delta-u"), class_verdict(r, "semi-tripotent")
        if a != b:
            bad.append(_counterexample(r, f"2-delta-u={a} semi-tripotent={b}"))
    return len(scope), bad, "finite rings are exchange; the hypothesis is re-verified"


def _run_T3_17(rings):
    scope = [r for r in _scope(rings) if class_verdict(r, "2-delta-u")]
    bad = []
    for r in scope:
        v = {k: class_verdict(r, k) for k in ("semiregular", "exchange", "clean")}
        if not all(v.values()):
            # they must agree, and on finite rings they are moreover all true
            bad.append(_counterexample(r, f"expected all true, got {v}"))
    return len(scope), bad, "scope: catalog rings verified 2-delta-u; finite rings make all three hold"


def _run_T3_18(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        jac = subsets.jacobson_mask(r)
        if not subsets.nilpotent_mask(r)[np.flatnonzero(jac)].all():
            bad.append(_counterexample(r, "radical of a finite ring is not nil"))
            continue
        a, b = class_verdict(r, "2-delta-u"), class_verdict(r, "strongly-2-nil-clean")
        if a != b:
            bad.append(_counterexample(r, f"2-delta-u={a} strongly-2-nil-clean={b}"))
    return len(scope), bad, "the nil-radical hypothesis is re-verified"


_FIELD_PRODUCTS = ["Prod(GF(2),GF(2))", "Prod(GF(2),GF(3))", "Prod(GF(3),GF(3))",
                   "Prod(GF(2),GF(4))", "Prod(GF(4),GF(5))", "Prod(GF(3),GF(3),GF(2))",
                   "Prod(GF(8),GF(2))", "Prod(GF(9),GF(3))", "Prod(GF(5),GF(5))",
                   "Prod(GF(2),GF(3),GF(7))"]


def _run_T3_26(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for text in _FIELD_PRODUCTS:
        if not _keep(text, allowed):
            continue
        scope += 1
        expr = dsl.parse(text)
        ring = dsl.build(expr)
        expected = all(f.param in (2, 3) for f in expr.factors)
        got = class_verdict(ring, "2-delta-u")
        if got != expected:
            bad.append(_counterexample(ring, f"verdict {got}, factor rule says {expected}"))
    return scope, bad, "semisimple commutative instances: products of the built-in fields"


def _run_T3_27(rings):
    scope = [r for r in _scope(rings)
             if class_verdict(r, "2-delta-u") and _two_in_delta(r)]
    bad = []
    for r in scope:
        u_idx = np.flatnonzero(subsets.unit_mask(r))
        squares = np.unique(r.mul[u_idx, u_idx])
        total = _sumset(r, squares, squares)
        if (total & ~subsets.delta_mask(r)).any():
            a = int(np.flatnonzero(total & ~subsets.delta_mask(r))[0])
            bad.append(_counterexample(r, "a sum of two unit squares escapes the delta set",
                                       [Witness("sum", a, r.names[a])]))
            continue
        meet = np.flatnonzero(total & subsets.idempotent_mask(r))
        if any(int(e) != r.zero for e in meet):
            bad.append(_counterexample(r, "(U^2+U^2) meets the idempotents beyond 0"))
    return len(scope), bad, "scope: 2-delta-u catalog rings with 2 in the delta set"


def _run_T3_28(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        if not class_verdict(r, "dedekind-finite"):
            bad.append(_counterexample(r, "finite ring not dedekind-finite: implementation bug"))
    return len(scope), bad, "every finite ring is dedekind-finite, so 2-delta-u ones are too"


_TRIV_BASES = ["Z2", "Z3", "Z4", "Z5", "Z6", "GF(4)"]
_TRUNC_INSTANCES = ["TruncSkew(Z2,id,2)", "TruncSkew(Z2,id,3)", "TruncSkew(Z3,id,2)",
                    "TruncSkew(Z4,id,2)", "TruncSkew(Z5,id,2)",
                    "TruncSkew(GF(4),frob,2)", "TruncSkew(GF(4),id,2)"]
_TRI_INSTANCES = ["T(2,Z2)", "T(2,Z3)", "T(2,Z4)", "T(2,Z5)", "T(3,Z2)", "T(3,Z3)",
                  "T(2,GF(4))"]


def _run_T4_5(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    pairs: list[tuple[str, str]] = []
    pairs += [(f"Triv({b},{b})", b) for b in _TRIV_BASES]
    pairs += [(t, dsl.print_expr(dsl.parse(t).base)) for t in _TRUNC_INSTANCES]
    pairs += [(t, dsl.print_expr(dsl.parse(t).base)) for t in _TRI_INSTANCES]
    for text, base_text in pairs:
        if not _keep(text, allowed):
            continue
        scope += 1
        built = dsl.build_str(text)
        base = dsl.build_str(base_text)
        lhs, rhs = class_verdict(built, "2-delta-u"), class_verdict(base, "2-delta-u")
        if lhs != rhs:
            bad.append(_counterexample(built, f"extension={lhs}, base={rhs}"))
    return scope, bad, "trivial extensions, truncated skew rings, triangular rings"


def _run_T4_5x(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for text in _TRUNC_INSTANCES:
        if not _keep(text, allowed):
            continue
        scope += 1
        expr = dsl.parse(text)
        ring = dsl.build(expr)
        base = dsl.build(expr.base)
        lead = (np.arange(ring.order, dtype=np.int64)
                // (ring.order // base.order)).astype(np.int32)
        expected = subsets.delta_mask(base)[lead]
        if not np.array_equal(subsets.delta_mask(ring), expected):
            bad.append(_counterexample(
                ring, "delta set is not [constant coefficient in the base delta set]"))
    return scope, bad, "truncation collapses the delta set onto the constant coefficient"


def _run_TDT(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for b in ("Z2", "Z3", "Z4", "Z5"):
        text = f"DT({b},{b})"
        if not _keep(text, allowed):
            continue
        scope += 1
        built = dsl.build_str(text)
        base = dsl.build_str(b)
        lhs, rhs = class_verdict(built, "2-delta-u"), class_verdict(base, "2-delta-u")
        if lhs != rhs:
            bad.append(_counterexample(built, f"doubled extension={lhs}, base={rhs}"))
    return scope, bad, "doubled trivial extensions"


_KS_INSTANCES = [("Z2", 0), ("Z3", 0), ("Z4", 0), ("Z4", 2), ("Z5", 0), ("GF(4)", 0)]


def _run_T4_9(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for base_text, s in _KS_INSTANCES:
        text = f"K({base_text},s={s})"
        if not _keep(text, allowed):
            continue
        scope += 1
        base = dsl.build_str(base_text)
        if not subsets.jacobson_mask(base)[s] or not core.center(base).members[s]:
            bad.append(_counterexample(base, f"scalar {s} is not in the center-radical"))
            continue
        built = dsl.build_str(text)
        lhs, rhs = class_verdict(built, "2-delta-u"), class_verdict(base, "2-delta-u")
        if lhs != rhs:
            bad.append(_counterexample(built, f"block ring={lhs}, base={rhs}"))
    return scope, bad, "scaled 2x2 block rings with the scalar in the center-radical"


_FM_INSTANCES = [("Z2", 0), ("Z3", 0), ("Z4", 0), ("Z4", 2), ("Z5", 0)]


def _run_T4_10(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for base_text, s in _FM_INSTANCES:
        text = f"FM(2,{base_text},s={s})"
        if not _keep(text, allowed):
            continue
        scope += 1
        base = dsl.build_str(base_text)
        if not subsets.jacobson_mask(base)[s] or not core.center(base).members[s]:
            bad.append(_counterexample(base, f"scalar {s} is not in the center-radical"))
            continue
        built = dsl.build_str(text)
        lhs, rhs = class_verdict(built, "2-delta-u"), class_verdict(base, "2-delta-u")
        if lhs != rhs:
            bad.append(_counterexample(built, f"formal matrix ring={lhs}, base={rhs}"))
            continue
        s_sq = int(base.mul[s, s])
        twin = dsl.build_str(f"K({base_text},s={s_sq})")
        if not (np.array_equal(built.add, twin.add) and np.array_equal(built.mul, twin.mul)):
            bad.append(_counterexample(built, "tables differ from the squared-scalar block ring"))
    return scope, bad, "also verifies FM(2,R;s) has the same tables as K(R,s^2)"


def _run_T4_11(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for b in ("Z2", "Z3", "Z4"):
        text = f"K({b},s=0)"
        if not _keep(text, allowed):
            continue
        scope += 1
        base = dsl.build_str(b)
        block = dsl.build_str(text)
        lhs = class_verdict(block, "2-delta-u")
        rhs = class_verdict(base, "2-delta-u")
        if lhs != rhs:
            bad.append(_counterexample(block, f"trivial context={lhs}, base says {rhs}"))
            continue
        # explicit isomorphism onto the trivial extension of the product:
        # (a,x,y,b) -> ((a,b),(x,y))
        prod = cons.direct_product([base, base])
        n = base.order
        module = _cross_bimodule(prod, base, base)
        triv = cons.trivial_extension(prod, module)
        perm = np.empty(block.order, dtype=np.int32)
        for a in range(n):
            for x in range(n):
                for y in range(n):
                    for c in range(n):
                        src = ((a * n + x) * n + y) * n + c
                        perm[src] = (a * n + c) * (n * n) + (x * n + y)
        try:
            hom = core.validate_hom(block, triv, perm)
        except core.HomViolation:
            bad.append(_counterexample(block, "coordinate map is not an isomorphism"))
            continue
        if not (hom.is_injective and hom.is_surjective):
            bad.append(_counterexample(block, "coordinate map is not bijective"))
    return scope, bad, "trivial contexts match the trivial extension of the factor product"


def _cross_bimodule(prod: FiniteRing, A: FiniteRing, B: FiniteRing) -> cons.Bimodule:
    """M+N over AxB: (a,b).(m,n) = (am,bn) and (m,n).(a,b) = (mb,na),
    for the regular modules M = N = A = B."""
    n = A.order
    msize = n * n
    madd = np.empty((msize, msize), dtype=np.int32)
    for m1 in range(msize):
        x1, y1 = divmod(m1, n)
        madd[m1] = (A.add[x1][(np.arange(msize) // n)] * n
                    + B.add[y1][(np.arange(msize) % n)]).astype(np.int32)
    la = np.empty((prod.order, msize), dtype=np.int32)
    ra = np.empty((msize, prod.order), dtype=np.int32)
    marange = np.arange(msize)
    mx, my = marange // n, marange % n
    for p in range(prod.order):
        a, b = divmod(p, n)
        la[p] = A.mul[a, mx] * n + B.mul[b, my]
    for m1 in range(msize):
        x1, y1 = divmod(m1, n)
        parange = np.arange(prod.order)
        pa, pb = parange // n, parange % n
        ra[m1] = A.mul[x1, pb] * n + B.mul[y1, pa]
    return cons.validate_bimodule(prod, prod, madd, la, ra, label="MxN")


_GROUP_RING_INSTANCES = ["GR(Z2,C2)", "GR(Z2,C3)", "GR(Z2,C4)", "GR(Z2,V4)",
                         "GR(Z2,C6)", "GR(Z2,S3)", "GR(Z3,C2)", "GR(Z3,C3)",
                         "GR(Z4,C2)", "GR(Z5,C2)", "GR(Z9,C3)", "GR(GF(4),C2)"]
_P_GROUP_INSTANCES = ["GR(Z2,C2)", "GR(Z4,C2)", "GR(Z2,V4)", "GR(Z9,C3)"]


def _run_TG1(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for text in _GROUP_RING_INSTANCES:
        if not _keep(text, allowed):
            continue
        scope += 1
        expr = dsl.parse(text)
        ring = dsl.build(expr)
        base = dsl.build(expr.base)
        if class_verdict(ring, "2-delta-u") and not class_verdict(base, "2-delta-u"):
            bad.append(_counterexample(ring, "group ring 2-delta-u but base is not"))
    return scope, bad, "group ring 2-delta-u forces the coefficient ring 2-delta-u"


def _run_TG2(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for text in _P_GROUP_INSTANCES:
        if not _keep(text, allowed):
            continue
        scope += 1
        expr = dsl.parse(text)
        base = dsl.build(expr.base)
        group = cons.group_catalog()[expr.group]
        p = group.prime
        if p is None:
            bad.append(_counterexample(base, f"{expr.group} is not a prime-power group"))
            continue
        p_elem = base.zero
        for _ in range(p):
            p_elem = int(base.add[p_elem, base.one])
        if not subsets.jacobson_mask(base)[p_elem]:
            bad.append(_counterexample(base, f"{p}*1 is not in the radical"))
            continue
        if not class_verdict(base, "2-delta-u"):
            bad.append(_counterexample(base, "chosen base ring is not 2-delta-u"))
            continue
        ring = dsl.build(expr)
        if not class_verdict(ring, "2-delta-u"):
            bad.append(_counterexample(ring, "group ring over a fitting p-group is not 2-delta-u"))
    return scope, bad, "2-delta-u base with p in the radical and a p-group"


def _run_TG3(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for text in _GROUP_RING_INSTANCES:
        if not _keep(text, allowed):
            continue
        expr = dsl.parse(text)
        group = cons.group_catalog()[expr.group]
        if group.prime == 2:
            continue
        scope += 1
        ring = dsl.build(expr)
        if class_verdict(ring, "2-delta-u") and _two_in_delta(ring):
            bad.append(_counterexample(ring, "2-delta-u with 2 in the delta set over a non-2-group"))
    return scope, bad, "contrapositive on every catalog group ring with a non-2-group"


def _run_TL4_14(rings):
    allowed = _labels(rings)
    bad = []
    scope = 0
    for text in _P_GROUP_INSTANCES:
        if not _keep(text, allowed):
            continue
        scope += 1
        ring = dsl.build_str(text)
        _, kernel = cons.augmentation(ring)
        if not subsets.jacobson_mask(ring)[np.flatnonzero(kernel.members)].all():
            bad.append(_counterexample(ring, "augmentation ideal escapes the radical"))
    return scope, bad, "augmentation ideal inside the radical on the p-group instances"


def _run_oracle(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        _, sub = subsets.unit_subring(r)
        elems = subsets.unit_subring_elements(r)
        mapped = sorted(int(elems[j]) for j in subsets.jacobson_radical(sub).indices)
        if mapped != subsets.delta_set(r).indices:
            bad.append(_counterexample(r, "delta set differs from the unit-subring radical"))
    return len(scope), bad, "two independent algorithms, one identity"


_DIAGRAM_ARROWS = [("uj", "2-uj"), ("uj", "delta-u"), ("2-uj", "2-delta-u"),
                   ("delta-u", "2-delta-u"), ("delta-u", "uuc")]


def _run_diagram(rings):
    scope = _scope(rings)
    bad = []
    for r in scope:
        for low, high in _DIAGRAM_ARROWS:
            if class_verdict(r, low) and not class_verdict(r, high):
                bad.append(_counterexample(r, f"{low} holds but {high} fails"))
    return len(scope), bad, "implication arrows as verdict-subset relations"


CHECKS: dict[str, tuple[str, object]] = {
    "T2.1": ("On delta-u rings, unit sums land in the delta set, units are uniquely clean, "
             "and (U+U) meets the idempotents only in 0.", _run_T2_1),
    "T2.2": ("On delta-u rings, no two units sum to 1, in the ring or its radical quotient.",
             _run_T2_2),
    "T2.4": ("On finite (hence semipotent) rings: delta-u, Boolean radical quotient, uj, "
             "and uu radical quotient are one condition.", _run_T2_4),
    "T2.8": ("On finite rings the classes delta-u, uj, and uu coincide.", _run_T2_8),
    "T2.9": ("On finite rings delta-u and j-clean coincide.", _run_T2_9),
    "T2.11": ("On delta-u rings, 1-ab is in the delta set exactly when 1-ba is.", _run_T2_11),
    "T3.1": ("A finite product is 2-delta-u exactly when every factor is.", _run_T3_1),
    "T3.5": ("For every ideal inside the radical, the ring and its quotient agree "
             "about 2-delta-u.", _run_T3_5),
    "T3.7": ("Corners of 2-delta-u rings at nonzero idempotents stay 2-delta-u.", _run_T3_7),
    "T3.8": ("2x2 matrix rings over Z2 and Z3 are not 2-delta-u, and the unit with "
             "u^2-1 = u certifies it.", _run_T3_8),
    "T3.13": ("Regular 2-delta-u, pi-regular reduced 2-delta-u, and the identity x^3 = x "
              "are one class.", _run_T3_13),
    "T3.14": ("Regular, strongly regular, and unit-regular 2-delta-u rings all equal the "
              "x^3 = x rings.", _run_T3_14),
    "T3.15": ("delta-u holds exactly when 2 lies in the delta set, the ring is 2-delta-u, "
              "and delta-set membership descends along squares.", _run_T3_15),
    "T3.16": ("On finite (hence exchange) rings, 2-delta-u and semi-tripotent coincide.",
              _run_T3_16),
    "T3.17": ("On 2-delta-u rings, semiregular, exchange, and clean coincide.", _run_T3_17),
    "T3.18": ("With a nil radical, 2-delta-u and strongly 2-nil-clean coincide.", _run_T3_18),
    "T3.26": ("A product of fields is 2-delta-u exactly when every factor has 2 or 3 "
              "elements.", _run_T3_26),
    "T3.27": ("On 2-delta-u rings with 2 in the delta set, sums of two unit squares stay "
              "in the delta set and meet the idempotents only in 0.", _run_T3_27),
    "T3.28": ("2-delta-u rings are dedekind-finite (automatic here: all finite rings are).",
              _run_T3_28),
    "T4.5": ("Trivial extensions, truncated skew-polynomial rings, and triangular matrix "
             "rings preserve and reflect 2-delta-u.", _run_T4_5),
    "T4.5x": ("The delta set of a truncated skew-polynomial ring consists of the tuples "
              "whose constant coefficient lies in the base delta set.", _run_T4_5x),
    "TDT": ("The doubled trivial extension is 2-delta-u exactly when the base is.", _run_TDT),
    "T4.9": ("For a central radical scalar, the scaled 2x2 block ring is 2-delta-u exactly "
             "when the base is.", _run_T4_9),
    "T4.10": ("For a central radical scalar, the scaled formal matrix ring is 2-delta-u "
              "exactly when the base is; its tables equal the squared-scalar block ring.",
              _run_T4_10),
    "T4.11": ("A trivial 2x2 context is 2-delta-u exactly when both corners are, via the "
              "explicit isomorphism with a trivial extension.", _run_T4_11),
    "TG1": ("If a group ring is 2-delta-u then so is its coefficient ring.", _run_TG1),
    "TG2": ("Over a 2-delta-u ring with the prime p in the radical, group rings of finite "
            "p-groups are 2-delta-u.", _run_TG2),
    "TG3": ("A 2-delta-u group ring with 2 in its delta set forces a 2-group.", _run_TG3),
    "TL4.14": ("With the prime p in the radical and a p-group, the augmentation ideal sits "
               "inside the radical of the group ring.", _run_TL4_14),
    "T-oracle": ("The delta set equals the radical of the unit-generated subring.", _run_oracle),
    "T-diagram": ("uj implies 2-uj and delta-u; delta-u implies 2-delta-u and uuc; 2-uj "
                  "implies 2-delta-u.", _run_diagram),
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


def run_all(rings: list[FiniteRing] | None = None, threads: int = 1,
            include_timings: bool = False) -> list[TheoremCheck]:
    """Run every check; results in registry order regardless of scheduling."""
    ids = check_ids()
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {cid: pool.submit(run_check, cid, rings, include_timings)
                       for cid in ids}
            return [futures[cid].result() for cid in ids]
    return [run_check(cid, rings, include_timings) for cid in ids]


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
    from .predicates import CLASS_REGISTRY
    for name in list(include) + list(exclude):
        if name.lower() not in CLASS_REGISTRY:
            raise UnknownClass(f"unknown ring class {name!r}")
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
