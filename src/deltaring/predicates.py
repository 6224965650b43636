"""Ring-class membership tests with re-checkable witnesses.

Every predicate scans the ring exhaustively (vectorized over the tables),
returns a CheckReport, and deterministically reports the smallest
counterexample.  Verdicts are memoized on the ring; `revalidate_witness`
re-checks a false report's elements by direct arithmetic.
"""

from __future__ import annotations

import numpy as np

from . import core, subsets
from .core import FiniteRing
from .errors import UnknownClass
from .report import CheckReport, Witness

UNIT_CLASSES = ("uj", "uu", "delta-u", "uq", "unj", "uuc",
                "2-uj", "2-uu", "2-delta-u", "2-uq", "2-unj")
REGULARITY_KINDS = ("regular", "unit-regular", "strongly-regular",
                    "pi-regular", "strongly-pi-regular", "semiregular")
CLEAN_KINDS = ("clean", "exchange", "j-clean", "delta-clean",
               "strongly-nil-clean", "strongly-2-nil-clean", "semi-tripotent")
STRUCTURAL_KINDS = ("boolean", "2-boolean", "tripotent", "reduced", "abelian",
                    "dedekind-finite", "local", "division", "semisimple",
                    "semipotent", "potent", "2-primal")


def _wit(ring: FiniteRing, role: str, idx: int) -> Witness:
    return Witness(role, int(idx), ring.names[int(idx)])


def _report(ring, name, verdict, witness=(), notes=""):
    return CheckReport(ring.label, name, bool(verdict), list(witness), notes)


# ---------------------------------------------------------------------------
# named element-set selectors for the unit classes


def _named_set_mask(ring: FiniteRing, base: str) -> np.ndarray:
    if base == "uj":
        return subsets.jacobson_mask(ring)
    if base == "uu":
        return subsets.nilpotent_mask(ring)
    if base == "delta-u":
        return subsets.delta_mask(ring)
    if base == "uq":
        return subsets.quasinilpotent_mask(ring)
    if base == "unj":
        nil = np.flatnonzero(subsets.nilpotent_mask(ring))
        jac = np.flatnonzero(subsets.jacobson_mask(ring))
        # the literal sumset Nil + J, not its ideal closure
        return subsets.sumset_mask(ring, nil, jac)
    raise UnknownClass(base)


_SET_LABEL = {"uj": "J", "uu": "Nil", "delta-u": "Delta", "uq": "QN", "unj": "Nil+J"}
_SET_NOTES = {"uq": subsets.QN_DEFINITION, "unj": "literal sumset Nil+J, not its ideal closure"}


def unit_class_check(ring: FiniteRing, cls: str) -> CheckReport:
    """Unit-group classes.

    Plain classes demand U(R) = 1 + S for the named set S (both inclusions
    checked); 2-prefixed classes demand u^2 - 1 in S for every unit; uuc
    demands every unit has exactly one idempotent-plus-unit decomposition.
    """
    name = cls.lower()
    if name not in UNIT_CLASSES:
        raise UnknownClass(f"unknown unit class {cls!r}")
    u_idx = np.flatnonzero(subsets.unit_mask(ring))
    minus_one = int(ring.neg[ring.one])

    if name == "uuc":
        id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
        diffs = core._outer(ring.add, u_idx, ring.neg[id_idx])
        counts = subsets.unit_mask(ring)[diffs].sum(axis=1)
        bad = np.flatnonzero(counts != 1)
        if bad.size == 0:
            return _report(ring, name, True)
        u = int(u_idx[bad[0]])
        wits = [_wit(ring, "unit", u)]
        hits = np.flatnonzero(subsets.unit_mask(ring)[diffs[bad[0]]])
        for tag, h in zip(("a", "b"), hits[:2]):
            e = int(id_idx[h])
            wits.append(_wit(ring, f"idempotent-{tag}", e))
            wits.append(_wit(ring, f"unit-part-{tag}", ring.sub(u, e)))
        return _report(ring, name, False, wits,
                       notes=f"unit has {int(counts[bad[0]])} clean decompositions")

    two = name.startswith("2-")
    base = name[2:] if two else name
    mask = _named_set_mask(ring, base)
    notes = _SET_NOTES.get(base, "")
    if two:
        squares = ring.mul[u_idx, u_idx]
        diffs = ring.add[squares, minus_one]
        bad = np.flatnonzero(~mask[diffs])
        if bad.size:
            u = int(u_idx[bad[0]])
            return _report(ring, name, False,
                           [_wit(ring, "unit", u),
                            _wit(ring, "unit-square-minus-one", int(diffs[bad[0]]))],
                           notes or f"u^2-1 escapes {_SET_LABEL[base]}")
        return _report(ring, name, True, notes=notes)

    diffs = ring.add[u_idx, minus_one]
    bad = np.flatnonzero(~mask[diffs])
    if bad.size:
        u = int(u_idx[bad[0]])
        return _report(ring, name, False,
                       [_wit(ring, "unit", u),
                        _wit(ring, "unit-minus-one", int(diffs[bad[0]]))],
                       notes or f"u-1 escapes {_SET_LABEL[base]}")
    s_idx = np.flatnonzero(mask)
    shifted = ring.add[ring.one, s_idx]
    bad = np.flatnonzero(~subsets.unit_mask(ring)[shifted])
    if bad.size:
        s = int(s_idx[bad[0]])
        return _report(ring, name, False,
                       [_wit(ring, "set-element", s),
                        _wit(ring, "one-plus-set-element", int(shifted[bad[0]]))],
                       notes or f"1+s is not a unit for some s in {_SET_LABEL[base]}")
    return _report(ring, name, True, notes=notes)


# ---------------------------------------------------------------------------
# regularity


def regularity_check(ring: FiniteRing, kind: str) -> CheckReport:
    kind = kind.lower()
    if kind not in REGULARITY_KINDS:
        raise UnknownClass(f"unknown regularity kind {kind!r}")
    n = ring.order
    arange = np.arange(n, dtype=np.int32)

    if kind in ("regular", "unit-regular"):
        xs = ring.mul if kind == "regular" else ring.mul[:, subsets.unit_mask(ring)]
        outer = core._lookup(ring.mul, xs, arange[:, None])   # [a, x] = a*x*a
        ok = (outer == arange[:, None]).any(axis=1)
        bad = np.flatnonzero(~ok)
        if bad.size:
            return _report(ring, kind, False, [_wit(ring, "element", int(bad[0]))])
        return _report(ring, kind, True)

    if kind == "strongly-regular":
        rows = ring.mul[ring.mul.diagonal()]          # [a, r] = a^2 * r
        ok = (rows == arange[:, None]).any(axis=1)
        bad = np.flatnonzero(~ok)
        if bad.size:
            return _report(ring, kind, False, [_wit(ring, "element", int(bad[0]))])
        return _report(ring, kind, True)

    if kind in ("pi-regular", "strongly-pi-regular"):
        p = arange.copy()
        unresolved = np.ones(n, dtype=bool)
        for _ in range(n):
            idx = np.flatnonzero(unresolved)
            if idx.size == 0:
                break
            if kind == "pi-regular":
                vals = core._lookup(ring.mul, ring.mul[p[idx], :], p[idx][:, None])
                ok = (vals == p[idx][:, None]).any(axis=1)
            else:
                nxt = ring.mul[p[idx], idx]
                ok = (ring.mul[nxt, :] == p[idx][:, None]).any(axis=1)
            unresolved[idx[ok]] = False
            if not unresolved.any():
                break
            p = ring.mul[p, arange]
        bad = np.flatnonzero(unresolved)
        if bad.size:
            return _report(ring, kind, False, [_wit(ring, "element", int(bad[0]))],
                           notes=f"no exponent up to {n} works")
        return _report(ring, kind, True)

    # semiregular: R/J regular and idempotents lift
    quotient, proj = subsets.radical_quotient(ring)
    inner = regularity_check(quotient, "regular")
    if not inner.verdict:
        rep = _quotient_rep(proj, inner.witness[0].element)
        return _report(ring, kind, False, [_wit(ring, "element-with-nonregular-image", rep)],
                       notes="the radical quotient is not regular")
    unlifted = _unlifted_idempotent(ring, quotient, proj)
    if unlifted is not None:
        return _report(ring, kind, False,
                       [_wit(ring, "unlifted-idempotent-rep", unlifted)],
                       notes="an idempotent of the radical quotient has no idempotent preimage")
    return _report(ring, kind, True)


def _quotient_rep(proj: core.RingHom, q_elem: int) -> int:
    return int(np.flatnonzero(proj.map == q_elem)[0])


def _unlifted_idempotent(ring, quotient, proj) -> int | None:
    """Smallest representative of an idempotent coset with no idempotent
    preimage, or None when all lift."""
    lifted = np.zeros(quotient.order, dtype=bool)
    lifted[proj.map[np.flatnonzero(subsets.idempotent_mask(ring))]] = True
    missing = subsets.idempotent_mask(quotient) & ~lifted
    hits = np.flatnonzero(missing)
    if hits.size == 0:
        return None
    return _quotient_rep(proj, int(hits[0]))


# ---------------------------------------------------------------------------
# clean-style decompositions


def clean_check(ring: FiniteRing, kind: str) -> CheckReport:
    kind = kind.lower()
    if kind not in CLEAN_KINDS:
        raise UnknownClass(f"unknown clean kind {kind!r}")
    n = ring.order
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))

    sumsets = {
        "clean": (id_idx, np.flatnonzero(subsets.unit_mask(ring))),
        "j-clean": (id_idx, np.flatnonzero(subsets.jacobson_mask(ring))),
        "delta-clean": (id_idx, np.flatnonzero(subsets.delta_mask(ring))),
        "semi-tripotent": (np.flatnonzero(subsets.tripotent_mask(ring)),
                           np.flatnonzero(subsets.jacobson_mask(ring))),
    }
    if kind in sumsets:
        a_idx, b_idx = sumsets[kind]
        mask = subsets.sumset_mask(ring, a_idx, b_idx)
        bad = np.flatnonzero(~mask)
        if bad.size:
            return _report(ring, kind, False, [_wit(ring, "element", int(bad[0]))])
        return _report(ring, kind, True)

    if kind == "strongly-nil-clean":
        diffs = ring.add[:, ring.neg[id_idx]]         # [a, e] = a - e
        comm = subsets.commuting_matrix(ring)
        ok = (subsets.nilpotent_mask(ring)[diffs]
              & comm[id_idx[None, :], diffs]).any(axis=1)
        bad = np.flatnonzero(~ok)
        if bad.size:
            return _report(ring, kind, False, [_wit(ring, "element", int(bad[0]))])
        return _report(ring, kind, True)

    if kind == "strongly-2-nil-clean":
        comm = subsets.commuting_matrix(ring)
        grid = core._outer(comm, id_idx, id_idx)
        p1, p2 = np.nonzero(grid)
        e1, e2 = id_idx[p1], id_idx[p2]               # commuting idempotent pairs
        nil = subsets.nilpotent_mask(ring)
        neg1, neg2 = ring.neg[e1][None, :], ring.neg[e2][None, :]

        def decomposable(lo, hi):                     # [a, pair] = a - e1 - e2
            q = ring.add[ring.add[np.arange(lo, hi)[:, None], neg1], neg2]
            return (nil[q] & comm[e1[None, :], q] & comm[e2[None, :], q]).any(axis=1)
        return _block_scan(ring, kind, e1.size, decomposable)

    # exchange: some idempotent e lies in a*R with 1-e in (1-a)*R
    om = subsets.one_minus(ring)

    def exchangeable(lo, hi):
        rows = np.arange(hi - lo)[:, None]
        in_a = np.zeros((hi - lo, n), dtype=bool)
        in_a[rows, ring.mul[lo:hi]] = True
        in_b = np.zeros((hi - lo, n), dtype=bool)
        in_b[rows, ring.mul[om[lo:hi]]] = True
        return (in_a[:, id_idx] & in_b[:, om[id_idx]]).any(axis=1)
    return _block_scan(ring, kind, n, exchangeable)


def _block_scan(ring: FiniteRing, kind: str, width: int, ok_rows) -> CheckReport:
    """Scan the elements in row blocks; `ok_rows(lo, hi)` decides elements
    lo..hi-1.  The witness is the smallest element that fails."""
    for lo, hi in core._row_blocks(ring.order, width):
        ok = ok_rows(lo, hi)
        if not ok.all():
            return _report(ring, kind, False, [_wit(ring, "element", lo + int(np.argmin(ok)))])
    return _report(ring, kind, True)


# ---------------------------------------------------------------------------
# structural classes


def structural_check(ring: FiniteRing, kind: str) -> CheckReport:
    kind = kind.lower()
    if kind not in STRUCTURAL_KINDS:
        raise UnknownClass(f"unknown structural kind {kind!r}")
    n = ring.order
    arange = np.arange(n, dtype=np.int32)

    if kind == "boolean":
        bad = np.flatnonzero(~subsets.idempotent_mask(ring))
        if bad.size:
            a = int(bad[0])
            return _report(ring, kind, False,
                           [_wit(ring, "element", a), _wit(ring, "square", int(ring.mul[a, a]))])
        return _report(ring, kind, True)

    if kind == "2-boolean":
        sq = ring.mul.diagonal()
        bad = np.flatnonzero(ring.mul[sq, sq] != sq)
        if bad.size:
            a = int(bad[0])
            return _report(ring, kind, False,
                           [_wit(ring, "element", a), _wit(ring, "square", int(sq[a]))],
                           notes="the square is not idempotent")
        return _report(ring, kind, True)

    if kind == "tripotent":
        bad = np.flatnonzero(~subsets.tripotent_mask(ring))
        if bad.size:
            a = int(bad[0])
            return _report(ring, kind, False,
                           [_wit(ring, "element", a), _wit(ring, "cube", ring.pow(a, 3))])
        return _report(ring, kind, True)

    if kind == "reduced":
        nil = np.flatnonzero(subsets.nilpotent_mask(ring))
        nz = nil[nil != ring.zero]
        if nz.size:
            return _report(ring, kind, False, [_wit(ring, "nonzero-nilpotent", int(nz[0]))])
        return _report(ring, kind, True)

    if kind == "abelian":
        comm = subsets.commuting_matrix(ring)
        id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
        central = comm[id_idx].all(axis=1)
        bad = np.flatnonzero(~central)
        if bad.size:
            e = int(id_idx[bad[0]])
            r = int(np.flatnonzero(~comm[e])[0])
            return _report(ring, kind, False,
                           [_wit(ring, "idempotent", e), _wit(ring, "non-commuting-element", r)])
        return _report(ring, kind, True)

    if kind == "dedekind-finite":
        hits = ring.mul == ring.one
        bad = hits & ~hits.T
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return _report(ring, kind, False,
                           [_wit(ring, "left-factor", int(a)), _wit(ring, "right-factor", int(b))],
                           notes="a*b = 1 but b*a != 1")
        return _report(ring, kind, True)

    if kind == "local":
        quotient, proj = subsets.radical_quotient(ring)
        ok = subsets.unit_mask(quotient).copy()
        ok[quotient.zero] = True
        bad = np.flatnonzero(~ok)
        if bad.size:
            rep = _quotient_rep(proj, int(bad[0]))
            return _report(ring, kind, False, [_wit(ring, "non-unit-non-radical", rep)],
                           notes="its radical coset is neither zero nor invertible")
        return _report(ring, kind, True)

    if kind == "division":
        ok = subsets.unit_mask(ring).copy()
        ok[ring.zero] = True
        bad = np.flatnonzero(~ok)
        if bad.size:
            return _report(ring, kind, False, [_wit(ring, "nonzero-non-unit", int(bad[0]))])
        return _report(ring, kind, True)

    if kind == "semisimple":
        jac = np.flatnonzero(subsets.jacobson_mask(ring))
        nz = jac[jac != ring.zero]
        if nz.size:
            return _report(ring, kind, False, [_wit(ring, "nonzero-radical-element", int(nz[0]))],
                           notes="finite rings are semisimple exactly when the radical vanishes")
        return _report(ring, kind, True)

    if kind in ("semipotent", "potent"):
        nz_idem = subsets.idempotent_mask(ring).copy()
        nz_idem[ring.zero] = False
        reach = nz_idem[ring.mul].any(axis=1)         # a*R meets a nonzero idempotent
        ok = reach | subsets.jacobson_mask(ring)
        bad = np.flatnonzero(~ok)
        notes = "principal right ideal criterion: a outside J needs a nonzero idempotent in a*R"
        if bad.size:
            return _report(ring, kind, False, [_wit(ring, "element", int(bad[0]))], notes=notes)
        if kind == "potent":
            quotient, proj = subsets.radical_quotient(ring)
            unlifted = _unlifted_idempotent(ring, quotient, proj)
            if unlifted is not None:
                return _report(ring, kind, False,
                               [_wit(ring, "unlifted-idempotent-rep", unlifted)],
                               notes="semipotent, but an idempotent fails to lift")
        return _report(ring, kind, True, notes=notes)

    # 2-primal
    nilstar = subsets.prime_radical(ring).members
    nil = subsets.nilpotent_mask(ring)
    bad = np.flatnonzero(nil & ~nilstar)
    if bad.size:
        return _report(ring, kind, False,
                       [_wit(ring, "nilpotent-outside-prime-radical", int(bad[0]))])
    return _report(ring, kind, True)


def jacobson_pair_check(ring: FiniteRing) -> CheckReport:
    """Does 1 - a*b fall in the delta set exactly when 1 - b*a does?

    Intended for rings already verified delta-u; runs anywhere and records
    the hypothesis status in the notes.
    """
    om = subsets.one_minus(ring)
    in_delta = subsets.delta_mask(ring)[om[ring.mul]]
    hyp = check_class(ring, "delta-u").verdict
    notes = f"delta-u hypothesis {'holds' if hyp else 'does not hold'}"
    same = in_delta == in_delta.T
    if same.all():
        return _report(ring, "jacobson-pair", True, notes=notes)
    a, b = np.argwhere(~same)[0]
    return _report(ring, "jacobson-pair", False,
                   [_wit(ring, "left-factor", int(a)), _wit(ring, "right-factor", int(b))],
                   notes=notes)


# ---------------------------------------------------------------------------
# registry and dispatch

CLASS_REGISTRY: dict[str, tuple[str, object]] = {}
for _name in UNIT_CLASSES:
    CLASS_REGISTRY[_name] = ("unit-class", unit_class_check)
for _name in REGULARITY_KINDS:
    CLASS_REGISTRY[_name] = ("regularity", regularity_check)
for _name in CLEAN_KINDS:
    CLASS_REGISTRY[_name] = ("clean", clean_check)
for _name in STRUCTURAL_KINDS:
    CLASS_REGISTRY[_name] = ("structural", structural_check)

ALL_CLASSES = tuple(CLASS_REGISTRY)

CLASS_CONDITIONS = {
    "uj": "every unit is 1 + an element of the radical, and conversely",
    "uu": "every unit is 1 + a nilpotent, and conversely",
    "delta-u": "every unit is 1 + an element of the delta set, and conversely",
    "uq": "every unit is 1 + a quasinilpotent, and conversely",
    "unj": "every unit is 1 + nilpotent + radical element, and conversely",
    "uuc": "every unit is uniquely a sum of an idempotent and a unit",
    "2-uj": "the square of every unit is 1 + a radical element",
    "2-uu": "the square of every unit is 1 + a nilpotent",
    "2-delta-u": "the square of every unit is 1 + a delta-set element",
    "2-uq": "the square of every unit is 1 + a quasinilpotent",
    "2-unj": "the square of every unit is 1 + nilpotent + radical element",
    "regular": "every a equals a*x*a for some x",
    "unit-regular": "every a equals a*u*a for some unit u",
    "strongly-regular": "every a lies in a^2 * R",
    "pi-regular": "some power of every a lies in (that power)*R*(that power)",
    "strongly-pi-regular": "some power of every a lies in (next power)*R",
    "semiregular": "the radical quotient is regular and idempotents lift",
    "clean": "every element is an idempotent plus a unit",
    "exchange": "every a admits an idempotent e in a*R with 1-e in (1-a)*R",
    "j-clean": "every element is an idempotent plus a radical element",
    "delta-clean": "every element is an idempotent plus a delta-set element",
    "strongly-nil-clean": "every element is an idempotent plus a commuting nilpotent",
    "strongly-2-nil-clean": "every element is two idempotents plus a nilpotent, pairwise commuting",
    "semi-tripotent": "every element is e + j with e^3 = e and j in the radical",
    "boolean": "every element is idempotent",
    "2-boolean": "the square of every element is idempotent",
    "tripotent": "every element satisfies a^3 = a",
    "reduced": "no nonzero nilpotent elements",
    "abelian": "every idempotent is central",
    "dedekind-finite": "a*b = 1 implies b*a = 1",
    "local": "modulo the radical every element is zero or invertible",
    "division": "every nonzero element is invertible",
    "semisimple": "the radical is zero (finite rings are artinian)",
    "semipotent": "a*R contains a nonzero idempotent for every a outside the radical",
    "potent": "semipotent and idempotents lift modulo the radical",
    "2-primal": "the prime radical is exactly the set of nilpotents",
}


def check_class(ring: FiniteRing, name: str) -> CheckReport:
    """Dispatch a class check by kebab-case name, memoized per ring."""
    key = name.lower()
    if key not in CLASS_REGISTRY:
        raise UnknownClass(f"unknown ring class {name!r}; known: {', '.join(ALL_CLASSES)}")
    cache_key = ("class", key)
    hit = ring._cache.get(cache_key)
    if hit is None:
        hit = CLASS_REGISTRY[key][1](ring, key)
        ring._cache[cache_key] = hit
    return hit


def class_verdict(ring: FiniteRing, name: str) -> bool:
    return check_class(ring, name).verdict


# ---------------------------------------------------------------------------
# witness re-validation


def _roles(report: CheckReport) -> dict[str, int]:
    return {w.role: w.element for w in report.witness}


def revalidate_witness(ring: FiniteRing, report: CheckReport) -> bool:
    """Confirm by direct arithmetic that a false report's witness really
    violates the class condition.  True reports trivially revalidate."""
    if report.verdict:
        return True
    name = report.predicate
    roles = _roles(report)
    unit = subsets.unit_mask(ring)

    if name in UNIT_CLASSES and name != "uuc":
        two = name.startswith("2-")
        base = name[2:] if two else name
        mask = _named_set_mask(ring, base)
        if "unit" in roles:
            u = roles["unit"]
            if not unit[u]:
                return False
            diff = ring.sub(ring.pow(u, 2) if two else u, ring.one)
            claimed = roles.get("unit-square-minus-one" if two else "unit-minus-one", diff)
            return diff == claimed and not mask[diff]
        s = roles["set-element"]
        return bool(mask[s]) and not unit[int(ring.add[ring.one, s])]

    if name == "uuc":
        u = roles["unit"]
        if not unit[u]:
            return False
        id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
        count = int(unit[ring.add[u, ring.neg[id_idx]]].sum())
        return count != 1

    if name in ("regular", "unit-regular", "strongly-regular",
                "pi-regular", "strongly-pi-regular"):
        a = roles["element"]
        if name == "regular":
            return all(int(ring.mul[ring.mul[a, x], a]) != a for x in range(ring.order))
        if name == "unit-regular":
            return all(int(ring.mul[ring.mul[a, x], a]) != a
                       for x in np.flatnonzero(unit))
        if name == "strongly-regular":
            sq = int(ring.mul[a, a])
            return a not in set(int(v) for v in ring.mul[sq])
        p = a
        for _ in range(ring.order):
            if name == "pi-regular":
                if any(int(ring.mul[ring.mul[p, x], p]) == p for x in range(ring.order)):
                    return False
            else:
                nxt = int(ring.mul[p, a])
                if p in set(int(v) for v in ring.mul[nxt]):
                    return False
            p = int(ring.mul[p, a])
        return True

    if name in ("semiregular", "potent") and "unlifted-idempotent-rep" in roles:
        quotient, proj = subsets.radical_quotient(ring)
        q = int(proj.map[roles["unlifted-idempotent-rep"]])
        if int(quotient.mul[q, q]) != q:
            return False
        return all(int(proj.map[e]) != q
                   for e in np.flatnonzero(subsets.idempotent_mask(ring)))

    if name == "semiregular":
        quotient, proj = subsets.radical_quotient(ring)
        q = int(proj.map[roles["element-with-nonregular-image"]])
        return all(int(quotient.mul[quotient.mul[q, x], q]) != q
                   for x in range(quotient.order))

    if name in CLEAN_KINDS:
        a = roles["element"]
        id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
        if name == "clean":
            return not unit[ring.add[a, ring.neg[id_idx]]].any()
        if name == "j-clean":
            return not subsets.jacobson_mask(ring)[ring.add[a, ring.neg[id_idx]]].any()
        if name == "delta-clean":
            return not subsets.delta_mask(ring)[ring.add[a, ring.neg[id_idx]]].any()
        if name == "semi-tripotent":
            trip = np.flatnonzero(subsets.tripotent_mask(ring))
            return not subsets.jacobson_mask(ring)[ring.add[a, ring.neg[trip]]].any()
        if name == "strongly-nil-clean":
            comm = subsets.commuting_matrix(ring)
            diffs = ring.add[a, ring.neg[id_idx]]
            return not (subsets.nilpotent_mask(ring)[diffs] & comm[id_idx, diffs]).any()
        if name == "strongly-2-nil-clean":
            comm = subsets.commuting_matrix(ring)
            nil = subsets.nilpotent_mask(ring)
            for e1 in id_idx:
                for e2 in id_idx:
                    if not comm[e1, e2]:
                        continue
                    q = int(ring.add[ring.add[a, ring.neg[e1]], ring.neg[e2]])
                    if nil[q] and comm[e1, q] and comm[e2, q]:
                        return False
            return True
        # exchange
        in_a = set(int(v) for v in ring.mul[a])
        in_b = set(int(v) for v in ring.mul[ring.sub(ring.one, a)])
        for e in id_idx:
            if int(e) in in_a and ring.sub(ring.one, int(e)) in in_b:
                return False
        return True

    if name in STRUCTURAL_KINDS:
        if name == "boolean":
            a = roles["element"]
            return int(ring.mul[a, a]) != a
        if name == "2-boolean":
            a = roles["element"]
            sq = int(ring.mul[a, a])
            return int(ring.mul[sq, sq]) != sq
        if name == "tripotent":
            a = roles["element"]
            return ring.pow(a, 3) != a
        if name == "reduced":
            a = roles["nonzero-nilpotent"]
            return a != ring.zero and bool(subsets.nilpotent_mask(ring)[a])
        if name == "abelian":
            e, r = roles["idempotent"], roles["non-commuting-element"]
            return int(ring.mul[e, e]) == e and int(ring.mul[e, r]) != int(ring.mul[r, e])
        if name == "dedekind-finite":
            a, b = roles["left-factor"], roles["right-factor"]
            return int(ring.mul[a, b]) == ring.one and int(ring.mul[b, a]) != ring.one
        if name == "local":
            quotient, proj = subsets.radical_quotient(ring)
            q = int(proj.map[roles["non-unit-non-radical"]])
            return q != quotient.zero and not subsets.unit_mask(quotient)[q]
        if name == "division":
            a = roles["nonzero-non-unit"]
            return a != ring.zero and not unit[a]
        if name == "semisimple":
            a = roles["nonzero-radical-element"]
            return a != ring.zero and bool(subsets.jacobson_mask(ring)[a])
        if name in ("semipotent", "potent"):
            a = roles["element"]
            if subsets.jacobson_mask(ring)[a]:
                return False
            idm = subsets.idempotent_mask(ring)
            return not any(idm[v] and int(v) != ring.zero for v in ring.mul[a])
        if name == "2-primal":
            a = roles["nilpotent-outside-prime-radical"]
            return bool(subsets.nilpotent_mask(ring)[a]) and a not in subsets.prime_radical(ring)

    if name == "jacobson-pair":
        a, b = roles["left-factor"], roles["right-factor"]
        d = subsets.delta_mask(ring)
        lhs = bool(d[ring.sub(ring.one, int(ring.mul[a, b]))])
        rhs = bool(d[ring.sub(ring.one, int(ring.mul[b, a]))])
        return lhs != rhs

    raise UnknownClass(f"no revalidator for predicate {name!r}")
