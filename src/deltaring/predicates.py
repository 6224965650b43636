"""Ring-class membership tests with re-checkable witnesses.

`CLASSES` is the one table of ring classes: a row per class with its
category and defining condition, in report order.  Each category has a
scan, which decides its classes exhaustively over the tables and reports
the smallest counterexample, and next to it a re-check, which confirms a
false verdict's witness by plain arithmetic, independently of the scan;
`_CATEGORIES` pairs them.  A new class is a row in `CLASSES` plus a branch
in its category's scan and re-check.  Verdicts are memoized on the ring.

Five scans decide each element by an equivalent condition that holds
element by element in every ring, so the failing set and its smallest
member are those of the defining condition.  Four read the matrix
`subsets.idempotent_reach` (which idempotents lie in a*R):

- regular: a = a*x*a for some x iff a*R = e*R for an idempotent e, that is
  e in a*R with e*a = a (Goodearl, *Von Neumann Regular Rings*, Thm 1.1):
  from a = a*x*a take e = a*x; from e = a*r and e*a = a, a = a*r*a;
- pi-regular: some power of a is regular, read from the regular mask;
- exchange: the defining condition, e in a*R and 1 - e in (1-a)*R, read as
  two entries of the matrix (1 - e is idempotent);
- semipotent and potent: a*R holds a nonzero idempotent, or a is in J.

The fifth is unit-regular: a = a*u*a for a unit u iff a = e*v for an
idempotent e and a unit v (Ehrlich, *Unit-regular rings*, 1968: e = a*u,
v = u^-1; conversely e*v*v^-1*e*v = e*v), so its elements are the product
set E*U.  The re-checks keep literal loops over the defining conditions, so
scan and re-check stay independent.
"""

from __future__ import annotations

import numpy as np

from . import core, subsets
from .core import FiniteRing
from .errors import UnknownClass
from .report import CheckReport, Witness

# name: (category, condition)
CLASSES = {
    "uj": ("unit-class", "every unit is 1 + an element of the radical, and conversely"),
    "uu": ("unit-class", "every unit is 1 + a nilpotent, and conversely"),
    "delta-u": ("unit-class", "every unit is 1 + an element of the delta set, and conversely"),
    "uq": ("unit-class", "every unit is 1 + a quasinilpotent, and conversely"),
    "unj": ("unit-class", "every unit is 1 + nilpotent + radical element, and conversely"),
    "uuc": ("unit-class", "every unit is uniquely a sum of an idempotent and a unit"),
    "2-uj": ("unit-class", "the square of every unit is 1 + a radical element"),
    "2-uu": ("unit-class", "the square of every unit is 1 + a nilpotent"),
    "2-delta-u": ("unit-class", "the square of every unit is 1 + a delta-set element"),
    "2-uq": ("unit-class", "the square of every unit is 1 + a quasinilpotent"),
    "2-unj": ("unit-class", "the square of every unit is 1 + nilpotent + radical element"),
    "regular": ("regularity", "every a equals a*x*a for some x"),
    "unit-regular": ("regularity", "every a equals a*u*a for some unit u"),
    "strongly-regular": ("regularity", "every a lies in a^2 * R"),
    "pi-regular": ("regularity", "some power of every a lies in (that power)*R*(that power)"),
    "strongly-pi-regular": ("regularity", "some power of every a lies in (next power)*R"),
    "semiregular": ("regularity", "the radical quotient is regular and idempotents lift"),
    "clean": ("clean", "every element is an idempotent plus a unit"),
    "exchange": ("clean", "every a admits an idempotent e in a*R with 1-e in (1-a)*R"),
    "j-clean": ("clean", "every element is an idempotent plus a radical element"),
    "delta-clean": ("clean", "every element is an idempotent plus a delta-set element"),
    "strongly-nil-clean": ("clean", "every element is an idempotent plus a commuting nilpotent"),
    "strongly-2-nil-clean": ("clean", "every element is two idempotents plus a nilpotent, "
                                      "pairwise commuting"),
    "semi-tripotent": ("clean", "every element is e + j with e^3 = e and j in the radical"),
    "boolean": ("structural", "every element is idempotent"),
    "2-boolean": ("structural", "the square of every element is idempotent"),
    "tripotent": ("structural", "every element satisfies a^3 = a"),
    "reduced": ("structural", "no nonzero nilpotent elements"),
    "abelian": ("structural", "every idempotent is central"),
    "dedekind-finite": ("structural", "a*b = 1 implies b*a = 1"),
    "local": ("structural", "modulo the radical every element is zero or invertible"),
    "division": ("structural", "every nonzero element is invertible"),
    "semisimple": ("structural", "the radical is zero (finite rings are artinian)"),
    "semipotent": ("structural", "a*R contains a nonzero idempotent for every a outside "
                                 "the radical"),
    "potent": ("structural", "semipotent and idempotents lift modulo the radical"),
    "2-primal": ("structural", "the prime radical is exactly the set of nilpotents"),
}


def _wit(ring: FiniteRing, role: str, idx: int) -> Witness:
    return Witness(role, int(idx), ring.names[int(idx)])


def _report(ring, name, verdict, witness=(), notes=""):
    return CheckReport(ring.label, name, bool(verdict), list(witness), notes)


def _first_bad(ring, name, bad, role="element", notes=""):
    """Report on a mask of failing elements: true when it is empty, else
    false with the smallest failing element as the witness."""
    hits = np.flatnonzero(bad)
    if hits.size:
        return _report(ring, name, False, [_wit(ring, role, int(hits[0]))], notes)
    return _report(ring, name, True)


# ---------------------------------------------------------------------------
# unit-group classes


def _nil_plus_j_mask(ring: FiniteRing) -> np.ndarray:
    nil = np.flatnonzero(subsets.nilpotent_mask(ring))
    jac = np.flatnonzero(subsets.jacobson_mask(ring))
    # the literal sumset Nil + J, not its ideal closure
    return subsets.sumset_mask(ring, nil, jac)


# base class: (label of its set S, the mask of S, notes for its reports).  The
# masks are looked up in `subsets` at call time, so a wrapper installed there
# sees every call.
_UNIT_SETS = {
    "uj": ("J", lambda ring: subsets.jacobson_mask(ring), ""),
    "uu": ("Nil", lambda ring: subsets.nilpotent_mask(ring), ""),
    "delta-u": ("Delta", lambda ring: subsets.delta_mask(ring), ""),
    "uq": ("QN", lambda ring: subsets.quasinilpotent_mask(ring), subsets.QN_DEFINITION),
    "unj": ("Nil+J", _nil_plus_j_mask, "literal sumset Nil+J, not its ideal closure"),
}


def _unit_class(ring: FiniteRing, name: str) -> CheckReport:
    """Plain classes demand U(R) = 1 + S for the set S of their base in
    `_UNIT_SETS` (both inclusions checked); 2-prefixed classes demand u^2 - 1
    in S for every unit; uuc demands every unit has exactly one
    idempotent-plus-unit decomposition."""
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

    label, mask_of, notes = _UNIT_SETS[name.removeprefix("2-")]
    mask = mask_of(ring)
    if name.startswith("2-"):
        squares = ring.mul[u_idx, u_idx]
        diffs = ring.add[squares, minus_one]
        bad = np.flatnonzero(~mask[diffs])
        if bad.size:
            u = int(u_idx[bad[0]])
            return _report(ring, name, False,
                           [_wit(ring, "unit", u),
                            _wit(ring, "unit-square-minus-one", int(diffs[bad[0]]))],
                           notes or f"u^2-1 escapes {label}")
        return _report(ring, name, True, notes=notes)

    diffs = ring.add[u_idx, minus_one]
    bad = np.flatnonzero(~mask[diffs])
    if bad.size:
        u = int(u_idx[bad[0]])
        return _report(ring, name, False,
                       [_wit(ring, "unit", u),
                        _wit(ring, "unit-minus-one", int(diffs[bad[0]]))],
                       notes or f"u-1 escapes {label}")
    s_idx = np.flatnonzero(mask)
    shifted = ring.add[ring.one, s_idx]
    bad = np.flatnonzero(~subsets.unit_mask(ring)[shifted])
    if bad.size:
        s = int(s_idx[bad[0]])
        return _report(ring, name, False,
                       [_wit(ring, "set-element", s),
                        _wit(ring, "one-plus-set-element", int(shifted[bad[0]]))],
                       notes or f"1+s is not a unit for some s in {label}")
    return _report(ring, name, True, notes=notes)


def _unit_class_recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
    unit = subsets.unit_mask(ring)
    if name == "uuc":
        u = roles["unit"]
        if not unit[u]:
            return False
        id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
        count = int(unit[ring.add[u, ring.neg[id_idx]]].sum())
        return count != 1

    two = name.startswith("2-")
    mask = _UNIT_SETS[name.removeprefix("2-")][1](ring)
    if "unit" in roles:
        u = roles["unit"]
        if not unit[u]:
            return False
        diff = ring.sub(ring.pow(u, 2) if two else u, ring.one)
        claimed = roles.get("unit-square-minus-one" if two else "unit-minus-one", diff)
        return diff == claimed and not mask[diff]
    s = roles["set-element"]
    return bool(mask[s]) and not unit[int(ring.add[ring.one, s])]


# ---------------------------------------------------------------------------
# regularity


def _regular_mask(ring: FiniteRing) -> np.ndarray:
    """Regular elements: some idempotent e in a*R with e*a = a."""
    def compute():
        n = ring.order
        id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
        reach = subsets.idempotent_reach(ring)
        ok = np.empty(n, dtype=bool)
        for lo, hi in core._row_blocks(n, id_idx.size):
            fixes = ring.mul[id_idx, lo:hi].T == np.arange(lo, hi)[:, None]   # [a, j] e_j*a = a
            ok[lo:hi] = (reach[lo:hi] & fixes).any(axis=1)
        return ok
    return subsets._cached_mask(ring, "regular_mask", compute)


def _unit_regular_mask(ring: FiniteRing) -> np.ndarray:
    """Unit-regular elements: the product set E*U."""
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    u_idx = np.flatnonzero(subsets.unit_mask(ring))
    ok = np.zeros(ring.order, dtype=bool)
    for lo, hi in core._row_blocks(id_idx.size, u_idx.size):
        ok[core._outer(ring.mul, id_idx[lo:hi], u_idx)] = True
    return ok


def _pi_regular_mask(ring: FiniteRing) -> np.ndarray:
    """Elements with a regular power a^k, k = 1..n."""
    n = ring.order
    arange = np.arange(n, dtype=np.int32)
    regular = _regular_mask(ring)
    p = arange
    ok = np.zeros(n, dtype=bool)
    for _ in range(n):
        ok |= regular[p]
        if ok.all():
            break
        p = ring.mul[p, arange]
    return ok


def _exchange_mask(ring: FiniteRing) -> np.ndarray:
    """Elements with an idempotent e in a*R and 1 - e in (1-a)*R."""
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    om = subsets.one_minus(ring)
    reach = subsets.idempotent_reach(ring)
    complement = np.searchsorted(id_idx, om[id_idx])     # column of 1 - e_j
    return (reach & core._outer(reach, om, complement)).any(axis=1)


def _semipotent_mask(ring: FiniteRing) -> np.ndarray:
    """Elements in J or with a nonzero idempotent in a*R."""
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    reach = subsets.idempotent_reach(ring)[:, id_idx != ring.zero]
    return reach.any(axis=1) | subsets.jacobson_mask(ring)


def _regularity(ring: FiniteRing, kind: str) -> CheckReport:
    n = ring.order
    arange = np.arange(n, dtype=np.int32)

    if kind == "regular":
        return _first_bad(ring, kind, ~_regular_mask(ring))

    if kind == "unit-regular":
        return _first_bad(ring, kind, ~_unit_regular_mask(ring))

    if kind == "pi-regular":
        return _first_bad(ring, kind, ~_pi_regular_mask(ring),
                          notes=f"no exponent up to {n} works")

    if kind == "strongly-regular":
        rows = ring.mul[ring.mul.diagonal()]          # [a, r] = a^2 * r
        ok = (rows == arange[:, None]).any(axis=1)
        return _first_bad(ring, kind, ~ok)

    if kind == "strongly-pi-regular":
        p = arange.copy()
        unresolved = np.ones(n, dtype=bool)
        for _ in range(n):
            idx = np.flatnonzero(unresolved)
            if idx.size == 0:
                break
            nxt = ring.mul[p[idx], idx]
            ok = (ring.mul[nxt, :] == p[idx][:, None]).any(axis=1)
            unresolved[idx[ok]] = False
            if not unresolved.any():
                break
            p = ring.mul[p, arange]
        return _first_bad(ring, kind, unresolved, notes=f"no exponent up to {n} works")

    # semiregular: R/J regular and idempotents lift
    quotient, proj = subsets.radical_quotient(ring)
    inner = _regularity(quotient, "regular")
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


def _unlifted_recheck(ring: FiniteRing, rep: int) -> bool:
    """Is the coset of `rep` an idempotent of R/J with no idempotent preimage?"""
    quotient, proj = subsets.radical_quotient(ring)
    q = int(proj.map[rep])
    if int(quotient.mul[q, q]) != q:
        return False
    return all(int(proj.map[e]) != q
               for e in np.flatnonzero(subsets.idempotent_mask(ring)))


def _regularity_recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
    if name == "semiregular":
        if "unlifted-idempotent-rep" in roles:
            return _unlifted_recheck(ring, roles["unlifted-idempotent-rep"])
        quotient, proj = subsets.radical_quotient(ring)
        q = int(proj.map[roles["element-with-nonregular-image"]])
        return all(int(quotient.mul[quotient.mul[q, x], q]) != q
                   for x in range(quotient.order))

    a = roles["element"]
    if name == "regular":
        return all(int(ring.mul[ring.mul[a, x], a]) != a for x in range(ring.order))
    if name == "unit-regular":
        return all(int(ring.mul[ring.mul[a, x], a]) != a
                   for x in np.flatnonzero(subsets.unit_mask(ring)))
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


# ---------------------------------------------------------------------------
# clean-style decompositions


def _clean(ring: FiniteRing, kind: str) -> CheckReport:
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
        return _first_bad(ring, kind, ~subsets.sumset_mask(ring, a_idx, b_idx))

    if kind == "strongly-nil-clean":
        diffs = ring.add[:, ring.neg[id_idx]]         # [a, e] = a - e
        comm = subsets.commuting_matrix(ring)
        ok = (subsets.nilpotent_mask(ring)[diffs]
              & comm[id_idx[None, :], diffs]).any(axis=1)
        return _first_bad(ring, kind, ~ok)

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
    return _first_bad(ring, kind, ~_exchange_mask(ring))


def _block_scan(ring: FiniteRing, kind: str, width: int, ok_rows) -> CheckReport:
    """Scan the elements in row blocks; `ok_rows(lo, hi)` decides elements
    lo..hi-1.  The witness is the smallest element that fails."""
    for lo, hi in core._row_blocks(ring.order, width):
        ok = ok_rows(lo, hi)
        if not ok.all():
            return _report(ring, kind, False, [_wit(ring, "element", lo + int(np.argmin(ok)))])
    return _report(ring, kind, True)


def _clean_recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
    a = roles["element"]
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    if name == "clean":
        return not subsets.unit_mask(ring)[ring.add[a, ring.neg[id_idx]]].any()
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


# ---------------------------------------------------------------------------
# structural classes


def _structural(ring: FiniteRing, kind: str) -> CheckReport:
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
        # a*b = 1 with b*a != 1 for some b exactly when a has a right inverse
        # but is not a unit (a unit's only right inverse is its inverse)
        right_inverse = (ring.mul == ring.one).any(axis=1)
        bad = np.flatnonzero(right_inverse & ~subsets.unit_mask(ring))
        if bad.size:
            a = int(bad[0])
            b = int(np.argmax(ring.mul[a] == ring.one))
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
        return _first_bad(ring, kind, ~ok, "nonzero-non-unit")

    if kind == "semisimple":
        jac = np.flatnonzero(subsets.jacobson_mask(ring))
        nz = jac[jac != ring.zero]
        if nz.size:
            return _report(ring, kind, False, [_wit(ring, "nonzero-radical-element", int(nz[0]))],
                           notes="finite rings are semisimple exactly when the radical vanishes")
        return _report(ring, kind, True)

    if kind in ("semipotent", "potent"):
        bad = np.flatnonzero(~_semipotent_mask(ring))
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
    return _first_bad(ring, kind, nil & ~nilstar, "nilpotent-outside-prime-radical")


def _structural_recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
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
        return a != ring.zero and not subsets.unit_mask(ring)[a]
    if name == "semisimple":
        a = roles["nonzero-radical-element"]
        return a != ring.zero and bool(subsets.jacobson_mask(ring)[a])
    if name == "potent" and "unlifted-idempotent-rep" in roles:
        return _unlifted_recheck(ring, roles["unlifted-idempotent-rep"])
    if name in ("semipotent", "potent"):
        a = roles["element"]
        if subsets.jacobson_mask(ring)[a]:
            return False
        idm = subsets.idempotent_mask(ring)
        return not any(idm[v] and int(v) != ring.zero for v in ring.mul[a])
    # 2-primal
    a = roles["nilpotent-outside-prime-radical"]
    return bool(subsets.nilpotent_mask(ring)[a]) and a not in subsets.prime_radical(ring)


# ---------------------------------------------------------------------------
# the Jacobson pair property (not a class: T2.11 checks it on delta-u rings)


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


def _jacobson_pair_recheck(ring: FiniteRing, roles: dict[str, int]) -> bool:
    a, b = roles["left-factor"], roles["right-factor"]
    d = subsets.delta_mask(ring)
    lhs = bool(d[ring.sub(ring.one, int(ring.mul[a, b]))])
    rhs = bool(d[ring.sub(ring.one, int(ring.mul[b, a]))])
    return lhs != rhs


# ---------------------------------------------------------------------------
# dispatch

# category: (scan, witness re-check); both take the ring and the class name
_CATEGORIES = {
    "unit-class": (_unit_class, _unit_class_recheck),
    "regularity": (_regularity, _regularity_recheck),
    "clean": (_clean, _clean_recheck),
    "structural": (_structural, _structural_recheck),
}

# name: (category, scan); `check_class` calls each scan through this dict, so a
# wrapper stored in it sees every call
CLASS_REGISTRY = {name: (category, _CATEGORIES[category][0])
                  for name, (category, _) in CLASSES.items()}
ALL_CLASSES = tuple(CLASSES)


def class_key(name: str) -> str:
    """The registered form of a class name (names are case-insensitive);
    raises UnknownClass for a name that is not in `CLASSES`."""
    key = name.lower()
    if key not in CLASSES:
        raise UnknownClass(f"unknown ring class {name!r}; known: {', '.join(ALL_CLASSES)}")
    return key


def check_class(ring: FiniteRing, name: str) -> CheckReport:
    """Dispatch a class check by kebab-case name, memoized per ring.  Threads
    that race on one ring all get the report that was stored first."""
    key = class_key(name)
    cache_key = ("class", key)
    hit = ring._cache.get(cache_key)
    if hit is None:
        hit = ring._cache.setdefault(cache_key, CLASS_REGISTRY[key][1](ring, key))
    return hit


def class_verdict(ring: FiniteRing, name: str) -> bool:
    return check_class(ring, name).verdict


def revalidate_witness(ring: FiniteRing, report: CheckReport) -> bool:
    """Confirm by direct arithmetic that a false report's witness really
    violates the class condition.  True reports trivially revalidate."""
    if report.verdict:
        return True
    roles = {w.role: w.element for w in report.witness}
    if report.predicate == "jacobson-pair":
        return _jacobson_pair_recheck(ring, roles)
    key = class_key(report.predicate)
    category, _ = CLASSES[key]
    _, recheck = _CATEGORIES[category]
    return recheck(ring, key, roles)
