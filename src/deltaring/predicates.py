"""Ring-class membership tests with re-checkable witnesses.

`CLASSES` is the one table of ring classes, in report order.  A class is
one row, `name: (category, condition, scan, recheck)`, so adding a class
is adding its row.  The scan, `scan(ring, name)`, decides the class
exhaustively over the tables and reports the smallest counterexample.  The
re-check, `recheck(ring, name, roles)`, confirms a false verdict's witness
by plain arithmetic: it loops over the defining condition and never calls
the scan's mask.  Rows come from `_elementwise` (a mask of the elements
that pass and a literal test of one element), `_sumset` (every element is
x + y), `_one_plus` (U(R) = 1 + S, or u^2 - 1 in S), `_modulo_radical` (a
mask of R/J pulled back through the projection) and `_lifting` (idempotents
lift modulo J); only uuc and strongly-2-nil-clean scan on their own.  The
abelian mask reads `subsets.idempotent_commutant`.  Element sets are looked
up in `subsets` at call time, so a wrapper installed there sees every call.
Verdicts are memoized on the ring, since a report names it; the element
sets they read, the regular mask among them, are memoized per tables and
computed once for all rings on equal tables (`subsets`).

Five masks decide each element by an equivalent condition that holds
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
set E*U.
"""

from __future__ import annotations

import numpy as np

from . import core, subsets
from .core import FiniteRing
from .errors import UnknownClass
from .report import CheckReport, Witness


def _wit(ring: FiniteRing, role: str, idx: int) -> Witness:
    return Witness(role, int(idx), ring.names[int(idx)])


def _report(ring, name, verdict, witness=(), notes=""):
    return CheckReport(ring.label, name, bool(verdict), list(witness), notes)


# ---------------------------------------------------------------------------
# row makers: each returns a (scan, recheck) pair


def _elementwise(passes, holds, role="element", second=None, notes="", held_notes=""):
    """A class that holds element by element.

    `passes(ring)` is the mask of the elements that satisfy the condition,
    and `holds(ring, a)` tests one element literally.  A false report names
    the smallest failing element under `role`, and, when `second` is
    (role, value(ring, a)), that value as well, such as the square; it
    carries `notes`, in which {n} stands for the order.  A true report
    carries `held_notes`.
    """
    def scan(ring: FiniteRing, name: str) -> CheckReport:
        bad = np.flatnonzero(~passes(ring))
        if bad.size == 0:
            return _report(ring, name, True, notes=held_notes)
        a = int(bad[0])
        witness = [_wit(ring, role, a)]
        if second:
            witness.append(_wit(ring, second[0], second[1](ring, a)))
        return _report(ring, name, False, witness, notes.format(n=ring.order))
    return scan, _refuted(holds, role, second)


def _refuted(holds, role="element", second=None):
    """The re-check of an element-wise class: the element under `role` fails
    the literal test `holds`, and a second witness, if named, has its value."""
    def recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
        a = roles[role]
        if holds(ring, a):        # first, so `second` is only asked about a failing element
            return False
        if not second:
            return True
        value = second[1](ring, a)
        return roles.get(second[0], value) == value
    return recheck


def _modulo_radical(passes, holds, role, notes):
    """An element-wise class of R/J, read on R: an element passes when its
    image does.  Quotient indices follow their least coset members, so the
    smallest failing element is the least member of the first failing coset."""
    def pulled_back(ring):
        quotient, proj = subsets.radical_quotient(ring)
        return passes(quotient)[proj.map]

    def image_holds(ring, a):
        quotient, proj = subsets.radical_quotient(ring)
        return holds(quotient, int(proj.map[a]))
    return _elementwise(pulled_back, image_holds, role, notes=notes)


def _lifting(row, notes: str):
    """`row`, a (scan, recheck) pair, and the lifting of idempotents modulo
    J: when `row` holds, a false report names the smallest element whose
    image is an idempotent of R/J with no idempotent preimage."""
    def lifted(ring):
        quotient, proj = subsets.radical_quotient(ring)
        images = np.zeros(quotient.order, dtype=bool)
        images[proj.map[subsets.idempotent_mask(ring)]] = True
        return (images | ~subsets.idempotent_mask(quotient))[proj.map]

    def lifts(ring, a):
        quotient, proj = subsets.radical_quotient(ring)
        q = int(proj.map[a])
        return int(quotient.mul[q, q]) != q or q in proj.map[subsets.idempotent_mask(ring)]
    lift = _elementwise(lifted, lifts, "unlifted-idempotent-rep", notes=notes)

    def scan(ring: FiniteRing, name: str) -> CheckReport:
        report = row[0](ring, name)
        if not report.verdict:
            return report
        unlifted = lift[0](ring, name)
        return report if unlifted.verdict else unlifted

    def recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
        return (lift if "unlifted-idempotent-rep" in roles else row)[1](ring, name, roles)
    return scan, recheck


def _sumset(first: str, second: str):
    """Every element is x + y with x in the first set and y in the second,
    both named by their mask functions in `subsets`."""
    def members(ring, mask_name):
        return np.flatnonzero(getattr(subsets, mask_name)(ring))

    def passes(ring):
        return subsets.sumset_mask(ring, members(ring, first), members(ring, second))

    def holds(ring, a):                       # some a - x lies in the second set
        diffs = ring.add[a, ring.neg[members(ring, first)]]
        return bool(getattr(subsets, second)(ring)[diffs].any())
    return _elementwise(passes, holds)


def _one_plus(label: str, s_mask, notes: str = "", squared: bool = False):
    """A unit class over the set S with mask `s_mask(ring)`, labelled `label`
    in the notes: U(R) = 1 + S, both inclusions checked, or with `squared`,
    u^2 - 1 in S for every unit u."""
    role = "unit-square-minus-one" if squared else "unit-minus-one"
    escapes = f"{'u^2-1' if squared else 'u-1'} escapes {label}"

    def scan(ring: FiniteRing, name: str) -> CheckReport:
        u_idx = np.flatnonzero(subsets.unit_mask(ring))
        mask = s_mask(ring)
        powers = ring.mul[u_idx, u_idx] if squared else u_idx
        diffs = ring.add[powers, ring.neg[ring.one]]
        bad = np.flatnonzero(~mask[diffs])
        if bad.size:
            return _report(ring, name, False, [_wit(ring, "unit", u_idx[bad[0]]),
                                               _wit(ring, role, diffs[bad[0]])],
                           notes or escapes)
        if not squared:
            s_idx = np.flatnonzero(mask)
            shifted = ring.add[ring.one, s_idx]
            bad = np.flatnonzero(~subsets.unit_mask(ring)[shifted])
            if bad.size:
                return _report(ring, name, False,
                               [_wit(ring, "set-element", s_idx[bad[0]]),
                                _wit(ring, "one-plus-set-element", shifted[bad[0]])],
                               notes or f"1+s is not a unit for some s in {label}")
        return _report(ring, name, True, notes=notes)

    def recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
        unit, mask = subsets.unit_mask(ring), s_mask(ring)
        if "unit" in roles:
            u = roles["unit"]
            diff = ring.sub(ring.pow(u, 2 if squared else 1), ring.one)
            return bool(unit[u]) and roles.get(role, diff) == diff and not mask[diff]
        s = roles["set-element"]
        return bool(mask[s]) and not unit[int(ring.add[ring.one, s])]
    return scan, recheck


# ---------------------------------------------------------------------------
# element masks


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
    return subsets._memo(ring, "regular_mask", compute)


def _unit_regular_mask(ring: FiniteRing) -> np.ndarray:
    """Unit-regular elements: the product set E*U."""
    return core._marked_outer(ring.mul, np.flatnonzero(subsets.idempotent_mask(ring)),
                              np.flatnonzero(subsets.unit_mask(ring)))


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


def _strongly_regular_mask(ring: FiniteRing) -> np.ndarray:
    """Elements a in a^2 * R."""
    return core._first_column(ring.mul, np.arange(ring.order), ring.mul.diagonal()) >= 0


def _strongly_pi_regular_mask(ring: FiniteRing) -> np.ndarray:
    """Elements with a power a^k in a^(k+1) * R, k = 1..n."""
    n = ring.order
    arange = np.arange(n, dtype=np.int32)
    p = arange.copy()
    unresolved = np.ones(n, dtype=bool)
    for _ in range(n):
        idx = np.flatnonzero(unresolved)
        ok = core._first_column(ring.mul, p[idx], ring.mul[p[idx], idx]) >= 0
        unresolved[idx[ok]] = False
        if not unresolved.any():
            break
        p = ring.mul[p, arange]
    return ~unresolved


def _exchange_mask(ring: FiniteRing) -> np.ndarray:
    """Elements with an idempotent e in a*R and 1 - e in (1-a)*R."""
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    om = subsets.one_minus(ring)
    reach = subsets.idempotent_reach(ring)
    complement = np.searchsorted(id_idx, om[id_idx])     # column of 1 - e_j
    ok = np.empty(ring.order, dtype=bool)
    for lo, hi, block in core._outer_blocks(reach, om, complement):   # [a, j] 1-e_j in (1-a)*R
        ok[lo:hi] = (reach[lo:hi] & block).any(axis=1)
    return ok


def _strongly_nil_clean_mask(ring: FiniteRing) -> np.ndarray:
    """Elements e + q with e idempotent, q nilpotent and e*q = q*e."""
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    comm, nil = subsets.idempotent_commutant(ring), subsets.nilpotent_mask(ring)
    cols = np.arange(id_idx.size)
    ok = np.empty(ring.order, dtype=bool)
    for lo, hi, diffs in core._outer_blocks(ring.add, None, ring.neg[id_idx]):   # [a, j] a - e_j
        ok[lo:hi] = (nil[diffs] & comm[cols, diffs]).any(axis=1)
    return ok


def _semipotent_mask(ring: FiniteRing) -> np.ndarray:
    """Elements in J or with a nonzero idempotent in a*R."""
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    ok = np.empty(ring.order, dtype=bool)
    for lo, hi, reach in core._outer_blocks(subsets.idempotent_reach(ring), None,
                                            np.flatnonzero(id_idx != ring.zero)):
        ok[lo:hi] = reach.any(axis=1)
    return ok | subsets.jacobson_mask(ring)


def _abelian_mask(ring: FiniteRing) -> np.ndarray:
    """Elements that are not idempotent or commute with every element."""
    idempotent = subsets.idempotent_mask(ring)
    ok = ~idempotent
    ok[idempotent] = subsets.idempotent_commutant(ring).all(axis=1)
    return ok


def _dedekind_finite_mask(ring: FiniteRing) -> np.ndarray:
    """Elements with no right inverse, and units: a*b = 1 with b*a != 1 for
    some b exactly when a has a right inverse but is not a unit (a unit's
    only right inverse is its inverse)."""
    return (core._first_column(ring.mul, ring.one) < 0) | subsets.unit_mask(ring)


def _zero_or_unit_mask(ring: FiniteRing) -> np.ndarray:
    return subsets.unit_mask(ring) | _zero_mask(ring)


def _nil_plus_j_mask(ring: FiniteRing) -> np.ndarray:
    nil = np.flatnonzero(subsets.nilpotent_mask(ring))
    jac = np.flatnonzero(subsets.jacobson_mask(ring))
    # the literal sumset Nil + J, not its ideal closure
    return subsets.sumset_mask(ring, nil, jac)


def _zero_mask(ring: FiniteRing) -> np.ndarray:
    return np.arange(ring.order) == ring.zero


# ---------------------------------------------------------------------------
# literal tests of one element, for the re-checks


def _is_regular(ring: FiniteRing, a: int) -> bool:
    return any(int(ring.mul[ring.mul[a, x], a]) == a for x in range(ring.order))


def _is_pi_regular(ring: FiniteRing, a: int) -> bool:
    return any(_is_regular(ring, ring.pow(a, k)) for k in range(1, ring.order + 1))


def _is_strongly_pi_regular(ring: FiniteRing, a: int) -> bool:
    return any((ring.mul[ring.pow(a, k + 1)] == ring.pow(a, k)).any()
               for k in range(1, ring.order + 1))


def _is_exchange(ring: FiniteRing, a: int) -> bool:
    in_a = set(int(v) for v in ring.mul[a])
    in_b = set(int(v) for v in ring.mul[ring.sub(ring.one, a)])
    return any(int(e) in in_a and ring.sub(ring.one, int(e)) in in_b
               for e in np.flatnonzero(subsets.idempotent_mask(ring)))


def _is_strongly_nil_clean(ring: FiniteRing, a: int) -> bool:
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    diffs = ring.add[a, ring.neg[id_idx]]
    comm = subsets.idempotent_commutant(ring)
    return bool((subsets.nilpotent_mask(ring)[diffs]
                 & comm[np.arange(id_idx.size), diffs]).any())


def _is_strongly_2_nil_clean(ring: FiniteRing, a: int) -> bool:
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    comm = subsets.idempotent_commutant(ring)
    nil = subsets.nilpotent_mask(ring)
    for j1, e1 in enumerate(id_idx):
        for j2 in np.flatnonzero(comm[j1, id_idx]):   # the idempotents commuting with e1
            q = int(ring.add[ring.add[a, ring.neg[e1]], ring.neg[id_idx[j2]]])
            if nil[q] and comm[j1, q] and comm[j2, q]:
                return True
    return False


def _is_nilpotent(ring: FiniteRing, a: int) -> bool:
    # a nilpotent's nonzero powers are distinct, so a^n = 0
    return ring.pow(a, ring.order) == ring.zero


def _in_radical(ring: FiniteRing, a: int) -> bool:
    """1 - r*a is a unit for every r."""
    return bool(subsets.unit_mask(ring)[ring.add[ring.one, ring.neg[ring.mul[:, a]]]].all())


def _is_unit(ring: FiniteRing, a: int) -> bool:
    return any(int(ring.mul[a, x]) == ring.one and int(ring.mul[x, a]) == ring.one
               for x in range(ring.order))


def _is_zero_or_unit(ring: FiniteRing, a: int) -> bool:
    return a == ring.zero or _is_unit(ring, a)


def _is_central_if_idempotent(ring: FiniteRing, a: int) -> bool:
    return int(ring.mul[a, a]) != a or bool((ring.mul[a] == ring.mul[:, a]).all())


def _right_inverses_are_left(ring: FiniteRing, a: int) -> bool:
    return all(int(ring.mul[b, a]) == ring.one for b in np.flatnonzero(ring.mul[a] == ring.one))


# ---------------------------------------------------------------------------
# classes with scans of their own


def _uuc(ring: FiniteRing, name: str) -> CheckReport:
    """Every unit has exactly one idempotent-plus-unit decomposition."""
    unit = subsets.unit_mask(ring)
    u_idx = np.flatnonzero(unit)
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    counts = np.empty(u_idx.size, dtype=np.int64)
    for lo, hi, diffs in core._outer_blocks(ring.add, u_idx, ring.neg[id_idx]):   # [u, j] u - e_j
        counts[lo:hi] = unit[diffs].sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size == 0:
        return _report(ring, name, True)
    u = int(u_idx[bad[0]])
    witness = [_wit(ring, "unit", u)]
    for tag, h in zip(("a", "b"), np.flatnonzero(unit[ring.add[u, ring.neg[id_idx]]])[:2]):
        e = int(id_idx[h])
        witness.append(_wit(ring, f"idempotent-{tag}", e))
        witness.append(_wit(ring, f"unit-part-{tag}", ring.sub(u, e)))
    return _report(ring, name, False, witness,
                   notes=f"unit has {int(counts[bad[0]])} clean decompositions")


def _uuc_recheck(ring: FiniteRing, name: str, roles: dict[str, int]) -> bool:
    unit = subsets.unit_mask(ring)
    u = roles["unit"]
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    return bool(unit[u]) and int(unit[ring.add[u, ring.neg[id_idx]]].sum()) != 1


def _strongly_2_nil_clean(ring: FiniteRing, name: str) -> CheckReport:
    """Each element minus a commuting pair of idempotents, in row blocks; the
    scan stops at the first block holding an element that fails."""
    id_idx = np.flatnonzero(subsets.idempotent_mask(ring))
    comm = subsets.idempotent_commutant(ring)
    p1, p2 = np.nonzero(comm[:, id_idx])
    e1, e2 = id_idx[p1], id_idx[p2]               # commuting idempotent pairs
    nil = subsets.nilpotent_mask(ring)
    neg1, neg2 = ring.neg[e1][None, :], ring.neg[e2][None, :]
    for lo, hi in core._row_blocks(ring.order, e1.size):
        q = ring.add[ring.add[np.arange(lo, hi)[:, None], neg1], neg2]   # [a, pair] a - e1 - e2
        ok = (nil[q] & comm[p1[None, :], q] & comm[p2[None, :], q]).any(axis=1)
        if not ok.all():
            return _report(ring, name, False, [_wit(ring, "element", lo + int(np.argmin(ok)))])
    return _report(ring, name, True)


# ---------------------------------------------------------------------------
# the class table

_NO_POWER = "no exponent up to {n} works"
_CRITERION = "principal right ideal criterion: a outside J needs a nonzero idempotent in a*R"
_semipotent = _elementwise(
    _semipotent_mask,
    lambda ring, a: bool(subsets.jacobson_mask(ring)[a]) or any(
        subsets.idempotent_mask(ring)[v] and int(v) != ring.zero for v in ring.mul[a]),
    notes=_CRITERION, held_notes=_CRITERION)

# name: (category, condition, scan, recheck), in report order
CLASSES = {
    "uj": ("unit-class", "every unit is 1 + an element of the radical, and conversely",
           *_one_plus("J", lambda ring: subsets.jacobson_mask(ring))),
    "uu": ("unit-class", "every unit is 1 + a nilpotent, and conversely",
           *_one_plus("Nil", lambda ring: subsets.nilpotent_mask(ring))),
    "delta-u": ("unit-class", "every unit is 1 + an element of the delta set, and conversely",
                *_one_plus("Delta", lambda ring: subsets.delta_mask(ring))),
    "uq": ("unit-class", "every unit is 1 + a quasinilpotent, and conversely",
           *_one_plus("QN", lambda ring: subsets.quasinilpotent_mask(ring),
                      subsets.QN_DEFINITION)),
    "unj": ("unit-class", "every unit is 1 + nilpotent + radical element, and conversely",
            *_one_plus("Nil+J", _nil_plus_j_mask, "literal sumset Nil+J, not its ideal closure")),
    "uuc": ("unit-class", "every unit is uniquely a sum of an idempotent and a unit",
            _uuc, _uuc_recheck),
    "2-uj": ("unit-class", "the square of every unit is 1 + a radical element",
             *_one_plus("J", lambda ring: subsets.jacobson_mask(ring), squared=True)),
    "2-uu": ("unit-class", "the square of every unit is 1 + a nilpotent",
             *_one_plus("Nil", lambda ring: subsets.nilpotent_mask(ring), squared=True)),
    "2-delta-u": ("unit-class", "the square of every unit is 1 + a delta-set element",
                  *_one_plus("Delta", lambda ring: subsets.delta_mask(ring), squared=True)),
    "2-uq": ("unit-class", "the square of every unit is 1 + a quasinilpotent",
             *_one_plus("QN", lambda ring: subsets.quasinilpotent_mask(ring),
                        subsets.QN_DEFINITION, squared=True)),
    "2-unj": ("unit-class", "the square of every unit is 1 + nilpotent + radical element",
              *_one_plus("Nil+J", _nil_plus_j_mask, "literal sumset Nil+J, not its ideal closure",
                         squared=True)),
    "regular": ("regularity", "every a equals a*x*a for some x",
                *_elementwise(_regular_mask, _is_regular)),
    "unit-regular": ("regularity", "every a equals a*u*a for some unit u",
                     *_elementwise(_unit_regular_mask, lambda ring, a: any(
                         int(ring.mul[ring.mul[a, u], a]) == a
                         for u in np.flatnonzero(subsets.unit_mask(ring))))),
    "strongly-regular": ("regularity", "every a lies in a^2 * R",
                         *_elementwise(_strongly_regular_mask, lambda ring, a: bool(
                             (ring.mul[ring.mul[a, a]] == a).any()))),
    "pi-regular": ("regularity", "some power of every a lies in (that power)*R*(that power)",
                   *_elementwise(_pi_regular_mask, _is_pi_regular, notes=_NO_POWER)),
    "strongly-pi-regular": ("regularity", "some power of every a lies in (next power)*R",
                            *_elementwise(_strongly_pi_regular_mask, _is_strongly_pi_regular,
                                          notes=_NO_POWER)),
    "semiregular": ("regularity", "the radical quotient is regular and idempotents lift",
                    *_lifting(_modulo_radical(_regular_mask, _is_regular,
                                              "element-with-nonregular-image",
                                              "the radical quotient is not regular"),
                              "an idempotent of the radical quotient has no idempotent preimage")),
    "clean": ("clean", "every element is an idempotent plus a unit",
              *_sumset("idempotent_mask", "unit_mask")),
    "exchange": ("clean", "every a admits an idempotent e in a*R with 1-e in (1-a)*R",
                 *_elementwise(_exchange_mask, _is_exchange)),
    "j-clean": ("clean", "every element is an idempotent plus a radical element",
                *_sumset("idempotent_mask", "jacobson_mask")),
    "delta-clean": ("clean", "every element is an idempotent plus a delta-set element",
                    *_sumset("idempotent_mask", "delta_mask")),
    "strongly-nil-clean": ("clean", "every element is an idempotent plus a commuting nilpotent",
                           *_elementwise(_strongly_nil_clean_mask, _is_strongly_nil_clean)),
    "strongly-2-nil-clean": ("clean", "every element is two idempotents plus a nilpotent, "
                                      "pairwise commuting",
                             _strongly_2_nil_clean, _refuted(_is_strongly_2_nil_clean)),
    "semi-tripotent": ("clean", "every element is e + j with e^3 = e and j in the radical",
                       *_sumset("tripotent_mask", "jacobson_mask")),
    "boolean": ("structural", "every element is idempotent",
                *_elementwise(lambda ring: subsets.idempotent_mask(ring),
                              lambda ring, a: int(ring.mul[a, a]) == a,
                              second=("square", lambda ring, a: int(ring.mul[a, a])))),
    "2-boolean": ("structural", "the square of every element is idempotent",
                  *_elementwise(lambda ring: (ring.mul[ring.mul.diagonal(), ring.mul.diagonal()]
                                              == ring.mul.diagonal()),
                                lambda ring, a: ring.pow(a, 4) == ring.pow(a, 2),
                                second=("square", lambda ring, a: int(ring.mul[a, a])),
                                notes="the square is not idempotent")),
    "tripotent": ("structural", "every element satisfies a^3 = a",
                  *_elementwise(lambda ring: subsets.tripotent_mask(ring),
                                lambda ring, a: ring.pow(a, 3) == a,
                                second=("cube", lambda ring, a: ring.pow(a, 3)))),
    "reduced": ("structural", "no nonzero nilpotent elements",
                *_elementwise(lambda ring: ~subsets.nilpotent_mask(ring) | _zero_mask(ring),
                              lambda ring, a: a == ring.zero or not _is_nilpotent(ring, a),
                              role="nonzero-nilpotent")),
    "abelian": ("structural", "every idempotent is central",
                *_elementwise(_abelian_mask, _is_central_if_idempotent, role="idempotent",
                              second=("non-commuting-element", lambda ring, e: int(
                                  np.flatnonzero(ring.mul[e] != ring.mul[:, e])[0])))),
    "dedekind-finite": ("structural", "a*b = 1 implies b*a = 1",
                        *_elementwise(_dedekind_finite_mask, _right_inverses_are_left,
                                      role="left-factor",
                                      second=("right-factor", lambda ring, a: int(
                                          np.flatnonzero(ring.mul[a] == ring.one)[0])),
                                      notes="a*b = 1 but b*a != 1")),
    "local": ("structural", "modulo the radical every element is zero or invertible",
              *_modulo_radical(_zero_or_unit_mask, _is_zero_or_unit, "non-unit-non-radical",
                               "its radical coset is neither zero nor invertible")),
    "division": ("structural", "every nonzero element is invertible",
                 *_elementwise(_zero_or_unit_mask, _is_zero_or_unit, role="nonzero-non-unit")),
    "semisimple": ("structural", "the radical is zero (finite rings are artinian)",
                   *_elementwise(lambda ring: ~subsets.jacobson_mask(ring) | _zero_mask(ring),
                                 lambda ring, a: a == ring.zero or not _in_radical(ring, a),
                                 role="nonzero-radical-element",
                                 notes="finite rings are semisimple exactly when the radical "
                                       "vanishes")),
    "semipotent": ("structural", "a*R contains a nonzero idempotent for every a outside "
                                 "the radical", *_semipotent),
    "potent": ("structural", "semipotent and idempotents lift modulo the radical",
               *_lifting(_semipotent, "semipotent, but an idempotent fails to lift")),
    "2-primal": ("structural", "the prime radical is exactly the set of nilpotents",
                 *_elementwise(lambda ring: (~subsets.nilpotent_mask(ring)
                                             | subsets.prime_radical(ring)),
                               lambda ring, a: (subsets.prime_radical(ring)[a]
                                                or not _is_nilpotent(ring, a)),
                               role="nilpotent-outside-prime-radical")),
}

# name: (category, scan); `check_class` calls each scan through this dict, so a
# wrapper stored in it sees every call
CLASS_REGISTRY = {name: (category, scan) for name, (category, _, scan, _) in CLASSES.items()}
ALL_CLASSES = tuple(CLASSES)


# ---------------------------------------------------------------------------
# the Jacobson pair property (not a class: T2.11 checks it on delta-u rings)


def jacobson_pair_check(ring: FiniteRing) -> CheckReport:
    """Does 1 - a*b fall in the delta set exactly when 1 - b*a does?

    Intended for rings already verified delta-u; runs anywhere and records
    the hypothesis status in the notes.
    """
    in_delta = subsets.delta_mask(ring)[subsets.one_minus(ring)]     # at x: 1 - x in delta
    hyp = check_class(ring, "delta-u").verdict
    notes = f"delta-u hypothesis {'holds' if hyp else 'does not hold'}"
    # [1 - ab in delta] against its transpose, a row block against a column block
    mul = ring.mul
    bad = core._first_mismatch(*mul.shape, lambda lo, hi: (
        in_delta[mul[lo:hi]], in_delta[mul[:, lo:hi]].T))
    if bad is None:
        return _report(ring, "jacobson-pair", True, notes=notes)
    return _report(ring, "jacobson-pair", False,
                   [_wit(ring, "left-factor", bad[0]), _wit(ring, "right-factor", bad[1])],
                   notes=notes)


# ---------------------------------------------------------------------------
# dispatch


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
    return subsets._memo(ring, ("class", key), lambda: CLASS_REGISTRY[key][1](ring, key),
                         shared=False)


def class_verdict(ring: FiniteRing, name: str) -> bool:
    return check_class(ring, name).verdict


def revalidate_witness(ring: FiniteRing, report: CheckReport) -> bool:
    """Confirm by direct arithmetic that a false class report's witness
    really violates the class condition.  True reports trivially revalidate."""
    if report.verdict:
        return True
    key = class_key(report.predicate)
    return CLASSES[key][3](ring, key, {w.role: w.element for w in report.witness})
