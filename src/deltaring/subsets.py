"""Canonical element sets of a finite ring, one function per set.

Units, idempotents, nilpotents, tripotent elements, the Jacobson radical,
the delta set {r : r + U(R) is contained in U(R)}, the prime radical and
the quasinilpotents, each a read-only bool mask of length n (`*_mask`, and
`prime_radical`), plus the unit-generated subring (`unit_subring`).  All
functions are pure; each set that has a forced postcondition re-checks it
and raises InternalInconsistency on failure (that would be an
implementation bug, not bad input).  Callers look these functions up in
this module when they call them, so a wrapper installed here sees every
call.

Each set is memoized per tables (`_memo`), so every ring on equal tables,
such as GF(p) and Z_p, reads the value computed for the first of them;
`_table_memo` says why that changes no output and no check's power.  The
ring's own memo holds only what names or holds the ring: R/J, the unit
subring and the class reports of `predicates`.

A finite ring is artinian and strongly pi-regular, which gives three of
the radical sets by identities that hold in every finite ring (Lam, *A
First Course in Noncommutative Rings*, sections 4 and 10):

- J(R) = {a : R*a is nil}.  J(R) is nilpotent, so R*a inside J is nil;
  a nil left ideal lies in J, and a is in R*a.
- the prime radical is J(R): in an artinian ring the prime ideals are the
  maximal ideals, whose intersection is J(R).
- the quasinilpotents are Nil(R).  A nilpotent a times a commuting x is
  nilpotent, so 1 + a*x is a unit.  Otherwise the Fitting idempotent e of
  a is nonzero, commutes with a, and a*e is a unit of e*R*e; x = -(a*e)^-1
  in e*R*e commutes with a, and 1 + a*x = 1 - e is not a unit, since
  (1 - e)*e = 0.

Every pass over a table runs in row blocks (`core._outer_blocks`), so a
set is computed beside block-sized temporaries, not n-by-n ones.  Two
results are n-by-|E| by nature, for the idempotents E, and are kept whole:
`idempotent_reach`, the kernel of the regularity, exchange and semipotent
scans in `predicates` (which idempotents lie in each principal right ideal
a*R), and `idempotent_commutant`, the kernel of the strongly-nil-clean,
strongly-2-nil-clean and abelian scans (which elements commute with each
idempotent).
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from . import core
from .core import FiniteRing
from .errors import InternalInconsistency

QN_DEFINITION = "quasinilpotent: 1 + a*x is a unit for every x commuting with a"


class _TableMemo(dict):
    """The element sets computed from one pair of tables, `add` and `mul`,
    those of the ring that registered it, shared by every ring on tables
    equal to them.  Those rings hold it, so it dies with the last of them,
    and holds those tables until then."""

    __slots__ = ("add", "mul", "__weakref__")

    def __init__(self, add: np.ndarray, mul: np.ndarray):
        super().__init__()
        self.add, self.mul = add, mul


# hash of a fingerprint -> the memo of the tables first registered under it,
# held weakly
_TABLE_MEMOS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_TABLE_MEMO_LOCK = threading.Lock()


def _fingerprint(ring: FiniteRing) -> int:
    """An O(n) key of the tables: a hash of the order, 0, 1, the squares and
    x -> 1 + x.  Equal keys are only a hint; the tables decide."""
    return hash((ring.order, ring.zero, ring.one, ring.mul.diagonal().tobytes(),
                 ring.add[ring.one].tobytes()))


def _same_table(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two n-by-n tables are equal: at once when they are one array,
    else compared one row block at a time, with no n-by-n temporary."""
    return a is b or core._first_mismatch(*a.shape, lambda lo, hi: (a[lo:hi], b[lo:hi])) is None


def _table_memo(ring: FiniteRing) -> _TableMemo:
    """The memo `ring` shares with every live ring on equal tables.

    Element sets are memoized per tables, not per ring object: rings on
    equal (add, mul, zero, one) compute each set once and read the one
    value, while a ring's own memo keeps what names or holds the ring
    (class reports, R/J, the unit subring).  Derived rings repeat: R/{0},
    the unit subring of a ring its units generate and the corner at 1 are
    R's tables, and Z2's tables are R/I for many catalog rings.  Sharing
    cannot change an output, since a shared value is a pure function of the
    tables, and it costs no check its power: no ring identity is used, only
    literal equality of both tables, so where a check compares two rings on
    equal tables it compared a deterministic function with itself before,
    and a set's postconditions still run once for each distinct pair of
    tables.

    Looked up on the first shared set a ring is asked for, so a ring asked
    for none pays nothing: by an O(n) fingerprint, then by literal equality
    of both tables with the tables of the memo registered under it (equal
    tables fix their identities 0 and 1), shared arrays at once and others
    one row block at a time.  A ring whose fingerprint is registered for
    unequal tables gets a memo of its own.  The registry holds its memos
    weakly, and each dies with the last ring on its tables."""
    if ring._tables is None:
        key = _fingerprint(ring)
        with _TABLE_MEMO_LOCK:
            if ring._tables is None:
                memo = _TABLE_MEMOS.get(key)
                if memo is None:
                    memo = _TABLE_MEMOS[key] = _TableMemo(ring.add, ring.mul)
                elif not (_same_table(ring.add, memo.add) and _same_table(ring.mul, memo.mul)):
                    memo = _TableMemo(ring.add, ring.mul)
                ring._tables = memo
    return ring._tables


def _memo(ring: FiniteRing, key, compute, shared: bool = True):
    """The value memoized under `key`, computed by `compute()` on a miss.
    A `shared` value lives in the memo of the ring's tables (`_table_memo`);
    a value that names the ring or holds it is not shared and lives in the
    ring's own memo.  An array is stored read-only.  Threads that race on
    one memo all get the value that was stored first."""
    memo = (ring._tables or _table_memo(ring)) if shared else ring._cache
    value = memo.get(key)
    if value is None:
        value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        value = memo.setdefault(key, value)
    return value


def unit_mask(ring: FiniteRing) -> np.ndarray:
    # a unit's right inverse is unique, so a is a unit exactly when its first
    # right inverse b (if any) is also a left one, ba = 1
    def compute():
        b = core._first_column(ring.mul, ring.one)       # -1 where a has none
        return (b >= 0) & (ring.mul[b, np.arange(ring.order)] == ring.one)
    return _memo(ring, "unit_mask", compute)


def idempotent_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        n = ring.order
        return ring.mul.diagonal() == np.arange(n, dtype=np.int32)
    return _memo(ring, "idem_mask", compute)


def nilpotent_mask(ring: FiniteRing) -> np.ndarray:
    # a is nilpotent iff a**(2^j) = 0 once 2^j >= n: the power sequence cycles
    # within n steps and 0 is absorbing.
    def compute():
        n = ring.order
        p = np.arange(n, dtype=np.int32)
        steps = max(1, int(np.ceil(np.log2(n))))
        for _ in range(steps):
            p = ring.mul[p, p]
        return p == ring.zero
    return _memo(ring, "nil_mask", compute)


def tripotent_mask(ring: FiniteRing) -> np.ndarray:
    """Elements with a**3 = a."""
    def compute():
        n = ring.order
        arange = np.arange(n, dtype=np.int32)
        return ring.mul[ring.mul.diagonal(), arange] == arange
    return _memo(ring, "trip_mask", compute)


def one_minus(ring: FiniteRing) -> np.ndarray:
    """Vector x -> 1 - x."""
    return _memo(ring, "one_minus", lambda: ring.add[ring.one, ring.neg])


def jacobson_mask(ring: FiniteRing) -> np.ndarray:
    """{a : 1 - r*a is a unit for every r}, computed as {a : R*a is nil} and
    validated to be an ideal."""
    def compute():
        # a is in J(R) exactly when every r*a is nilpotent (module docstring)
        nil = nilpotent_mask(ring)
        mask = np.ones(ring.order, dtype=bool)
        for lo, hi in core._row_blocks(ring.order, ring.order):
            mask &= np.take(nil, ring.mul[lo:hi]).all(axis=0)
        if not core.is_ideal(ring, mask):
            raise InternalInconsistency(
                f"computed radical of {ring.label} is not a two-sided ideal")
        return mask
    return _memo(ring, "jac_mask", compute)


def delta_mask(ring: FiniteRing) -> np.ndarray:
    """{r : r + u is a unit for every unit u}."""
    def compute():
        u = unit_mask(ring)
        u_idx = np.flatnonzero(u)
        mask = np.empty(ring.order, dtype=bool)
        for lo, hi, sums in core._outer_blocks(ring.add, None, u_idx):
            mask[lo:hi] = u[sums].all(axis=1)
        d_idx = np.flatnonzero(mask)
        if not mask[np.flatnonzero(jacobson_mask(ring))].all():
            raise InternalInconsistency(
                f"radical of {ring.label} escapes the delta set")
        if not (core._all_in(mask, ring.mul, u_idx, d_idx)
                and core._all_in(mask, ring.mul, d_idx, u_idx)):
            raise InternalInconsistency(
                f"delta set of {ring.label} is not closed under unit multiples")
        return mask
    return _memo(ring, "delta_mask", compute)


def unit_subring(ring: FiniteRing) -> tuple[FiniteRing, np.ndarray]:
    """The unital subring generated by the units, as `induced_subring`
    returns it: the induced ring and its members, element i of the ring
    being the i-th smallest member index.

    That makes it usable as an independent oracle: the delta set of the
    ambient ring must equal the radical of this subring, mapped back.
    When the units generate the whole ring, the subring shares the ring's
    frozen tables and so its memo of element sets: its radical is computed
    once for those tables and is the ring's radical.  The oracle then
    compares the radical with the delta set of one pair of tables, as it
    did when each was computed on a ring object of its own.
    """
    def compute():
        members = core.subring_generated(ring, np.flatnonzero(unit_mask(ring)), unital=True)
        return core.induced_subring(ring, members, ring.one, label=f"unitspan({ring.label})")
    return _memo(ring, "unit_subring", compute, shared=False)


def prime_radical(ring: FiniteRing) -> np.ndarray:
    """Least semiprime ideal; in a finite ring it is J(R) (module docstring),
    re-checked to consist of nilpotents."""
    def compute():
        mask = jacobson_mask(ring).copy()
        if not nilpotent_mask(ring)[np.flatnonzero(mask)].all():
            raise InternalInconsistency(
                f"prime radical of {ring.label} contains a non-nilpotent")
        return mask
    return _memo(ring, "nilstar_mask", compute)


def idempotent_commutant(ring: FiniteRing) -> np.ndarray:
    """Bool matrix C with C[j, x] true when the j-th smallest idempotent
    commutes with x: the rows at idempotents of the relation x*y = y*x."""
    def compute():
        id_idx = np.flatnonzero(idempotent_mask(ring))
        return ring.mul[id_idx] == np.take(ring.mul, id_idx, axis=1).T
    return _memo(ring, "idem_commutant", compute)


def quasinilpotent_mask(ring: FiniteRing) -> np.ndarray:
    """Elements a with 1 + a*x invertible for every x commuting with a:
    Nil(R) in a finite ring (module docstring)."""
    return _memo(ring, "qn_mask", lambda: nilpotent_mask(ring).copy())


def idempotent_reach(ring: FiniteRing) -> np.ndarray:
    """Bool matrix P with P[a, j] true when the j-th smallest idempotent lies
    in a*R.

    Each row of `mul` is scattered into its row of P through `pos`, which
    sends an idempotent to its column and every other element to a spare
    last column; `pos` has n entries, so it stays in cache while the blocks
    of `mul` stream past.
    """
    def compute():
        n = ring.order
        id_idx = np.flatnonzero(idempotent_mask(ring))
        width = id_idx.size + 1
        pos = np.full(n, id_idx.size, dtype=np.int32)
        pos[id_idx] = np.arange(id_idx.size, dtype=np.int32)
        reach = np.zeros((n, width), dtype=bool)
        flat = reach.ravel()
        dtype = core._index_dtype(n, width)
        for lo, hi in core._row_blocks(n, n):
            starts = np.arange(lo, hi, dtype=dtype)[:, None] * width
            flat[np.take(pos, ring.mul[lo:hi]) + starts] = True
        return reach[:, :-1]
    return _memo(ring, "idem_reach", compute)


def sumset_mask(ring: FiniteRing, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
    """Characteristic vector of {a + b : a in A, b in B}."""
    return core._marked_outer(ring.add, a_idx, b_idx)


def radical_quotient(ring: FiniteRing) -> tuple[FiniteRing, core.RingHom]:
    """R/J(R) with its projection, cached."""
    return _memo(ring, "rj", lambda: core.quotient_ring(ring, jacobson_mask(ring)), shared=False)
