"""Canonical element sets of a finite ring.

Units, idempotents, nilpotents, tripotent elements, the Jacobson radical,
the delta set {r : r + U(R) is contained in U(R)}, the unit-generated
subring, the prime radical, and quasinilpotents.  All functions are pure
and memoized on the ring; each set that has a forced postcondition
re-checks it and raises InternalInconsistency on failure (that would be an
implementation bug, not bad input).
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import ElementSet, FiniteRing
from .errors import InternalInconsistency

QN_DEFINITION = "quasinilpotent: 1 + a*x is a unit for every x commuting with a"


def _cached_mask(ring: FiniteRing, key: str, compute) -> np.ndarray:
    """The memoized read-only array under `key`.  Threads that race on one
    ring all get the array that was stored first."""
    mask = ring._cache.get(key)
    if mask is None:
        mask = compute()
        mask.setflags(write=False)
        mask = ring._cache.setdefault(key, mask)
    return mask


def unit_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        hits = ring.mul == ring.one
        return (hits & hits.T).any(axis=1)
    return _cached_mask(ring, "unit_mask", compute)


def units(ring: FiniteRing) -> ElementSet:
    return ElementSet(ring, unit_mask(ring))


def idempotent_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        n = ring.order
        return ring.mul.diagonal() == np.arange(n, dtype=np.int32)
    return _cached_mask(ring, "idem_mask", compute)


def idempotents(ring: FiniteRing) -> ElementSet:
    return ElementSet(ring, idempotent_mask(ring))


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
    return _cached_mask(ring, "nil_mask", compute)


def nilpotents(ring: FiniteRing) -> ElementSet:
    return ElementSet(ring, nilpotent_mask(ring))


def tripotent_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        n = ring.order
        arange = np.arange(n, dtype=np.int32)
        return ring.mul[ring.mul.diagonal(), arange] == arange
    return _cached_mask(ring, "trip_mask", compute)


def tripotent_elements(ring: FiniteRing) -> ElementSet:
    """Elements with a**3 = a."""
    return ElementSet(ring, tripotent_mask(ring))


def one_minus(ring: FiniteRing) -> np.ndarray:
    """Vector x -> 1 - x."""
    return _cached_mask(ring, "one_minus", lambda: ring.add[ring.one, ring.neg])


def jacobson_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        om = one_minus(ring)
        u = unit_mask(ring)
        # a is quasi-regular on the left: 1 - r*a invertible for all r.  In a
        # finite ring one-sided inverses are two-sided, so this is J(R).
        mask = u[om[ring.mul]].all(axis=0)
        if not core.is_ideal(ring, ElementSet(ring, mask)):
            raise InternalInconsistency(
                f"computed radical of {ring.label} is not a two-sided ideal")
        return mask
    return _cached_mask(ring, "jac_mask", compute)


def jacobson_radical(ring: FiniteRing) -> ElementSet:
    """{a : 1 - r*a is a unit for every r}, validated to be an ideal."""
    return ElementSet(ring, jacobson_mask(ring))


def delta_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        u = unit_mask(ring)
        u_idx = np.flatnonzero(u)
        mask = u[ring.add[:, u_idx]].all(axis=1)
        d_idx = np.flatnonzero(mask)
        if not mask[np.flatnonzero(jacobson_mask(ring))].all():
            raise InternalInconsistency(
                f"radical of {ring.label} escapes the delta set")
        if d_idx.size and u_idx.size:
            left = mask[core._outer(ring.mul, u_idx, d_idx)].all()
            right = mask[core._outer(ring.mul, d_idx, u_idx)].all()
            if not (left and right):
                raise InternalInconsistency(
                    f"delta set of {ring.label} is not closed under unit multiples")
        return mask
    return _cached_mask(ring, "delta_mask", compute)


def delta_set(ring: FiniteRing) -> ElementSet:
    """{r : r + u is a unit for every unit u}."""
    return ElementSet(ring, delta_mask(ring))


def unit_subring(ring: FiniteRing) -> tuple[ElementSet, FiniteRing]:
    """The unital subring generated by the units, with its induced ring.

    Element i of the induced ring is the i-th smallest member index, which
    makes it usable as an independent oracle: the delta set of the ambient
    ring must equal the radical of this subring, mapped back.
    """
    cached = ring._cache.get("unit_subring")
    if cached is None:
        members = core.subring_generated(ring, units(ring), unital=True)
        sub, elems = core.induced_subring(ring, members, ring.one,
                                          label=f"unitspan({ring.label})")
        cached = ring._cache.setdefault("unit_subring", (members, sub, elems))
    members, sub, _ = cached
    return members, sub


def unit_subring_elements(ring: FiniteRing) -> np.ndarray:
    unit_subring(ring)
    return ring._cache["unit_subring"][2]


def prime_radical(ring: FiniteRing) -> ElementSet:
    """Least semiprime ideal, by fixpoint iteration from {0}."""
    def compute():
        n = ring.order
        col = np.arange(n, dtype=np.int32)[:, None]
        sandwich = core._lookup(ring.mul, ring.mul, col)   # [a, r] = a*r*a
        mask = np.zeros(n, dtype=bool)
        mask[ring.zero] = True
        while True:
            forced = mask[sandwich].all(axis=1)     # a with a*R*a inside I
            new = forced & ~mask
            if not new.any():
                break
            mask = core.ideal_generated(
                ring, np.flatnonzero(mask | forced)).members.copy()
        if (mask[sandwich].all(axis=1) & ~mask).any():
            raise InternalInconsistency(
                f"prime radical of {ring.label} is not semiprime at the fixpoint")
        if not nilpotent_mask(ring)[np.flatnonzero(mask)].all():
            raise InternalInconsistency(
                f"prime radical of {ring.label} contains a non-nilpotent")
        return mask
    return ElementSet(ring, _cached_mask(ring, "nilstar_mask", compute))


def commuting_matrix(ring: FiniteRing) -> np.ndarray:
    return _cached_mask(ring, "commut", lambda: ring.mul == ring.mul.T)


def quasinilpotent_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        comm = commuting_matrix(ring)
        one_plus = ring.add[ring.one]
        ok = unit_mask(ring)[one_plus[ring.mul]]
        return (~comm | ok).all(axis=1)
    return _cached_mask(ring, "qn_mask", compute)


def quasinilpotents(ring: FiniteRing) -> ElementSet:
    """Elements a with 1 + a*x invertible for every x commuting with a."""
    return ElementSet(ring, quasinilpotent_mask(ring))


def sumset_mask(ring: FiniteRing, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
    """Characteristic vector of {a + b : a in A, b in B}."""
    mask = np.zeros(ring.order, dtype=bool)
    if len(a_idx) and len(b_idx):
        mask[core._outer(ring.add, a_idx, b_idx).ravel()] = True
    return mask


def radical_quotient(ring: FiniteRing) -> tuple[FiniteRing, core.RingHom]:
    """R/J(R) with its projection, cached."""
    cached = ring._cache.get("rj")
    if cached is None:
        cached = ring._cache.setdefault("rj", core.quotient_ring(ring, jacobson_radical(ring)))
    return cached
