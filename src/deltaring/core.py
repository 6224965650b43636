"""Finite unital rings as dense operation tables over indexed elements.

Elements of a ring of order n are the integers 0..n-1; addition and
multiplication are n-by-n lookup tables (C-contiguous numpy arrays, so
every scan is a fancy-indexing pass).  A 2-D lookup of rows R against
columns C goes rows first, then columns (`_outer`): gathering whole rows
and then taking columns from them is cheaper in numpy than one broadcast
(`np.ix_`) gather.  A value-dependent lookup `table[rows, cols]`, with
index arrays that broadcast to an n-by-n grid (a*x*a, a*g + a*c), goes
through `_lookup`.  On a table larger than one block of `_BLOCK_CELLS`
cells that is one `np.take` on the flattened table with flat indices
rows*n + cols, built one row block at a time, so every temporary is
block-sized; a smaller table stays in cache and takes numpy's own gather.
Passes over all n^2 pairs (distributivity, homomorphism certificates) run
in the same row blocks and stop at the first block with a failing pair
(`_first_mismatch`).  Holding a `FiniteRing` is proof that the
tables really form a unital ring: every one is either validated from its
tables or derived from a ring that already was, under a certificate.

`validate_ring` is exact at every order with one complete procedure:
Light's associativity test over an additive generating set, biadditivity
of the product on generator pairs, and associativity of the product on
generator triples (sound once biadditivity is known, since the associator
is additive in each slot).  For additive rank r (the size of the greedy
generating set) that is r Light passes, each one row gather and a
symmetry test, and 2r distributivity passes (left and right per
generator), each over all n^2 pairs in row blocks; the first failing
instance is reported in row-major order within the first failing pass.

Derived rings are certified, not re-validated.  `quotient_ring` checks the
ideal and then the projection with `validate_hom`: a surjective map that
preserves 0, 1, + and * carries every ring law onto its image (first
isomorphism theorem).  `induced_subring` (and so `corner_ring`) checks that
the subset contains 0, is closed under negation, addition and
multiplication, and has the given identity; the inclusion then preserves
both operations, so every ring law holds on the subset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AxiomViolation,
    HomViolation,
    InternalInconsistency,
    MalformedRing,
    NotAnIdeal,
    NotIdempotent,
    OrderGuardExceeded,
)
from .report import CheckReport, Witness

DEFAULT_ORDER_GUARD = 4096


def _resolve_guard(order_guard: int | None) -> int:
    return DEFAULT_ORDER_GUARD if order_guard is None else int(order_guard)


def _as_table(obj, name: str, guard: int) -> np.ndarray:
    """`obj` as a C-contiguous int32 table of element indices in 0..n-1 that
    shares no memory with `obj`.  The order is held to the guard before any
    cell is read, and ranges are checked before narrowing, so a bool or
    out-of-range cell is rejected, never coerced."""
    try:
        table = np.asarray(obj)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRing(f"{name} table must be a list of equal-length rows") from None
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise MalformedRing(f"{name} table must be square, got shape {table.shape}")
    if table.shape[0] > guard:
        raise OrderGuardExceeded(f"order {table.shape[0]} exceeds the order guard {guard}")
    if table.dtype.kind not in "iu":
        raise MalformedRing(f"{name} table must hold integer element indices")
    if table.size and (table.min() < 0 or table.max() >= table.shape[0]):
        raise MalformedRing(f"{name} entries out of range")
    if not isinstance(obj, np.ndarray):
        # numpy reads a bool among ints as 0 or 1, so only those cells can hide one
        n = table.shape[1]
        kinds = {obj[k // n][k % n].__class__ for k in np.flatnonzero(table <= 1).tolist()}
        if bool in kinds or np.bool_ in kinds:
            raise MalformedRing(f"{name} table must hold integer element indices, not bools")
    out = np.ascontiguousarray(table, dtype=np.int32)
    # the ring freezes its tables, so a caller's buffer is copied, never frozen or aliased
    return out.copy() if np.may_share_memory(out, table) else out


def _identity_index(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MalformedRing(f"{name} must be an integer element index, got {value!r}")
    return int(value)


def _outer(table: np.ndarray, rows, cols) -> np.ndarray:
    """`table[r, c]` for every r in `rows` (axis 0) and c in `cols` (axis 1),
    as a C-contiguous array (`[:, cols]` would return it column-ordered)."""
    return np.take(table[rows], cols, axis=1)


_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, width: int) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of consecutive blocks of `rows` rows that hold about
    `_BLOCK_CELLS` cells at `width` cells a row (at least one row each)."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return [(lo, min(rows, lo + step)) for lo in range(0, rows, step)]


def _index_dtype(n: int) -> type:
    """Flat indices r*n + c into an n-by-n table fit int32 below n^2 = 2^31."""
    return np.int64 if n * n >= 1 << 31 else np.int32


def _lookup(table: np.ndarray, rows, cols) -> np.ndarray:
    """`table[rows, cols]` for broadcastable index arrays (at least 1-D).

    A table of at most one block stays in cache, where numpy's own gather
    is fastest.  A larger one is read as `np.take(table.ravel(), rows * n +
    cols)`, one block of leading-axis rows at a time (`_row_blocks`), so the
    flat indices are block-sized; only the result is full-sized.
    """
    if table.size <= _BLOCK_CELLS:
        return table[rows, cols]
    n = table.shape[1]
    rows, cols = np.asarray(rows), np.asarray(cols)
    shape = np.broadcast_shapes(rows.shape, cols.shape)
    # operands that are constant along the leading axis broadcast into every block
    rows_lead = rows.ndim == len(shape) and rows.shape[0] > 1
    cols_lead = cols.ndim == len(shape) and cols.shape[0] > 1
    flat, dtype = table.ravel(), _index_dtype(n)
    out = np.empty(shape, dtype=table.dtype)
    for lo, hi in _row_blocks(shape[0], math.prod(shape[1:])):
        idx = (rows[lo:hi] if rows_lead else rows).astype(dtype) * n
        np.take(flat, idx + (cols[lo:hi] if cols_lead else cols), out=out[lo:hi])
    return out


def _is_symmetric(table: np.ndarray) -> bool:
    """`table == table.T`, compared one pair of square tiles of about
    `_BLOCK_CELLS` cells at a time, so the transposed side stays in cache."""
    n = table.shape[0]
    side = max(1, math.isqrt(_BLOCK_CELLS))
    for i in range(0, n, side):
        for j in range(i, n, side):
            if not np.array_equal(table[i:i + side, j:j + side],
                                  table[j:j + side, i:i + side].T):
                return False
    return True


def _first_bad_pair(bad: np.ndarray) -> tuple[int, int]:
    a, b = np.argwhere(bad)[0]
    return int(a), int(b)


def _first_mismatch(n: int, sides) -> tuple[int, int] | None:
    """First (row, column) in row-major order where the two arrays that
    `sides(lo, hi)` returns for rows lo..hi-1 of an n-by-n grid differ, or
    None when they agree on every row block."""
    for lo, hi in _row_blocks(n, n):
        lhs, rhs = sides(lo, hi)
        if not np.array_equal(lhs, rhs):
            a, b = _first_bad_pair(lhs != rhs)
            return lo + a, b
    return None


class FiniteRing:
    """A finite unital ring whose tables were validated or certified.

    Attributes
    ----------
    label:  display string.
    order:  number of elements n.
    add, mul:  n-by-n int32 tables (read-only).
    zero, one:  indices of the additive and multiplicative identities.
    names:  per-element display strings.
    neg:  vector of additive inverses.
    """

    __slots__ = ("label", "order", "add", "mul", "zero", "one", "names", "neg", "_cache")

    def __init__(self, label: str, add: np.ndarray, mul: np.ndarray, zero: int, one: int,
                 names: tuple[str, ...], neg: np.ndarray):
        self.label = label
        self.order = int(add.shape[0])
        add.setflags(write=False)
        mul.setflags(write=False)
        neg.setflags(write=False)
        self.add = add
        self.mul = mul
        self.zero = int(zero)
        self.one = int(one)
        self.names = names
        self.neg = neg
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, order={self.order})"

    def display(self, a: int) -> str:
        return self.names[a]

    def sub(self, a: int, b: int) -> int:
        return int(self.add[a, self.neg[b]])

    def pow(self, a: int, k: int) -> int:
        """a**k by square-and-multiply; a**0 is the identity."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        result, base = self.one, int(a)
        while k:
            if k & 1:
                result = int(self.mul[result, base])
            base = int(self.mul[base, base])
            k >>= 1
        return result

    @property
    def is_commutative(self) -> bool:
        cached = self._cache.get("commutative")
        if cached is None:
            cached = _is_symmetric(self.mul)
            self._cache["commutative"] = cached
        return cached

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "add": self.add.tolist(),
            "mul": self.mul.tolist(),
            "zero": self.zero,
            "one": self.one,
        }


@dataclass(frozen=True, eq=False)
class ElementSet:
    """A subset of a ring's elements as a boolean characteristic vector.

    Semantic claims (ideal, unital subring) are never trusted: re-validate
    with `is_ideal` / `is_unital_subring` before relying on them.
    """

    ring: FiniteRing
    members: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.members, dtype=bool)
        if mask.shape != (self.ring.order,):
            raise ValueError("characteristic vector must have length equal to the ring order")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "members", mask)

    @classmethod
    def from_indices(cls, ring: FiniteRing, indices) -> "ElementSet":
        mask = np.zeros(ring.order, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= ring.order:
                raise ValueError("element index out of range")
            mask[idx] = True
        return cls(ring, mask)

    @classmethod
    def full(cls, ring: FiniteRing) -> "ElementSet":
        return cls(ring, np.ones(ring.order, dtype=bool))

    @property
    def indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.members)]

    def displays(self) -> list[str]:
        return [self.ring.names[i] for i in self.indices]

    def __len__(self) -> int:
        return int(self.members.sum())

    def __contains__(self, a: int) -> bool:
        return bool(self.members[a])

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.ring is other.ring
            and np.array_equal(self.members, other.members)
        )

    def __repr__(self) -> str:
        return f"ElementSet({self.ring.label}, {self.indices})"


@dataclass(frozen=True, eq=False)
class RingHom:
    """A validated unital ring homomorphism, stored as an index map."""

    source: FiniteRing
    target: FiniteRing
    map: np.ndarray

    def __call__(self, a: int) -> int:
        return int(self.map[a])

    @property
    def is_surjective(self) -> bool:
        return len(np.unique(self.map)) == self.target.order

    @property
    def is_injective(self) -> bool:
        return len(np.unique(self.map)) == self.source.order

    def kernel(self) -> ElementSet:
        return ElementSet(self.source, self.map == self.target.zero)


@dataclass(frozen=True, eq=False)
class MatrixUnitSystem:
    """n^2 nonzero elements e_ij with e_ij*e_st = [j==s]*e_it."""

    ring: FiniteRing
    n: int
    units: tuple[tuple[int, ...], ...]
    corner_identity: int

    def validate(self) -> bool:
        R, n = self.ring, self.n
        for i in range(n):
            for j in range(n):
                if self.units[i][j] == R.zero:
                    return False
                for s in range(n):
                    for t in range(n):
                        expected = self.units[i][t] if j == s else R.zero
                        if int(R.mul[self.units[i][j], self.units[s][t]]) != expected:
                            return False
        total = R.zero
        for i in range(n):
            total = int(R.add[total, self.units[i][i]])
        return total == self.corner_identity and int(R.mul[total, total]) == total


# ---------------------------------------------------------------------------
# validation


def additive_generators(add: np.ndarray, zero: int) -> list[int]:
    """Greedy generating set of the additive table, smallest indices first.

    The table must be commutative with `zero` as its identity (validation
    checks both first); it need not be associative yet.  After each new
    generator the span grows to the literal closure under the table, but
    only by sums with at least one new member: sums of two older members
    were taken in an earlier round, and one order of each sum suffices.
    """
    n = add.shape[0]
    covered = np.zeros(n, dtype=bool)
    covered[zero] = True
    gens: list[int] = []
    while not covered.all():
        g = int(np.flatnonzero(~covered)[0])
        gens.append(g)
        covered[g] = True
        new = np.array([g])
        while new.size:
            reach = _outer(add, new, np.flatnonzero(covered)).ravel()
            new = np.unique(reach[~covered[reach]])
            covered[new] = True
    return gens


def _generator_triple_checks(add: np.ndarray, mul: np.ndarray, zero: int) -> None:
    n = add.shape[0]
    gens = additive_generators(add, zero)
    # Light's test: with a set generating the table, middle-slot triples decide
    # associativity for all triples.  M = add[add[:, g]] holds (a+g)+c at
    # [a, c], and (add being commutative) a+(g+c) = (c+g)+a at [c, a], so the
    # test is M == M.T.  g = zero passes by the identity law checked before.
    for g in gens:
        M = add[add[:, g]]
        if not _is_symmetric(M):
            a, c = _first_bad_pair(M != M.T)
            raise AxiomViolation("add-associativity", (a, g, c))
    # Biadditivity of mul on generator pairs extends to all pairs by induction
    # over generator words, given the additive group laws above.
    for g in gens:
        bad = _first_mismatch(n, lambda lo, hi: (
            np.take(mul[lo:hi], add[g], axis=1),
            _lookup(add, mul[lo:hi, g, None], mul[lo:hi])))
        if bad is not None:
            raise AxiomViolation("left-distributivity", (bad[0], g, bad[1]))
        bad = _first_mismatch(n, lambda lo, hi: (
            mul[add[lo:hi, g]], _lookup(add, mul[lo:hi], mul[g])))
        if bad is not None:
            raise AxiomViolation("right-distributivity", (bad[0], g, bad[1]))
    # With biadditivity established the associator is additive in each slot,
    # so vanishing on generator triples forces vanishing everywhere.
    for g1 in gens:
        for g2 in gens:
            m12 = mul[g1, g2]
            row2 = mul[g2]
            for g3 in gens:
                if mul[m12, g3] != mul[g1, row2[g3]]:
                    raise AxiomViolation("mul-associativity", (g1, g2, g3))


def validate_ring(add, mul, zero: int, one: int, label: str = "R",
                  names=None, *, order_guard: int | None = None) -> FiniteRing:
    """Check every ring axiom on the given tables and return the ring.

    Raises `AxiomViolation` (with the first failing instance) when any law
    fails, `OrderGuardExceeded` past the configured size cap, and
    `MalformedRing` (a `ValueError`) on malformed input: non-square tables,
    cells or identities that are not integers, indices out of range.  The
    returned object is immutable and shares no memory with `add` or `mul`.
    """
    guard = _resolve_guard(order_guard)
    add_t = _as_table(add, "add", guard)
    mul_t = _as_table(mul, "mul", guard)
    if add_t.shape != mul_t.shape:
        raise MalformedRing("add and mul tables must have the same order")
    n = add_t.shape[0]
    zero, one = _identity_index(zero, "zero"), _identity_index(one, "one")
    if not (0 <= zero < n and 0 <= one < n):
        raise MalformedRing("zero/one indices out of range")
    if n < 2 or zero == one:
        raise AxiomViolation("identity-distinct", (zero, one),
                             "rings here have 0 != 1, so the order is at least 2")

    arange = np.arange(n, dtype=np.int32)
    if not _is_symmetric(add_t):
        a, b = _first_bad_pair(add_t != add_t.T)
        raise AxiomViolation("add-commutativity", (a, b))
    if not np.array_equal(add_t[zero], arange):
        c = int(np.flatnonzero(add_t[zero] != arange)[0])
        raise AxiomViolation("add-identity", (zero, c))
    has_inverse = (add_t == zero).any(axis=1)
    if not has_inverse.all():
        raise AxiomViolation("add-inverse", (int(np.flatnonzero(~has_inverse)[0]),))
    if not np.array_equal(mul_t[one], arange):
        c = int(np.flatnonzero(mul_t[one] != arange)[0])
        raise AxiomViolation("mul-identity", (one, c))
    if not np.array_equal(mul_t[:, one], arange):
        c = int(np.flatnonzero(mul_t[:, one] != arange)[0])
        raise AxiomViolation("mul-identity", (c, one))

    _generator_triple_checks(add_t, mul_t, zero)
    return _certified_ring(label, add_t, mul_t, zero, one, names)


def _certified_ring(label: str, add: np.ndarray, mul: np.ndarray, zero: int, one: int,
                    names) -> FiniteRing:
    """The one place a `FiniteRing` is made, for tables already known to
    form a ring: validated by `validate_ring` or certified by a derivation.
    Every caller passes C-contiguous tables, so row-first scans are dense."""
    n = add.shape[0]
    if zero == one:
        raise AxiomViolation("identity-distinct", (zero, one),
                             "rings here have 0 != 1, so the order is at least 2")
    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise ValueError("names must have one entry per element")
    neg = (add == zero).argmax(axis=1).astype(np.int32)
    return FiniteRing(label, add, mul, zero, one, names, neg)


def _relabel(ring: FiniteRing, label: str) -> FiniteRing:
    """The same certified tables under another label (a fresh memo)."""
    return _certified_ring(label, ring.add, ring.mul, ring.zero, ring.one, ring.names)


# ---------------------------------------------------------------------------
# element arithmetic


def element_arith(ring: FiniteRing, op: str, *args: int) -> int:
    """Table-backed element arithmetic: add, neg, sub, mul, pow."""
    def check(i):
        i = int(i)
        if not 0 <= i < ring.order:
            raise ValueError(f"element index {i} out of range for order {ring.order}")
        return i

    if op == "add":
        a, b = args
        return int(ring.add[check(a), check(b)])
    if op == "neg":
        (a,) = args
        return int(ring.neg[check(a)])
    if op == "sub":
        a, b = args
        return ring.sub(check(a), check(b))
    if op == "mul":
        a, b = args
        return int(ring.mul[check(a), check(b)])
    if op == "pow":
        a, k = args
        return ring.pow(check(a), int(k))
    raise ValueError(f"unknown element operation {op!r}")


def inverse(ring: FiniteRing, a: int) -> int | None:
    """Two-sided inverse of a, or None.  Unique in a finite ring."""
    row = ring.mul[a] == ring.one
    col = ring.mul[:, a] == ring.one
    both = row & col
    if not both.any():
        return None
    return int(np.flatnonzero(both)[0])


# ---------------------------------------------------------------------------
# subsets: closures, ideals, subrings


def _closure(ring: FiniteRing, seed, extend) -> ElementSet:
    """Least superset of `seed` that `extend` cannot enlarge.

    `extend(new, cur)` returns the elements that pairs with at least one
    member in `new` reach; pairs of older members were taken in an earlier
    round, so each round only looks at the frontier.
    """
    mask = np.zeros(ring.order, dtype=bool)
    mask[np.asarray(seed, dtype=np.int64)] = True
    new = np.flatnonzero(mask)
    while new.size:
        reach = extend(new, np.flatnonzero(mask))
        new = np.unique(reach[~mask[reach]])
        mask[new] = True
    return ElementSet(ring, mask)


def subring_generated(ring: FiniteRing, gens, unital: bool = True) -> ElementSet:
    """Least subset closed under subtraction and multiplication containing
    `gens` (and the identity when `unital`)."""
    seed = list(gens.indices if isinstance(gens, ElementSet) else gens)
    if unital:
        seed.append(ring.one)
    add, mul, neg = ring.add, ring.mul, ring.neg
    return _closure(ring, seed, lambda new, cur: np.concatenate((
        _outer(add, new, neg[cur]).ravel(), _outer(add, cur, neg[new]).ravel(),
        _outer(mul, new, cur).ravel(), _outer(mul, cur, new).ravel())))


def ideal_generated(ring: FiniteRing, gens) -> ElementSet:
    """Least two-sided ideal containing `gens` (fixpoint closure)."""
    seed = list(gens.indices if isinstance(gens, ElementSet) else gens)
    seed.append(ring.zero)
    add, mul = ring.add, ring.mul
    return _closure(ring, seed, lambda new, cur: np.concatenate((
        _outer(add, new, cur).ravel(), mul[:, new].ravel(), mul[new, :].ravel())))


def is_ideal(ring: FiniteRing, subset: ElementSet) -> bool:
    """Re-validate the two-sided ideal property (never trusted from tags)."""
    mask = subset.members
    idx = np.flatnonzero(mask)
    if not mask[ring.zero]:
        return False
    if not mask[_outer(ring.add, idx, idx)].all():
        return False
    if not mask[ring.mul[:, idx]].all():
        return False
    if not mask[ring.mul[idx, :]].all():
        return False
    return True


def is_unital_subring(ring: FiniteRing, subset: ElementSet) -> bool:
    mask = subset.members
    idx = np.flatnonzero(mask)
    if not (mask[ring.zero] and mask[ring.one]):
        return False
    if not mask[_outer(ring.add, idx, ring.neg[idx])].all():
        return False
    if not mask[_outer(ring.mul, idx, idx)].all():
        return False
    return True


def _ideal_label(ring: FiniteRing, idx: np.ndarray) -> str:
    if idx.size <= 12:
        inner = ",".join(str(int(i)) for i in idx)
        return f"{ring.label}/{{{inner}}}"
    return f"{ring.label}/|I|={idx.size}"


def quotient_ring(ring: FiniteRing, ideal: ElementSet) -> tuple[FiniteRing, RingHom]:
    """Quotient by a validated two-sided ideal, plus the projection.

    Coset representatives are canonical: the smallest element index in each
    coset, listed in ascending order.
    """
    if not is_ideal(ring, ideal):
        raise NotAnIdeal(f"subset {ideal.indices} is not a two-sided ideal of {ring.label}")
    if ideal.members.all():
        raise ValueError("quotient by the whole ring is the zero ring, which is excluded")
    idx = np.flatnonzero(ideal.members)
    rep = ring.add[:, idx].min(axis=1).astype(np.int32)
    reps = np.unique(rep)
    pos = np.full(ring.order, -1, dtype=np.int32)
    pos[reps] = np.arange(reps.size, dtype=np.int32)
    qadd = pos[rep[_outer(ring.add, reps, reps)]]
    qmul = pos[rep[_outer(ring.mul, reps, reps)]]
    qzero = int(pos[rep[ring.zero]])
    qone = int(pos[rep[ring.one]])
    names = tuple(f"[{ring.names[int(r)]}]" for r in reps)
    quotient = _certified_ring(_ideal_label(ring, idx), qadd, qmul, qzero, qone, names)
    # The certificate: the projection is surjective by construction, so its
    # validation as a homomorphism proves the quotient tables form a ring.
    proj = validate_hom(ring, quotient, pos[rep])
    return quotient, proj


def induced_subring(ring: FiniteRing, subset: ElementSet, one: int,
                    label: str | None = None) -> tuple[FiniteRing, np.ndarray]:
    """Ring structure on a multiplicatively and additively closed subset.

    Element i of the result is the i-th smallest member index of `subset`;
    the returned index array realises that correspondence.  `one` must be a
    two-sided identity on the subset.
    """
    mask = subset.members
    elems = np.flatnonzero(mask).astype(np.int32)
    if not (mask[ring.zero] and mask[ring.neg[elems]].all()):
        raise ValueError("subset does not contain 0 and the negatives of its members")
    pos = np.full(ring.order, -1, dtype=np.int32)
    pos[elems] = np.arange(elems.size, dtype=np.int32)
    sub_add = pos[_outer(ring.add, elems, elems)]
    sub_mul = pos[_outer(ring.mul, elems, elems)]
    if sub_add.min() < 0 or sub_mul.min() < 0:
        raise ValueError("subset is not closed under the ring operations")
    one = int(one)
    if not mask[one]:
        raise ValueError(f"identity {one} is not a member of the subset")
    bad = (ring.mul[one, elems] != elems) | (ring.mul[elems, one] != elems)
    if bad.any():
        raise AxiomViolation("mul-identity", (one, int(elems[np.flatnonzero(bad)[0]])))
    names = tuple(ring.names[int(e)] for e in elems)
    # The inclusion preserves + and * on a subset holding 0, negatives and an
    # identity, so every ring law holds there: no re-validation is needed.
    out = _certified_ring(label or f"{ring.label}|sub({elems.size})", sub_add, sub_mul,
                          int(pos[ring.zero]), int(pos[one]), names)
    return out, elems


def corner_ring(ring: FiniteRing, e: int) -> FiniteRing:
    """The ring e*R*e with identity e, for a nonzero idempotent e."""
    e = int(e)
    if e == ring.zero or int(ring.mul[e, e]) != e:
        raise NotIdempotent(f"element {e} of {ring.label} is not a nonzero idempotent")
    vals = np.unique(ring.mul[ring.mul[e, :], e])
    mask = np.zeros(ring.order, dtype=bool)
    mask[vals] = True
    out, _ = induced_subring(ring, ElementSet(ring, mask), e,
                             label=f"corner({ring.label},{e})")
    return out


def center(ring: FiniteRing) -> ElementSet:
    """Elements commuting with everything."""
    return ElementSet(ring, (ring.mul == ring.mul.T).all(axis=1))


# ---------------------------------------------------------------------------
# homomorphisms


def validate_hom(source: FiniteRing, target: FiniteRing, mapping) -> RingHom:
    """Check that the index map is a unital ring homomorphism (exhaustively)."""
    m = np.asarray(mapping)
    if m.shape != (source.order,):
        raise ValueError("map must assign an image to every source element")
    if m.dtype.kind not in "iu":
        raise ValueError("map images must be integer element indices")
    # checked at the given width, so an image past int32 cannot wrap into range
    if m.size and (m.min() < 0 or m.max() >= target.order):
        raise ValueError("map image out of range")
    m = m.astype(np.int32)
    if int(m[source.zero]) != target.zero:
        raise HomViolation("zero", (source.zero,))
    if int(m[source.one]) != target.one:
        raise HomViolation("one", (source.one,))
    n = source.order
    for kind, src, tgt in (("additive", source.add, target.add),
                           ("multiplicative", source.mul, target.mul)):
        bad = _first_mismatch(n, lambda lo, hi: (
            np.take(m, src[lo:hi]), _outer(tgt, m[lo:hi], m)))
        if bad is not None:
            raise HomViolation(kind, bad)
    m.setflags(write=False)
    return RingHom(source, target, m)


def alpha_compatible(ring: FiniteRing, alpha: RingHom) -> CheckReport:
    """Does a*b = 0 hold exactly when a*alpha(b) = 0, for all pairs?"""
    if alpha.source is not ring or alpha.target is not ring:
        raise ValueError("alpha must be an endomorphism of the given ring")
    plain = ring.mul == ring.zero
    twisted = ring.mul[:, alpha.map] == ring.zero
    same = plain == twisted
    if same.all():
        return CheckReport(ring.label, "compatible-endomorphism", True,
                           notes="a*b = 0 iff a*alpha(b) = 0 for all pairs")
    a, b = _first_bad_pair(~same)
    direction = "a*b = 0 but a*alpha(b) != 0" if plain[a, b] else "a*alpha(b) = 0 but a*b != 0"
    return CheckReport(ring.label, "compatible-endomorphism", False,
                       witness=[Witness("left-factor", a, ring.names[a]),
                                Witness("right-factor", b, ring.names[b])],
                       notes=direction)


def find_endomorphisms(ring: FiniteRing, limit: int = 64) -> list[RingHom]:
    """Unital ring endomorphisms, found by backtracking over additive
    generators.  Offered only up to `limit`; supply and validate the map
    yourself for larger rings."""
    if ring.order > limit:
        raise ValueError(f"endomorphism discovery is offered only for order <= {limit}")
    add, mul = ring.add, ring.mul
    n = ring.order

    def close(partial: dict[int, int], pairs: list[tuple[int, int]]) -> dict[int, int] | None:
        # Propagate additivity from the known graph; None on conflict.
        known = dict(partial)
        frontier = pairs
        while frontier:
            nxt = []
            for a, b in frontier:
                c = int(add[a, b])
                img = int(add[known[a], known[b]])
                if c in known:
                    if known[c] != img:
                        return None
                else:
                    known[c] = img
                    nxt.extend((c, d) for d in list(known))
                    nxt.extend((d, c) for d in list(known))
            frontier = nxt
        for a in known:
            for b in known:
                c = int(mul[a, b])
                if c in known and known[c] != int(mul[known[a], known[b]]):
                    return None
        return known

    base = close({ring.zero: ring.zero, ring.one: ring.one},
                 [(ring.zero, ring.one), (ring.one, ring.one)])
    results: list[RingHom] = []

    def extend(known: dict[int, int]):
        missing = [a for a in range(n) if a not in known]
        if not missing:
            m = np.array([known[a] for a in range(n)], dtype=np.int32)
            try:
                results.append(validate_hom(ring, ring, m))
            except HomViolation:
                pass
            return
        g = missing[0]
        for y in range(n):
            trial = dict(known)
            trial[g] = y
            closed = close(trial, [(g, d) for d in list(trial)] + [(d, g) for d in list(trial)])
            if closed is not None:
                extend(closed)

    if base is not None:
        extend(base)
    results.sort(key=lambda h: tuple(int(v) for v in h.map))
    return results


# ---------------------------------------------------------------------------
# matrix-unit systems


def find_matrix_units(ring: FiniteRing, n: int, within: ElementSet | None = None) -> MatrixUnitSystem | None:
    """Backtracking search for a system of n^2 matrix units inside `within`.

    Only e_11 and the pairs (e_1j, e_j1) are searched (ascending element
    index); the remaining units are forced as e_i1*e_1j and the full n^4
    relation set is verified before returning.  Deterministic."""
    if n < 2:
        raise ValueError("matrix-unit systems need n >= 2")
    mask = within.members if within is not None else np.ones(ring.order, dtype=bool)
    mul, zero = ring.mul, ring.zero
    cand = [int(a) for a in np.flatnonzero(mask) if a != zero]

    def pair_ok(e11: int, pairs: list[tuple[int, int]], x: int, y: int) -> bool:
        if int(mul[e11, x]) != x or int(mul[x, e11]) != zero:
            return False
        if int(mul[y, e11]) != y or int(mul[e11, y]) != zero:
            return False
        if int(mul[x, y]) != e11 or int(mul[x, x]) != zero or int(mul[y, y]) != zero:
            return False
        for xp, yp in pairs:
            if int(mul[x, xp]) != zero or int(mul[xp, x]) != zero:
                return False
            if int(mul[yp, y]) != zero or int(mul[y, yp]) != zero:
                return False
        return True

    def assemble(e11: int, pairs: list[tuple[int, int]]) -> MatrixUnitSystem | None:
        units = [[0] * n for _ in range(n)]
        units[0][0] = e11
        for j, (x, y) in enumerate(pairs, start=1):
            units[0][j] = x
            units[j][0] = y
        for i in range(1, n):
            for j in range(1, n):
                units[i][j] = int(mul[units[i][0], units[0][j]])
        for i in range(n):
            for j in range(n):
                if units[i][j] == zero or not mask[units[i][j]]:
                    return None
        system = MatrixUnitSystem(ring, n, tuple(tuple(row) for row in units), 0)
        total = zero
        for i in range(n):
            total = int(ring.add[total, units[i][i]])
        system = MatrixUnitSystem(ring, n, system.units, total)
        return system if system.validate() else None

    def search(e11: int, pairs: list[tuple[int, int]]) -> MatrixUnitSystem | None:
        if len(pairs) == n - 1:
            return assemble(e11, pairs)
        for x in cand:
            if int(mul[e11, x]) != x:
                continue
            for y in cand:
                if pair_ok(e11, pairs, x, y):
                    found = search(e11, pairs + [(x, y)])
                    if found is not None:
                        return found
        return None

    for e11 in cand:
        if int(mul[e11, e11]) != e11:
            continue
        found = search(e11, [])
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# serialization


def ring_to_json(ring: FiniteRing) -> str:
    """Dump format: {label, order, add, mul, zero, one}; round-trips bit-exactly."""
    return json.dumps(ring.to_dict(), sort_keys=True, separators=(",", ":"))


def ring_from_dict(data: dict, *, order_guard: int | None = None) -> FiniteRing:
    """Validate a decoded dump; `MalformedRing` when it is not one."""
    if not isinstance(data, dict):
        raise MalformedRing(f"a ring dump must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("add", "mul", "zero", "one") if key not in data]
    if missing:
        raise MalformedRing(f"ring dump lacks {', '.join(missing)}")
    label = data.get("label", "R")
    if not isinstance(label, str):
        raise MalformedRing(f"label must be a string, got {label!r}")
    return validate_ring(data["add"], data["mul"], data["zero"], data["one"],
                         label=label, order_guard=order_guard)


def ring_from_json(text: str, *, order_guard: int | None = None) -> FiniteRing:
    try:
        data = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise MalformedRing(f"a ring dump must be JSON text: {exc}") from None
    return ring_from_dict(data, order_guard=order_guard)


def check_internal(condition: bool, message: str) -> None:
    """Raise InternalInconsistency when a mathematically forced postcondition fails."""
    if not condition:
        raise InternalInconsistency(message)
