"""Finite unital rings as dense operation tables over indexed elements.

Elements of a ring of order n are the integers 0..n-1; addition and
multiplication are n-by-n lookup tables (C-contiguous numpy arrays, so
every scan is a fancy-indexing pass).  Every ring holds its tables, and
its negation vector, at the one dtype `TABLE_DTYPE`, uint16: a cell is an
element index below n, so the order is at most `MAX_ORDER` = 2^16, and the
order guard is capped there (`_resolve_guard`).  A table is made at that
width where it is made, never made wider and narrowed afterwards, except
where a range check has to read the cells at their own width first
(`_as_table`, and each block of a canonical dump, `_read_block`).
numpy wraps uint16 arithmetic silently, so cells take part in arithmetic
only where every partial result is itself an element index below n (the
stride sums of `constructions._tuple_ring`); flat indices into a table
are computed at `_index_dtype`.  A 2-D lookup of rows R against
columns C goes rows first, then columns: gathering whole rows and then
taking columns from them is cheaper in numpy than one broadcast (`np.ix_`)
gather.  It is made one row block of about `_BLOCK_CELLS` cells at a time
(`_outer_blocks`), and a pass that reduces it to a vector or a verdict
reads it block by block (`_all_in`, `_marked_outer`, `_first_column`,
`is_ideal`, the coset representatives of `quotient_ring`, and the scans of
`subsets` and `predicates`), so it holds no n-by-n or n-by-|S| temporary;
`_outer` joins the blocks only where the array is the result, such as a
quotient's tables.  Symmetry tests (commutativity, Light's test, the
Jacobson pair of `predicates`) compare square tiles and name the first
failing pair from the tiles they compared, so they gather no n-by-n array
either.  A value-dependent lookup
`table[rows, cols]`, with index arrays that broadcast to an n-by-n grid
(a*x*a, a*g + a*c), goes through `_lookup`.  On a table larger than one
block of `_BLOCK_CELLS` cells that is one `np.take` on the flattened table
with flat indices rows*n + cols, built one row block at a time, so every
temporary is block-sized; a smaller table stays in cache and takes numpy's
own gather.  A pass that compares two sides on a grid (distributivity, a
homomorphism on every row or on coset representatives, `_hom_pass`, and
table equality) runs in row blocks and stops at the first block with a
failing pair (`_first_mismatch`).  Holding a `FiniteRing` is proof that
the tables really form a unital ring: every one is either validated from
its tables or derived from a ring that already was, under a certificate.

`validate_ring` is exact at every order with one complete procedure
(`_validated_ring`): the group laws of the addition, both identity laws,
Light's associativity test on the additive generators that one coset walk
finds (`_coset_walk`, `_group_generators`), then biadditivity and
associativity of the product from those generators
(`_generator_triple_checks`, whose docstring holds the schedule of passes,
why it is sound, and which violation a rejection names).
`validate_ring` serves tables from outside the program (dumps, library
callers): it copies and range-checks them for `_validated_ring`.  A
canonical dump is read straight into tables of its own, which go to
`_validated_ring` with no copy (`ring_from_json`).

The rings the program builds, Z_n (`dsl`) and the structure-table rings
(`constructions`), go to `_validated_ring` on tables made for them, which
it freezes in place.  A structure-table ring is filled on the same coset
walk and certified from its terms instead
(`constructions._structure_certified`), and `_validated_ring` then checks
its identity laws only.

Derived rings are certified, not re-validated.  `quotient_ring` checks the
ideal with `is_ideal`, then certifies the projection on the coset
representatives S (`_certified_projection`, n(2|S| + 1) cells instead
of the 2n^2 of `validate_hom`, which checks a map between given rings): a
surjective homomorphism with kernel I carries every ring law onto the
quotient (first isomorphism theorem).  R/{0} is R's own tables
under bracketed names with the identity as its projection, and the
identity needs no certificate (nor in `constructions.identity_endomorphism`).
`induced_subring` (and so `corner_ring`) checks that the subset contains
0, is closed under negation, addition and multiplication, and has the
given identity; the inclusion then preserves both operations, so every
ring law holds on the subset.  The subset of every element is closed by
definition and induces R's own tables, so that subring (the unit subring
of a ring its units generate, `corner_ring(R, 1)`) shares R's frozen
tables and negation instead of copying them, under its own label and
names and with a memo of its own.

Element sets are memoized per tables, not per ring object;
`subsets._table_memo` says how, and why that changes no output and costs
no check its power.
"""

from __future__ import annotations

import json
import math
import operator
import threading
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

DEFAULT_ORDER_GUARD = 4096
# the dtype of every ring's tables and negation vector, and the orders it indexes
TABLE_DTYPE = np.uint16
MAX_ORDER = int(np.iinfo(TABLE_DTYPE).max) + 1


def _resolve_guard(order_guard: int | None) -> int:
    """The order guard in force: `order_guard`, `DEFAULT_ORDER_GUARD` when
    it is None, and never more than `MAX_ORDER`, so an order past what a
    table cell indexes is refused before anything is allocated (its two
    tables would need more than 17 GB anyway)."""
    return min(DEFAULT_ORDER_GUARD if order_guard is None else int(order_guard), MAX_ORDER)


def _hold_to_guard(n: int, guard: int) -> None:
    if n > guard:
        raise OrderGuardExceeded(f"order {n} exceeds the order guard {guard}")


def _as_table(obj, name: str, guard: int) -> np.ndarray:
    """`obj` as a C-contiguous `TABLE_DTYPE` table of element indices in
    0..n-1 that shares no memory with `obj`.  The order is held to the guard
    (at most `MAX_ORDER`) before any cell is read, and ranges are checked at
    the width given, before narrowing, so a bool or out-of-range cell (one
    of 2^16 or more included) is rejected, never coerced or wrapped."""
    try:
        table = np.asarray(obj)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRing(f"{name} table must be a list of equal-length rows") from None
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise MalformedRing(f"{name} table must be square, got shape {table.shape}")
    _hold_to_guard(table.shape[0], guard)
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
    out = np.ascontiguousarray(table, dtype=TABLE_DTYPE)
    # the ring freezes its tables, so a caller's buffer is copied, never frozen or aliased
    return out.copy() if np.may_share_memory(out, table) else out


def _identity_index(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MalformedRing(f"{name} must be an integer element index, got {value!r}")
    return int(value)


def _frozen(mask: np.ndarray) -> np.ndarray:
    mask.setflags(write=False)
    return mask


def _marked(values, n: int) -> np.ndarray:
    """Bool vector of length `n` that is True at each index in `values`:
    the distinct values without `np.unique`'s sort."""
    mask = np.zeros(n, dtype=bool)
    mask[values] = True
    return mask


# 2^15 uint16 cells make a 64 KiB block of table cells, the size 2^14 int32
# cells made when the tables were int32.  On a 2-core x86-64 VM, 2^15 against
# 2^14 (10 alternating cold runs each): `info` on M(2,GF(8)) (order 4096)
# 0.52 -> 0.47 s, Prod(Z64,Z64) 0.42 -> 0.39 s, Prod(Z32,Z64) 0.18 -> 0.17 s,
# `verify all` at 1 and 2 threads unchanged (0.58 s, 0.44 s), peak RSS
# within 0.2 MB.  Beyond that, glibc's mmap threshold (initially 128 KiB)
# serves the int64 flat indices of a block with a fresh mmap, whose pages
# fault in one by one on first touch.
_BLOCK_CELLS = 1 << 15


def _row_blocks(rows: int, width: int) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of consecutive blocks of `rows` rows that hold about
    `_BLOCK_CELLS` cells at `width` cells a row (at least one row each)."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return [(lo, min(rows, lo + step)) for lo in range(0, rows, step)]


def _index_dtype(rows: int, width: int) -> type:
    """Flat indices r*width + c into a `rows`-by-`width` grid fit int32
    below rows*width = 2^31."""
    return np.int64 if rows * width >= 1 << 31 else np.int32


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
    flat, dtype = table.ravel(), _index_dtype(*table.shape)
    out = np.empty(shape, dtype=table.dtype)
    for lo, hi in _row_blocks(shape[0], math.prod(shape[1:])):
        idx = (rows[lo:hi] if rows_lead else rows).astype(dtype) * n
        np.take(flat, idx + (cols[lo:hi] if cols_lead else cols), out=out[lo:hi])
    return out


def _outer_blocks(table: np.ndarray, rows=None, cols=None):
    """Yield (lo, hi, block) for consecutive row blocks of the array
    `table[r, c]`, r in `rows` (axis 0) and c in `cols` (axis 1): block
    holds its rows lo..hi-1, C-contiguous when `cols` is given.  `rows`
    None takes the table's own rows in order, `cols` None every column.
    A block gathers whole rows, then takes its columns from them, so a
    block of gathered rows is sized at the table's width."""
    count = table.shape[0] if rows is None else len(rows)
    width = table.shape[1] if rows is not None or cols is None else len(cols)
    for lo, hi in _row_blocks(count, width):
        block = table[lo:hi] if rows is None else table[rows[lo:hi]]
        yield lo, hi, block if cols is None else block.take(cols, axis=1)


def _outer(table: np.ndarray, rows, cols, through: np.ndarray | None = None) -> np.ndarray:
    """`table[r, c]` for every r in `rows` (axis 0) and c in `cols` (axis 1),
    or `through[table[r, c]]` when the vector `through` is given, as a
    C-contiguous array built one row block at a time (`_outer_blocks`)."""
    out = np.empty((len(rows), len(cols)), dtype=(table if through is None else through).dtype)
    for lo, hi, block in _outer_blocks(table, rows, cols):
        if through is None:
            out[lo:hi] = block
        else:
            np.take(through, block, out=out[lo:hi])
    return out


def _marked_outer(table: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """Bool vector over the table's elements that is True at each value of
    `_outer_blocks(table, rows, cols)`, marked one row block at a time."""
    mask = np.zeros(table.shape[0], dtype=bool)
    for _, _, block in _outer_blocks(table, rows, cols):
        mask[block] = True
    return mask


def _all_in(mask: np.ndarray, table: np.ndarray, rows=None, cols=None) -> bool:
    """Whether `mask` holds at every `table[r, c]` of `_outer_blocks(table,
    rows, cols)`; the scan stops at the first block that fails."""
    for _, _, block in _outer_blocks(table, rows, cols):
        if not mask[block].all():
            return False
    return True


def _first_column(table: np.ndarray, value, rows=None) -> np.ndarray:
    """Each row's first column that holds `value` (one element, or one per
    row), or -1 in a row that holds none, as an int32 vector made in row
    blocks, over the table's `rows` (all of them when None)."""
    value = np.asarray(value)
    out = np.empty(table.shape[0] if rows is None else len(rows), dtype=np.int32)
    for lo, hi, block in _outer_blocks(table, rows):
        hit = block == (value if value.ndim == 0 else value[lo:hi, None])
        first = out[lo:hi]
        first[:] = hit.argmax(axis=1)
        first[(first == 0) & ~hit[:, 0]] = -1     # argmax is 0 in a row without a hit
    return out


def _is_symmetric(table: np.ndarray, rows: np.ndarray | None = None,
                  through: np.ndarray | None = None) -> tuple[int, int] | None:
    """The first (a, c) in row-major order with M[a, c] != M[c, a], or None,
    for M = `table[rows]` (`table` itself when `rows` is None), read as
    `through[M]` when the vector `through` is given.  M is compared one
    pair of square tiles of about `_BLOCK_CELLS` cells at a time, so the
    transposed side stays in cache and M is never gathered whole.  That
    pair has a < c, so it lies in the first row of tiles that fails, though
    maybe not in its first failing tile: the row is finished."""
    n = table.shape[0]
    side = max(1, math.isqrt(_BLOCK_CELLS))

    def tile(i: int, j: int) -> np.ndarray:
        cols = slice(j, j + side)
        out = table[i:i + side, cols] if rows is None else table[rows[i:i + side], cols]
        return out if through is None else through[out]

    for i in range(0, n, side):
        found = []
        for j in range(i, n, side):
            upper = tile(i, j)
            bad = upper != (upper if i == j else tile(j, i)).T
            if bad.any():   # its first pair lies above the diagonal, also in a diagonal tile
                r, s = _first_bad_pair(bad)
                found.append((i + r, j + s))
        if found:
            return min(found)
    return None


def _first_bad_pair(bad: np.ndarray) -> tuple[int, int]:
    a, b = np.argwhere(bad)[0]
    return int(a), int(b)


def _first_mismatch(rows: int, width: int, sides) -> tuple[int, int] | None:
    """First (row, column) in row-major order where the two arrays that
    `sides(lo, hi)` returns for rows lo..hi-1 of a grid of `rows` rows of
    `width` cells differ, or None when they agree on every row block."""
    for lo, hi in _row_blocks(rows, width):
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
    add, mul:  n-by-n `TABLE_DTYPE` tables (read-only).
    zero, one:  indices of the additive and multiplicative identities.
    names:  per-element display strings.
    neg:  `TABLE_DTYPE` vector of additive inverses (read-only).
    """

    __slots__ = ("label", "order", "add", "mul", "zero", "one", "names", "neg", "_cache",
                 "_tables")

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
        self._tables: dict | None = None      # looked up by `subsets._table_memo`

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, order={self.order})"

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


@dataclass(frozen=True, eq=False)
class RingHom:
    """A validated unital ring homomorphism, stored as an index map."""

    source: FiniteRing
    target: FiniteRing
    map: np.ndarray

    @property
    def is_surjective(self) -> bool:
        return bool(_marked(self.map, self.target.order).all())

    @property
    def is_injective(self) -> bool:
        return int(_marked(self.map, self.target.order).sum()) == self.source.order

    def kernel(self) -> np.ndarray:
        return _frozen(self.map == self.target.zero)


# ---------------------------------------------------------------------------
# validation


# The checks raise where they find a violation: a violation returned and
# then raised from a local would tie the traceback's frames, and the tables
# they hold, into a cycle that only the cyclic collector frees.

def _check_abelian(add: np.ndarray, zero: int) -> np.ndarray:
    """Raise the first of commutativity, the identity `zero` and inverses,
    in that order, that the addition table `add` breaks; else return the
    negation vector, narrowed to `TABLE_DTYPE` once it holds no -1."""
    bad = _is_symmetric(add)
    if bad is not None:
        raise AxiomViolation("add-commutativity", bad)
    arange = np.arange(add.shape[0])
    if not np.array_equal(add[zero], arange):
        c = int(np.flatnonzero(add[zero] != arange)[0])
        raise AxiomViolation("add-identity", (zero, c))
    neg = _first_column(add, zero)
    if neg.min() < 0:
        raise AxiomViolation("add-inverse", (int(np.flatnonzero(neg < 0)[0]),))
    return neg.astype(TABLE_DTYPE)


def _check_light(add: np.ndarray, gens: list[int]) -> None:
    # Light's test: with a set generating the table, middle-slot triples decide
    # associativity for all triples.  M = add[add[:, g]] holds (a+g)+c at
    # [a, c], and (add being commutative) a+(g+c) = (c+g)+a at [c, a], so the
    # test is M == M.T.  g = zero passes by the identity law checked before.
    # M is compared tile by tile and never gathered whole.
    for g in gens:
        bad = _is_symmetric(add, add[:, g])
        if bad is not None:
            raise AxiomViolation("add-associativity", (bad[0], g, bad[1]))


def _add_cosets(step: list[int], span: list[int], reached: list[bool]) -> bool:
    """Extend `span`, the set H reached so far and marked in `reached`, by
    its cosets H + g, H + 2g, ... under `step`, x -> g + x, in turn, each
    in H's order, up to the first whose first member was reached before.
    False as soon as a coset meets a reached element anywhere else, or
    repeats one of its own (`_coset_walk` says why)."""
    coset = span
    while True:
        coset = [step[x] for x in coset]
        if reached[coset[0]]:
            return True
        for x in coset:
            if reached[x]:
                return False
            reached[x] = True
        span += coset


def _coset_walk(add: np.ndarray, zero: int) -> tuple[list[int], list[int]]:
    """The generators of the table `add` from `zero` and the order `span`
    in which the walk reaches the elements: all n of them, or fewer where
    the walk gives up, the last generator being the one it gave up on.

    While some element is unreached, the least one g is the next generator,
    and the cosets H + g, H + 2g, ... of the set H reached so far follow in
    turn (`_add_cosets`).  So if g is at position s of `span`, `span[s + j]`
    = g + `span[j]` for every j up to the next generator's position: each
    element reached is a literal sum g + x with x reached before, and the
    generators generate the table as a magma.  The walk gives up where a
    coset meets what was reached other than at its first member, or
    repeats one of its own, and where g is still unreached after its
    cosets (g + 0 != g, which would pick g again forever).

    Why a give-up is a rejection, on a table that is commutative with
    identity `zero` and inverses (`_check_abelian`).  Let N be the set of g
    with (a+g)+c = a+(g+c) for all a and c, those that pass Light's test.
    N is closed under addition (Light's lemma), and each g in N translates
    injectively: -g + (g + x) = x.  So while Light's test holds on g1..gk,
    they generate an abelian group; the walk meets each coset of
    <g1..gk-1> only at its first member, reaches <g1..gk>, and picks next
    the least element outside it, as the greedy set does (each generator
    the least element outside the span of those before).  Hence where the
    walk gives up at gk, Light's test fails on some gj with j <= k, and
    g1..gj are the greedy set's first j generators: Light's test on the
    walk's generators names the law and the instance it names on the greedy
    set.  On an abelian group the walk never gives up, and its generators
    are the greedy ones.  The walk runs on Python lists, cheaper than numpy
    calls on the small rings, where its cost shows at all."""
    n = add.shape[0]
    reached = [False] * n
    reached[zero] = True
    span, gens, g = [zero], [], 0
    while len(span) < n:
        while reached[g]:
            g += 1
        gens.append(g)
        if not (_add_cosets(add[g].tolist(), span, reached) and reached[g]):
            break
    return gens, span


def _group_generators(add: np.ndarray, zero: int) -> list[int]:
    """The coset walk's generators, once Light's test on them has proved
    the table associative; `AxiomViolation` at Light's first failing
    instance on them otherwise.  The table must be commutative with `zero`
    as its identity (`_check_abelian` checks both first).  Where Light's
    test holds the walk has reached every element (`_coset_walk`)."""
    gens, span = _coset_walk(add, zero)
    _check_light(add, gens)
    check_internal(len(span) == add.shape[0],
                   "the coset walk gave up on generators that pass Light's test")
    return gens


def _left_pass(add: np.ndarray, mul: np.ndarray, g: int) -> tuple[int, int] | None:
    """First (a, c) in row-major order with a(g+c) != ag + ac, or None."""
    return _first_mismatch(*add.shape, lambda lo, hi: (
        np.take(mul[lo:hi], add[g], axis=1), _lookup(add, mul[lo:hi, g, None], mul[lo:hi])))


def _right_pass(add: np.ndarray, mul: np.ndarray, g: int) -> tuple[int, int] | None:
    """First (x, c) in row-major order with (x+g)c != xc + gc, or None."""
    return _first_mismatch(*add.shape, lambda lo, hi: (
        mul[add[lo:hi, g]], _lookup(add, mul[lo:hi], mul[g])))


def _bad_triple(mul: np.ndarray, gens: list[int]) -> tuple[int, int, int] | None:
    """The first (g1, g2, g3) over `gens` in nested-loop order with
    (g1g2)g3 != g1(g2g3), or None: r^3 cells for r generators."""
    g = np.array(gens)
    pairs = _lookup(mul, g[:, None], g)     # g_i g_j at [i, j]
    bad = mul[pairs[:, :, None], g] != mul[g[:, None, None], pairs]
    if not bad.any():
        return None
    return tuple(int(gens[i]) for i in np.argwhere(bad)[0])


def _span_chain(add: np.ndarray, gens: list[int]) -> np.ndarray:
    """The spans K_k = <g2..gk> of the additive group for k = 2..r, as a
    3-row index array whose columns are (c, g_k, g_k + c) for the members c
    of K_2, then of K_3, ..., then of K_r.  K_k is K_{k-1} (K_1 = {0}) and
    its cosets under g_k (`_add_cosets`), which is sound under the group
    laws (`_coset_walk`), once `_check_abelian` and Light's test have
    proved them."""
    inside = [False] * add.shape[0]
    span: list[int] = []
    cols, over, sums = [], [], []
    for g in gens[1:]:
        step = add[g].tolist()                  # c -> g + c
        if not span:
            span = [step.index(g)]              # {0}: g2 + c = g2 only at c = 0
            inside[span[0]] = True
        _add_cosets(step, span, inside)
        cols += span
        over += [g] * len(span)
        sums += [step[x] for x in span]
    return np.array((cols, over, sums))


def _span_passes_hold(add: np.ndarray, mul: np.ndarray, gens: list[int]) -> bool:
    """Whether a(g_k + c) = ag_k + ac for every a and every c in K_k =
    <g2..gk>, k = 2..r (`_span_chain`): n*(|K_2| + ... + |K_r|) cells, in
    row blocks of that width, stopping at the first block that fails."""
    cols, over, sums = _span_chain(add, gens)
    return _first_mismatch(add.shape[0], cols.size, lambda lo, hi: (
        mul[lo:hi].take(sums, axis=1),
        _lookup(add, mul[lo:hi].take(over, axis=1), mul[lo:hi].take(cols, axis=1)))) is None


def _generator_triple_checks(add: np.ndarray, mul: np.ndarray, gens: list[int]) -> None:
    """Biadditivity and associativity of `mul` from the additive generators
    `gens` = g1..gr, once the addition `add` is known to be an abelian group
    (`_group_generators`); `AxiomViolation` at the first violation.

    The passes: one full left pass L(g1), a(g1+c) = a g1 + ac over all n^2
    pairs in row blocks; span passes a(gk+c) = a gk + ac for k = 2..r over
    the columns c of K_k = <g2..gk> only (`_span_passes_hold`); r right
    passes on the generator columns, (x+g)h = xh + gh for generators g, h
    and all x, r*n cells each, made in one gather; and the r^3 generator
    triples (`_bad_triple`).  That is n(n + |K_2| + ... + |K_r|) left cells
    instead of r n^2: 1.2 n^2 for Z6^4, about 2 n^2 for Z2^9.

    Why they suffice.  For each a, c -> ac is additive on K_2 = <g2>, then
    on each K_k = K_{k-1} + <gk> (induction over the multiples of gk: (m+1)gk
    + x = gk + (mgk + x), with mgk + x in K_k), and last on the whole group
    K_r + <g1> by L(g1): left distributivity everywhere.  So x -> xz is the
    pointwise sum of the maps x -> xh for the generators h that sum to z,
    each additive by its column pass: right distributivity.  With
    biadditivity the associator is additive in each slot, so vanishing on
    generator triples forces vanishing everywhere.

    What a rejection names: the first violation in the literal order L(g1),
    R(g1), L(g2), R(g2), ..., full passes each, then the generator triples,
    at its first failing instance in row-major order within its pass.  The
    passes above only decide; where one fails, that order runs (L(g1) once).
    """
    bad = _left_pass(add, mul, gens[0])
    if bad is not None:
        raise AxiomViolation("left-distributivity", (bad[0], gens[0], bad[1]))
    # every generator's column pass in one gather: (gk + x)hj = xhj + gk hj
    # at [k, x, j], r*n*r cells (add is commutative, so its rows are its columns)
    cols = np.array(gens)
    products = mul[cols[:, None], cols]             # gk hj at [k, j]
    if (np.array_equal(_lookup(mul, add[cols][:, :, None], cols),
                       _lookup(add, np.take(mul, cols, axis=1)[None], products[:, None, :]))
            and (len(gens) == 1 or _span_passes_hold(add, mul, gens))
            and _bad_triple(mul, gens) is None):
        return
    sides = {"left-distributivity": _left_pass, "right-distributivity": _right_pass}
    for law, g in [(law, g) for g in gens for law in sides][1:]:    # L(g1) held
        bad = sides[law](add, mul, g)
        if bad is not None:
            raise AxiomViolation(law, (bad[0], g, bad[1]))
    triple = _bad_triple(mul, gens)
    if triple is not None:
        raise AxiomViolation("mul-associativity", triple)


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
    return _checked_ring(_as_table(add, "add", guard), _as_table(mul, "mul", guard),
                         zero, one, label, names)


def _checked_ring(add: np.ndarray, mul: np.ndarray, zero, one, label: str,
                  names) -> FiniteRing:
    """`validate_ring` on tables as `_as_table` makes them, square
    `TABLE_DTYPE` tables within the guard, with every cell in range, that no
    caller holds: the shape and identity checks, then `_validated_ring`."""
    if add.shape != mul.shape:
        raise MalformedRing("add and mul tables must have the same order")
    n = add.shape[0]
    zero, one = _identity_index(zero, "zero"), _identity_index(one, "one")
    if not (0 <= zero < n and 0 <= one < n):
        raise MalformedRing("zero/one indices out of range")
    return _validated_ring(add, mul, zero, one, label, names)


def _validated_ring(add: np.ndarray, mul: np.ndarray, zero: int, one: int, label: str,
                    names, certified: bool = False) -> FiniteRing:
    """`validate_ring`'s axiom checks on well-formed tables, which the ring
    then freezes in place: C-contiguous `TABLE_DTYPE` tables of one order
    that no caller holds, with `zero` and `one` in range.  `certified` says
    that the structure-table certificate of `constructions` proved the
    group laws, biadditivity and associativity, which then replaces the
    full procedure; the identity laws are checked either way."""
    if zero == one:
        raise AxiomViolation("identity-distinct", (zero, one),
                             "rings here have 0 != 1, so the order is at least 2")
    neg = None if certified else _check_abelian(add, zero)
    arange = np.arange(add.shape[0])
    if not np.array_equal(mul[one], arange):
        c = int(np.flatnonzero(mul[one] != arange)[0])
        raise AxiomViolation("mul-identity", (one, c))
    if not np.array_equal(mul[:, one], arange):
        c = int(np.flatnonzero(mul[:, one] != arange)[0])
        raise AxiomViolation("mul-identity", (c, one))
    if not certified:
        _generator_triple_checks(add, mul, _group_generators(add, zero))
    return _certified_ring(label, add, mul, zero, one, names, neg)


def _certified_ring(label: str, add: np.ndarray, mul: np.ndarray, zero: int, one: int,
                    names, neg: np.ndarray | None = None) -> FiniteRing:
    """The one place a `FiniteRing` is made, for tables already known to
    form a ring: validated by `_validated_ring` or certified by a derivation.
    Every caller passes C-contiguous `TABLE_DTYPE` tables, so row-first
    scans are dense.  `neg` is the negation vector of `add` when the caller
    already has it."""
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
    if neg is None:     # the addition is a group, so every row holds the zero
        neg = _first_column(add, zero).astype(TABLE_DTYPE)
    return FiniteRing(label, add, mul, zero, one, names, neg)


def _relabel(ring: FiniteRing, label: str) -> FiniteRing:
    """The same certified tables under another label, with a memo of its
    own; its element sets are computed once for its tables."""
    return _certified_ring(label, ring.add, ring.mul, ring.zero, ring.one, ring.names, ring.neg)


# ---------------------------------------------------------------------------
# subsets: closures, ideals, subrings.  An element set is a bool mask of
# length n (its characteristic vector); those returned here are read-only.


def _element_mask(ring: FiniteRing, subset) -> np.ndarray:
    """`subset` as a mask over the ring's elements; `ValueError` otherwise."""
    mask = np.asarray(subset)
    if mask.dtype != bool or mask.shape != (ring.order,):
        raise ValueError("an element set must be a bool vector of length equal to the ring order")
    return mask


def _closure(ring: FiniteRing, gens, extra: list[int], extend) -> np.ndarray:
    """Least superset of the element indices `gens` and `extra` that
    `extend` cannot enlarge; `ValueError` when `gens` holds anything but
    indices of the ring's elements, a bool mask included.

    `extend(new, cur)` returns the (table, rows, cols) products that pairs
    with at least one member in `new` reach; pairs of older members were
    taken in an earlier round, so each round only looks at the frontier.
    Each product is marked in a bool vector one row block at a time
    (`_marked_outer`), so a round costs no sort and holds no product whole.
    """
    idx = np.asarray(list(gens))
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= ring.order):
        raise ValueError("generators must be element indices of the ring")
    mask = np.zeros(ring.order, dtype=bool)
    mask[idx.astype(np.int64)] = True
    mask[extra] = True
    new = np.flatnonzero(mask)
    while new.size:
        hit = np.zeros(ring.order, dtype=bool)
        for table, rows, cols in extend(new, np.flatnonzero(mask)):
            hit |= _marked_outer(table, rows, cols)
        new = np.flatnonzero(hit & ~mask)
        mask |= hit
    return _frozen(mask)


def subring_generated(ring: FiniteRing, gens, unital: bool = True) -> np.ndarray:
    """Least subset closed under subtraction and multiplication containing
    the element indices `gens` (and the identity when `unital`)."""
    add, mul, neg = ring.add, ring.mul, ring.neg
    return _closure(ring, gens, [ring.one] if unital else [], lambda new, cur: (
        (add, new, neg[cur]), (add, cur, neg[new]), (mul, new, cur), (mul, cur, new)))


def ideal_generated(ring: FiniteRing, gens) -> np.ndarray:
    """Least two-sided ideal containing the element indices `gens`
    (fixpoint closure)."""
    add, mul = ring.add, ring.mul
    return _closure(ring, gens, [ring.zero], lambda new, cur: (
        (add, new, cur), (mul, None, new), (mul, new, None)))


def is_ideal(ring: FiniteRing, subset) -> bool:
    """Re-validate the two-sided ideal property of the mask `subset`."""
    mask = _element_mask(ring, subset)
    idx = np.flatnonzero(mask)
    # sums, left multiples r*i, right multiples i*r, each in row blocks
    return bool(mask[ring.zero]) and (_all_in(mask, ring.add, idx, idx)
                                      and _all_in(mask, ring.mul, None, idx)
                                      and _all_in(mask, ring.mul, idx))


def _ideal_label(ring: FiniteRing, idx: np.ndarray) -> str:
    if idx.size <= 12:
        inner = ",".join(str(int(i)) for i in idx)
        return f"{ring.label}/{{{inner}}}"
    return f"{ring.label}/|I|={idx.size}"


def quotient_ring(ring: FiniteRing, ideal) -> tuple[FiniteRing, RingHom]:
    """Quotient by a validated two-sided ideal, plus the projection.

    Coset representatives are canonical: the smallest element index in each
    coset, listed in ascending order.  R/{0} is R's own frozen tables under
    bracketed names, with the identity as its projection.
    """
    mask = _element_mask(ring, ideal)
    idx = np.flatnonzero(mask)
    if not is_ideal(ring, mask):
        raise NotAnIdeal(f"subset {idx.tolist()} is not a two-sided ideal of {ring.label}")
    if idx.size == ring.order:
        raise ValueError("quotient by the whole ring is the zero ring, which is excluded")
    label = _ideal_label(ring, idx)
    if idx.size == 1:
        names = tuple(f"[{s}]" for s in ring.names)
        quotient = _certified_ring(label, ring.add, ring.mul, ring.zero, ring.one, names,
                                   ring.neg)
        return quotient, _identity_hom(ring, quotient)
    rep = np.empty(ring.order, dtype=TABLE_DTYPE)      # each element's least coset member
    for lo, hi, block in _outer_blocks(ring.add, None, idx):
        rep[lo:hi] = block.min(axis=1)
    reps = np.flatnonzero(rep == np.arange(ring.order))   # each coset's least member is its own
    # every rep is a coset's least member, so `pos` is read at reps only; the
    # certificate below would refuse a projection that read any other entry
    pos = np.zeros(ring.order, dtype=TABLE_DTYPE)
    pos[reps] = np.arange(reps.size, dtype=TABLE_DTYPE)
    proj = pos[rep]
    qadd = _outer(ring.add, reps, reps, proj)
    qmul = _outer(ring.mul, reps, reps, proj)
    names = tuple(f"[{ring.names[int(r)]}]" for r in reps)
    quotient = _certified_ring(label, qadd, qmul, int(proj[ring.zero]), int(proj[ring.one]), names)
    return quotient, _certified_projection(ring, mask, reps, quotient, proj)


def _certified_projection(ring: FiniteRing, members: np.ndarray, reps: np.ndarray,
                          quotient: FiniteRing, m: np.ndarray) -> RingHom:
    """The projection m of `ring` onto `quotient` by the ideal I whose mask is
    `members`, certified on the coset representatives S = `reps`.

    Checks m(0), m(1), m(reps) = 0..|S|-1 and, for all a and b, (a) a - s
    in I for the s = reps[m(a)], the count |S|·|I| = n, and (b) m(s+b) =
    m(s) + m(b) and m(sb) = m(s)m(b) for s in S, which is `validate_hom`'s
    pass on the rows S only (`_hom_pass`): n(2|S| + 1) cells.  The
    representatives are distinct, since m sends them to distinct images, and
    by (a) each of the n/|I| = |S| cosets of I holds one; so each coset holds
    exactly one, and reps[m(a)] is the one in a's coset.  Hence every a is
    s + i with i in I and m(a) = m(s), and m is constant on cosets.  Then
    m(a+b) = m(s + (i+b)) = m(s) + m(b) by (b), and m(ab) = m(sb + ib) =
    m(sb) = m(s)m(b), since ib lies in the ideal.  So m is a surjective
    unital homomorphism whose kernel is exactly I, and the quotient tables
    form a ring (first isomorphism theorem), as `validate_hom` would prove
    on 2n^2 cells.
    """
    n, q = ring.order, quotient.order
    if int(m[ring.zero]) != quotient.zero:
        raise HomViolation("zero", (ring.zero,))
    if int(m[ring.one]) != quotient.one:
        raise HomViolation("one", (ring.one,))
    onto = np.flatnonzero(m[reps] != np.arange(q))
    if onto.size:
        raise HomViolation("onto", (int(reps[onto[0]]),))
    off = np.flatnonzero(~members[ring.add[np.arange(n), ring.neg[reps[m]]]])
    if off.size:
        raise HomViolation("coset", (int(off[0]), int(reps[m[off[0]]])))
    size = int(np.count_nonzero(members))
    if q * size != n:
        raise HomViolation("coset-count", (), f"|S|·|I| = {q}·{size} is not the order {n}")
    _hom_pass(ring, quotient, m, reps)
    m.setflags(write=False)
    return RingHom(ring, quotient, m)


def induced_subring(ring: FiniteRing, subset, one: int,
                    label: str | None = None) -> tuple[FiniteRing, np.ndarray]:
    """Ring structure on a multiplicatively and additively closed subset.

    Element i of the result is the i-th smallest member index of the mask
    `subset`; the returned read-only index array realises that
    correspondence.  `one` must be a two-sided identity on the subset.
    When the subset is every element, the result's tables and negation are
    the ring's own frozen arrays, shared rather than copied; its label,
    names and memo are its own, and its element sets are the ring's, each
    computed once for the tables.
    """
    one = int(one)
    if not 0 <= one < ring.order:
        raise ValueError(f"identity {one} is not an element index below {ring.order}")
    mask = _element_mask(ring, subset)
    elems = np.flatnonzero(mask).astype(TABLE_DTYPE)
    if not (mask[ring.zero] and mask[ring.neg[elems]].all()):
        raise ValueError("subset does not contain 0 and the negatives of its members")
    if elems.size == ring.order:     # the identity map: the tables are the ring's
        pos = np.arange(ring.order)
        sub_add, sub_mul, sub_neg = ring.add, ring.mul, ring.neg
    else:
        # a non-member maps to elems.size, which is below 2^16 here and is no
        # index of the subring, so a product outside the subset shows as one
        pos = np.full(ring.order, elems.size, dtype=TABLE_DTYPE)
        pos[elems] = np.arange(elems.size, dtype=TABLE_DTYPE)
        sub_add = _outer(ring.add, elems, elems, pos)
        sub_mul = _outer(ring.mul, elems, elems, pos)
        sub_neg = None
        if sub_add.max() >= elems.size or sub_mul.max() >= elems.size:
            raise ValueError("subset is not closed under the ring operations")
    if not mask[one]:
        raise ValueError(f"identity {one} is not a member of the subset")
    bad = (ring.mul[one, elems] != elems) | (ring.mul[elems, one] != elems)
    if bad.any():
        raise AxiomViolation("mul-identity", (one, int(elems[np.flatnonzero(bad)[0]])))
    names = tuple(ring.names[int(e)] for e in elems)
    # The inclusion preserves + and * on a subset holding 0, negatives and an
    # identity, so every ring law holds there: no re-validation is needed.
    out = _certified_ring(label or f"{ring.label}|sub({elems.size})", sub_add, sub_mul,
                          int(pos[ring.zero]), int(pos[one]), names, sub_neg)
    return out, _frozen(elems)


def corner_ring(ring: FiniteRing, e: int) -> FiniteRing:
    """The ring e*R*e with identity e, for a nonzero idempotent e."""
    e = int(e)
    if e == ring.zero or int(ring.mul[e, e]) != e:
        raise NotIdempotent(f"element {e} of {ring.label} is not a nonzero idempotent")
    eRe = _marked(ring.mul[ring.mul[e, :], e], ring.order)
    out, _ = induced_subring(ring, eRe, e,
                             label=f"corner({ring.label},{e})")
    return out


def is_central(ring: FiniteRing, a: int) -> bool:
    """Whether a commutes with every element: row a of the product is column a."""
    return np.array_equal(ring.mul[a], ring.mul[:, a])


# ---------------------------------------------------------------------------
# homomorphisms


def _hom_pass(source: FiniteRing, target: FiniteRing, m: np.ndarray, rows: np.ndarray) -> None:
    """`HomViolation` at the first (a, b) in row-major order, a in `rows`, with
    m(a+b) != m(a) + m(b), else with m(ab) != m(a)m(b): `validate_hom`'s pass
    on every row, and `_certified_projection`'s on coset representatives."""
    for kind, src, tgt in (("additive", source.add, target.add),
                           ("multiplicative", source.mul, target.mul)):
        bad = _first_mismatch(len(rows), source.order, lambda lo, hi: (
            np.take(m, src[rows[lo:hi]]), _outer(tgt, m[rows[lo:hi]], m)))
        if bad is not None:
            raise HomViolation(kind, (int(rows[bad[0]]), bad[1]))


def _identity_hom(source: FiniteRing, target: FiniteRing) -> RingHom:
    """The identity map between rings on the same tables: a homomorphism
    with no certificate to check."""
    m = np.arange(source.order, dtype=TABLE_DTYPE)
    m.setflags(write=False)
    return RingHom(source, target, m)


def validate_hom(source: FiniteRing, target: FiniteRing, mapping) -> RingHom:
    """Check that the index map is a unital ring homomorphism (exhaustively)."""
    m = np.asarray(mapping)
    if m.shape != (source.order,):
        raise ValueError("map must assign an image to every source element")
    if m.dtype.kind not in "iu":
        raise ValueError("map images must be integer element indices")
    # checked at the given width, so an image of 2^16 or more cannot wrap into range
    if m.size and (m.min() < 0 or m.max() >= target.order):
        raise ValueError("map image out of range")
    m = m.astype(TABLE_DTYPE)
    if int(m[source.zero]) != target.zero:
        raise HomViolation("zero", (source.zero,))
    if int(m[source.one]) != target.one:
        raise HomViolation("one", (source.one,))
    _hom_pass(source, target, m, np.arange(source.order))
    m.setflags(write=False)
    return RingHom(source, target, m)


# ---------------------------------------------------------------------------
# serialization


# A dump is the compact JSON of {add, label, mul, one, order, zero}, keys
# sorted: `json.dumps(..., sort_keys=True, separators=(",", ":"))`, written
# and read here as dense tables rather than as one Python object per cell.
# `ring_json_chunks` renders each table from the digit strings of 0..n-1,
# one row block at a time, and `ring_to_json` joins its chunks.
# `ring_from_json` reads text in exactly that form straight into the
# ring's tables and hands any other text to `json.loads`.  Each step of
# the reader states the argument it rests on: which text it reads and why
# the outcome is the same, and the refusal past the guard, at
# `_canonical_dump`; the row search at `_row_starts`; the block proof and
# the parse's exactness at `_read_block`; the worker thread and its join
# at `_parsed_tables`.

_DUMP_HEAD = '{"add":[['
_LABEL_KEY = ']],"label":"'
_MUL_KEY = ',"mul":[['
# a token of at most 9 digits is below 10^9 < 2^32, so numpy's parse of it
# into uint32 is exact; digits are counted up to 9
_CELL_POWERS = tuple(10 ** k for k in range(1, 9))
_JSON_DECODER = json.JSONDecoder()
# the "],[" that ends each row but the last, from 3 bytes before the next
# row's start, and the " , " it is blanked to for numpy's parse
_ROW_SEPARATOR = np.frombuffer(b"],[", dtype=np.uint8)
_BLANKED_SEPARATOR = np.frombuffer(b" , ", dtype=np.uint8)
_SEPARATOR_BACK = np.arange(3, 0, -1)


def _table_json(table: np.ndarray):
    """The table `[[a,b,...],[...],...]` as compact JSON, yielded in
    row-block chunks.

    Each block gathers, for every cell, the digits of its value followed by
    "," (or by "],[" in a row's last column) from fixed-width byte strings
    of 0..n-1, then drops their NUL padding."""
    rows, n = table.shape
    digits = [str(v).encode() for v in range(n)]
    width = len(digits[-1])
    cells = np.array([d + b"," for d in digits], dtype=f"S{width + 1}")
    row_ends = np.array([d + b"],[" for d in digits], dtype=f"S{width + 3}")
    yield "[["
    for lo, hi in _row_blocks(rows, n):
        block = table[lo:hi]
        text = np.concatenate(
            (cells[block[:, :-1]].view(np.uint8).reshape(hi - lo, -1),
             row_ends[block[:, -1]].view(np.uint8).reshape(hi - lo, -1)), axis=1)
        chunk = text.tobytes().translate(None, b"\0").decode("ascii")
        yield chunk if hi < rows else chunk[:-2] + "]"   # the last row closes the table


def ring_json_chunks(ring: FiniteRing):
    """The ring's dump in consecutive chunks of at most one row block of a
    table each, so a writer holds one block at a time; `ring_to_json` is
    their concatenation."""
    yield '{"add":'
    yield from _table_json(ring.add)
    yield ',"label":' + json.dumps(ring.label, sort_keys=True, separators=(",", ":"))
    yield ',"mul":'
    yield from _table_json(ring.mul)
    yield f',"one":{ring.one},"order":{ring.order},"zero":{ring.zero}}}'


def ring_to_json(ring: FiniteRing) -> str:
    """The ring's dump, byte for byte `json.dumps({add, label, mul, one,
    order, zero}, sort_keys=True, separators=(",", ":"))` with the tables as
    nested lists; `ring_from_json` reads it back bit-exactly."""
    return "".join(ring_json_chunks(ring))


def _row_starts(text: str, lo: int) -> list[int] | None:
    """The offsets where the rows of the table body at `text[lo]` start,
    n + 1 of them for the order n that the commas of row 0 give (a
    canonical table is square): each later row starts after the next "[",
    a one-character search per row, and the last offset is 3 past the first
    "]" after the last row starts, where the body ends, so that row k is
    `text[starts[k]:starts[k + 1] - 3]`; no search of the whole body for
    its "]]" is made.  `_read_table` proves that these are the rows.  None when fewer rows are
    found, or when the text, then the body, is too short to hold n rows of n
    one-digit cells, so no body sizes an allocation (or this list) past
    what its text could hold."""
    at = text.find("]", lo)
    if at < 0:
        return None
    n = text.count(",", lo, at) + 1
    if 2 * n * n - 1 > len(text) - lo:
        return None
    starts = [lo]
    for _ in range(n - 1):
        at = text.find("[", at) + 1
        if not at:
            return None
        starts.append(at)
    end = text.find("]", at)
    if end < 0 or 2 * n * n - 1 > end - lo:
        return None
    starts.append(end + 3)
    return starts


def _read_block(block: str, bounds: list[int], n: int, out: np.ndarray | None) -> bool:
    """Whether `block` is rows of a canonical table of order n, one at each
    offset of `bounds` but the last, row k being `block[bounds[k] -
    bounds[0]:bounds[k + 1] - bounds[0] - 3]`: rows joined by "],[", each a
    ","-joined run of n nonempty digit tokens.  With `out`, those rows of a
    `TABLE_DTYPE` table of order n, the block is parsed into it (nothing is
    written when it fails) and the parse must be exact with every cell below
    n; without it nothing is parsed, and no token may have a leading zero.

    The proof is numpy passes over the block's ASCII bytes, which release
    the GIL: the "],[" at each row start is checked and its brackets blanked
    to spaces; each row must hold n - 1 commas (n with the separator's);
    every other byte must be a digit; and the block must hold one digit run
    per token, since a token holds no space but at its ends, so no token is
    empty.  numpy then parses the bytes, " , " between rows included, into a
    block-sized uint32 array.  The parse is exact when the digit counts of
    the values, each counted up to 9, add up to the digits in the text: a
    token with a leading zero, or one of 10 digits or more (which numpy
    wraps or saturates into uint32), has more digits than its value is
    counted with."""
    rows = len(bounds) - 1
    if min(map(operator.sub, bounds[1:], bounds)) < 4:    # a row of no character
        return False
    try:
        data = np.frombuffer(block.encode("ascii"), dtype=np.uint8).copy()
    except UnicodeEncodeError:
        return False
    offsets = np.subtract(bounds[:-1], bounds[0])
    seps = offsets[1:, None] - _SEPARATOR_BACK           # the "],[" before each later row
    if np.count_nonzero(data[seps] != _ROW_SEPARATOR):
        return False
    data[seps] = _BLANKED_SEPARATOR
    # per-row comma counts; a uint32 count that wrapped would leave more
    # commas than rows * n - 1 in all, which the digit total below refuses
    commas = np.add.reduceat((data == ord(",")).view(np.uint8), offsets, dtype=np.uint32)
    commas[-1] += 1
    is_digit = (data - ord("0")) < 10                     # uint8 wraps below "0"
    digits = np.count_nonzero(is_digit)
    # a digit run has one start and one end, each at a boundary or the block's edge
    runs = np.count_nonzero(is_digit[1:] != is_digit[:-1]) + int(is_digit[0]) + int(is_digit[-1])
    # with n commas a row, the digits are every byte but the commas and blanks
    if (np.count_nonzero(commas != n) or digits != data.size - (rows * n - 1) - 2 * (rows - 1)
            or runs != 2 * rows * n):
        return False
    if out is None:
        # a "0" that starts its token and is followed by a digit
        first = data == ord("0")
        first[1:] &= ~is_digit[:-1]
        return not (first[:-1] & is_digit[1:]).any()
    values = np.fromstring(data.tobytes(), dtype=np.uint32, sep=",", count=out.size)
    top = values.max()
    if top >= n:
        return False
    if values.size + sum(int(np.count_nonzero(values >= p)) for p in _CELL_POWERS if p <= top) \
            != digits:
        return False
    out[...] = values.reshape(out.shape)
    return True


def _read_table(text: str, starts: list[int], out=None, stop=None) -> bool:
    """Whether the rows at `starts` (`_row_starts`) are the body of a
    canonical n-by-n table, walked one block of whole rows at a time
    (`_row_blocks`), each proved by `_read_block`.  With `out`, an n-by-n
    `TABLE_DTYPE` array, each block is parsed into its rows.  Without it
    nothing is parsed, and a token with a leading zero fails instead, so
    True means the body is JSON.  The walk stops at the first block that
    fails and then sets `stop`, a `threading.Event` shared with the walk of
    the other table, if given; it also stops, false, after a block once
    `stop` is set."""
    n = len(starts) - 1
    for r0, r1 in _row_blocks(n, n):
        end = starts[r1] - 3
        # a block but the last ends at the "],[" of the "[" found for the
        # next row; a "[" outside a "],[" fails that check or `_read_block`'s
        ended = r1 == n or text.startswith("],[", end)
        if not (ended and _read_block(text[starts[r0]:end], starts[r0:r1 + 1], n,
                                      None if out is None else out[r0:r1])):
            if stop is not None:
                stop.set()
            return False
        if stop is not None and stop.is_set():
            return False
    return True


def _parsed_tables(text: str, add: list[int], mul: list[int]) -> list[np.ndarray] | None:
    """Both tables as preallocated `TABLE_DTYPE` arrays of the one order
    that `add` and `mul`, the row starts of their bodies, give; None when
    either body fails `_read_table`.  When both are larger than one block,
    the mul table is walked on a one-thread pool while this thread walks the
    add table, and each walk stops at its next block once the other has
    failed; the passes and `np.fromstring` release the GIL.  Leaving the
    pool's `with` block joins its worker, so that happens before this
    returns or raises, and no thread outlives a load (`harness.run_all`
    forks, which is only safe in a process with one thread); `result()`
    raises the worker's error, if any."""
    n = len(add) - 1
    tables = [np.empty((n, n), dtype=TABLE_DTYPE) for _ in (add, mul)]
    if n * n <= _BLOCK_CELLS:
        ok = _read_table(text, add, tables[0]) and _read_table(text, mul, tables[1])
        return tables if ok else None
    # only loads that need them pay the imports
    from concurrent.futures import ThreadPoolExecutor
    from threading import Event

    failed = Event()
    with ThreadPoolExecutor(1, thread_name_prefix="ring_from_json") as pool:
        pending = [pool.submit(_read_table, text, mul, tables[1], failed)]
        add_ok = _read_table(text, add, tables[0], failed)
    # popped, so no frame of the worker's error holds the future that holds the error
    mul_ok = pending.pop().result()
    return tables if add_ok and mul_ok else None


def _canonical_dump(text, guard: int) -> dict | None:
    """The dict that `json.loads(text)` gives, with its tables as
    `TABLE_DTYPE` arrays of one order n up to the guard, every cell below n,
    when `text` is a canonical dump: a str that opens with `{"add":[[`,
    then the add table, a string label, the mul table, and a tail that
    closes the object without an add, label or mul key.  None for any other
    text, which `json.loads` then reads.

    It gives tables only where `json.loads` would give the same ones, every
    cell below n, so `ring_from_json` has the outcome of
    `ring_from_dict(json.loads(text))`; anything else, a table that is not
    square or a cell of n or more included, goes to `json.loads`, and
    `_as_table` gives its message.  The
    tables are the reader's own, so `_checked_ring` proves them in place,
    with no copy.  Each table is found by `_row_starts` and read in one walk
    over its blocks of whole rows (`_read_table`, `_read_block`); the load
    holds the text, one block and the two tables.

    Raises `OrderGuardExceeded`, before any cell is parsed, where
    `ring_from_dict` would refuse the decoded dump at `guard`: the text is
    JSON, it has `zero` and `one`, and its add table is square and past the
    guard.  That walk parses no cell and checks each block for a token with
    a leading zero instead, so it holds one block of the text at a time."""
    if not isinstance(text, str) or not text.startswith(_DUMP_HEAD):
        return None
    add = _row_starts(text, len(_DUMP_HEAD))
    if add is None or not text.startswith(_LABEL_KEY, add[-1] - 3):
        return None
    try:
        label, at = _JSON_DECODER.raw_decode(text, add[-1] - 4 + len(_LABEL_KEY))
    except ValueError:
        return None
    mul = _row_starts(text, at + len(_MUL_KEY)) if text.startswith(_MUL_KEY, at) else None
    if mul is None or not text.startswith("]]", mul[-1] - 3):
        return None
    tail = text[mul[-1] - 1:]
    if tail == "}":
        rest = {}
    elif tail.startswith(',"'):
        try:
            rest = json.loads("{" + tail[1:])
        except (ValueError, RecursionError):
            return None
        if not rest.keys().isdisjoint(("add", "label", "mul")):
            return None
    else:
        return None
    n = len(add) - 1
    if n > guard:
        if "zero" in rest and "one" in rest and _read_table(text, add) and _read_table(text, mul):
            _hold_to_guard(n, guard)
        return None   # not JSON, not canonical, or not refused here: json.loads decides
    tables = _parsed_tables(text, add, mul) if len(mul) == len(add) else None
    if tables is None:
        return None
    return {"add": tables[0], "label": label, "mul": tables[1], **rest}


def _dump_label(data) -> str:
    """The label of a decoded dump, `"R"` when it has none, once the
    dump is known to be an object with add, mul, zero and one keys and a
    string label; `MalformedRing` otherwise."""
    if not isinstance(data, dict):
        raise MalformedRing(f"a ring dump must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("add", "mul", "zero", "one") if key not in data]
    if missing:
        raise MalformedRing(f"ring dump lacks {', '.join(missing)}")
    label = data.get("label", "R")
    if not isinstance(label, str):
        raise MalformedRing(f"label must be a string, got {label!r}")
    return label


def ring_from_dict(data: dict, *, order_guard: int | None = None) -> FiniteRing:
    """Validate a decoded dump; `MalformedRing` when it is not one."""
    label = _dump_label(data)
    return validate_ring(data["add"], data["mul"], data["zero"], data["one"],
                         label=label, order_guard=order_guard)


def ring_from_json(text: str, *, order_guard: int | None = None) -> FiniteRing:
    """Load and validate a ring dump (JSON text, or bytes that `json.loads`
    reads).

    A canonical dump, the form `ring_to_json` writes, is decoded straight
    into the ring's `TABLE_DTYPE` tables, which pass `ring_from_dict`'s
    key and label checks and `validate_ring`'s shape and identity checks
    and are then proved in place; any other text goes through `json.loads`
    and `ring_from_dict`.  Either way the ring, or the error class and
    message, is the one `ring_from_dict(json.loads(text))` gives:
    `MalformedRing` for text that is not a dump, `OrderGuardExceeded` past
    the order guard, `AxiomViolation` for tables that break a ring law
    (`_canonical_dump` says why).
    """
    guard = _resolve_guard(order_guard)
    data = _canonical_dump(text, guard)
    if data is None:
        try:
            data = json.loads(text)
        except (TypeError, ValueError, RecursionError) as exc:
            raise MalformedRing(f"a ring dump must be JSON text: {exc}") from None
        return ring_from_dict(data, order_guard=guard)
    label = _dump_label(data)
    return _checked_ring(data["add"], data["mul"], data["zero"], data["one"], label, None)


def check_internal(condition: bool, message: str) -> None:
    """Raise InternalInconsistency when a mathematically forced postcondition fails."""
    if not condition:
        raise InternalInconsistency(message)
