"""Finite ring constructions, each returning a validated FiniteRing.

Products, matrix and triangular matrix rings, truncated skew-polynomial
rings, trivial extensions and their doubled variant, formal triangular
rings, scaled 2x2 block rings K_s(R), scaled n-by-n formal matrix rings,
and group rings with their augmentation map.

Every construction lives on coefficient tuples over its base ring(s):
elements are encoded most-significant-coordinate-first (mixed radix), so
dumps are reproducible bit-exactly.  A construction is given by its
structure tables: coordinate c of a product ab is the sum, under the
addition of coordinate c, of table[a_l, b_r] over the construction's terms
(c, l, r, table).  Each table is a ring product, a bimodule action, or a
ring product twisted by a central scalar or an endomorphism, so each is
additive in each argument unless a bimodule is not one.  `_over` makes the
ring of a term list on R^k, and one builder, `_tuple_ring`, makes every
ring.  A ring is named by its default form, e.g. `FT(R,S,0)`, which
`dsl.build` replaces by the canonical form.

`_tuple_ring` fills the tables on `core`'s coset walk and certifies them
from the terms (`_structure_certified` holds the certificate's argument);
where that fails it evaluates every row from the terms for the full
procedure.  So a ring is accepted exactly when the construction's own
product is a ring, and a rejection names what `core.validate_ring` names
on the literal tables.  This is also what proves a bimodule:
[[R, M], [0, S]] is a ring exactly when M is an (R,S)-bimodule, and so
is Triv(R, M) when S is R.  The doubled trivial extension DT(R, M) =
Triv(Triv(R,M), Triv(R,M)) is one such ring too, on quadruples over
(R, M, R, M), not an extension of a built extension.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import core, subsets
from .core import FiniteRing, RingHom, check_internal
from .errors import (
    AxiomViolation,
    InvalidBimodule,
    InvalidEndomorphism,
    NotCentral,
    OrderGuardExceeded,
)

# ---------------------------------------------------------------------------
# finite groups (for group rings)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as a Cayley table on elements 0..n-1."""

    label: str
    order: int
    table: np.ndarray
    identity: int
    inv: np.ndarray
    names: tuple[str, ...]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"

    @property
    def prime(self) -> int | None:
        """p when the group order is a prime power p^k, else None."""
        n = self.order
        if n == 1:
            return None
        p = 2
        while p * p <= n:
            if n % p == 0:
                break
            p += 1
        else:
            p = n
        while n % p == 0:
            n //= p
        return p if n == 1 else None


def validate_group(table, identity: int, label: str, names=None) -> FiniteGroup:
    t = np.asarray(table)
    n = t.shape[0] if t.ndim == 2 else 0
    # checked at the given width, so a wide or fractional cell cannot narrow into range
    if (not 0 < n <= core.MAX_ORDER or t.shape != (n, n) or t.dtype.kind not in "iu"
            or t.min() < 0 or t.max() >= n):
        raise ValueError("bad group table")
    if (isinstance(identity, bool) or not isinstance(identity, (int, np.integer))
            or not 0 <= identity < n):
        raise ValueError(f"bad group identity {identity!r}")
    t = t.astype(core.TABLE_DTYPE)
    identity = int(identity)
    arange = np.arange(n)
    if not (np.array_equal(t[identity], arange) and np.array_equal(t[:, identity], arange)):
        raise ValueError("identity fails")
    # (ab)c against a(bc), for one row block of a at a time
    if not all(np.array_equal(t[t[i:k]], t[i:k][:, t]) for i, k in core._row_blocks(n, n * n)):
        raise ValueError("associativity fails")
    has_inv = (t == identity).any(axis=1)
    if not has_inv.all():
        raise ValueError("inverse fails")
    inv = (t == identity).argmax(axis=1).astype(core.TABLE_DTYPE)
    names = tuple(f"g{i}" for i in range(n)) if names is None else tuple(names)
    if len(names) != n:
        raise ValueError(f"bad group names: {len(names)} for {n} elements")
    t.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(label, n, t, identity, inv, names)


def cyclic_group(n: int) -> FiniteGroup:
    i = np.arange(n)
    table = (i[:, None] + i[None, :]) % n
    names = ["1"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return validate_group(table, 0, f"C{n}", names)


def klein_group() -> FiniteGroup:
    table = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    return validate_group(table, 0, "V4", ("1", "a", "b", "ab"))


def symmetric3_group() -> FiniteGroup:
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(3))]
    names = ("e", "(12)", "(01)", "(012)", "(021)", "(02)")
    return validate_group(table, 0, "S3", names)


@functools.cache
def group_catalog() -> dict[str, FiniteGroup]:
    """Built-in groups: C1..C6, V4, S3."""
    groups = {g.label: g for g in map(cyclic_group, range(1, 7))}
    return {**groups, "V4": klein_group(), "S3": symmetric3_group()}


# ---------------------------------------------------------------------------
# bimodules


@dataclass(frozen=True, eq=False)
class Bimodule:
    """A finite (R,S)-bimodule given by explicit tables.

    add: m-by-m table of the additive group; left_act: |R|-by-m; right_act:
    m-by-|S|.  zero is the additive identity index.  The record checks that
    the tables are integer element indices of those shapes, but no law: the
    ring built on it proves them, since a construction accepts its ring
    exactly when its product is a ring (module docstring).
    """

    left_ring: FiniteRing
    right_ring: FiniteRing
    order: int
    add: np.ndarray
    left_act: np.ndarray
    right_act: np.ndarray
    zero: int
    label: str
    names: tuple[str, ...]

    def __post_init__(self):
        m = self.order
        for table, shape, name in ((self.add, (m, m), "add"),
                                   (self.left_act, (self.left_ring.order, m), "left action"),
                                   (self.right_act, (m, self.right_ring.order), "right action")):
            if not isinstance(table, np.ndarray) or table.shape != shape:
                raise InvalidBimodule(f"{name} table must be a {shape[0]}-by-{shape[1]} array")
            # checked at the given width, so a wide or fractional cell cannot narrow into range
            if table.dtype.kind not in "iu" or (
                    table.size and not 0 <= table.min() <= table.max() < m):
                raise InvalidBimodule(f"{name} entries must be element indices below {m}")
        if not 0 <= self.zero < m:
            raise InvalidBimodule(f"zero must be an element index below {m}")
        if len(self.names) != m:
            raise InvalidBimodule(f"names must name each of the {m} elements")

    def __repr__(self) -> str:
        return f"Bimodule({self.label!r}, order={self.order})"


def regular_bimodule(ring: FiniteRing) -> Bimodule:
    """R as an (R,R)-bimodule.  The module laws coincide with the ring laws,
    which every FiniteRing already satisfies, so no re-validation is needed."""
    return Bimodule(ring, ring, ring.order, ring.add, ring.mul, ring.mul,
                    ring.zero, label=ring.label, names=ring.names)


def zero_bimodule(left_ring: FiniteRing, right_ring: FiniteRing) -> Bimodule:
    z = np.zeros((1, 1), dtype=core.TABLE_DTYPE)
    return Bimodule(left_ring, right_ring, 1, z,
                    np.zeros((left_ring.order, 1), dtype=core.TABLE_DTYPE),
                    np.zeros((1, right_ring.order), dtype=core.TABLE_DTYPE),
                    0, label="0", names=("0",))


# ---------------------------------------------------------------------------
# the generic tuple-ring builder


def _strides(sizes: list[int]) -> list[int]:
    out = [1] * len(sizes)
    for c in range(len(sizes) - 2, -1, -1):
        out[c] = out[c + 1] * sizes[c + 1]
    return out


def _hold_to_guard(label: str, sizes, order_guard: int | None) -> int:
    """The product of the coordinate sizes `sizes` (any iterable), raising
    `OrderGuardExceeded` as soon as a partial product passes the guard, so
    an iterable as long as a huge order is never walked to its end."""
    guard = core._resolve_guard(order_guard)
    total = 1
    for s in sizes:
        total *= s
        if total > guard:
            raise OrderGuardExceeded(
                f"{label}: order would reach at least {total}, past the guard {guard}")
    return total


def _tuple_ring(label: str, add_tables: list[np.ndarray],
                zero_tuple: Sequence[int], one_tuple: Sequence[int],
                terms, names, *, order_guard: int | None) -> FiniteRing:
    """The ring on coefficient tuples whose coordinate c adds by
    `add_tables[c]` and whose product has the structure-table `terms`
    (c, l, r, table): coordinate c of ab is the sum, under `add_tables[c]`,
    of `table[a_l, b_r]`; each coordinate needs at least one term.
    Coordinate c takes `len(add_tables[c])` values.

    The product is evaluated from the terms on the rows of the zero and of
    the generators of `core._coset_walk` on the addition.  The other rows
    follow in the walk's reach order from row(g + x) = row(g) + row(x), x
    lying s places before g + x for the generator g at position s, in
    chunks of at most s rows, so each source row is written first.
    `_structure_certified` then certifies the tables.  Where the walk gives
    up (it reaches fewer than n elements: the addition is no group, so
    neither is some coordinate addition, and the certificate would fail) or
    the certificate fails, every row is evaluated from the terms and the
    full procedure runs on those.

    The order is held to the guard before `terms` (which may be lazy) is
    read or anything is allocated; `names()` gives the element names and is
    called only after that.
    """
    sizes = [len(t) for t in add_tables]
    n = _hold_to_guard(label, sizes, order_guard)
    terms = list(terms)
    strides = _strides(sizes)
    cols = [c.astype(core.TABLE_DTYPE) for c in np.unravel_index(np.arange(n), sizes)]

    def encode_rows(parts) -> np.ndarray:
        # The element whose coordinate c is parts[c].  Each partial sum of
        # strides[c] * v_c with v_c < sizes[c] is an element index below
        # n <= 2^16, so the sum is exact at the tables' own uint16 width.
        return sum(strides[c] * part for c, part in enumerate(parts))

    add = np.empty((n, n), dtype=core.TABLE_DTYPE)
    for lo, hi in core._row_blocks(n, n):
        add[lo:hi] = encode_rows([core._outer(add_tables[c], col[lo:hi], col)
                                  for c, col in enumerate(cols)])

    def encode(tup):
        return int(sum(strides[c] * tup[c] for c in range(len(sizes))))

    zero, one = encode(zero_tuple), encode(one_tuple)

    def evaluate(lo, hi):
        # left coefficients as a column, right ones as a row: the product rows lo..hi-1
        mul[lo:hi] = encode_rows(_term_products(
            add_tables, terms, [col[lo:hi, None] for col in cols], [col[None, :] for col in cols]))

    mul = np.empty((n, n), dtype=core.TABLE_DTYPE)
    gens, span = core._coset_walk(add, zero)
    # 0 = 1 is refused as such (`core._validated_ring`) before a fill or certificate
    certified = len(span) == n and zero != one
    if certified:
        reach = np.array(span)
        starts = [span.index(g) for g in gens] + [n]
        width = max(1, core._BLOCK_CELLS // n)
        evaluate(zero, zero + 1)
        for g, s, end in zip(gens, starts, starts[1:]):
            evaluate(g, g + 1)
            step = min(s, width)
            for lo in range(s + 1, end, step):
                hi = min(end, lo + step)
                mul[reach[lo:hi]] = core._lookup(add, mul[reach[lo - s:hi - s]], mul[g])
        certified = _structure_certified(mul, add_tables, zero_tuple, terms, gens)
    if not certified:
        for lo, hi in core._row_blocks(n, n):
            evaluate(lo, hi)
    return core._validated_ring(add, mul, zero, one, label, names(), certified)


def _term_products(add_tables: list[np.ndarray], terms, left, right) -> list[np.ndarray]:
    """The coordinate arrays of the products of the elements whose
    coordinate arrays are `left` and `right` (which broadcast): coordinate c
    is the sum, under `add_tables[c]`, of `table[left[l], right[r]]` over
    the terms (c, l, r, table)."""
    out = [None] * len(add_tables)
    for c, l, r, table in terms:
        term = table[left[l], right[r]]
        out[c] = term if out[c] is None else add_tables[c][out[c], term]
    return out


def _coordinate_generators(add_tables, zeros) -> list[list[int]] | None:
    """Each coordinate's additive generators, when every distinct
    addition table is an abelian group with its coordinate's zero as the
    identity (the group laws, then `core._group_generators`, which finds
    the generators and runs Light's test on them); else None."""
    found: dict = {}
    for add, zero in zip(add_tables, zeros):
        if (id(add), zero) not in found:
            try:
                core._check_abelian(add, zero)
                gens = core._group_generators(add, zero)
            except AxiomViolation:
                gens = None
            found[id(add), zero] = gens
    out = [found[id(add), zero] for add, zero in zip(add_tables, zeros)]
    return None if None in out else out


def _additive_rows(table: np.ndarray, add: np.ndarray, zero: int, gens: list[int],
                   out: np.ndarray, out_zero: int) -> bool:
    """Whether x -> table[x] is additive, x adding by `add` (identity `zero`,
    generators `gens`) and cells by `out`: table[zero] is all `out_zero` and
    table[x+g] = table[x] + table[g] for every x and generator g, which in
    an abelian group gives it for every pair."""
    return bool((table[zero] == out_zero).all()) and all(
        np.array_equal(table[add[g]], core._lookup(out, table, table[g])) for g in gens)


def _structure_certified(mul: np.ndarray, add_tables, zeros, terms, gens: list[int]) -> bool:
    """Whether the coordinate additions and the `terms` prove that `mul`,
    filled by `_tuple_ring` on the coset walk with generators `gens`, is the
    terms' product and is biadditive and associative.

    (1) Each distinct coordinate addition is an abelian group on its own
    small domain (`_coordinate_generators`: the group laws and Light's
    test).  (2) Each distinct term table is additive in each argument,
    checked on the generators of its own coordinate groups, |A_l|·|A_r|
    cells per generator (`_additive_rows`).  (3) The product is associative
    on the r^3 triples of `gens`.  By (1) the addition is a direct product
    of abelian groups, which `gens` generate, and by (2) the product of the
    terms is biadditive, so every row filled by additivity is that
    product's row.  The associator is then additive in each slot, and (3)
    gives associativity everywhere, as in Light's argument.  The identity laws
    are left to `core._validated_ring`, which checks them on every ring,
    here on rows that are the literal ones."""
    coord_gens = _coordinate_generators(add_tables, zeros)
    if coord_gens is None:
        return False
    seen = set()
    for c, l, r, table in terms:
        key = (id(table), id(add_tables[c]), id(add_tables[l]), id(add_tables[r]))
        if key in seen:
            continue
        seen.add(key)
        if not (_additive_rows(table, add_tables[l], zeros[l], coord_gens[l],
                               add_tables[c], zeros[c])
                and _additive_rows(table.T, add_tables[r], zeros[r], coord_gens[r],
                                   add_tables[c], zeros[c])):
            return False
    return core._bad_triple(mul, gens) is None


def _over(R: FiniteRing, k: int, label: str, terms, ones, names,
          order_guard: int | None) -> FiniteRing:
    """The ring on R^k whose product has the structure-table `terms` (see
    `_tuple_ring`) and whose 1 has R's 1 at the coordinates `ones`, 0 at the
    others.  The order is held to the guard first, so `terms` and `ones`
    (a generator or a range) are walked only for a ring that fits."""
    _hold_to_guard(label, itertools.repeat(R.order, k), order_guard)
    one = [R.zero] * k
    for c in ones:
        one[c] = R.one
    return _tuple_ring(label, [R.add] * k, [R.zero] * k, one, terms, names,
                       order_guard=order_guard)


def _element_names(sizes: list[int], name) -> list[str]:
    """`name(coordinates)` for every element, in index order (the first
    coordinate the most significant)."""
    return [name(tup) for tup in itertools.product(*map(range, sizes))]


def _tuple_names(coord_names: list[tuple[str, ...]]) -> list[str]:
    return ["(" + ",".join(tup) + ")" for tup in itertools.product(*coord_names)]


def _poly_names(base_names: tuple[str, ...], var_names: list[str]) -> list[str]:
    """Display tuples (a_0, ..., a_k) as a_0 + a_1*v1 + ... with zeros dropped."""
    def name(tup):
        terms = []
        for v, cname in zip(var_names, tup):
            if cname == "0":
                continue
            if not v:
                terms.append(cname)
            elif cname == "1":
                terms.append(v)
            elif cname.isalnum():
                terms.append(f"{cname}{v}")
            else:
                terms.append(f"({cname}){v}")
        return "+".join(terms) if terms else "0"

    return [name(tup) for tup in itertools.product(base_names, repeat=len(var_names))]


# ---------------------------------------------------------------------------
# constructions


def direct_product(factors: list[FiniteRing], *, order_guard: int | None = None) -> FiniteRing:
    """Componentwise product; a single factor is returned unchanged."""
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    terms = [(c, c, c, f.mul) for c, f in enumerate(factors)]
    return _tuple_ring("Prod(" + ",".join(f.label for f in factors) + ")",
                       [f.add for f in factors], tuple(f.zero for f in factors),
                       tuple(f.one for f in factors), terms,
                       lambda: _tuple_names([f.names for f in factors]),
                       order_guard=order_guard)


def matrix_ring(R: FiniteRing, n: int, *, order_guard: int | None = None) -> FiniteRing:
    """Full n-by-n matrices over R, entries row-major, first entry most
    significant in the element encoding."""
    def name(tup):
        rows = ["[" + ",".join(R.names[tup[i * n + j]] for j in range(n)) + "]" for i in range(n)]
        return "[" + ",".join(rows) + "]"

    return _scaled_matrix(R, n, R.one, f"M({n},{R.label})", name, order_guard)


def matrix_index(R: FiniteRing, n: int, entries) -> int:
    """Element index of the matrix with the given row-major entries."""
    flat = [int(e) for row in entries for e in row]
    if len(flat) != n * n:
        raise ValueError("entry grid must be n-by-n")
    if not all(0 <= e < R.order for e in flat):
        raise ValueError(f"entries must be element indices below {R.order}")
    idx = 0
    for e in flat:
        idx = idx * R.order + e
    return idx


def upper_triangular(R: FiniteRing, n: int, *, order_guard: int | None = None) -> FiniteRing:
    """Upper triangular n-by-n matrices over R, coordinates (i,j) with i<=j
    in row-major order."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    if n == 1:
        return R
    k = n * (n + 1) // 2

    def pos(i, j):
        """Coordinate of entry (i, j): rows above i hold n + (n-1) + ... + (n-i+1)."""
        return i * n - i * (i - 1) // 2 + j - i

    def name(tup):
        rows = []
        for i in range(n):
            row = [R.names[tup[pos(i, j)]] if j >= i else "0" for j in range(n)]
            rows.append("[" + ",".join(row) + "]")
        return "[" + ",".join(rows) + "]"

    terms = ((pos(i, j), pos(i, t), pos(t, j), R.mul)
             for i in range(n) for j in range(i, n) for t in range(i, j + 1))
    return _over(R, k, f"T({n},{R.label})", terms, (pos(i, i) for i in range(n)),
                 lambda: _element_names([R.order] * k, name), order_guard)


def identity_endomorphism(R: FiniteRing) -> RingHom:
    return core._identity_hom(R, R)


def truncated_skew_poly(R: FiniteRing, alpha: RingHom | None, n: int, *,
                        order_guard: int | None = None, endo_label: str = "id") -> FiniteRing:
    """Polynomials a_0 + a_1 x + ... + a_{n-1} x^{n-1} with x*r = alpha(r)*x
    and x^n = 0."""
    if n < 2:
        raise ValueError("truncation degree must be at least 2")
    if alpha is None:
        alpha = identity_endomorphism(R)
    if alpha.source is not R or alpha.target is not R:
        raise InvalidEndomorphism("alpha must be a validated endomorphism of the base ring")

    def terms():
        # (a x^i)(b x^j) = a alpha^i(b) x^(i+j), so x^i's table is (a, b) -> a alpha^i(b)
        twisted, power = [], np.arange(R.order)
        for _ in range(n):
            twisted.append(np.take(R.mul, power, axis=1))
            power = alpha.map[power]
        for m in range(n):
            for i in range(m + 1):
                yield m, i, m - i, twisted[i]

    def names():
        var_names = [""] + ["x" if c == 1 else f"x^{c}" for c in range(1, n)]
        return _poly_names(R.names, var_names)

    return _over(R, n, f"TruncSkew({R.label},{endo_label},{n})", terms(), [0],
                 names, order_guard)


def _require_rr_bimodule(R: FiniteRing, M: Bimodule | None) -> Bimodule:
    if M is None:
        return regular_bimodule(R)
    if M.left_ring is not R or M.right_ring is not R:
        raise InvalidBimodule("module must be a bimodule over the base ring on both sides")
    return M


def _check_ring_part(out: FiniteRing, R: FiniteRing) -> None:
    """Verify that the units of `out`, a ring on tuples whose first
    coordinate is its R part, are exactly the tuples with a unit R part, and
    likewise for the delta set.  The masks stay in the memo of `out`'s
    tables, which a later ring on equal tables reads instead of computing
    them again: a pure function of the tables, so that changes no output."""
    rpart = np.arange(out.order) // (out.order // R.order)
    check_internal(np.array_equal(subsets.unit_mask(out), subsets.unit_mask(R)[rpart]),
                   f"units of {out.label} are not the elements with a unit ring part")
    check_internal(np.array_equal(subsets.delta_mask(out), subsets.delta_mask(R)[rpart]),
                   f"delta set of {out.label} is not the elements with a delta ring part")


def trivial_extension(R: FiniteRing, M: Bimodule | None = None, *,
                      order_guard: int | None = None) -> FiniteRing:
    """Pairs (r, m) with (r,m)(s,n) = (rs, rn + ms).  M defaults to R.

    Postcondition (verified): the units are exactly the pairs with a unit
    ring part, and likewise for the delta set.
    """
    M = _require_rr_bimodule(R, M)
    terms = [(0, 0, 0, R.mul), (1, 0, 1, M.left_act), (1, 1, 0, M.right_act)]
    out = _tuple_ring(f"Triv({R.label},{M.label})", [R.add, M.add],
                      (R.zero, M.zero), (R.one, M.zero), terms,
                      lambda: _tuple_names([R.names, M.names]), order_guard=order_guard)
    _check_ring_part(out, R)
    return out


def dt_extension(R: FiniteRing, M: Bimodule | None = None, *,
                 order_guard: int | None = None) -> FiniteRing:
    """The doubled trivial extension Triv(T, T) of T = Triv(R, M), on
    quadruples (a, m, b, n) for ((a,m),(b,n)): the mixed-radix encoding of
    the quadruple is the nested pair encoding.  M defaults to R.  The product
    is (a,m,b,n)(a',m',b',n') = (aa', am' + ma', ab' + ba', an' + mb' + bm' + na').

    Postcondition (verified): the units are exactly the quadruples with a
    unit ring part a, and likewise for the delta set.
    """
    M = _require_rr_bimodule(R, M)
    left, right = M.left_act, M.right_act
    terms = [(0, 0, 0, R.mul),
             (1, 0, 1, left), (1, 1, 0, right),
             (2, 0, 2, R.mul), (2, 2, 0, R.mul),
             (3, 0, 3, left), (3, 1, 2, right), (3, 2, 1, left), (3, 3, 0, right)]
    out = _tuple_ring(f"DT({R.label},{M.label})", [R.add, M.add] * 2,
                      (R.zero, M.zero) * 2, (R.one, M.zero, R.zero, M.zero), terms,
                      lambda: _tuple_names([R.names, M.names] * 2), order_guard=order_guard)
    _check_ring_part(out, R)
    return out


def formal_triangular(R: FiniteRing, S: FiniteRing, M: Bimodule | None = None, *,
                      order_guard: int | None = None) -> FiniteRing:
    """Triples (r, m, s) with (r1,m1,s1)(r2,m2,s2) = (r1r2, r1m2 + m1s2, s1s2).

    M must be an (R,S)-bimodule; None means the zero bimodule.
    """
    if M is None:
        M = zero_bimodule(R, S)
    if M.left_ring is not R or M.right_ring is not S:
        raise InvalidBimodule("module must be an (R,S)-bimodule")
    terms = [(0, 0, 0, R.mul), (1, 0, 1, M.left_act), (1, 1, 2, M.right_act), (2, 2, 2, S.mul)]
    return _tuple_ring(f"FT({R.label},{S.label},{M.label})",
                       [R.add, M.add, S.add], (R.zero, M.zero, S.zero), (R.one, M.zero, S.one),
                       terms, lambda: _tuple_names([R.names, M.names, S.names]),
                       order_guard=order_guard)


def generalized_matrix(R: FiniteRing, s: int, *, order_guard: int | None = None) -> FiniteRing:
    """K_s(R): quadruples (a, x, y, b) with both cross products scaled by the
    central element s."""
    s = int(s)
    if not core.is_central(R, s):
        raise NotCentral(f"element {s} is not central in {R.label}")
    # (a, x, y, b)(a', x', y', b') = (aa' + s xy', ax' + xb', ya' + by', s yx' + bb'),
    # written out here, not derived from `formal_matrix`, which T4.10 compares it with
    scaled = R.mul[s][R.mul]                            # (x, y) -> s(xy)
    terms = [(0, 0, 0, R.mul), (0, 1, 2, scaled), (1, 0, 1, R.mul), (1, 1, 3, R.mul),
             (2, 2, 0, R.mul), (2, 3, 2, R.mul), (3, 2, 1, scaled), (3, 3, 3, R.mul)]
    return _over(R, 4, f"K({R.label},s={R.names[s]})", terms, (0, 3),
                 lambda: _tuple_names([R.names] * 4), order_guard)


def scale_exponent(i: int, k: int, j: int) -> int:
    """Exponent 1 + [i==j] - [i==k] - [k==j] scaling the (i,k)x(k,j) term."""
    return 1 + (i == j) - (i == k) - (k == j)


def formal_matrix(R: FiniteRing, n: int, s: int, *, order_guard: int | None = None) -> FiniteRing:
    """n-by-n matrices over R with the product twisted by powers of a central
    element s: the (i,k)x(k,j) term is scaled by s**scale_exponent(i,k,j)."""
    s = int(s)
    if not core.is_central(R, s):
        raise NotCentral(f"element {s} is not central in {R.label}")
    return _scaled_matrix(R, n, s, f"FM({n},{R.label},s={R.names[s]})",
                          lambda tup: "(" + ",".join(R.names[v] for v in tup) + ")",
                          order_guard)


def _scaled_matrix(R: FiniteRing, n: int, s: int, label: str, name,
                   order_guard: int | None) -> FiniteRing:
    """The n-by-n matrices of `formal_matrix`, elements named by `name(entries)`.
    `matrix_ring` is the case s = 1, where every scaling is by the identity."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    if n == 1:
        return R
    k2 = n * n

    def terms():
        scaled = [R.mul[e][R.mul] for e in (R.one, s, int(R.mul[s, s]))]   # s^e(xy)
        for i, k, j in itertools.product(range(n), repeat=3):
            yield i * n + j, i * n + k, k * n + j, scaled[scale_exponent(i, k, j)]

    # the 1 sits at the diagonal entries (i, i)
    return _over(R, k2, label, terms(), range(0, k2, n + 1),
                 lambda: _element_names([R.order] * k2, name), order_guard)


def group_ring(R: FiniteRing, G: FiniteGroup, *, order_guard: int | None = None) -> FiniteRing:
    """R-linear combinations of group elements under convolution."""
    # the coefficient of h in ab sums a_g b_(g^-1 h) over g
    terms = ((h, g, int(G.table[G.inv[g], h]), R.mul)
             for h in range(G.order) for g in range(G.order))
    var_names = ["" if g == G.identity else G.names[g] for g in range(G.order)]
    return _over(R, G.order, f"GR({R.label},{G.label})", terms, [G.identity],
                 lambda: _poly_names(R.names, var_names), order_guard)


def augmentation(RG: FiniteRing, R: FiniteRing, G: FiniteGroup) -> tuple[RingHom, np.ndarray]:
    """Coefficient-sum map of the group ring RG = `group_ring(R, G)` onto R,
    and the mask of its kernel ideal.  A ring not of order |R|^|G| raises
    ValueError.

    The kernel always has |R|^(|G|-1) elements and the map is a surjective
    homomorphism; both facts are re-verified here.
    """
    n = RG.order
    if n != R.order ** G.order:
        raise ValueError(f"{RG.label} is not a group ring of {R.label} over {G.label}")
    eps = np.full(n, R.zero, dtype=core.TABLE_DTYPE)
    for coefficient in np.unravel_index(np.arange(n), (R.order,) * G.order):
        eps = R.add[eps, coefficient]
    hom = core.validate_hom(RG, R, eps)
    check_internal(hom.is_surjective, f"augmentation of {RG.label} is not surjective")
    kernel = hom.kernel()
    check_internal(int(kernel.sum()) == R.order ** (G.order - 1),
                   f"augmentation kernel of {RG.label} has the wrong size")
    check_internal(core.is_ideal(RG, kernel),
                   f"augmentation kernel of {RG.label} is not an ideal")
    return hom, kernel
