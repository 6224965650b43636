"""Finite ring constructions, each returning a validated FiniteRing.

Products, matrix and triangular matrix rings, truncated skew-polynomial
rings, trivial extensions and their doubled variant, formal triangular
rings, scaled 2x2 block rings K_s(R), scaled n-by-n formal matrix rings,
and group rings with their augmentation map.

Every construction lives on coefficient tuples over its base ring(s):
elements are encoded most-significant-coordinate-first (mixed radix), so
dumps are reproducible bit-exactly, and the product table is filled one
row at a time with vectorized table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, subsets
from .core import ElementSet, FiniteRing, RingHom, check_internal, validate_ring
from .errors import (
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
    t = np.asarray(table, dtype=np.int32)
    n = t.shape[0]
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        raise ValueError("bad group table")
    identity = int(identity)
    arange = np.arange(n, dtype=np.int32)
    if not (np.array_equal(t[identity], arange) and np.array_equal(t[:, identity], arange)):
        raise ValueError("identity fails")
    if not np.array_equal(t[t, :], t[:, t]):
        raise ValueError("associativity fails")
    has_inv = (t == identity).any(axis=1)
    if not has_inv.all():
        raise ValueError("inverse fails")
    inv = (t == identity).argmax(axis=1).astype(np.int32)
    if names is None:
        names = tuple(f"g{i}" for i in range(n))
    t.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(label, n, t, identity, inv, tuple(names))


def cyclic_group(n: int) -> FiniteGroup:
    i = np.arange(n, dtype=np.int32)
    table = (i[:, None] + i[None, :]) % n
    names = ["1"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return validate_group(table, 0, f"C{n}", names)


def klein_group() -> FiniteGroup:
    table = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    return validate_group(table, 0, "V4", ("1", "a", "b", "ab"))


def symmetric3_group() -> FiniteGroup:
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(3))]
    names = ("e", "(12)", "(01)", "(012)", "(021)", "(02)")
    return validate_group(table, 0, "S3", names)


_GROUPS: dict[str, FiniteGroup] = {}


def group_catalog() -> dict[str, FiniteGroup]:
    """Built-in groups: C1..C6, V4, S3."""
    if not _GROUPS:
        for n in range(1, 7):
            g = cyclic_group(n)
            _GROUPS[g.label] = g
        _GROUPS["V4"] = klein_group()
        _GROUPS["S3"] = symmetric3_group()
    return _GROUPS


# ---------------------------------------------------------------------------
# bimodules


@dataclass(frozen=True, eq=False)
class Bimodule:
    """A finite (R,S)-bimodule given by explicit tables.

    add: m-by-m table of the additive group; left_act: |R|-by-m; right_act:
    m-by-|S|.  zero is the additive identity index.
    """

    left_ring: FiniteRing
    right_ring: FiniteRing
    order: int
    add: np.ndarray
    left_act: np.ndarray
    right_act: np.ndarray
    zero: int
    label: str = "M"
    names: tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"Bimodule({self.label!r}, order={self.order})"


def validate_bimodule(left_ring: FiniteRing, right_ring: FiniteRing,
                      add, left_act, right_act, label: str = "M",
                      names=None) -> Bimodule:
    """Exhaustively verify the bimodule axioms, including balance (rm)s = r(ms)."""
    addt = np.asarray(add, dtype=np.int32)
    la = np.asarray(left_act, dtype=np.int32)
    ra = np.asarray(right_act, dtype=np.int32)
    m = addt.shape[0]
    if addt.shape != (m, m):
        raise InvalidBimodule("additive table must be square")
    if la.shape != (left_ring.order, m) or ra.shape != (m, right_ring.order):
        raise InvalidBimodule("action table shapes do not match the acting rings")
    for t, nm in ((addt, "add"), (la, "left action"), (ra, "right action")):
        if t.size and (t.min() < 0 or t.max() >= m):
            raise InvalidBimodule(f"{nm} entries out of range")
    if not np.array_equal(addt, addt.T):
        raise InvalidBimodule("module addition is not commutative")
    zero_rows = [i for i in range(m) if np.array_equal(addt[i], np.arange(m, dtype=np.int32))]
    if len(zero_rows) != 1:
        raise InvalidBimodule("module addition has no unique zero")
    zero = zero_rows[0]
    if not np.array_equal(addt[addt, :], addt[:, addt]):
        raise InvalidBimodule("module addition is not associative")
    if not (addt == zero).any(axis=1).all():
        raise InvalidBimodule("module addition misses inverses")

    R, S = left_ring, right_ring
    if not np.array_equal(la[R.one], np.arange(m, dtype=np.int32)):
        raise InvalidBimodule("1*m != m")
    if not np.array_equal(ra[:, S.one], np.arange(m, dtype=np.int32)):
        raise InvalidBimodule("m*1 != m")
    if not np.array_equal(la[:, addt], addt[la[:, :, None], la[:, None, :]]):
        raise InvalidBimodule("r(m+m') != rm+rm'")
    if not np.array_equal(la[R.add, :], addt[la[:, None, :], la[None, :, :]]):
        raise InvalidBimodule("(r+r')m != rm+r'm")
    if not np.array_equal(la[R.mul, :], la[:, la]):
        raise InvalidBimodule("(rr')m != r(r'm)")
    if not np.array_equal(ra[addt, :], addt[ra[:, None, :], ra[None, :, :]]):
        raise InvalidBimodule("(m+m')s != ms+m's")
    if not np.array_equal(ra[:, S.add], addt[ra[:, :, None], ra[:, None, :]]):
        raise InvalidBimodule("m(s+s') != ms+ms'")
    if not np.array_equal(ra[:, S.mul], ra[ra, :]):
        raise InvalidBimodule("m(ss') != (ms)s'")
    if not np.array_equal(ra[la, :], la[:, ra]):
        raise InvalidBimodule("(rm)s != r(ms)")
    if names is None:
        names = tuple(str(i) for i in range(m))
    addt.setflags(write=False)
    la.setflags(write=False)
    ra.setflags(write=False)
    return Bimodule(left_ring, right_ring, m, addt, la, ra, zero, label, tuple(names))


def regular_bimodule(ring: FiniteRing) -> Bimodule:
    """R as an (R,R)-bimodule.  The module laws coincide with the ring laws,
    which every FiniteRing already satisfies, so no re-validation is needed."""
    return Bimodule(ring, ring, ring.order, ring.add, ring.mul, ring.mul,
                    ring.zero, label=ring.label, names=ring.names)


def zero_bimodule(left_ring: FiniteRing, right_ring: FiniteRing) -> Bimodule:
    z = np.zeros((1, 1), dtype=np.int32)
    return Bimodule(left_ring, right_ring, 1, z,
                    np.zeros((left_ring.order, 1), dtype=np.int32),
                    np.zeros((1, right_ring.order), dtype=np.int32),
                    0, label="0", names=("0",))


# ---------------------------------------------------------------------------
# the generic tuple-ring builder


def _strides(sizes: list[int]) -> list[int]:
    out = [1] * len(sizes)
    for c in range(len(sizes) - 2, -1, -1):
        out[c] = out[c + 1] * sizes[c + 1]
    return out


def _tuple_ring(label: str, sizes: list[int], add_tables: list[np.ndarray],
                zero_tuple: tuple[int, ...], one_tuple: tuple[int, ...],
                mul_row, names, *, order_guard: int | None) -> FiniteRing:
    guard = core._resolve_guard(order_guard)
    total = 1
    for s in sizes:
        total *= s
        if total > guard:
            raise OrderGuardExceeded(
                f"{label}: order would reach at least {total}, past the guard {guard}")
    n = total
    strides = _strides(sizes)
    arange = np.arange(n, dtype=np.int64)
    cols = [((arange // strides[c]) % sizes[c]).astype(np.int32) for c in range(len(sizes))]

    add = np.zeros((n, n), dtype=np.int64)
    for c, col in enumerate(cols):
        add += strides[c] * core._outer(add_tables[c], col, col).astype(np.int64)

    # `mul_row` broadcasts: left coefficients come as columns, right ones as
    # rows, so one call fills a whole block of rows of the product table.
    mul = np.empty((n, n), dtype=np.int32)
    right = tuple(col[None, :] for col in cols)
    for lo, hi in core._row_blocks(n, n):
        out_cols = mul_row(tuple(col[lo:hi, None] for col in cols), right)
        block = np.zeros((hi - lo, n), dtype=np.int64)
        for c, oc in enumerate(out_cols):
            block += strides[c] * oc.astype(np.int64)
        mul[lo:hi] = block

    def encode(tup):
        return int(sum(strides[c] * tup[c] for c in range(len(sizes))))

    return validate_ring(add, mul, encode(zero_tuple), encode(one_tuple),
                         label=label, names=names, order_guard=guard)


def _tuple_names(coord_names: list[tuple[str, ...]], sizes: list[int]) -> list[str]:
    n = 1
    for s in sizes:
        n *= s
    strides = _strides(sizes)
    out = []
    for x in range(n):
        parts = [coord_names[c][(x // strides[c]) % sizes[c]] for c in range(len(sizes))]
        out.append("(" + ",".join(parts) + ")")
    return out


def _poly_names(base_names: tuple[str, ...], sizes: list[int], var_names: list[str]) -> list[str]:
    """Display tuples (a_0, ..., a_k) as a_0 + a_1*v1 + ... with zeros dropped."""
    n = 1
    for s in sizes:
        n *= s
    strides = _strides(sizes)
    out = []
    for x in range(n):
        terms = []
        for c in range(len(sizes)):
            cname = base_names[(x // strides[c]) % sizes[c]]
            if cname == "0":
                continue
            v = var_names[c]
            if not v:
                terms.append(cname)
            elif cname == "1":
                terms.append(v)
            elif cname.isalnum():
                terms.append(f"{cname}{v}")
            else:
                terms.append(f"({cname}){v}")
        out.append("+".join(terms) if terms else "0")
    return out


# ---------------------------------------------------------------------------
# constructions


def direct_product(factors: list[FiniteRing], *, order_guard: int | None = None,
                   label: str | None = None) -> FiniteRing:
    """Componentwise product; a single factor is returned unchanged."""
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    guard = core._resolve_guard(order_guard)
    total = 1
    for f in factors:
        total *= f.order
        if total > guard:
            raise OrderGuardExceeded(f"product order exceeds the guard {guard}")
    sizes = [f.order for f in factors]
    strides = _strides(sizes)
    n = total
    arange = np.arange(n, dtype=np.int64)
    cols = [((arange // strides[c]) % sizes[c]).astype(np.int32) for c in range(len(sizes))]
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for c, f in enumerate(factors):
        add += strides[c] * core._outer(f.add, cols[c], cols[c]).astype(np.int64)
        mul += strides[c] * core._outer(f.mul, cols[c], cols[c]).astype(np.int64)
    zero = sum(strides[c] * factors[c].zero for c in range(len(factors)))
    one = sum(strides[c] * factors[c].one for c in range(len(factors)))
    names = _tuple_names([f.names for f in factors], sizes)
    lbl = label or "Prod(" + ",".join(f.label for f in factors) + ")"
    return validate_ring(add, mul, zero, one, label=lbl, names=names, order_guard=guard)


def matrix_ring(R: FiniteRing, n: int, *, order_guard: int | None = None,
                label: str | None = None) -> FiniteRing:
    """Full n-by-n matrices over R, entries row-major, first entry most
    significant in the element encoding."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    if n == 1:
        return R
    k = n * n
    sizes = [R.order] * k
    adds = [R.add] * k

    def mul_row(a, cols):
        out = []
        for i in range(n):
            for j in range(n):
                acc = None
                for t in range(n):
                    term = R.mul[a[i * n + t], cols[t * n + j]]
                    acc = term if acc is None else R.add[acc, term]
                out.append(acc)
        return out

    def name(tup):
        rows = ["[" + ",".join(R.names[tup[i * n + j]] for j in range(n)) + "]" for i in range(n)]
        return "[" + ",".join(rows) + "]"

    strides = _strides(sizes)
    total = R.order ** k
    guard = core._resolve_guard(order_guard)
    if total > guard:
        raise OrderGuardExceeded(f"matrix ring order {total} exceeds the guard {guard}")
    names = [name(tuple((x // strides[c]) % R.order for c in range(k))) for x in range(total)]
    zero = tuple([R.zero] * k)
    one = tuple(R.one if i == j else R.zero for i in range(n) for j in range(n))
    return _tuple_ring(label or f"M({n},{R.label})", sizes, adds, zero, one,
                       mul_row, names, order_guard=order_guard)


def matrix_index(R: FiniteRing, n: int, entries) -> int:
    """Element index of the matrix with the given row-major entries."""
    flat = [int(e) for row in entries for e in row]
    if len(flat) != n * n:
        raise ValueError("entry grid must be n-by-n")
    idx = 0
    for e in flat:
        idx = idx * R.order + e
    return idx


def upper_triangular(R: FiniteRing, n: int, *, order_guard: int | None = None,
                     label: str | None = None) -> FiniteRing:
    """Upper triangular n-by-n matrices over R, coordinates (i,j) with i<=j
    in row-major order."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    if n == 1:
        return R
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {c: t for t, c in enumerate(coords)}
    k = len(coords)
    sizes = [R.order] * k
    adds = [R.add] * k

    def mul_row(a, cols):
        out = []
        for (i, j) in coords:
            acc = None
            for t in range(i, j + 1):
                term = R.mul[a[pos[(i, t)]], cols[pos[(t, j)]]]
                acc = term if acc is None else R.add[acc, term]
            out.append(acc)
        return out

    def name(tup):
        rows = []
        for i in range(n):
            row = [R.names[tup[pos[(i, j)]]] if j >= i else "0" for j in range(n)]
            rows.append("[" + ",".join(row) + "]")
        return "[" + ",".join(rows) + "]"

    strides = _strides(sizes)
    total = R.order ** k
    guard = core._resolve_guard(order_guard)
    if total > guard:
        raise OrderGuardExceeded(f"triangular ring order {total} exceeds the guard {guard}")
    names = [name(tuple((x // strides[c]) % R.order for c in range(k))) for x in range(total)]
    zero = tuple([R.zero] * k)
    one = tuple(R.one if i == j else R.zero for (i, j) in coords)
    return _tuple_ring(label or f"T({n},{R.label})", sizes, adds, zero, one,
                       mul_row, names, order_guard=order_guard)


def identity_endomorphism(R: FiniteRing) -> RingHom:
    return core.validate_hom(R, R, np.arange(R.order, dtype=np.int32))


def truncated_skew_poly(R: FiniteRing, alpha: RingHom | None, n: int, *,
                        order_guard: int | None = None, label: str | None = None,
                        endo_label: str = "id") -> FiniteRing:
    """Polynomials a_0 + a_1 x + ... + a_{n-1} x^{n-1} with x*r = alpha(r)*x
    and x^n = 0."""
    if n < 2:
        raise ValueError("truncation degree must be at least 2")
    if alpha is None:
        alpha = identity_endomorphism(R)
    if alpha.source is not R or alpha.target is not R:
        raise InvalidEndomorphism("alpha must be a validated endomorphism of the base ring")
    powers = [np.arange(R.order, dtype=np.int32)]
    for _ in range(1, n):
        powers.append(alpha.map[powers[-1]])

    sizes = [R.order] * n
    adds = [R.add] * n

    def mul_row(a, cols):
        out = []
        for m in range(n):
            acc = None
            for i in range(m + 1):
                term = R.mul[a[i], powers[i][cols[m - i]]]
                acc = term if acc is None else R.add[acc, term]
            out.append(acc)
        return out

    names = _poly_names(R.names, sizes, [""] + ["x" if c == 1 else f"x^{c}" for c in range(1, n)])
    zero = tuple([R.zero] * n)
    one = tuple([R.one] + [R.zero] * (n - 1))
    return _tuple_ring(label or f"TruncSkew({R.label},{endo_label},{n})",
                       sizes, adds, zero, one, mul_row, names, order_guard=order_guard)


def _require_rr_bimodule(R: FiniteRing, M: Bimodule | None) -> Bimodule:
    if M is None:
        return regular_bimodule(R)
    if M.left_ring is not R or M.right_ring is not R:
        raise InvalidBimodule("module must be a bimodule over the base ring on both sides")
    return M


def trivial_extension(R: FiniteRing, M: Bimodule | None = None, *,
                      order_guard: int | None = None, label: str | None = None) -> FiniteRing:
    """Pairs (r, m) with (r,m)(s,n) = (rs, rn + ms).  M defaults to R.

    Postcondition (verified): the units are exactly the pairs with a unit
    ring part, and likewise for the delta set.
    """
    M = _require_rr_bimodule(R, M)
    sizes = [R.order, M.order]
    adds = [R.add, M.add]

    def mul_row(a, cols):
        r1, m1 = a
        part_r = R.mul[r1, cols[0]]
        part_m = M.add[M.left_act[r1, cols[1]], M.right_act[m1, cols[0]]]
        return [part_r, part_m]

    names = _tuple_names([R.names, M.names], sizes)
    out = _tuple_ring(label or f"Triv({R.label},{M.label})", sizes, adds,
                      (R.zero, M.zero), (R.one, M.zero), mul_row, names,
                      order_guard=order_guard)
    n = out.order
    rpart = (np.arange(n, dtype=np.int64) // M.order).astype(np.int32)
    check_internal(np.array_equal(subsets.unit_mask(out), subsets.unit_mask(R)[rpart]),
                   f"units of {out.label} are not the unit-ring-part pairs")
    check_internal(np.array_equal(subsets.delta_mask(out), subsets.delta_mask(R)[rpart]),
                   f"delta set of {out.label} is not the delta-ring-part pairs")
    return out


def dt_extension(R: FiniteRing, M: Bimodule | None = None, *,
                 order_guard: int | None = None, label: str | None = None) -> FiniteRing:
    """The doubled trivial extension: Triv(R,M) extended by itself, whose
    elements ((a,m),(b,n)) are shown as quadruples (a, m, b, n).

    The nested pair encoding is the mixed-radix encoding of the quadruple,
    so the ring is the validated nested extension under new names.
    """
    M = _require_rr_bimodule(R, M)
    inner = trivial_extension(R, M, order_guard=order_guard)
    nested = trivial_extension(inner, None, order_guard=order_guard)
    names = _tuple_names([R.names, M.names, R.names, M.names],
                         [R.order, M.order, R.order, M.order])
    return core._certified_ring(label or f"DT({R.label},{M.label})", nested.add, nested.mul,
                                nested.zero, nested.one, names)


def formal_triangular(R: FiniteRing, S: FiniteRing, M: Bimodule | None = None, *,
                      order_guard: int | None = None, label: str | None = None) -> FiniteRing:
    """Triples (r, m, s) with (r1,m1,s1)(r2,m2,s2) = (r1r2, r1m2 + m1s2, s1s2).

    M must be an (R,S)-bimodule; None means the zero bimodule.
    """
    if M is None:
        M = zero_bimodule(R, S)
    if M.left_ring is not R or M.right_ring is not S:
        raise InvalidBimodule("module must be an (R,S)-bimodule")
    sizes = [R.order, M.order, S.order]
    adds = [R.add, M.add, S.add]

    def mul_row(t, cols):
        r1, m1, s1 = t
        return [R.mul[r1, cols[0]],
                M.add[M.left_act[r1, cols[1]], M.right_act[m1, cols[2]]],
                S.mul[s1, cols[2]]]

    names = _tuple_names([R.names, M.names, S.names], sizes)
    return _tuple_ring(label or f"FT({R.label},{S.label},{M.label})", sizes, adds,
                       (R.zero, M.zero, S.zero), (R.one, M.zero, S.one),
                       mul_row, names, order_guard=order_guard)


def trivial_morita(A: FiniteRing, B: FiniteRing, M: Bimodule | None = None,
                   N: Bimodule | None = None, *, order_guard: int | None = None,
                   label: str | None = None) -> FiniteRing:
    """2x2 block ring with zero pairings: quadruples (a, m, n, b) where
    m sits in an (A,B)-bimodule and n in a (B,A)-bimodule."""
    if M is None:
        M = zero_bimodule(A, B)
    if N is None:
        N = zero_bimodule(B, A)
    if M.left_ring is not A or M.right_ring is not B:
        raise InvalidBimodule("M must be an (A,B)-bimodule")
    if N.left_ring is not B or N.right_ring is not A:
        raise InvalidBimodule("N must be a (B,A)-bimodule")
    sizes = [A.order, M.order, N.order, B.order]
    adds = [A.add, M.add, N.add, B.add]

    def mul_row(t, cols):
        a1, m1, n1, b1 = t
        return [A.mul[a1, cols[0]],
                M.add[M.left_act[a1, cols[1]], M.right_act[m1, cols[3]]],
                N.add[N.left_act[b1, cols[2]], N.right_act[n1, cols[0]]],
                B.mul[b1, cols[3]]]

    names = _tuple_names([A.names, M.names, N.names, B.names], sizes)
    return _tuple_ring(label or f"TrivialContext({A.label},{B.label})", sizes, adds,
                       (A.zero, M.zero, N.zero, B.zero),
                       (A.one, M.zero, N.zero, B.one),
                       mul_row, names, order_guard=order_guard)


def generalized_matrix(R: FiniteRing, s: int, *, order_guard: int | None = None,
                       label: str | None = None) -> FiniteRing:
    """K_s(R): quadruples (a, x, y, b) with both cross products scaled by the
    central element s."""
    s = int(s)
    if not bool(core.center(R).members[s]):
        raise NotCentral(f"element {s} is not central in {R.label}")
    sizes = [R.order] * 4
    adds = [R.add] * 4

    def mul_row(t, cols):
        a1, x1, y1, b1 = t
        ca = R.add[R.mul[a1, cols[0]], R.mul[s, R.mul[x1, cols[2]]]]
        cx = R.add[R.mul[a1, cols[1]], R.mul[x1, cols[3]]]
        cy = R.add[R.mul[y1, cols[0]], R.mul[b1, cols[2]]]
        cb = R.add[R.mul[s, R.mul[y1, cols[1]]], R.mul[b1, cols[3]]]
        return [ca, cx, cy, cb]

    names = _tuple_names([R.names] * 4, sizes)
    return _tuple_ring(label or f"K({R.label},s={R.names[s]})", sizes, adds,
                       (R.zero,) * 4, (R.one, R.zero, R.zero, R.one),
                       mul_row, names, order_guard=order_guard)


def scale_exponent(i: int, k: int, j: int) -> int:
    """Exponent 1 + [i==j] - [i==k] - [k==j] scaling the (i,k)x(k,j) term."""
    return 1 + (i == j) - (i == k) - (k == j)


def formal_matrix(R: FiniteRing, n: int, s: int, *, order_guard: int | None = None,
                  label: str | None = None) -> FiniteRing:
    """n-by-n matrices over R with the product twisted by powers of a central
    element s: the (i,k)x(k,j) term is scaled by s**scale_exponent(i,k,j)."""
    s = int(s)
    if not bool(core.center(R).members[s]):
        raise NotCentral(f"element {s} is not central in {R.label}")
    if n < 1:
        raise ValueError("matrix size must be positive")
    if n == 1:
        return R
    spow = [R.one, s, int(R.mul[s, s])]
    k2 = n * n
    sizes = [R.order] * k2
    adds = [R.add] * k2

    def mul_row(a, cols):
        out = []
        for i in range(n):
            for j in range(n):
                acc = None
                for k in range(n):
                    term = R.mul[spow[scale_exponent(i, k, j)],
                                 R.mul[a[i * n + k], cols[k * n + j]]]
                    acc = term if acc is None else R.add[acc, term]
                out.append(acc)
        return out

    names = _tuple_names([R.names] * k2, sizes)
    zero = tuple([R.zero] * k2)
    one = tuple(R.one if i == j else R.zero for i in range(n) for j in range(n))
    return _tuple_ring(label or f"FM({n},{R.label},s={R.names[s]})", sizes, adds,
                       zero, one, mul_row, names, order_guard=order_guard)


def group_ring(R: FiniteRing, G: FiniteGroup, *, order_guard: int | None = None,
               label: str | None = None) -> FiniteRing:
    """R-linear combinations of group elements under convolution."""
    sizes = [R.order] * G.order
    adds = [R.add] * G.order

    def mul_row(a, cols):
        out = []
        for h in range(G.order):
            acc = None
            for g in range(G.order):
                term = R.mul[a[g], cols[int(G.table[int(G.inv[g]), h])]]
                acc = term if acc is None else R.add[acc, term]
            out.append(acc)
        return out

    names = _poly_names(R.names, sizes,
                        ["" if g == G.identity else G.names[g] for g in range(G.order)])
    zero = tuple([R.zero] * G.order)
    one = tuple(R.one if g == G.identity else R.zero for g in range(G.order))
    out = _tuple_ring(label or f"GR({R.label},{G.label})", sizes, adds, zero, one,
                      mul_row, names, order_guard=order_guard)
    out._cache["group_ring"] = (R, G)
    return out


def augmentation(RG: FiniteRing) -> tuple[RingHom, ElementSet]:
    """Coefficient-sum map of a group ring and its kernel ideal.

    The kernel always has |R|^(|G|-1) elements and the map is a surjective
    homomorphism; both facts are re-verified here.
    """
    info = RG._cache.get("group_ring")
    if info is None:
        raise ValueError("augmentation needs a ring built by group_ring")
    R, G = info
    n = RG.order
    arange = np.arange(n, dtype=np.int64)
    strides = _strides([R.order] * G.order)
    eps = np.full(n, R.zero, dtype=np.int32)
    for g in range(G.order):
        coeff = ((arange // strides[g]) % R.order).astype(np.int32)
        eps = R.add[eps, coeff]
    hom = core.validate_hom(RG, R, eps)
    check_internal(hom.is_surjective, f"augmentation of {RG.label} is not surjective")
    kernel = hom.kernel()
    check_internal(len(kernel) == R.order ** (G.order - 1),
                   f"augmentation kernel of {RG.label} has the wrong size")
    check_internal(core.is_ideal(RG, kernel),
                   f"augmentation kernel of {RG.label} is not an ideal")
    return hom, kernel
