"""Ring-expression language: parse, print, build, and the default catalog.

Grammar (whitespace-insensitive, decimal integers):

    expr  := name | ctor "(" args ")"
    name  := "Z" int | "GF" "(" int ")"
    ctor  := "Prod" | "M" | "T" | "TruncSkew" | "Triv" | "DT" | "FT"
           | "K" | "FM" | "GR" | "Quot" | "Corner"
    group := "C" int | "V4" | "S3"
    endo  := "id" | "frob"

Constructors nest at most MAX_NESTING deep.  The parser refuses deeper text
with an ExprSyntaxError, so printing, `order_of` and `build`, which recurse
over the tree, stay within Python's recursion limit.

Building is memoized by the canonical printed form, behind a lock held
across the build, so each ring is built once; cache hits return the
identical immutable ring, so identical expressions always yield
bit-identical dumps.

The order guard is checked once per expression, at the top of `build`:
`order_of` reads the order off the expression (for `Quot` and `Corner`
the base's order, an upper bound), so an expression past the guard is
rejected before any table is allocated and whether or not it is cached.
`--max-order` selects catalog rings by the same `order_of`.  The guard in
`constructions._tuple_ring` serves callers of the constructions, and the
one in `core.validate_ring` (`_as_table`) serves ring dumps.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import constructions as cons
from . import core
from .core import FiniteRing, validate_ring
from .errors import (
    BadArity,
    ExprSyntaxError,
    InvalidBimodule,
    InvalidEndomorphism,
    OrderGuardExceeded,
    UnknownName,
    UnsupportedField,
)

# ---------------------------------------------------------------------------
# AST


class RingExpr:
    """Base class of expression nodes."""


@dataclass(frozen=True)
class Named(RingExpr):
    kind: str          # "Z" or "GF"
    param: int


@dataclass(frozen=True)
class Product(RingExpr):
    factors: tuple[RingExpr, ...]


@dataclass(frozen=True)
class Matrix(RingExpr):
    size: int
    base: RingExpr


@dataclass(frozen=True)
class Triangular(RingExpr):
    size: int
    base: RingExpr


@dataclass(frozen=True)
class TruncSkew(RingExpr):
    base: RingExpr
    endo: str
    degree: int


@dataclass(frozen=True)
class Triv(RingExpr):
    base: RingExpr


@dataclass(frozen=True)
class DT(RingExpr):
    base: RingExpr


@dataclass(frozen=True)
class FormalTri(RingExpr):
    left: RingExpr
    right: RingExpr
    regular: bool      # True: regular bimodule (all three args equal); False: zero


@dataclass(frozen=True)
class Ks(RingExpr):
    base: RingExpr
    scalar: int


@dataclass(frozen=True)
class FMns(RingExpr):
    size: int
    base: RingExpr
    scalar: int


@dataclass(frozen=True)
class GroupRing(RingExpr):
    base: RingExpr
    group: str


@dataclass(frozen=True)
class Quotient(RingExpr):
    base: RingExpr
    gens: tuple[int, ...]


@dataclass(frozen=True)
class Corner(RingExpr):
    base: RingExpr
    idem: int


# ---------------------------------------------------------------------------
# printing


def print_expr(e: RingExpr) -> str:
    """Canonical form; parse(print_expr(e)) reproduces e."""
    match e:
        case Named("Z", m):
            return f"Z{m}"
        case Named("GF", q):
            return f"GF({q})"
        case Product(factors):
            return "Prod(" + ",".join(print_expr(f) for f in factors) + ")"
        case Matrix(n, base):
            return f"M({n},{print_expr(base)})"
        case Triangular(n, base):
            return f"T({n},{print_expr(base)})"
        case TruncSkew(base, endo, n):
            return f"TruncSkew({print_expr(base)},{endo},{n})"
        case Triv(base):
            b = print_expr(base)
            return f"Triv({b},{b})"
        case DT(base):
            b = print_expr(base)
            return f"DT({b},{b})"
        case FormalTri(left, right, regular):
            l, r = print_expr(left), print_expr(right)
            return f"FT({l},{r},{r})" if regular else f"FT({l},{r})"
        case Ks(base, s):
            return f"K({print_expr(base)},s={s})"
        case FMns(n, base, s):
            return f"FM({n},{print_expr(base)},s={s})"
        case GroupRing(base, g):
            return f"GR({print_expr(base)},{g})"
        case Quotient(base, gens):
            return f"Quot({print_expr(base)}," + ",".join(str(g) for g in gens) + ")"
        case Corner(base, idem):
            return f"Corner({print_expr(base)},{idem})"
    raise ValueError(f"unprintable node {e!r}")


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[(),=]))")

CTORS = {"Prod", "M", "T", "TruncSkew", "Triv", "DT", "FT", "K", "FM", "GR", "Quot", "Corner"}
GROUP_ORDERS = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "V4": 4, "S3": 6}
ENDO_NAMES = {"id", "frob"}
_ZNAME = re.compile(r"^Z(\d+)$")
MAX_NESTING = 200   # constructors open at once; catalog expressions open one


def _int(text: str, pos: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:      # past Python's limit on the digits of a decimal string
        raise ExprSyntaxError(pos, what, f"{what} at position {pos} has too many digits") from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
                if stripped >= len(text):
                    break
                raise ExprSyntaxError(stripped, "integer, name, or punctuation")
            for kind in ("int", "name", "punct"):
                if m.group(kind) is not None:
                    self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expected: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError(len(self.text), expected)
        self.i += 1
        return tok

    def expect_punct(self, ch: str) -> None:
        kind, text, pos = self.next(repr(ch))
        if kind != "punct" or text != ch:
            raise ExprSyntaxError(pos, repr(ch))

    def expect_int(self, what: str = "integer") -> int:
        kind, text, pos = self.next(what)
        if kind != "int":
            raise ExprSyntaxError(pos, what)
        return _int(text, pos, what)

    def expect_name(self, what: str = "name") -> tuple[str, int]:
        kind, text, pos = self.next(what)
        if kind != "name":
            raise ExprSyntaxError(pos, what)
        return text, pos

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "punct" and tok[1] == ch

    def parse_expr(self) -> RingExpr:
        name, pos = self.expect_name("ring name or constructor")
        zm = _ZNAME.match(name)
        if zm and name != "Z":
            m = _int(zm.group(1), pos + 1, "modulus")
            if m < 2:
                raise UnknownName(f"Z{m}: modulus must be at least 2")
            return Named("Z", m)
        if name == "GF":
            self.expect_punct("(")
            q = self.expect_int("prime power")
            self.expect_punct(")")
            return Named("GF", q)
        if name not in CTORS:
            raise UnknownName(f"unknown name or constructor {name!r} at position {pos}")
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(pos, "a ring name", f"syntax error at position {pos}: "
                                  f"constructors nest deeper than {MAX_NESTING} levels")
        self.depth += 1
        self.expect_punct("(")
        node = self.parse_ctor(name, pos)
        self.expect_punct(")")
        self.depth -= 1
        return node

    def parse_scalar(self) -> int:
        tok = self.peek()
        if tok is not None and tok[0] == "name" and tok[1] == "s":
            self.next("s")
            self.expect_punct("=")
        return self.expect_int("element index")

    def parse_ctor(self, ctor: str, pos: int) -> RingExpr:
        if ctor == "Prod":
            factors = [self.parse_expr()]
            while self.at_punct(","):
                self.expect_punct(",")
                factors.append(self.parse_expr())
            return Product(tuple(factors))
        if ctor in ("M", "T"):
            n = self.expect_int("matrix size")
            self.expect_punct(",")
            base = self.parse_expr()
            if n < 1:
                raise BadArity(f"{ctor}: size must be positive")
            return Matrix(n, base) if ctor == "M" else Triangular(n, base)
        if ctor == "TruncSkew":
            base = self.parse_expr()
            self.expect_punct(",")
            endo, epos = self.expect_name("endomorphism name")
            if endo not in ENDO_NAMES:
                raise UnknownName(f"unknown endomorphism {endo!r} at position {epos}")
            self.expect_punct(",")
            n = self.expect_int("truncation degree")
            if n < 2:
                raise BadArity("TruncSkew: truncation degree must be at least 2")
            return TruncSkew(base, endo, n)
        if ctor in ("Triv", "DT"):
            base = self.parse_expr()
            if self.at_punct(","):
                self.expect_punct(",")
                module = self.parse_expr()
                if print_expr(module) != print_expr(base):
                    raise InvalidBimodule(
                        f"{ctor}: the expression language only offers the regular bimodule, "
                        "so the second argument must repeat the base ring")
            return Triv(base) if ctor == "Triv" else DT(base)
        if ctor == "FT":
            left = self.parse_expr()
            self.expect_punct(",")
            right = self.parse_expr()
            if self.at_punct(","):
                self.expect_punct(",")
                module = self.parse_expr()
                same = print_expr(module) == print_expr(left) == print_expr(right)
                if not same:
                    raise InvalidBimodule(
                        "FT(A,B) uses the zero bimodule; FT(A,A,A) the regular one")
                return FormalTri(left, right, True)
            return FormalTri(left, right, False)
        if ctor == "K":
            base = self.parse_expr()
            self.expect_punct(",")
            return Ks(base, self.parse_scalar())
        if ctor == "FM":
            n = self.expect_int("matrix size")
            self.expect_punct(",")
            base = self.parse_expr()
            self.expect_punct(",")
            if n < 1:
                raise BadArity("FM: size must be positive")
            return FMns(n, base, self.parse_scalar())
        if ctor == "GR":
            base = self.parse_expr()
            self.expect_punct(",")
            gname, gpos = self.expect_name("group name")
            if gname not in GROUP_ORDERS:
                raise UnknownName(f"unknown group {gname!r} at position {gpos}")
            return GroupRing(base, gname)
        if ctor == "Quot":
            base = self.parse_expr()
            gens = []
            while self.at_punct(","):
                self.expect_punct(",")
                gens.append(self.expect_int("ideal generator index"))
            if not gens:
                raise BadArity("Quot needs at least one ideal generator index")
            return Quotient(base, tuple(gens))
        if ctor == "Corner":
            base = self.parse_expr()
            self.expect_punct(",")
            return Corner(base, self.expect_int("idempotent index"))
        raise UnknownName(f"unknown constructor {ctor!r} at position {pos}")


def parse(text: str) -> RingExpr:
    """Parse a ring expression; errors carry deterministic positions."""
    p = _Parser(text)
    node = p.parse_expr()
    tok = p.peek()
    if tok is not None:
        raise ExprSyntaxError(tok[2], "end of expression")
    return node


# ---------------------------------------------------------------------------
# Galois fields

_GF_POLYS = {
    # q: (p, k, low-degree coefficients of the irreducible, x^{k-1} first)
    4: (2, 2, (1, 1)),      # x^2 + x + 1 over Z2
    8: (2, 3, (0, 1, 1)),   # x^3 + x + 1 over Z2
    9: (3, 2, (0, 1)),      # x^2 + 1 over Z3
}
_GF_PRIMES = {2, 3, 5, 7}
SUPPORTED_FIELDS = tuple(sorted(_GF_PRIMES | set(_GF_POLYS)))


def _zmod_tables(m: int):
    i = np.arange(m, dtype=np.int32)
    # Products in int64: i*j overflows int32 once m > 46340.
    wide = i.astype(np.int64)
    return (i[:, None] + i[None, :]) % m, ((wide[:, None] * wide[None, :]) % m).astype(np.int32)


def _gf_name(coeffs: tuple[int, ...]) -> str:
    # coeffs are most-significant-first in x
    k = len(coeffs)
    terms = []
    for t, c in enumerate(coeffs):
        deg = k - 1 - t
        if c == 0:
            continue
        if deg == 0:
            terms.append(str(c))
        else:
            v = "x" if deg == 1 else f"x^{deg}"
            terms.append(v if c == 1 else f"{c}{v}")
    return "+".join(terms) if terms else "0"


def _require_field(q: int) -> None:
    if q not in SUPPORTED_FIELDS:
        raise UnsupportedField(f"GF({q}) is not built in; supported: {SUPPORTED_FIELDS}")


def galois_field(q: int, *, label: str | None = None) -> FiniteRing:
    """GF(q) for q in SUPPORTED_FIELDS, via fixed irreducible polynomials."""
    _require_field(q)
    if q in _GF_PRIMES:
        add, mul = _zmod_tables(q)
        return validate_ring(add, mul, 0, 1, label=label or f"GF({q})")
    p, k, tail = _GF_POLYS[q]

    def decode(idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(k):
            out.append(idx % p)
            idx //= p
        return tuple(reversed(out))  # most significant first

    def encode(coeffs) -> int:
        idx = 0
        for c in coeffs:
            idx = idx * p + (c % p)
        return idx

    def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = [0] * (2 * k - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
        # reduce modulo x^k = -(tail), most-significant-first layout
        for t in range(0, k - 1):
            lead = prod[t] % p
            prod[t] = 0
            if lead:
                for u, cf in enumerate(tail):
                    prod[t + 1 + u] = (prod[t + 1 + u] - lead * cf) % p
        return tuple(c % p for c in prod[k - 1:])

    n = q
    add = np.zeros((n, n), dtype=np.int32)
    mul = np.zeros((n, n), dtype=np.int32)
    elems = [decode(i) for i in range(n)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            add[i, j] = encode(tuple((x + y) % p for x, y in zip(a, b)))
            mul[i, j] = encode(poly_mul(a, b))
    names = tuple(_gf_name(a) for a in elems)
    return validate_ring(add, mul, 0, 1, label=label or f"GF({q})", names=names)


def frobenius(field: FiniteRing, p: int) -> core.RingHom:
    m = np.array([field.pow(a, p) for a in range(field.order)], dtype=np.int32)
    return core.validate_hom(field, field, m)


# ---------------------------------------------------------------------------
# building

_BUILD_CACHE: dict[str, FiniteRing] = {}
_BUILD_LOCK = threading.RLock()


def _field_char(q: int) -> int:
    if q in _GF_PRIMES:
        return q
    return _GF_POLYS[q][0]


def order_of(e: RingExpr, cap: int) -> int:
    """The order of the ring `e` denotes, read off the expression.

    Exact for every constructor; for `Quot` and `Corner` it is the base's
    order, an upper bound.  Coordinate sizes are multiplied one at a time
    and the first partial product past `cap` is returned as it stands.  Every
    node of a parsed expression has order at least 2, so that takes a few
    rounds, however large the numbers written in the expression are.
    Raises `UnsupportedField` for a GF(q) that is not built in.
    """
    def product(sizes) -> int:
        total = 1
        for size in sizes:
            total *= size
            if total > cap:
                break
        return total

    def power(base: RingExpr, count: int) -> int:
        return product(repeat(order_of(base, cap), count))

    match e:
        case Named("Z", m):
            return m
        case Named("GF", q):
            _require_field(q)
            return q
        case Product(factors):
            return product(order_of(f, cap) for f in factors)
        case Matrix(n, base) | FMns(n, base, _):
            return power(base, n * n)
        case Triangular(n, base):
            return power(base, n * (n + 1) // 2)
        case TruncSkew(base, _, n):
            return power(base, n)
        case Triv(base):
            return power(base, 2)
        case DT(base) | Ks(base, _):
            return power(base, 4)
        case FormalTri(left, _, True):
            return power(left, 3)
        case FormalTri(left, right, False):
            return product(order_of(side, cap) for side in (left, right))
        case GroupRing(base, g):
            return power(base, GROUP_ORDERS[g])
        case Quotient(base, _) | Corner(base, _):
            return order_of(base, cap)
    raise ValueError(f"unbuildable node {e!r}")


def _build_uncached(e: RingExpr, canonical: str, guard: int | None) -> FiniteRing:
    match e:
        case Named("Z", m):
            add, mul = _zmod_tables(m)
            return validate_ring(add, mul, 0, 1, label=canonical, order_guard=guard)
        case Named("GF", q):
            return galois_field(q, label=canonical)
        case Product(factors):
            built = [build(f, order_guard=guard) for f in factors]
            return cons.direct_product(built, order_guard=guard, label=canonical)
        case Matrix(n, base):
            return cons.matrix_ring(build(base, order_guard=guard), n,
                                    order_guard=guard, label=canonical)
        case Triangular(n, base):
            return cons.upper_triangular(build(base, order_guard=guard), n,
                                         order_guard=guard, label=canonical)
        case TruncSkew(base, endo, n):
            R = build(base, order_guard=guard)
            if endo == "id":
                alpha = cons.identity_endomorphism(R)
            else:
                if not (isinstance(base, Named) and base.kind == "GF"):
                    raise InvalidEndomorphism(
                        "frob binds only on GF(q) base expressions")
                alpha = frobenius(R, _field_char(base.param))
            return cons.truncated_skew_poly(R, alpha, n, order_guard=guard,
                                            label=canonical, endo_label=endo)
        case Triv(base):
            return cons.trivial_extension(build(base, order_guard=guard),
                                          order_guard=guard, label=canonical)
        case DT(base):
            # the inner Triv(base) comes from the build cache, so building both
            # rings validates it once
            return cons.dt_extension(build(base, order_guard=guard), order_guard=guard,
                                     label=canonical, inner=build(Triv(base), order_guard=guard))
        case FormalTri(left, right, regular):
            L = build(left, order_guard=guard)
            Rr = build(right, order_guard=guard)
            if regular:
                if L is not Rr:
                    raise InvalidBimodule("FT(A,A,A) needs equal rings")
                module = cons.regular_bimodule(L)
            else:
                module = None
            return cons.formal_triangular(L, Rr, module, order_guard=guard, label=canonical)
        case Ks(base, s):
            R = build(base, order_guard=guard)
            if not 0 <= s < R.order:
                raise BadArity(f"scalar index {s} out of range for {R.label}")
            return cons.generalized_matrix(R, s, order_guard=guard, label=canonical)
        case FMns(n, base, s):
            R = build(base, order_guard=guard)
            if not 0 <= s < R.order:
                raise BadArity(f"scalar index {s} out of range for {R.label}")
            return cons.formal_matrix(R, n, s, order_guard=guard, label=canonical)
        case GroupRing(base, gname):
            R = build(base, order_guard=guard)
            G = cons.group_catalog()[gname]
            return cons.group_ring(R, G, order_guard=guard, label=canonical)
        case Quotient(base, gens):
            R = build(base, order_guard=guard)
            for g in gens:
                if not 0 <= g < R.order:
                    raise BadArity(f"ideal generator index {g} out of range for {R.label}")
            Q, _ = core.quotient_ring(R, core.ideal_generated(R, gens))
            return core._relabel(Q, canonical)
        case Corner(base, idem):
            R = build(base, order_guard=guard)
            if not 0 <= idem < R.order:
                raise BadArity(f"idempotent index {idem} out of range for {R.label}")
            return core._relabel(core.corner_ring(R, idem), canonical)
    raise ValueError(f"unbuildable node {e!r}")


def build(e: RingExpr, *, order_guard: int | None = None) -> FiniteRing:
    """Build (and memoize) the ring denoted by an expression.

    The expression is held to the guard by `order_of` before anything is
    built or looked up, so a cached ring and a cold build are admitted alike.
    The lock is held across an uncached build (it is re-entrant, since
    building recurses into sub-expressions), so concurrent callers build
    each ring once."""
    canonical = print_expr(e)
    guard = core._resolve_guard(order_guard)
    reach = order_of(e, guard)
    if reach > guard:
        raise OrderGuardExceeded(
            f"{canonical}: order would reach at least {reach}, past the guard {guard}")
    with _BUILD_LOCK:
        ring = _BUILD_CACHE.get(canonical)
        if ring is None:
            ring = _BUILD_CACHE[canonical] = _build_uncached(e, canonical, order_guard)
    return ring


def build_str(text: str, *, order_guard: int | None = None) -> FiniteRing:
    return build(parse(text), order_guard=order_guard)


def clear_build_cache() -> None:
    with _BUILD_LOCK:
        _BUILD_CACHE.clear()


# ---------------------------------------------------------------------------
# catalog

CATALOG_MAX_ORDER = 1024


# The catalog's construction instances, one tuple per constructor, in
# catalog order.  The theorem harness reads its construction rows from here.
_CATALOG_INSTANCES: dict[str, tuple[str, ...]] = {
    "M": ("M(2,Z2)", "M(2,Z3)"),
    "T": ("T(2,Z2)", "T(2,Z3)", "T(2,Z4)", "T(3,Z2)", "T(3,Z3)"),
    "TruncSkew": ("TruncSkew(Z2,id,2)", "TruncSkew(Z2,id,3)", "TruncSkew(Z3,id,2)",
                  "TruncSkew(Z4,id,2)", "TruncSkew(Z5,id,2)",
                  "TruncSkew(GF(4),frob,2)", "TruncSkew(GF(4),id,2)"),
    "Triv": ("Triv(Z2,Z2)", "Triv(Z3,Z3)", "Triv(Z4,Z4)", "Triv(Z5,Z5)",
             "Triv(Z6,Z6)", "Triv(GF(4),GF(4))"),
    "DT": ("DT(Z2,Z2)", "DT(Z3,Z3)", "DT(Z4,Z4)", "DT(Z5,Z5)"),
    "FT": ("FT(Z2,Z3)", "FT(Z2,Z2,Z2)", "FT(Z3,Z3,Z3)", "FT(Z4,Z6)"),
    "K": ("K(Z2,s=0)", "K(Z3,s=0)", "K(Z4,s=0)", "K(Z4,s=2)", "K(Z5,s=0)",
          "K(GF(4),s=0)"),
    "FM": ("FM(2,Z2,s=0)", "FM(2,Z4,s=2)"),
    "GR": ("GR(Z2,C2)", "GR(Z2,C3)", "GR(Z2,C4)", "GR(Z2,V4)", "GR(Z2,C6)",
           "GR(Z2,S3)", "GR(Z3,C2)", "GR(Z3,C3)", "GR(Z4,C2)", "GR(Z5,C2)",
           "GR(Z9,C3)", "GR(GF(4),C2)"),
    "Prod": ("Prod(Z2,Z2)", "Prod(Z2,Z3)", "Prod(Z3,Z3)", "Prod(Z2,Z2,Z2)",
             "Prod(Z2,Z5)", "Prod(Z4,Z9)", "Prod(GF(4),Z2)", "Prod(Z8,Z27)"),
}


def _catalog_exprs() -> list[str]:
    out = [f"Z{m}" for m in range(2, 121)]
    out += [f"GF({q})" for q in SUPPORTED_FIELDS]
    for instances in _CATALOG_INSTANCES.values():
        out += instances
    return out


def catalog() -> list[tuple[str, RingExpr]]:
    """The default verification catalog: labels and ASTs, every order <= 1024."""
    return [(s, parse(s)) for s in _catalog_exprs()]
