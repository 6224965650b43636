"""Ring-expression language: parse, print, build, and the default catalog.

Grammar (whitespace-insensitive, decimal integers):

    expr  := name | ctor "(" args ")"
    name  := "Z" int | "GF" "(" int ")"
    ctor  := "Prod" | "M" | "T" | "TruncSkew" | "Triv" | "DT" | "FT"
           | "K" | "FM" | "GR" | "Quot" | "Corner"
    group := "C" int | "V4" | "S3"
    endo  := "id" | "frob"

Each constructor is one row of `_TABLE`, made by `_constructor`: the name
it is written with, its node class, its arguments in text order (which name
the node's fields and fix how it parses and prints), how many copies of
each ring argument its order multiplies, and its builder.  The parser,
`print_expr`, `order_of` and `_build_uncached` walk the row and have no
case for any constructor (only for the names, the leaves), so adding a
constructor is adding one row.

Constructors nest at most MAX_NESTING deep.  The parser refuses deeper text
with an ExprSyntaxError, so printing, `order_of` and `build`, which recurse
over the tree, stay within Python's recursion limit.

Building is memoized by the canonical printed form, behind a lock held
across the build, so each ring is built once; cache hits return the
identical immutable ring, so identical expressions always yield
bit-identical dumps.  A built ring always carries its canonical form as its
label, also where a construction returns a ring it was given (`M(1,R)`).

Z_n's fresh tables are proved and frozen in place (`core._validated_ring`),
never copied; GF(p) is the built Z_p under its own name; GF(p^k) and every
constructor are structure-table rings of `constructions`.  So no build
calls `core.validate_ring`, which copies the tables it is given.

The order guard is checked once per expression, at the top of `build`:
`order_of` reads the order off the expression (for `Quot` and `Corner`
the base's order, an upper bound), so an expression past the guard is
rejected before any table is allocated, before its canonical form is
printed, and whether or not it is cached.
`--max-order` selects catalog rings by the same `order_of`.  The guard in
`constructions._tuple_ring` (held before any per-coordinate work by
`constructions._over`) serves direct callers of the constructions, and the
one in `core.validate_ring` (`_as_table`) serves ring dumps.
"""

from __future__ import annotations

import re
import threading

import numpy as np

from . import constructions as cons
from . import core
from .core import FiniteRing
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
    """An expression node: an immutable value whose fields are its
    `__slots__`, compared and hashed by its type and field values."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                            f"got {len(values)}")
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def __setattr__(self, field, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        return type(self) is type(other) and self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Named(RingExpr):
    __slots__ = ("kind", "param")      # kind "Z" or "GF"


# ---------------------------------------------------------------------------
# the constructor table


class _Arg:
    """One argument of a constructor, in text order.

    `kind` is one of
      "ring"     a ring expression;
      "rings"    one or more ring expressions;
      "int"      an integer; one below `least` is a BadArity with `message`,
                 raised once the argument after it is read;
      "index"    an element index of the ring argument;
      "indices"  one or more element indices, each after a comma;
      "scalar"   an element index, optionally written `s=`;
      "name"     a name from `choices`, `what` saying what it names;
      "repeat"   an optional ring that must print as the rings in the fields
                 `same`, else an InvalidBimodule with `message`; it prints
                 as a repeat of the ring before it.
    `field` names the node field that holds the value; a "repeat" without
    one always prints.  Messages are formatted with the constructor's name
    as `ctor`.  Indices are held to the ring's order at build time.
    """

    __slots__ = ("kind", "field", "what", "least", "message", "choices", "same")

    def __init__(self, kind, field=None, what="", *, least=0, message="", choices=(), same=()):
        self.kind, self.field, self.what = kind, field, what
        self.least, self.message, self.choices, self.same = least, message, choices, same


_TABLE: dict[str, type[RingExpr]] = {}


def _constructor(ctor: str, node: str, args: list[_Arg], copies, make) -> type[RingExpr]:
    """Register the constructor written `ctor` and return its node class.

    `copies(e)` gives, for each ring argument of `e` in order, how many
    copies of it the order of `e` multiplies.  `make(e, *rings, order_guard=)`
    builds `e` from its built ring arguments (under the construction's own
    label); it reaches the constructions through module attributes at call time."""
    # a comma follows each argument that another one follows, except where
    # the next argument is optional and reads its own comma
    commas = tuple(after.kind not in ("indices", "repeat") for after in args[1:]) + (False,)
    cls = type(node, (RingExpr,), {
        "__slots__": tuple(arg.field for arg in args if arg.field),
        "__module__": __name__, "_ctor": ctor, "_args": args, "_commas": commas,
        "_copies": staticmethod(copies), "_make": staticmethod(make)})
    _TABLE[ctor] = cls
    return cls


GROUP_ORDERS = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "V4": 4, "S3": 6}
ENDO_NAMES = {"id", "frob"}
_BASE = _Arg("ring", "base")
_SIZE = _Arg("int", "size", "matrix size", least=1, message="{ctor}: size must be positive")
_SCALAR = _Arg("scalar", "scalar", "scalar index")
_BASE_AGAIN = _Arg("repeat", same=("base",), message=(
    "{ctor}: the expression language only offers the regular bimodule, "
    "so the second argument must repeat the base ring"))


def _skew_poly(e, R, **kw):
    if e.endo == "id":
        alpha = cons.identity_endomorphism(R)
    elif isinstance(e.base, Named) and e.base.kind == "GF":
        q = e.base.param    # of characteristic p, where q = p^k
        alpha = frobenius(R, _GF_POLYS[q][0] if q in _GF_POLYS else q)
    else:
        raise InvalidEndomorphism("frob binds only on GF(q) base expressions")
    return cons.truncated_skew_poly(R, alpha, e.degree, endo_label=e.endo, **kw)


def _formal_triangular(e, L, R, **kw):
    if e.regular and L is not R:
        raise InvalidBimodule("FT(A,A,A) needs equal rings")
    return cons.formal_triangular(L, R, cons.regular_bimodule(L) if e.regular else None, **kw)


Product = _constructor(
    "Prod", "Product", [_Arg("rings", "factors")],
    lambda e: (1,) * len(e.factors),
    lambda e, *factors, **kw: cons.direct_product(list(factors), **kw))
Matrix = _constructor(
    "M", "Matrix", [_SIZE, _BASE],
    lambda e: (e.size * e.size,),
    lambda e, R, **kw: cons.matrix_ring(R, e.size, **kw))
Triangular = _constructor(
    "T", "Triangular", [_SIZE, _BASE],
    lambda e: (e.size * (e.size + 1) // 2,),
    lambda e, R, **kw: cons.upper_triangular(R, e.size, **kw))
TruncSkew = _constructor(
    "TruncSkew", "TruncSkew",
    [_BASE, _Arg("name", "endo", "endomorphism", choices=ENDO_NAMES),
     _Arg("int", "degree", "truncation degree", least=2,
          message="{ctor}: truncation degree must be at least 2")],
    lambda e: (e.degree,),
    _skew_poly)
Triv = _constructor(
    "Triv", "Triv", [_BASE, _BASE_AGAIN],
    lambda e: (2,),
    lambda e, R, **kw: cons.trivial_extension(R, **kw))
DT = _constructor(
    "DT", "DT", [_BASE, _BASE_AGAIN],
    lambda e: (4,),
    lambda e, R, **kw: cons.dt_extension(R, **kw))
# regular: True for the regular bimodule (all three arguments equal), False for zero
FormalTri = _constructor(
    "FT", "FormalTri",
    [_Arg("ring", "left"), _Arg("ring", "right"),
     _Arg("repeat", "regular", same=("left", "right"),
          message="FT(A,B) uses the zero bimodule; FT(A,A,A) the regular one")],
    lambda e: (1, 2) if e.regular else (1, 1),
    _formal_triangular)
Ks = _constructor(
    "K", "Ks", [_BASE, _SCALAR],
    lambda e: (4,),
    lambda e, R, **kw: cons.generalized_matrix(R, e.scalar, **kw))
FMns = _constructor(
    "FM", "FMns", [_SIZE, _BASE, _SCALAR],
    lambda e: (e.size * e.size,),
    lambda e, R, **kw: cons.formal_matrix(R, e.size, e.scalar, **kw))
GroupRing = _constructor(
    "GR", "GroupRing", [_BASE, _Arg("name", "group", "group", choices=GROUP_ORDERS)],
    lambda e: (GROUP_ORDERS[e.group],),
    lambda e, R, **kw: cons.group_ring(R, cons.group_catalog()[e.group], **kw))
Quotient = _constructor(
    "Quot", "Quotient", [_BASE, _Arg("indices", "gens", "ideal generator index")],
    lambda e: (1,),
    lambda e, R, **kw: core.quotient_ring(R, core.ideal_generated(R, e.gens))[0])
Corner = _constructor(
    "Corner", "Corner", [_BASE, _Arg("index", "idem", "idempotent index")],
    lambda e: (1,),
    lambda e, R, **kw: core.corner_ring(R, e.idem))

CTORS = set(_TABLE)


def _rings(e: RingExpr):
    """The ring arguments of a constructor node, in text order."""
    for arg in type(e)._args:
        if arg.kind == "ring":
            yield getattr(e, arg.field)
        elif arg.kind == "rings":
            yield from getattr(e, arg.field)


# ---------------------------------------------------------------------------
# printing


def print_expr(e: RingExpr, limit: int | None = None) -> str:
    """Canonical form; parse(print_expr(e)) reproduces e.

    A repeated ring prints twice, so nested `Triv` and `DT` double in length
    with each level.  With `limit`, a form longer than `limit` characters is
    cut to that many and "..." is appended; every argument is cut the same
    way before it is joined, so the full form is never built."""
    if type(e) is Named:
        text = f"Z{e.param}" if e.kind == "Z" else f"GF({e.param})"
    else:
        parts = []
        for arg in type(e)._args:
            kind = arg.kind
            value = getattr(e, arg.field) if arg.field else True
            if kind == "ring":
                parts.append(print_expr(value, limit))
            elif kind == "rings":
                for factor in value:
                    parts.append(print_expr(factor, limit))
            elif kind == "indices":
                parts.extend(map(str, value))
            elif kind == "repeat":
                if value:
                    parts.append(parts[-1])
            elif kind == "scalar":
                parts.append(f"s={value}")
            else:
                parts.append(str(value))
        text = f"{type(e)._ctor}({','.join(parts)})"
    return text if limit is None or len(text) <= limit else text[:limit] + "..."


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[(),=]))")
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
            kind = m.lastgroup
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

    def take_punct(self, ch: str) -> bool:
        """Consume `ch` if it comes next; say whether it did."""
        tok = self.peek()
        found = tok is not None and tok[0] == "punct" and tok[1] == ch
        self.i += found
        return found

    def parse_expr(self) -> RingExpr:
        name, pos = self.expect_name("ring name or constructor")
        if name[0] == "Z" and name[1:].isdigit():
            m = _int(name[1:], pos + 1, "modulus")
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
        node = self.parse_ctor(name)
        self.expect_punct(")")
        self.depth -= 1
        return node

    def parse_scalar(self) -> int:
        tok = self.peek()
        if tok is not None and tok[0] == "name" and tok[1] == "s":
            self.next("s")
            self.expect_punct("=")
        return self.expect_int("element index")

    def parse_ctor(self, ctor: str) -> RingExpr:
        """The arguments of `ctor`, read by its row of `_TABLE`."""
        node = _TABLE[ctor]
        values: dict[str, object] = {}
        short = ""      # an int below its least value, reported after the next argument
        for arg, comma in zip(node._args, node._commas):
            kind = arg.kind
            if kind == "ring":
                value = self.parse_expr()
            elif kind == "rings":
                value = [self.parse_expr()]
                while self.take_punct(","):
                    value.append(self.parse_expr())
                value = tuple(value)
            elif kind == "indices":
                value = []
                while self.take_punct(","):
                    value.append(self.expect_int(arg.what))
                if not value:
                    raise BadArity(f"{ctor} needs at least one {arg.what}")
                value = tuple(value)
            elif kind == "repeat":
                value = self.take_punct(",")
                if value:
                    module = self.parse_expr()
                    if any(module != values[field] for field in arg.same):
                        raise InvalidBimodule(arg.message.format(ctor=ctor))
            elif kind == "name":
                value, pos = self.expect_name(f"{arg.what} name")
                if value not in arg.choices:
                    raise UnknownName(f"unknown {arg.what} {value!r} at position {pos}")
            elif kind == "scalar":
                value = self.parse_scalar()
            else:
                value = self.expect_int(arg.what)
            if comma:
                self.expect_punct(",")
            if short:
                raise BadArity(short)
            if kind == "int" and value < arg.least:
                short = arg.message.format(ctor=ctor)
            if arg.field:
                values[arg.field] = value
        if short:
            raise BadArity(short)
        return node(*values.values())


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
    """Z_m's addition and multiplication tables at `core.TABLE_DTYPE`, each
    row block reduced mod m in int64 (i*j passes 2^16 once m > 256) and
    stored at the tables' width, so no temporary is larger than a block."""
    i = np.arange(m, dtype=np.int64)
    add = np.empty((m, m), dtype=core.TABLE_DTYPE)
    mul = np.empty((m, m), dtype=core.TABLE_DTYPE)
    for lo, hi in core._row_blocks(m, m):
        rows = i[lo:hi, None]
        add[lo:hi] = (rows + i) % m
        mul[lo:hi] = rows * i % m
    return add, mul


def _require_field(q: int) -> None:
    if q not in SUPPORTED_FIELDS:
        raise UnsupportedField(f"GF({q}) is not built in; supported: {SUPPORTED_FIELDS}")


def galois_field(q: int) -> FiniteRing:
    """GF(q) for q in SUPPORTED_FIELDS, made from the built Z_p.  GF(p) is
    Z_p under its own name: its frozen tables, proved once, with a memo of
    its own for its reports, and Z_p's element sets, computed once for the
    tables.  GF(p^k) is the ring on coefficient tuples over Z_p
    (`constructions._over`) whose product reduces x^(a+b) modulo a fixed
    irreducible polynomial."""
    _require_field(q)
    if q in _GF_PRIMES:
        return core._relabel(build(Named("Z", q)), f"GF({q})")
    p, k, tail = _GF_POLYS[q]
    Zp = build(Named("Z", p))
    # x^e modulo x^k + tail for e <= 2k - 2, coefficients x^(k-1) first
    rems, power = [], [0] * (k - 1) + [1]
    for _ in range(2 * k - 1):
        rems.append(power)
        power = [(c - power[0] * t) % p for c, t in zip(power[1:] + [0], tail)]
    # coordinate l holds the coefficient of x^(k-1-l), so a_l b_r adds
    # coef * a_l * b_r to coordinate c for each coefficient coef of the
    # remainder of x^(2k-2-l-r)
    scaled = [Zp.mul[coef][Zp.mul] for coef in range(p)]
    terms = [(c, l, r, scaled[coef]) for l in range(k) for r in range(k)
             for c, coef in enumerate(rems[2 * k - 2 - l - r]) if coef]
    # the 1 is the constant polynomial, the last coordinate
    var_names = ["x" if d == 1 else f"x^{d}" if d else "" for d in range(k - 1, -1, -1)]
    return cons._over(Zp, k, f"GF({q})", terms, [k - 1],
                      lambda: cons._poly_names(Zp.names, var_names), None)


def frobenius(field: FiniteRing, p: int) -> core.RingHom:
    m = np.array([field.pow(a, p) for a in range(field.order)])
    return core.validate_hom(field, field, m)


# ---------------------------------------------------------------------------
# building

_BUILD_CACHE: dict[str, FiniteRing] = {}
_BUILD_LOCK = threading.RLock()
_INDICES = ("index", "indices", "scalar")
_MESSAGE_FORM = 200     # characters of the canonical form an order-guard message shows


def order_of(e: RingExpr, cap: int) -> int:
    """The order of the ring `e` denotes, read off the expression.

    Exact for every constructor; for `Quot` and `Corner` it is the base's
    order, an upper bound.  Coordinate sizes are multiplied one at a time
    and the first partial product past `cap` is returned as it stands.  Every
    node of a parsed expression has order at least 2, so that takes a few
    rounds, however large the numbers written in the expression are.
    Raises `UnsupportedField` for a GF(q) that is not built in.
    """
    if type(e) is Named:
        if e.kind == "GF":
            _require_field(e.param)
        return e.param
    total = 1
    for ring, count in zip(_rings(e), type(e)._copies(e)):
        size = order_of(ring, cap)
        for _ in range(count):
            total *= size
            if total > cap:
                return total
    return total


def _build_uncached(e: RingExpr, canonical: str, guard: int | None) -> FiniteRing:
    if type(e) is Named:
        if e.kind == "GF":
            return galois_field(e.param)
        # fresh tables, held to the guard by `build`: proved and frozen in place
        add, mul = _zmod_tables(e.param)
        return core._validated_ring(add, mul, 0, 1, canonical, None)
    rings = []
    for ring in _rings(e):
        rings.append(build(ring, order_guard=guard))
    for arg in type(e)._args:
        if arg.kind in _INDICES:
            value = getattr(e, arg.field)
            for i in value if arg.kind == "indices" else (value,):
                if not 0 <= i < rings[0].order:
                    raise BadArity(f"{arg.what} {i} out of range for {rings[0].label}")
    return type(e)._make(e, *rings, order_guard=guard)


def build(e: RingExpr, *, order_guard: int | None = None) -> FiniteRing:
    """Build (and memoize) the ring denoted by an expression.

    The expression is held to the guard by `order_of` before it is printed,
    built or looked up, so a cached ring and a cold build are admitted alike;
    the message shows the canonical form cut to `_MESSAGE_FORM` characters.
    The lock is held across an uncached build (it is re-entrant, since
    building recurses into sub-expressions), so concurrent callers build
    each ring once.  A ring built under another label (a construction's
    default form such as `FT(Z2,Z3,0)`, a quotient, a corner, or the ring
    it was given) is relabelled to the canonical form, without validating it again."""
    guard = core._resolve_guard(order_guard)
    reach = order_of(e, guard)
    if reach > guard:
        raise OrderGuardExceeded(f"{print_expr(e, _MESSAGE_FORM)}: order would reach at "
                                 f"least {reach}, past the guard {guard}")
    canonical = print_expr(e)
    with _BUILD_LOCK:
        ring = _BUILD_CACHE.get(canonical)
        if ring is None:
            ring = _build_uncached(e, canonical, order_guard)
            if ring.label != canonical:
                ring = core._relabel(ring, canonical)
            _BUILD_CACHE[canonical] = ring
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
