"""Benchmark inputs and the ground truth they are checked against.

Nothing here asks the program under test for an answer.  Orders and
2-delta-u verdicts come from closed forms of the base rings and the
construction theorems the paper proves (T3.1, T4.5, TDT, T4.9/T4.10,
TG1/TG2, T3.26, and T3.8's witness); see `expected_2du`.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# inspect: rings outside the catalog, orders 256..2048, additive rank 2..10.
# (expression, additive rank).  The latencies noted in README.md add up to a
# round of about 27 s of cold `info` requests on a 2-core machine.  Order 4096
# (the default guard) is capped at a share of 0: one cold request there takes
# 12.7-52.8 s on that machine, half a run or more.

INSPECT_POOL = [
    ("Prod(Z16,Z16)", 2), ("Triv(Z16,Z16)", 2), ("GR(Z16,C2)", 2),
    ("GR(Z4,C4)", 4), ("GR(Z4,V4)", 4), ("M(2,Z4)", 4), ("FM(2,Z4,s=0)", 4),
    ("GR(GF(4),C4)", 8), ("TruncSkew(GF(4),frob,4)", 8), ("DT(GF(4),GF(4))", 8),
    ("T(2,Z7)", 3), ("GR(Z7,C3)", 3),
    ("Prod(Z8,Z8,Z8)", 3), ("T(2,Z8)", 3),
    ("T(2,GF(8))", 9), ("GR(GF(8),C3)", 9), ("TruncSkew(GF(8),frob,3)", 9),
    ("Triv(Z25,Z25)", 2), ("M(2,Z5)", 4), ("GR(Z5,C4)", 4), ("TruncSkew(Z5,id,4)", 4),
    ("Prod(Z27,Z27)", 2), ("T(2,Z9)", 3), ("T(2,GF(9))", 6), ("GR(GF(9),C3)", 6),
    ("T(2,Z10)", 3),
    ("Prod(Z32,Z32)", 2), ("GR(GF(4),C5)", 10),
    ("M(2,Z6)", 4),
    ("T(2,Z12)", 3),
    ("Prod(Z32,Z64)", 2),
]


def inspect_stream(seed: int, rounds: int) -> list[str]:
    """Each round is the whole pool in a seeded order, so every run sees the
    same mix of orders and ranks and the seed only changes the sequence."""
    rng = random.Random(f"inspect:{seed}")
    stream: list[str] = []
    for _ in range(rounds):
        exprs = [e for e, _ in INSPECT_POOL]
        rng.shuffle(exprs)
        stream += exprs
    return stream


# ---------------------------------------------------------------------------
# ingest: dumps of orders 2..1296.  Each slot lists rings of one order (above
# order 128 also of one additive rank, which sets the cost of validation, and
# of similar build cost); the seed picks one per slot, so a pass and its
# set-up cost about the same for every seed.
# Per source there is one pristine dump and one with a single cell changed
# by +1 mod n, in the table the slot names.

ORDER_64 = ["Z64", "T(2,Z4)", "T(3,Z2)", "GR(Z2,C6)", "GR(Z2,S3)", "TruncSkew(Z4,id,3)",
            "Prod(Z8,Z8)", "Triv(Z8,Z8)"]

# Three order-64 slots sit in the middle of a pass's 24 loads, so the
# median load falls inside one cost cluster: below order 128 validation
# checks all n^3 triples, whose cost depends on n alone.
INGEST_SLOTS = [
    ("add", ["Z2", "GF(2)"]),
    ("mul", ["Z4", "GF(4)", "Prod(Z2,Z2)", "TruncSkew(Z2,id,2)", "Triv(Z2,Z2)", "GR(Z2,C2)"]),
    ("add", ["Z8", "GF(8)", "Prod(Z2,Z2,Z2)", "T(2,Z2)", "TruncSkew(Z2,id,3)", "GR(Z2,C3)"]),
    ("mul", ["Z16", "M(2,Z2)", "GR(Z2,C4)", "GR(Z2,V4)", "K(Z2,s=0)", "DT(Z2,Z2)",
             "TruncSkew(GF(4),frob,2)", "Triv(GF(4),GF(4))", "FM(2,Z2,s=0)"]),
    ("add", ["Z32", "Prod(Z4,Z8)", "Prod(Z2,Z16)", "TruncSkew(Z2,id,5)"]),
    ("mul", ORDER_64),
    ("mul", ORDER_64),
    ("mul", ORDER_64),
    ("add", ["Z128", "Prod(Z8,Z16)", "Prod(Z2,Z64)", "TruncSkew(Z2,id,7)"]),
    ("mul", ["M(2,Z4)", "GR(Z4,C4)", "GR(Z4,V4)", "FM(2,Z4,s=0)", "TruncSkew(Z4,id,4)"]),
    ("add", ["T(2,GF(8))", "GR(GF(8),C3)", "TruncSkew(GF(8),frob,3)", "TruncSkew(GF(8),id,3)"]),
    ("mul", ["M(2,Z6)", "K(Z6,s=0)"]),
]


def ingest_mix(seed: int) -> list[dict]:
    """One source per slot, with the table and cell its mutant changes."""
    rng = random.Random(f"ingest:{seed}")
    mix = []
    for table, group in INGEST_SLOTS:
        expr = rng.choice(group)
        n = order_of(expr)
        mix.append({"expr": expr, "table": table, "cell": [rng.randrange(n), rng.randrange(n)]})
    return mix


# ---------------------------------------------------------------------------
# closed forms


def _split_args(text: str) -> tuple[str, list[str]]:
    """'M(2,Z5)' -> ('M', ['2', 'Z5']); nested parentheses kept whole."""
    if "(" not in text or text.startswith("GF("):
        return text, []
    head, body = text[:text.index("(")], text[text.index("(") + 1:-1]
    args, depth, cur = [], 0, ""
    for ch in body:
        if ch == "," and depth == 0:
            args.append(cur)
            cur = ""
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
    args.append(cur)
    return head, args


def _prime_factors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


_GROUP_ORDER = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "V4": 4, "S3": 6}


def _group_prime(group: str) -> int | None:
    primes = _prime_factors(_GROUP_ORDER[group])
    return primes.pop() if len(primes) == 1 else None


def order_of(text: str) -> int:
    head, args = _split_args(text)
    if not args:
        return int(head[1:]) if head.startswith("Z") else int(head[3:-1])
    if head == "Prod":
        return math.prod(order_of(a) for a in args)
    if head == "M":
        return order_of(args[1]) ** (int(args[0]) ** 2)
    if head == "FM":
        return order_of(args[1]) ** (int(args[0]) ** 2)
    if head == "T":
        n = int(args[0])
        return order_of(args[1]) ** (n * (n + 1) // 2)
    if head == "Triv":
        return order_of(args[0]) ** 2
    if head in ("DT", "K"):
        return order_of(args[0]) ** 4
    if head == "TruncSkew":
        return order_of(args[0]) ** int(args[2])
    if head == "GR":
        return order_of(args[0]) ** _GROUP_ORDER[args[1]]
    raise ValueError(f"no closed-form order for {text}")


def _p_in_radical(text: str, p: int) -> bool:
    """Is p*1 in J(R)?  Only for the commutative local bases used here:
    Z_{q^k} (J = qZ) and fields (J = 0, so p*1 = 0 iff p is the characteristic)."""
    head, args = _split_args(text)
    if args:
        raise ValueError(f"p*1 in J(R) is only tabulated for Z_n and GF(q), not {text}")
    if head.startswith("Z"):
        return _prime_factors(int(head[1:])) == {p}
    return _prime_factors(int(head[3:-1])) == {p}


def expected_2du(text: str) -> bool:
    """2-delta-u verdict from the base ring's closed form and the paper's
    construction theorems.  Raises ValueError where they do not decide."""
    head, args = _split_args(text)
    if not args:
        if head.startswith("Z"):
            # Z_n is a product of local Z_{p^k} with residue field F_p (T3.1),
            # and a local ring is 2-delta-u iff its residue field has 2 or 3
            # elements (T3.26 and T3.5 with I = J).
            return _prime_factors(int(head[1:])) <= {2, 3}
        return int(head[3:-1]) in (2, 3)
    if head == "Prod":                                    # T3.1
        return all(expected_2du(a) for a in args)
    if head in ("T", "TruncSkew"):                        # T4.5
        return expected_2du(args[1] if head == "T" else args[0])
    if head in ("Triv", "DT"):                            # T4.5, TDT
        return expected_2du(args[0])
    if head in ("K", "FM"):                               # T4.9, T4.10
        base, scalar = (args[0], args[1]) if head == "K" else (args[1], args[2])
        if scalar.removeprefix("s=") != "0":
            raise ValueError(f"{text}: only the scalar 0 is tabulated as central-radical")
        return expected_2du(base)
    if head == "M":
        # T3.8's witness works over every base: u = [[0,1],[1,1]] has
        # u^2 - 1 = u, a unit, and no unit lies in the delta set.
        if int(args[0]) < 2:
            raise ValueError(f"{text}: M(1,R) is R")
        return False
    if head == "GR":
        base, group = args
        if not expected_2du(base):                        # TG1
            return False
        p = _group_prime(group)
        if p is not None and _p_in_radical(base, p):      # TG2
            return True
        raise ValueError(f"{text}: TG1/TG2 do not decide this group ring")
    raise ValueError(f"no closed-form 2-delta-u verdict for {text}")


# ---------------------------------------------------------------------------
# output gates


_ARROWS = [("uj", "2-uj"), ("uj", "delta-u"), ("2-uj", "2-delta-u"),
           ("delta-u", "2-delta-u"), ("delta-u", "uuc")]


def info_problems(expr: str, payload: dict) -> list[str]:
    """Every way an `info --json` payload contradicts the ground truth."""
    problems = []
    if payload.get("subject") != expr:
        problems.append(f"subject {payload.get('subject')!r}")
    if payload.get("order") != order_of(expr):
        problems.append(f"order {payload.get('order')} != {order_of(expr)}")
    v = payload.get("classes", {})
    for group in (("delta-u", "uj", "uu", "j-clean"),
                  ("2-delta-u", "semi-tripotent", "strongly-2-nil-clean")):
        if len({v.get(k) for k in group}) != 1:
            problems.append("verdicts differ: " + ", ".join(f"{k}={v.get(k)}" for k in group))
    for low, high in _ARROWS:
        if v.get(low) and not v.get(high):
            problems.append(f"{low} holds but {high} fails")
    sets = payload.get("sets", {})
    jac = set(sets.get("jacobson-radical", {}).get("indices", [None]))
    delta = set(sets.get("delta-set", {}).get("indices", []))
    if not jac <= delta:
        problems.append("J is not inside the delta set")
    if v.get("2-delta-u") is not expected_2du(expr):
        problems.append(f"2-delta-u={v.get('2-delta-u')}, theorems give {expected_2du(expr)}")
    return problems
