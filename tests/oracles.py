"""Naive reference implementations used as independent oracles.

The element-set oracles walk the ring tables with plain loops, with no
shared code with the library's vectorized scans.  The axiom oracle checks
every ring law on all pairs and triples literally (numpy broadcasting over
the n^3 triples), sharing nothing with the library's generator-based
validator.  The generator oracle re-closes the whole additive span after
each generator.  The ideal oracle is a plain closure-lattice search.  The
homomorphism oracle compares images one pair at a time.  Expected
values in the tests are either frozen from these oracles or checked against
them directly.
"""

from __future__ import annotations

import numpy as np

from deltaring import core


def first_axiom_violation(add, mul, zero: int, one: int) -> str | None:
    """Name of the first ring law that the tables break, or None.

    Every law is checked on every pair or triple, so the cost is n^3: keep
    to small orders.
    """
    add, mul = np.asarray(add), np.asarray(mul)
    n = add.shape[0]
    arange = np.arange(n)
    if n < 2 or zero == one:
        return "identity-distinct"
    if not np.array_equal(add, add.T):
        return "add-commutativity"
    if not np.array_equal(add[zero], arange):
        return "add-identity"
    if not (add == zero).any(axis=1).all():
        return "add-inverse"
    if not (np.array_equal(mul[one], arange) and np.array_equal(mul[:, one], arange)):
        return "mul-identity"
    triple_laws = (
        ("add-associativity", add[add, :], add[:, add]),
        ("mul-associativity", mul[mul, :], mul[:, mul]),
        ("left-distributivity", mul[:, add], add[mul[:, :, None], mul[:, None, :]]),
        ("right-distributivity", mul[add, :], add[mul[:, None, :], mul[None, :, :]]),
    )
    for law, lhs, rhs in triple_laws:
        if not np.array_equal(lhs, rhs):
            return law
    return None


def _magma_closure(table: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Literal closure of `seed` under the binary table (valid or not),
    re-closing the whole set every round."""
    cur = np.unique(seed)
    while True:
        nxt = np.union1d(cur, table[np.ix_(cur, cur)].ravel())
        if nxt.size == cur.size:
            return cur
        cur = nxt


def additive_generators(add, zero: int) -> list[int]:
    """Greedy generating set, smallest indices first: after each new
    generator the whole span is closed again from scratch."""
    add = np.asarray(add)
    covered = np.zeros(add.shape[0], dtype=bool)
    covered[zero] = True
    span = np.array([zero], dtype=np.int64)
    gens: list[int] = []
    while not covered.all():
        g = int(np.flatnonzero(~covered)[0])
        gens.append(g)
        span = _magma_closure(add, np.append(span, g))
        covered[:] = False
        covered[span] = True
    return gens


def _naive_closure(members: set[int], pair_step, single_step) -> list[int]:
    while True:
        found = {c for a in list(members) for b in list(members) for c in pair_step(a, b)}
        found |= {c for a in list(members) for c in single_step(a)}
        if found <= members:
            return sorted(members)
        members |= found


def naive_ideal_generated(R, gens) -> list[int]:
    return _naive_closure(
        {R.zero, *gens}, lambda a, b: [int(R.add[a, b])],
        lambda a: [int(R.mul[r, a]) for r in range(R.order)]
        + [int(R.mul[a, r]) for r in range(R.order)])


def naive_subring_generated(R, gens, unital: bool = True) -> list[int]:
    seed = set(gens) | ({R.one} if unital else set())
    return _naive_closure(seed, lambda a, b: [R.sub(a, b), int(R.mul[a, b])], lambda a: [])


def closure_lattice_ideals(R, within=None) -> list:
    """Every two-sided ideal inside the mask `within` (default: everything),
    by adjoining one element at a time to known ideals and taking the full
    fixpoint closure; sorted by index tuple."""
    allowed = np.ones(R.order, dtype=bool) if within is None else within
    candidates = [int(a) for a in np.flatnonzero(allowed)]
    zero = core.ideal_generated(R, [])
    seen = {tuple(zero.indices): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for ideal in frontier:
            for a in candidates:
                if a in ideal:
                    continue
                bigger = core.ideal_generated(R, ideal.indices + [a])
                if not allowed[bigger.members].all():
                    continue
                key = tuple(bigger.indices)
                if key not in seen:
                    seen[key] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]



def naive_units(R) -> list[int]:
    out = []
    for a in range(R.order):
        if any(int(R.mul[a, b]) == R.one and int(R.mul[b, a]) == R.one
               for b in range(R.order)):
            out.append(a)
    return out


def naive_inverse(R, a: int) -> int | None:
    for b in range(R.order):
        if int(R.mul[a, b]) == R.one and int(R.mul[b, a]) == R.one:
            return b
    return None


def naive_idempotents(R) -> list[int]:
    return [a for a in range(R.order) if int(R.mul[a, a]) == a]


def naive_nilpotents(R) -> list[int]:
    out = []
    for a in range(R.order):
        p = a
        for _ in range(R.order):
            if p == R.zero:
                out.append(a)
                break
            p = int(R.mul[p, a])
    return out


def naive_tripotents(R) -> list[int]:
    return [a for a in range(R.order)
            if int(R.mul[int(R.mul[a, a]), a]) == a]


def naive_jacobson(R) -> list[int]:
    units = set(naive_units(R))
    out = []
    for a in range(R.order):
        good = True
        for r in range(R.order):
            prod = int(R.mul[r, a])
            if R.sub(R.one, prod) not in units:
                good = False
                break
        if good:
            out.append(a)
    return out


def naive_delta(R) -> list[int]:
    units = naive_units(R)
    uset = set(units)
    return [a for a in range(R.order)
            if all(int(R.add[a, u]) in uset for u in units)]


def naive_quasinilpotents(R) -> list[int]:
    units = set(naive_units(R))
    out = []
    for a in range(R.order):
        good = True
        for x in range(R.order):
            if int(R.mul[a, x]) != int(R.mul[x, a]):
                continue
            if int(R.add[R.one, int(R.mul[a, x])]) not in units:
                good = False
                break
        if good:
            out.append(a)
    return out


def naive_center(R) -> list[int]:
    return [a for a in range(R.order)
            if all(int(R.mul[a, r]) == int(R.mul[r, a]) for r in range(R.order))]


def naive_is_two_delta_u(R) -> bool:
    delta = set(naive_delta(R))
    for u in naive_units(R):
        if R.sub(int(R.mul[u, u]), R.one) not in delta:
            return False
    return True


def naive_is_delta_u(R) -> bool:
    delta = set(naive_delta(R))
    units = set(naive_units(R))
    if any(R.sub(u, R.one) not in delta for u in units):
        return False
    return all(int(R.add[R.one, d]) in units for d in delta)


def naive_is_uj(R) -> bool:
    jac = set(naive_jacobson(R))
    units = set(naive_units(R))
    if any(R.sub(u, R.one) not in jac for u in units):
        return False
    return all(int(R.add[R.one, j]) in units for j in jac)


def naive_is_uu(R) -> bool:
    nil = set(naive_nilpotents(R))
    units = set(naive_units(R))
    if any(R.sub(u, R.one) not in nil for u in units):
        return False
    return all(int(R.add[R.one, q]) in units for q in nil)


def naive_is_j_clean(R) -> bool:
    jac = naive_jacobson(R)
    idem = naive_idempotents(R)
    sums = {int(R.add[e, j]) for e in idem for j in jac}
    return len(sums) == R.order


def naive_is_semi_tripotent(R) -> bool:
    jac = naive_jacobson(R)
    trip = naive_tripotents(R)
    sums = {int(R.add[e, j]) for e in trip for j in jac}
    return len(sums) == R.order


def naive_is_strongly_2_nil_clean(R) -> bool:
    return naive_first_non_strongly_2_nil_clean(R) is None


def naive_first_non_strongly_2_nil_clean(R) -> int | None:
    """Smallest a that is no e1 + e2 + q with commuting idempotents e1, e2
    and a nilpotent q commuting with both, or None."""
    idem = naive_idempotents(R)
    nil = set(naive_nilpotents(R))

    def commute(x, y):
        return int(R.mul[x, y]) == int(R.mul[y, x])

    for a in range(R.order):
        found = False
        for e1 in idem:
            for e2 in idem:
                if not commute(e1, e2):
                    continue
                q = R.sub(R.sub(a, e1), e2)
                if q in nil and commute(e1, q) and commute(e2, q):
                    found = True
                    break
            if found:
                break
        if not found:
            return a
    return None


def naive_first_non_exchange(R) -> int | None:
    """Smallest a with no idempotent e in a*R such that 1 - e lies in
    (1 - a)*R, or None."""
    idem = naive_idempotents(R)
    for a in range(R.order):
        a_r = {int(R.mul[a, r]) for r in range(R.order)}
        b_r = {int(R.mul[R.sub(R.one, a), r]) for r in range(R.order)}
        if not any(e in a_r and R.sub(R.one, e) in b_r for e in idem):
            return a
    return None


def naive_unit_orbits(R, within) -> list[tuple[int, ...]]:
    """The two-sided unit orbits {u*a*v : u, v units} of the members of the
    mask `within`, each sorted, in order of their smallest member."""
    units = naive_units(R)
    orbits, seen = [], set()
    for a in map(int, np.flatnonzero(within)):
        if a in seen:
            continue
        orbit = {int(R.mul[int(R.mul[u, a]), v]) for u in units for v in units}
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def naive_hom_violation(source, target, mapping) -> tuple[str, tuple[int, ...]] | None:
    """First way the index map fails to be a unital homomorphism, as
    (kind, witness) in `validate_hom`'s order: the images of 0 and 1, then
    every pair for +, then every pair for *, one pair at a time in row-major
    order.  None when the map is a homomorphism."""
    m = [int(v) for v in mapping]
    if m[source.zero] != target.zero:
        return "zero", (source.zero,)
    if m[source.one] != target.one:
        return "one", (source.one,)
    for kind, src, tgt in (("additive", source.add, target.add),
                           ("multiplicative", source.mul, target.mul)):
        src, tgt = src.tolist(), tgt.tolist()
        for a in range(source.order):
            for b in range(source.order):
                if m[src[a][b]] != tgt[m[a]][m[b]]:
                    return kind, (a, b)
    return None
