"""Naive reference implementations used as independent oracles.

The element-set oracles walk the ring tables with plain loops, with no
shared code with the library's vectorized scans.  The axiom oracle checks
every ring law on all pairs and triples literally (numpy broadcasting over
the n^3 triples), sharing nothing with the library's generator-based
validator.  The two-sided reference runs the generator procedure with both
full distributivity sides, in the pass order that names a violation.  The generator oracle re-closes the whole additive span after
each generator.  The ideal oracle is a plain closure-lattice search.  The
homomorphism oracle compares images one pair at a time.  The bimodule
oracle checks each module law on all triples at once.  The prime
radical oracle is the semiprime fixpoint of its definition.  The product
oracles write each construction's multiplication from its textbook
definition, one loop over the coordinates.  The dump oracles are the
serialization as `json` writes and reads it, with the tables as nested
lists.  Expected
values in the tests are either frozen from these oracles or checked against
them directly.
"""

from __future__ import annotations

import json

import numpy as np

from deltaring import core
from deltaring.errors import AxiomViolation, MalformedRing


def mask_of(R, indices) -> np.ndarray:
    """The bool mask of R's elements with the given indices."""
    mask = np.zeros(R.order, dtype=bool)
    mask[list(indices)] = True
    return mask


def members(mask) -> list[int]:
    """The element indices of a bool mask, in ascending order."""
    assert mask.dtype == bool and mask.ndim == 1
    return np.flatnonzero(mask).tolist()


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


def _first_pair(bad: np.ndarray) -> tuple[int, int]:
    a, b = np.argwhere(bad)[0]
    return int(a), int(b)


def two_sided_generator_checks(add, mul, gens: list[int]) -> None:
    """The generator procedure with both distributivity sides in full:
    Light's passes, then a(g+c) = ag + ac and (x+g)c = xc + gc on every
    pair, in the order L(g1), R(g1), L(g2), R(g2), ..., then associativity
    on generator triples.  Raises the first `AxiomViolation` in that order,
    at the first failing pair in row-major order within its pass.  Whole
    tables at once, no row blocks."""
    for g in gens:
        M = add[add[:, g]]
        if not np.array_equal(M, M.T):
            a, c = _first_pair(M != M.T)
            raise AxiomViolation("add-associativity", (a, g, c))
    for g in gens:
        for law, lhs, rhs in (
                ("left-distributivity", mul[:, add[g]], add[mul[:, g, None], mul]),
                ("right-distributivity", mul[add[:, g]], add[mul, mul[g]])):
            if not np.array_equal(lhs, rhs):
                a, c = _first_pair(lhs != rhs)
                raise AxiomViolation(law, (a, g, c))
    for g1 in gens:
        for g2 in gens:
            for g3 in gens:
                if mul[mul[g1, g2], g3] != mul[g1, mul[g2, g3]]:
                    raise AxiomViolation("mul-associativity", (g1, g2, g3))


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
    """The mask of every two-sided ideal inside the mask `within` (default:
    everything), by adjoining one element at a time to known ideals and
    taking the full fixpoint closure; sorted by index tuple."""
    allowed = np.ones(R.order, dtype=bool) if within is None else within
    candidates = [int(a) for a in np.flatnonzero(allowed)]
    zero = core.ideal_generated(R, [])
    seen = {tuple(members(zero)): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for ideal in frontier:
            for a in candidates:
                if ideal[a]:
                    continue
                bigger = core.ideal_generated(R, members(ideal) + [a])
                if not allowed[bigger].all():
                    continue
                key = tuple(members(bigger))
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


def naive_prime_radical(R) -> list[int]:
    """Least semiprime ideal, by fixpoint iteration from {0}: add every a with
    a*R*a inside the current ideal, close to an ideal, repeat."""
    n = R.order
    sandwich = R.mul[R.mul, np.arange(n)[:, None]]      # [a, r] = a*r*a
    mask = np.zeros(n, dtype=bool)
    mask[R.zero] = True
    while True:
        forced = mask[sandwich].all(axis=1)
        if not (forced & ~mask).any():
            return [int(a) for a in np.flatnonzero(mask)]
        mask = core.ideal_generated(R, np.flatnonzero(mask | forced))


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


def naive_hom_violation(source, target, mapping, rows=None) -> tuple[str, tuple[int, ...]] | None:
    """First way the index map fails to be a unital homomorphism, as
    (kind, witness) in `validate_hom`'s order: the images of 0 and 1, then
    every pair for +, then every pair for *, one pair at a time in row-major
    order.  None when the map is a homomorphism.  With `rows`, only the
    pairs (a, b) with a in `rows` are compared, in the order given."""
    m = [int(v) for v in mapping]
    if m[source.zero] != target.zero:
        return "zero", (source.zero,)
    if m[source.one] != target.one:
        return "one", (source.one,)
    for kind, src, tgt in (("additive", source.add, target.add),
                           ("multiplicative", source.mul, target.mul)):
        src, tgt = src.tolist(), tgt.tolist()
        for a in (range(source.order) if rows is None else map(int, rows)):
            for b in range(source.order):
                if m[src[a][b]] != tgt[m[a]][m[b]]:
                    return kind, (a, b)
    return None


def naive_bimodule_violation(R, S, add, la, ra) -> str | None:
    """The message of the first bimodule law that the in-range tables of
    an (R,S)-bimodule break, each law compared on all its pairs or triples
    at once; None when every law holds.  The rings built on the module are
    checked against it: [[R, M], [0, S]], and Triv(R, M) when S is R, is a
    ring exactly when this is None."""
    m = add.shape[0]
    arange = np.arange(m)
    if not np.array_equal(add, add.T):
        return "module addition is not commutative"
    zero_rows = [i for i in range(m) if np.array_equal(add[i], arange)]
    if len(zero_rows) != 1:
        return "module addition has no unique zero"
    laws = (
        ("module addition is not associative", add[add, :], add[:, add]),
        ("module addition misses inverses", (add == zero_rows[0]).any(axis=1), True),
        ("1*m != m", la[R.one], arange),
        ("m*1 != m", ra[:, S.one], arange),
        ("r(m+m') != rm+rm'", la[:, add], add[la[:, :, None], la[:, None, :]]),
        ("(r+r')m != rm+r'm", la[R.add, :], add[la[:, None, :], la[None, :, :]]),
        ("(rr')m != r(r'm)", la[R.mul, :], la[:, la]),
        ("(m+m')s != ms+m's", ra[add, :], add[ra[:, None, :], ra[None, :, :]]),
        ("m(s+s') != ms+ms'", ra[:, S.add], add[ra[:, :, None], ra[:, None, :]]),
        ("m(ss') != (ms)s'", ra[:, S.mul], ra[ra, :]),
        ("(rm)s != r(ms)", ra[la, :], la[:, ra]),
    )
    for message, lhs, rhs in laws:
        if not (lhs == rhs).all():
            return message
    return None


# ---------------------------------------------------------------------------
# construction products, from their textbook definitions.  Each `*_product`
# takes two coordinate lists, most significant coordinate first, whose entries
# are arrays of base-ring elements (or plain integers), and returns the
# coordinate list of the product.


def product_table(size: int, k: int, product, rows: slice = slice(None)) -> np.ndarray:
    """The multiplication table of the ring on `k` coordinates of `size`
    values each, encoded in mixed radix with the first coordinate most
    significant, in int64: every coordinate loop runs once, over all pairs
    at once.  With `rows`, only those rows of it."""
    n = size ** k
    x = np.arange(n, dtype=np.int64)

    def digits(v):
        return [(v // size ** (k - 1 - c)) % size for c in range(k)]

    out = product([d[:, None] for d in digits(x[rows])], [d[None, :] for d in digits(x)])
    table = np.zeros((x[rows].size, n), dtype=np.int64)
    for c in range(k):
        table += np.asarray(out[c], dtype=np.int64) * size ** (k - 1 - c)
    return table


def poly_mul(a, b, p: int, tail) -> list:
    """Product of two polynomials over Z_p, coefficients x^{k-1} first,
    modulo the monic x^k + tail (`tail` also x^{k-1} first)."""
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            prod[i + j] = prod[i + j] + ca * cb
    # x^k = -tail: fold each leading coefficient into the k below it
    for t in range(k - 1):
        lead = prod[t] % p
        prod[t] = 0
        for u, cf in enumerate(tail):
            prod[t + 1 + u] = (prod[t + 1 + u] - lead * cf) % p
    return [c % p for c in prod[k - 1:]]


def _power(R, s: int, e: int) -> int:
    out = R.one
    for _ in range(e):
        out = int(R.mul[out, s])
    return out


def formal_matrix_product(R, n: int, s: int):
    """FM_n(R; s): (AB)_ij = sum over k of s^(1 + [i=j] - [i=k] - [k=j]) a_ik b_kj."""
    def product(a, b):
        out = []
        for i in range(n):
            for j in range(n):
                acc = R.zero
                for k in range(n):
                    scale = _power(R, s, 1 + (i == j) - (i == k) - (k == j))
                    term = R.mul[scale, R.mul[a[i * n + k], b[k * n + j]]]
                    acc = R.add[acc, term]
                out.append(acc)
        return out
    return product


def morita_product(R, s: int):
    """K_s(R): [[a,x],[y,b]] [[a',x'],[y',b']] =
    [[aa' + s xy', ax' + xb'], [ya' + by', s yx' + bb']]."""
    def product(left, right):
        (a, x, y, b), (a2, x2, y2, b2) = left, right
        return [R.add[R.mul[a, a2], R.mul[s, R.mul[x, y2]]],
                R.add[R.mul[a, x2], R.mul[x, b2]],
                R.add[R.mul[y, a2], R.mul[b, y2]],
                R.add[R.mul[s, R.mul[y, x2]], R.mul[b, b2]]]
    return product


def group_ring_product(R, G):
    """RG: (sum a_g g)(sum b_h h) = sum over g, h of a_g b_h (gh)."""
    def product(a, b):
        out = [R.zero] * G.order
        for g in range(G.order):
            for h in range(G.order):
                gh = int(G.table[g, h])
                out[gh] = R.add[out[gh], R.mul[a[g], b[h]]]
        return out
    return product


def skew_product(R, alpha, n: int):
    """R[x; alpha]/(x^n): (sum a_i x^i)(sum b_j x^j) = sum over i + j < n of
    a_i alpha^i(b_j) x^(i+j), for the endomorphism given as the map `alpha`."""
    def product(a, b):
        out = [R.zero] * n
        for i in range(n):
            for j in range(n - i):
                twisted = b[j]
                for _ in range(i):
                    twisted = alpha[twisted]
                out[i + j] = R.add[out[i + j], R.mul[a[i], twisted]]
        return out
    return product


def ring_dump(R) -> str:
    """The ring's dump as `json.dumps` writes it from nested lists."""
    return json.dumps({"label": R.label, "order": R.order, "add": R.add.tolist(),
                       "mul": R.mul.tolist(), "zero": R.zero, "one": R.one},
                      sort_keys=True, separators=(",", ":"))


def ring_from_loaded_json(text, order_guard=None):
    """A dump loaded through `json.loads` and `core.ring_from_dict`, with a
    decoder error raised as the `MalformedRing` that `core.ring_from_json`
    raises for text that is not JSON."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise MalformedRing(f"a ring dump must be JSON text: {exc}") from None
    return core.ring_from_dict(data, order_guard=order_guard)
