"""The invariant chain 0 -> I(K) -> I(K^2) -> ... over diagonal-orbit bases.

Group cohomology and the relative cohomology of a finite isometric extension
are homology groups of this chain; the index shifts between the two are kept
internal, callers only see n.
"""

from __future__ import annotations

from collections import deque
from itertools import tee

from cantorext import exactla
from cantorext.abelian import FgAbGroup
from cantorext.exactla import ExactMatrix
from cantorext.groups import (CosetSpace, FiniteGroup, OrbitStructure, check_level_size,
                              coset_space, fixed_point_counts)

DEFAULT_TUPLE_CAP = 5_000_000


def differential_matrix(k: CosetSpace, n: int, cap=DEFAULT_TUPLE_CAP,
                        validate=None) -> ExactMatrix:
    """Matrix of d_n : I(K^n) -> I(K^(n+1)) on orbit-indicator bases.

    Entry [O', O] = sum of (-1)^j over faces of the representative of O'
    landing in O, the face omitting coordinate j.  For non-regular spaces each
    row is recomputed on a second orbit member as a representative-
    independence check (invariance makes this automatic for regular spaces).
    """
    src = OrbitStructure(k, n, cap=cap)
    dst = OrbitStructure(k, n + 1, cap=cap)
    return _matrix(dst.count, src.count, _differential_rows(k, src, dst, validate))


def _matrix(rows, cols, row_iter) -> ExactMatrix:
    return ExactMatrix(rows, cols, {
        (i, o): v for i, row in enumerate(row_iter) for o, v in row.items()
    })


def _differential_rows(k: CosetSpace, src: OrbitStructure, dst: OrbitStructure,
                       validate=None):
    """Generator of the rows of d_n from level n = src.n to dst.n = n + 1.

    The rows are {col: value} dicts in representative order.  A
    representative of level n+1 is (0, t_1..t_n) with tail code
    c = sum of t_i |K|^(n-i).  Face j >= 1 keeps the first entry 0, and the
    move to 0 from 0 (``src._to_base[0]``) is the identity, so its tail code
    is c with digit t_j deleted: c // (P |K|) * P + c % P with P = |K|^(n-j).
    Only face 0 is moved to first entry 0, by the coset element for t_1.
    """
    if validate is None:
        validate = not k.is_regular
    n = src.n
    size = k.size
    table, to_base = src._table, src._to_base
    lead = size ** (n - 1)  # place value of t_1
    digits = [size ** e for e in range(n - 2, -1, -1)]  # place values of t_2..t_n
    cuts = [(size ** (n - j + 1), size ** (n - j)) for j in range(1, n + 1)]
    for i, c in enumerate(dst._reps):
        t1, tail = divmod(c, lead)
        a = to_base[t1]
        code = 0
        for d in digits:
            code = code * size + a[tail // d % size]
        row = {table[code]: 1}
        sign = -1
        for high, low in cuts:
            o = table[c // high * low + c % low]
            row[o] = row.get(o, 0) + sign
            sign = -sign
        row = {o: v for o, v in row.items() if v}
        if validate:
            rep = dst.rep(i)
            other = None
            for g in range(1, k.group.order):
                moved = k.act_tuple(g, rep)
                if moved != rep:
                    other = moved
                    break
            if other is not None and _face_entries(src, other) != row:
                raise AssertionError("differential depends on representative choice")
        yield row


def _face_entries(src: OrbitStructure, tup) -> dict:
    """The row of d at an arbitrary tuple, each face indexed through src.index."""
    ent = {}
    sign = 1
    for j in range(len(tup)):
        o = src.index(tup[:j] + tup[j + 1:])
        ent[o] = ent.get(o, 0) + sign
        sign = -sign
    return {o: v for o, v in ent.items() if v}


def _prime_powers(n: int) -> list:
    """[(p, v_p(n))] over the primes p dividing n, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def homology_at(k: CosetSpace, m: int, cap=DEFAULT_TUPLE_CAP) -> FgAbGroup:
    """ker(d_m)/im(d_(m-1)) of the invariant chain over K, by orbit arithmetic.

    d_0 is understood as the zero map into I(K).  Since ker(d_m) is saturated,
    Z^n/ker is free and the torsion of the homology equals the torsion of
    coker(d_(m-1)); the free rank is n_m - rank(d_m) - rank(d_(m-1)), with
    n_i the number of orbits at level i.

    Transfer.  The invariant chain sits inside the cochain complex of all
    functions on K, K^2, ..., which is acyclic above level 1 (the simplex on
    K is contractible), and summing over G maps it back; inclusion followed
    by the sum is multiplication by |G| on the invariant chain.  So |G|
    annihilates its homology above level 1 (Brown, Cohomology of Groups,
    III.10, for group cohomology): every H^n(X|Y) and H^n(G), n >= 1, is
    torsion, its primes divide |G| and v_p of each factor is at most
    v_p(|G|).

    Levels 1 and 2, and the trivial group.  G is transitive on K, so level 1
    has one orbit, the constants, and d_1 = 0: the homology there is Z.  At
    level 2 it is ker(d_2), free and torsion at once, so 0.  For |G| = 1 the
    transfer makes every level m >= 2 zero.  None of these builds an orbit
    structure or eliminates anything.

    Ranks, by the Euler sum.  The homology being torsion at every level
    i >= 2 gives rank(d_i) = n_i - rank(d_(i-1)), and rank(d_1) = 0, so
    U = rank(d_(m-1)) = n_(m-1) - n_(m-2) + ... +- n_2 exactly, and the free
    rank at level m is 0: no row of d_m is generated and level m+1 is only
    checked against the cap, by its size.  n_(m-1) is the count of the one
    orbit structure built below level m; the lower counts come from
    Burnside's lemma, n_i = (1/|G|) * sum of fix(g)^i, with each fix(g)
    counted through the conjugates of H in O(|G|)
    (``groups.fixed_point_counts``).

    Torsion, certified.  For each prime p of |G| the rows of d_(m-1),
    generated one at a time as {col: value} dicts from the orbit structures
    of levels m-1 and m, are eliminated over Z/p^e, e = v_p(|G|) + 1
    (``exactla.local_invariant_counts``), which counts its invariant factors
    of each valuation v < e.  If the counts of every prime sum to U, every
    p-part is exact, so with the transfer the torsion is known.  A prime
    that divides no factor reaches U at valuation 0 and stops reading rows
    there; on non-regular K the rows no prime read are still generated, so
    each is validated.  U is exact, so a shortfall means a fault in the
    counts.  It is not raised: the exact ``exactla.snf_diagonal`` of d_(m-1)
    decides the torsion instead.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    for n in range(max(m - 2, 1), m + 2):  # every level refused by size before any is built
        check_level_size(k, n, cap)
    if m == 1:
        return FgAbGroup.free(1)
    primes = _prime_powers(k.group.order)
    if m == 2 or not primes:
        return FgAbGroup.trivial()
    src = OrbitStructure(k, m - 1, cap=cap)
    dst = OrbitStructure(k, m, cap=cap)
    bound = _euler_rank(k, m, src.count)
    validate = not k.is_regular
    # every prime reads the rows from the start, and each row is generated once
    d_prev = tee(_differential_rows(k, src, dst, validate), len(primes) + 1)
    torsion = []
    for (p, e), stream in zip(primes, d_prev):
        counts = exactla.local_invariant_counts(stream, p, e + 1, bound)
        if sum(counts) != bound:
            diag = exactla.snf_diagonal(_matrix(dst.count, src.count, d_prev[-1]))
            return FgAbGroup.from_orders([d for d in diag if d > 1])
        torsion += [p ** v for v, c in enumerate(counts) for _ in range(c) if v]
    if validate:
        deque(d_prev[-1], maxlen=0)  # validate the rows no prime read too
    return FgAbGroup.from_orders(torsion)


def _euler_rank(k: CosetSpace, m: int, n_prev: int) -> int:
    """rank(d_(m-1)) = n_(m-1) - n_(m-2) + ... +- n_2, given n_(m-1) = n_prev."""
    order = k.group.order
    fixes = fixed_point_counts(k) if m >= 4 else ()
    rank, sign = n_prev, -1
    for i in range(m - 2, 1, -1):
        rank += sign * (sum(f ** i for f in fixes) // order)
        sign = -sign
    return rank


def group_cohomology(g: FiniteGroup, n: int, cap=DEFAULT_TUPLE_CAP) -> FgAbGroup:
    """H^n(G) with trivial integer coefficients, via the regular coset space.

    Identifying the G-equivariant maps out of the homogeneous bar resolution
    with I(G^(n+1)) turns H^n(G) into the homology of the invariant chain at
    level n+1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    k = coset_space(g, [])
    return homology_at(k, n + 1, cap)


def relative_cohomology_isometric(g: FiniteGroup, h_gens, n: int,
                                  cap=DEFAULT_TUPLE_CAP) -> FgAbGroup:
    """H^n(X|Y) for a finite isometric extension with data (G, H).

    Computes ker(d_(n+3))/im(d_(n+2)) over K = G/H.  The caller asserts the
    realizing extension has full Mackey group; only the (G, H) chain homology
    is computed here.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    k = coset_space(g, h_gens)
    return homology_at(k, n + 3, cap)
