"""The invariant chain 0 -> I(K) -> I(K^2) -> ... over diagonal-orbit bases.

Group cohomology and the relative cohomology of a finite isometric extension
are homology groups of this chain; the index shifts between the two are kept
internal, callers only see n.
"""

from __future__ import annotations

from collections import deque

from cantorext import exactla
from cantorext.abelian import FgAbGroup
from cantorext.exactla import ExactMatrix
from cantorext.groups import CosetSpace, FiniteGroup, OrbitStructure, coset_space

DEFAULT_TUPLE_CAP = 5_000_000


def differential_matrix(k: CosetSpace, n: int, cap=DEFAULT_TUPLE_CAP,
                        validate=None) -> ExactMatrix:
    """Matrix of d_n : I(K^n) -> I(K^(n+1)) on orbit-indicator bases.

    Entry [O', O] = sum of (-1)^j over faces of the representative of O'
    landing in O, the face omitting coordinate j.  For non-regular spaces each
    row is recomputed on a second orbit member as a representative-
    independence check (invariance makes this automatic for regular spaces).
    """
    rows, cols, row_iter = _differential_rows(k, n, cap, validate)
    return ExactMatrix(rows, cols, {
        (i, o): v for i, row in enumerate(row_iter) for o, v in row.items()
    })


def _differential_rows(k: CosetSpace, n: int, cap, validate=None):
    """(rows, cols, generator of the rows) of d_n, rows as {col: value} dicts.

    The rows come in representative order.  A representative of level n+1 is
    (0, t_1..t_n) with tail code c = sum of t_i |K|^(n-i).  Face j >= 1 keeps
    the first entry 0, and the move to 0 from 0 (``src._to_base[0]``) is the
    identity, so its tail code is c with digit t_j deleted:
    c // (P |K|) * P + c % P with P = |K|^(n-j).  Only face 0 is moved to
    first entry 0, by the coset element for t_1.
    The orbit structures are built before the generator is returned.
    """
    src = OrbitStructure(k, n, cap=cap)
    dst = OrbitStructure(k, n + 1, cap=cap)
    if validate is None:
        validate = not k.is_regular
    size = k.size
    table, to_base = src._table, src._to_base
    lead = size ** (n - 1)  # place value of t_1
    digits = [size ** e for e in range(n - 2, -1, -1)]  # place values of t_2..t_n
    cuts = [(size ** (n - j + 1), size ** (n - j)) for j in range(1, n + 1)]

    def rows():
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

    return dst.count, src.count, rows()


def _face_entries(src: OrbitStructure, tup) -> dict:
    """The row of d at an arbitrary tuple, each face indexed through src.index."""
    ent = {}
    sign = 1
    for j in range(len(tup)):
        o = src.index(tup[:j] + tup[j + 1:])
        ent[o] = ent.get(o, 0) + sign
        sign = -sign
    return {o: v for o, v in ent.items() if v}


def homology_at(k: CosetSpace, m: int, cap=DEFAULT_TUPLE_CAP) -> FgAbGroup:
    """ker(d_m)/im(d_(m-1)) of the invariant chain over K, building only d_(m-1).

    d_0 is understood as the zero map into I(K).  Since ker(d_m) is saturated,
    Z^n/ker is free and the torsion of the homology equals the torsion of
    coker(d_(m-1)); the free rank is n_m - rank(d_m) - rank(d_(m-1)).

    The invariant factors of d_(m-1) come first, because their count is
    rank(d_(m-1)).  Since d_m . d_(m-1) = 0, rank(d_m) <= n_m - rank(d_(m-1)),
    and a rank mod p is at most the rational rank, so a rank of d_m mod p that
    reaches this bound proves it exact (``exactla.rank_reaches``).  The rows
    of d_m are generated one at a time and streamed into it, so d_m is never
    built as a matrix, and the rows after the one that reaches the bound are
    only generated when the representative-independence check needs them
    (non-regular K).  The bound is reached when the homology at m is torsion
    and p divides no invariant factor of d_m, which is the torsion one level
    up.  Every H^n(X|Y) is torsion and |G| annihilates it (Brown III.10 for
    group cohomology), so the prime of ``exactla``, above |G|, certifies every
    level but the first.  At level 1, H^0 = Z is free: the bound is out of
    reach, and d_1 is built for the exact ``exactla.rank``.
    """
    if m == 1:
        torsion = []
        rank_in = 0
    else:
        diag = exactla.snf_diagonal(differential_matrix(k, m - 1, cap=cap))
        torsion = [d for d in diag if d > 1]
        rank_in = len(diag)
    _, n_m, rows = _differential_rows(k, m, cap)
    if exactla.rank_reaches(rows, n_m - rank_in):
        rank_out = n_m - rank_in
        if not k.is_regular:
            deque(rows, maxlen=0)  # validate the rows after the early exit too
    else:
        rank_out = exactla.rank(differential_matrix(k, m, cap=cap))
    free = n_m - rank_out - rank_in
    return FgAbGroup.from_orders(torsion, free_rank=free)


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
