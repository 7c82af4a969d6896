"""The invariant chain 0 -> I(K) -> I(K^2) -> ... over diagonal-orbit bases.

Group cohomology and the relative cohomology of a finite isometric extension
are homology groups of this chain; the index shifts between the two are kept
internal, callers only see n.
"""

from __future__ import annotations

from cantorext import exactla
from cantorext.abelian import FgAbGroup
from cantorext.exactla import ExactMatrix
from cantorext.groups import CosetSpace, FiniteGroup, OrbitStructure, coset_space

DEFAULT_TUPLE_CAP = 5_000_000


def differential_matrix(k: CosetSpace, n: int, cap=DEFAULT_TUPLE_CAP,
                        validate=None) -> ExactMatrix:
    """Matrix of d_n : I(K^n) -> I(K^(n+1)) on orbit-indicator bases.

    Entry [O', O] = sum of (-1)^(j+1) over faces of the representative of O'
    landing in O, the face omitting coordinate j.  For non-regular spaces the
    value is recomputed on a second orbit member as a representative-
    independence check (invariance makes this automatic for regular spaces).
    """
    src = OrbitStructure(k, n, cap=cap)
    dst = OrbitStructure(k, n + 1, cap=cap)
    if validate is None:
        validate = not k.is_regular

    def face_entries(tup):
        ent = {}
        sign = 1
        for j in range(len(tup)):
            face = tup[:j] + tup[j + 1:]
            o = src.index(face)
            ent[o] = ent.get(o, 0) + sign
            sign = -sign
        return {o: v for o, v in ent.items() if v}

    entries = {}
    for i, rep in enumerate(dst.reps()):
        ent = face_entries(rep)
        for o, v in ent.items():
            entries[(i, o)] = v
        if validate:
            other = None
            for g in range(1, k.group.order):
                moved = k.act_tuple(g, rep)
                if moved != rep:
                    other = moved
                    break
            if other is not None and face_entries(other) != ent:
                raise AssertionError("differential depends on representative choice")
    return ExactMatrix(dst.count, src.count, entries)


def homology_at(k: CosetSpace, m: int, cap=DEFAULT_TUPLE_CAP) -> FgAbGroup:
    """ker(d_m)/im(d_(m-1)) of the invariant chain over K, building only d_(m-1), d_m.

    d_0 is understood as the zero map into I(K).  Since ker(d_m) is saturated,
    Z^n/ker is free and the torsion of the homology equals the torsion of
    coker(d_(m-1)); the free rank is n_m - rank(d_m) - rank(d_(m-1)).
    """
    d_m = differential_matrix(k, m, cap=cap)
    rank_out = exactla.rank(d_m)
    if m == 1:
        torsion = []
        rank_in = 0
    else:
        diag = exactla.snf_diagonal(differential_matrix(k, m - 1, cap=cap))
        torsion = [d for d in diag if d > 1]
        rank_in = len(diag)
    free = d_m.cols - rank_out - rank_in
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
