"""Toeplitz window over a finite group and its skew-product cocycle checks.

The window is the one-sided [0, 2^m) piece of the inductively defined
sequence: stage k fills the positions of 2-adic valuation k (of position+1)
with the single group element g_k solving a * g_k * b = u_(k mod N) against
the already-filled prefix products.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from cantorext.exactla import CapExceeded
from cantorext.groups import FiniteGroup

# Deepest window built, a window of 2^22 entries.  The window and its stage
# table are lists of 2^depth entries, so a deeper window is refused before
# either is allocated.
WINDOW_MAX_DEPTH = 22


@dataclass(frozen=True)
class ToeplitzWindow:
    group: FiniteGroup
    enumeration: tuple  # element indices u_0..u_(N-1), u_0 = identity
    depth: int
    values: tuple  # omega(i) for 0 <= i < 2^depth
    stage_of: tuple  # stage that filled each position
    stage_values: tuple  # g_k per stage k = 0..depth

    def __len__(self):
        return len(self.values)


def generate_window(group: FiniteGroup, enumeration, m: int) -> ToeplitzWindow:
    """Build the depth-m window (stages 0..m; stage m fills position 2^m - 1)."""
    if m < 2:
        raise ValueError("depth must be >= 2")
    if m > WINDOW_MAX_DEPTH:
        raise CapExceeded(f"depth {m} exceeds the window cap of depth {WINDOW_MAX_DEPTH}",
                          size=m, cap=WINDOW_MAX_DEPTH)
    enumeration = tuple(enumeration)
    if sorted(enumeration) != list(range(group.order)):
        raise ValueError("enumeration must be a bijection onto the group")
    if enumeration[0] != 0:
        raise ValueError("enumeration must start with the identity")
    n_elems = group.order
    size = 1 << m
    values = [None] * size
    stage_of = [None] * size
    stage_values = []

    def prefix_product(upto):
        # omega(0) omega(1) ... omega(upto), left to right; empty for upto < 0
        acc = 0
        for i in range(upto + 1):
            acc = group.mul[acc][values[i]]
        return acc

    for k in range(m + 1):
        if k == 0:
            g = enumeration[0]
        else:
            a = prefix_product((1 << k) - 2)
            b = prefix_product((1 << (k - 1)) - 2)
            u = enumeration[k % n_elems]
            # a g b = u  =>  g = a^-1 u b^-1
            g = group.mul[group.mul[group.inv[a]][u]][group.inv[b]]
        stage_values.append(g)
        step = 1 << (k + 1)
        pos = (1 << k) - 1
        while pos < size:
            if values[pos] is not None:
                raise AssertionError(f"position {pos} filled twice")
            values[pos] = g
            stage_of[pos] = k
            pos += step
    if any(v is None for v in values):
        raise AssertionError("window has unfilled positions")
    return ToeplitzWindow(
        group=group,
        enumeration=enumeration,
        depth=m,
        values=tuple(values),
        stage_of=tuple(stage_of),
        stage_values=tuple(stage_values),
    )


def construction_identity_holds(w: ToeplitzWindow) -> bool:
    """Recompute a_k g_k b_k = u_(k mod N) from the finished window, all stages."""
    group = w.group

    def product(upto):
        acc = 0
        for i in range(upto + 1):
            acc = group.mul[acc][w.values[i]]
        return acc

    n = len(w.enumeration)
    for k in range(w.depth + 1):
        a = product((1 << k) - 2)
        b = product((1 << (k - 1)) - 2) if k >= 1 else 0
        lhs = group.mul[group.mul[a][w.stage_values[k]]][b]
        if lhs != w.enumeration[k % n]:
            return False
    return True


def cocycle_product(w: ToeplitzWindow, t: int):
    """omega(t-1) . omega(t-2) ... omega(0); identity for t = 0."""
    if not 0 <= t <= len(w):
        raise ValueError(f"t must lie in [0, {len(w)}]")
    acc = 0
    for i in range(t):
        acc = w.group.mul[w.values[i]][acc]
    return acc


def essential_values_check(group: FiniteGroup, enumeration, m: int, agree_radius: int):
    """Cocycle products at return times where the shifted window matches.

    Collects cocycle_product(t) over t <= 2^(m-1) such that the window
    shifted by t agrees with the unshifted window on [0, agree_radius); the
    check passes when the whole group is realized.
    """
    n = group.order
    w = generate_window(group, enumeration, m)  # refuses a depth above the cap
    if len(w) <= 4 * n:
        raise ValueError("depth too small: need 2^m > 4N")
    vals = w.values
    limit = 1 << (m - 1)
    realized = set()
    products = [0] * (limit + 1)
    acc = 0
    for i in range(limit):
        acc = group.mul[vals[i]][acc]
        products[i + 1] = acc
    for t in range(0, limit + 1):
        if all(vals[i + t] == vals[i] for i in range(agree_radius)):
            realized.add(products[t])
    return realized


def canonical_depth(n: int) -> int:
    """Window depth used for the essential-value check on a group of order n."""
    return max(9, math.ceil(math.log2(8 * n)) + 2)


def _greedy_closure_order(group: FiniteGroup):
    """Identity first, then greedily pick elements that enlarge the generated
    subgroup, so generators of the whole group appear early.

    An element already in the current subgroup cannot enlarge it, and any
    element outside it does.  So each pick is the first remaining element
    outside the current subgroup (the first remaining element once that is
    all of G), and the subgroup is recomputed only when it grows: at most
    log2|G| closures in all.
    """
    chosen = [0]
    remaining = list(range(1, group.order))
    current = {0}
    while remaining:
        pick = next((e for e in remaining if e not in current), remaining[0])
        chosen.append(pick)
        remaining.remove(pick)
        if pick not in current:
            current = set(group.subgroup_closure(chosen[1:]))
    return tuple(chosen)


def default_enumeration(group: FiniteGroup, m=None, agree_radius=4, max_seeds=512):
    """A deterministic enumeration realizing the full group at depth m.

    The essential-value property is asymptotic: in a finite window only the
    stages k <= m contribute, so an enumeration whose early elements generate
    a proper subgroup (the lexicographic order on S5 starts with 24
    point-stabilizing permutations) cannot realize the whole group at small
    depth.  Candidates are tried in a fixed order -- lexicographic, greedy
    subgroup-closure, then seeded shuffles -- and the first one passing
    essential_values_check at depth m is returned.  If none passes, the
    lexicographic enumeration is returned; downstream checks then fail
    honestly.
    """
    n = group.order
    if m is None:
        m = canonical_depth(n)
    lex = tuple(range(n))

    def candidates():
        yield lex
        yield _greedy_closure_order(group)
        for seed in range(max_seeds):
            rest = list(range(1, n))
            random.Random(seed).shuffle(rest)
            yield tuple([0] + rest)

    for enum in candidates():
        if len(essential_values_check(group, enum, m, agree_radius)) == n:
            return enum
    return lex


def regularity_profile(w: ToeplitzWindow):
    """Density (as an exact Fraction) of positions filled by stages <= k, k < depth."""
    from fractions import Fraction

    size = len(w)
    densities = []
    filled = 0
    counts = [0] * (w.depth + 1)
    for s in w.stage_of:
        counts[s] += 1
    for k in range(w.depth):
        filled += counts[k]
        densities.append(Fraction(filled, size))
    return densities
