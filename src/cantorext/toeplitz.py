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


class CheckDepthError(ValueError):
    """The window is too short for the essential-value check: 2^m <= 4N."""

    def __init__(self):
        super().__init__("depth too small: need 2^m > 4N")


def _refuse_window_depth(m: int) -> None:
    if m < 2:
        raise ValueError("depth must be >= 2")
    if m > WINDOW_MAX_DEPTH:
        raise CapExceeded(f"depth {m} exceeds the window cap of depth {WINDOW_MAX_DEPTH}",
                          size=m, cap=WINDOW_MAX_DEPTH)


def refuse_check_depth(group: FiniteGroup, m: int) -> None:
    """Refuse before any work a depth that `essential_values_check(group, _, m, _)`
    refuses: ValueError below 2, CapExceeded above WINDOW_MAX_DEPTH and
    CheckDepthError unless 2^m > 4|G|, in that order."""
    _refuse_window_depth(m)
    if (1 << m) <= 4 * group.order:
        raise CheckDepthError()


def generate_window(group: FiniteGroup, enumeration, m: int) -> ToeplitzWindow:
    """Build the depth-m window (stages 0..m; stage m fills position 2^m - 1).

    Stage k fills the positions p with p + 1 of 2-adic valuation k, that is
    2^k - 1 + j 2^(k+1), with the element g_k solving
    P_k g_k P_(k-1) = u_(k mod N), where P_k = omega(0) ... omega(2^k - 2) is
    the product of the prefix that stages 0..k-1 have filled
    (P_0 = P_(-1) = identity).  For 0 <= i < 2^k - 1, 2^k + i + 1 has the
    same valuation as i + 1, so the position 2^k + i belongs to the same
    stage as the position i and holds the same value: the prefix of stage
    k+1 is the prefix of stage k, then g_k, then that prefix again.  Hence
    P_(k+1) = P_k g_k P_k, carried from stage to stage, and each stage is
    one slice assignment.
    """
    _refuse_window_depth(m)
    enumeration = tuple(enumeration)
    if sorted(enumeration) != list(range(group.order)):
        raise ValueError("enumeration must be a bijection onto the group")
    if enumeration[0] != 0:
        raise ValueError("enumeration must start with the identity")
    mul, inv = group.mul, group.inv
    n_elems = group.order
    size = 1 << m
    values = [None] * size
    stage_of = [None] * size
    stage_values = []
    prefix = before = 0  # P_k and P_(k-1)
    for k in range(m + 1):
        u = enumeration[k % n_elems]
        # P_k g P_(k-1) = u  =>  g = P_k^-1 u P_(k-1)^-1
        g = mul[mul[inv[prefix]][u]][inv[before]]
        stage_values.append(g)
        pos, step = (1 << k) - 1, 1 << (k + 1)
        taken = values[pos::step]
        if taken.count(None) != len(taken):
            raise AssertionError(f"a position of stage {k} filled twice")
        values[pos::step] = [g] * len(taken)
        stage_of[pos::step] = [k] * len(taken)
        prefix, before = mul[mul[prefix][g]][prefix], prefix
    if None in values:
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
    """Recompute a_k g_k b_k = u_(k mod N) from the finished window, all stages.

    The prefix products a_k = omega(0) ... omega(2^k - 2) are taken from
    `w.values` in one left-to-right pass, not from the recurrence that built
    the window, so the check stays independent of the construction.
    """
    mul, values = w.group.mul, w.values
    prefixes = [0]  # prefixes[k] = a_k
    acc = 0
    for k in range(w.depth):
        for v in values[(1 << k) - 1:(1 << (k + 1)) - 1]:
            acc = mul[acc][v]
        prefixes.append(acc)
    n = len(w.enumeration)
    for k in range(w.depth + 1):
        b = prefixes[k - 1] if k >= 1 else 0
        if mul[mul[prefixes[k]][w.stage_values[k]]][b] != w.enumeration[k % n]:
            return False
    return True


def essential_values(w: ToeplitzWindow, agree_radius: int):
    """Cocycle products at return times where the shifted window matches.

    Collects omega(t-1) ... omega(0) (the identity for t = 0) over
    t <= 2^(m-1) such that the window shifted by t agrees with the unshifted
    window on [0, agree_radius); the check passes when the whole group is
    realized.

    The scan reads the prefix [0, 2^(m-1) + agree_radius) encoded as a str
    with one code point per element index, and finds the return times with
    `str.find`; the running product advances only up to each return found,
    and the scan stops once the whole group is realized.  One code point per
    element is safe: the check needs 2^m > 4|G| and a window is at most
    2^WINDOW_MAX_DEPTH = 2^22 long, so every index is below 2^20, under the
    last code point 0x10FFFF (`chr` would raise above it, not alias).
    """
    group, vals = w.group, w.values
    if len(vals) <= 4 * group.order:
        raise CheckDepthError()
    limit = 1 << (w.depth - 1)
    if not 0 <= agree_radius <= len(vals) - limit:
        raise ValueError(f"agree_radius must lie in [0, {len(vals) - limit}]")
    mul = group.mul
    end = limit + agree_radius  # a return t <= limit reads vals[t:t + agree_radius]
    text = "".join(map(chr, vals[:end]))
    head = text[:agree_radius]
    realized = set()
    acc = 0  # omega(t-1) ... omega(0)
    done = 0  # acc is the product of vals[:done]
    t = 0  # the unshifted window always matches itself
    while t != -1 and len(realized) < group.order:
        for v in vals[done:t]:
            acc = mul[v][acc]
        done = t
        realized.add(acc)
        t = text.find(head, t + 1, end)
    return realized


def essential_values_check(group: FiniteGroup, enumeration, m: int, agree_radius: int):
    """`essential_values` of the depth-m window of `enumeration`."""
    return essential_values(generate_window(group, enumeration, m), agree_radius)


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
