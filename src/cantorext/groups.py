"""Finite groups by multiplication table, coset spaces K = G/H, diagonal orbits.

Elements are dense integer indices with the identity at index 0; groups built
from permutation generators order the remaining elements lexicographically by
their permutation tuples, so every derived object (cosets, orbits,
differential matrices) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from cantorext.exactla import CapExceeded


DEFAULT_CLOSURE_CAP = 10080

# Largest permutation degree accepted: each permutation is a tuple of this
# length, so a larger degree is refused before the identity is allocated.
MAX_DEGREE = 256


class FiniteGroup:
    """Group given by its full multiplication table.

    Immutable: no attribute can be set after construction, so one instance
    (a builtin group, say) can be shared by every caller.
    """

    __slots__ = ("order", "mul", "inv", "name", "perms")

    def __init__(self, table, name=None, perms=None, check=True):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        init = object.__setattr__
        init(self, "order", n)
        init(self, "mul", table)
        init(self, "name", name)
        init(self, "perms", perms)  # defining permutations when built from them
        if check:
            self._validate()
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {a} has no inverse")
        init(self, "inv", tuple(inv))

    def __setattr__(self, attr, value):
        raise AttributeError(f"FiniteGroup is immutable: cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"FiniteGroup is immutable: cannot delete {attr!r}")

    def _validate(self):
        n = self.order
        if n == 0:
            raise ValueError("empty group")
        for row in self.mul:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ValueError("multiplication rows must be permutations")
        for j in range(n):
            col = [self.mul[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                raise ValueError("multiplication columns must be permutations")
        for a in range(n):
            if self.mul[a][0] != a or self.mul[0][a] != a:
                raise ValueError("index 0 must be the identity")
        for a in range(n):
            ma = self.mul[a]
            for b in range(n):
                mab = ma[b]
                mb = self.mul[b]
                for c in range(n):
                    if self.mul[mab][c] != ma[mb[c]]:
                        raise ValueError("multiplication is not associative")

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, name={self.name!r})"

    def conjugate(self, g, x):
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def commutator(self, a, b):
        """a^-1 b^-1 a b."""
        return self.mul[self.mul[self.inv[a]][self.inv[b]]][self.mul[a][b]]

    def subgroup_closure(self, gens):
        """Subgroup generated by element indices, as a sorted tuple."""
        els = {0}
        frontier = [0]
        gens = sorted(set(gens) | {0})
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    c = self.mul[a][g]
                    if c not in els:
                        els.add(c)
                        new.append(c)
            frontier = new
        return tuple(sorted(els))

    def element_of_perm(self, perm):
        """Index of a defining permutation (groups built from permutations only)."""
        if self.perms is None:
            raise ValueError("group was not built from permutations")
        try:
            return self.perms.index(tuple(perm))
        except ValueError:
            raise ValueError(f"permutation {perm} is not a group element") from None


def _compose(p, q):
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[i] for i in q)


def from_permutations(degree, generators, cap=DEFAULT_CLOSURE_CAP, name=None):
    """Group generated by permutations of {0..degree-1}, closure-enumerated.

    The identity gets index 0; the other elements are sorted lexicographically
    by their permutation tuples.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > MAX_DEGREE:
        raise CapExceeded(f"degree exceeds the cap of {MAX_DEGREE}",
                          size=degree, cap=MAX_DEGREE)
    ident = tuple(range(degree))
    gens = []
    for g in generators:
        g = tuple(g)
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        gens.append(g)
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = _compose(a, g)
                if c not in els:
                    els.add(c)
                    if len(els) > cap:
                        raise CapExceeded(
                            f"closure exceeds cap of {cap} elements", size=len(els), cap=cap
                        )
                    new.append(c)
        frontier = new
    ordered = [ident] + sorted(els - {ident})
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[_compose(a, b)] for b in ordered] for a in ordered]
    return FiniteGroup(table, name=name, perms=tuple(ordered), check=False)


def _cyclic(k):
    table = [[(a + b) % k for b in range(k)] for a in range(k)]
    return FiniteGroup(table, name=f"Z{k}", check=False)


def _quaternion8():
    # elements 1,-1,i,-i,j,-j,k,-k as indices 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {"1": (1, "1"), "i": (1, "i"), "j": (1, "j"), "k": (1, "k")}

    def mul_sym(a, b):
        # quaternion multiplication on symbols with signs
        sa = -1 if a.startswith("-") else 1
        sb = -1 if b.startswith("-") else 1
        ua, ub = a.lstrip("-"), b.lstrip("-")
        tbl = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
        }
        s, u = tbl[(ua, ub)]
        s *= sa * sb
        return ("-" if s < 0 else "") + u

    index = {nm: i for i, nm in enumerate(names)}
    table = [[index[mul_sym(a, b)] for b in names] for a in names]
    return FiniteGroup(table, name="Q8", check=False)


BUILTIN_NAMES = tuple(
    [f"Z{k}" for k in range(2, 13)] + ["S3", "S4", "S5", "A4", "A5", "D4", "Q8"]
)

# one shared FiniteGroup per builtin name, built on first use
_BUILTINS = {}


def builtin(name):
    """Builtin groups by name: Z2..Z12, S3, S4, S5, A4, A5, D4, Q8.

    Names are case-insensitive.  Each group is built once per process and the
    same immutable instance is returned on every later call.
    """
    name = name.strip()
    key = name.upper()
    if key.startswith("Z") and key[1:].isdigit():
        k = int(key[1:])
        if not 2 <= k <= 12:
            raise ValueError(
                f"unknown builtin group {name!r}: cyclic groups range over Z2..Z12"
            )
        key = f"Z{k}"  # one instance for Z2, Z02, ...
    elif key not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin group {name!r}")
    g = _BUILTINS.get(key)
    if g is None:
        g = _BUILTINS[key] = _build_builtin(key)
    return g


def _build_builtin(key):
    if key.startswith("Z"):
        return _cyclic(int(key[1:]))
    if key in ("S3", "S4", "S5"):
        n = int(key[1])
        transposition = tuple([1, 0] + list(range(2, n)))
        cycle = tuple(list(range(1, n)) + [0])
        return from_permutations(n, [transposition, cycle], name=key)
    if key in ("A4", "A5"):
        n = int(key[1])
        three_cycle = tuple([1, 2, 0] + list(range(3, n)))
        if n % 2:
            rest = tuple(list(range(1, n)) + [0])  # n-cycle is even for odd n
        else:
            rest = tuple([0] + list(range(2, n)) + [1])  # (n-1)-cycle on 1..n-1
        return from_permutations(n, [three_cycle, rest], name=key)
    if key == "D4":
        rot = (1, 2, 3, 0)
        flip = (0, 3, 2, 1)
        return from_permutations(4, [rot, flip], name="D4")
    return _quaternion8()


def abelianization(g: FiniteGroup):
    """G/[G,G] in canonical invariant-factor form.

    The subgroup generated by all commutators is automatically normal, so its
    closure is the commutator subgroup; the quotient's structure is read off
    from the cokernel of its multiplication relations.
    """
    from cantorext import exactla
    from cantorext.exactla import ExactMatrix

    comms = {g.commutator(a, b) for a in range(g.order) for b in range(g.order)}
    g2 = g.subgroup_closure(comms)
    g2set = set(g2)
    # cosets of the (normal) commutator subgroup
    coset_of = {}
    reps = []
    for x in range(g.order):
        if x in coset_of:
            continue
        idx = len(reps)
        reps.append(x)
        for h in g2:
            coset_of[g.mul[x][h]] = idx
    s = len(reps)
    # abelian presentation: x_a + x_b - x_ab = 0 over all pairs of cosets
    ent = {}
    col = 0
    for a in range(s):
        for b in range(s):
            c = coset_of[g.mul[reps[a]][reps[b]]]
            for i, v in ((a, 1), (b, 1), (c, -1)):
                ent[(i, col)] = ent.get((i, col), 0) + v
            col += 1
    rel = ExactMatrix(s, col, {k: v for k, v in ent.items() if v})
    return exactla.cokernel_structure(rel)


@dataclass(frozen=True)
class CosetSpace:
    """Left coset space K = G/H with the left G-action."""

    group: FiniteGroup
    subgroup: tuple  # sorted element indices of H
    points: tuple  # canonical (minimal) representative of each coset, sorted
    action: tuple  # action[g][point] -> point

    @property
    def size(self):
        return len(self.points)

    @property
    def is_regular(self):
        return len(self.subgroup) == 1

    def act_tuple(self, g, tup):
        a = self.action[g]
        return tuple(a[x] for x in tup)


def coset_space(g: FiniteGroup, h_gens) -> CosetSpace:
    """Build K = G/H from subgroup generators (element indices)."""
    h = g.subgroup_closure(h_gens)
    hset = set(h)
    coset_of = {}
    reps = []
    for x in range(g.order):
        if x in coset_of:
            continue
        members = sorted(g.mul[x][e] for e in h)
        rep = members[0]
        idx = len(reps)
        reps.append(rep)
        for m in members:
            coset_of[m] = idx
    # points sorted by representative; rep of identity coset is min of H = 0
    order_idx = sorted(range(len(reps)), key=lambda i: reps[i])
    remap = {old: new for new, old in enumerate(order_idx)}
    points = tuple(reps[i] for i in order_idx)
    coset_of = {x: remap[c] for x, c in coset_of.items()}
    action = tuple(
        tuple(coset_of[g.mul[a][p]] for p in points) for a in range(g.order)
    )
    ks = CosetSpace(group=g, subgroup=h, points=points, action=action)
    if g.order != len(points) * len(h):
        raise AssertionError("coset count inconsistency")
    return ks


def check_level_size(space: CosetSpace, n: int, cap: int) -> None:
    """Refuse level n of the chain over space, by arithmetic, if too large.

    The cap counts orbits, |K|^(n-1), for regular spaces and all tuples,
    |K|^n, otherwise; a level over the cap raises CapExceeded with its size.
    """
    k = space.size
    e = n - 1 if space.is_regular else n
    if k > 1 and e > cap.bit_length():
        # k^e >= 2^e > cap: refused before the power, whose digits alone
        # can be too many to print, is taken; the size is left unstated
        raise CapExceeded(f"size {k}^{e} exceeds cap {cap}", size=None, cap=cap)
    size = k ** e
    if size > cap:
        raise CapExceeded(f"size {size} exceeds cap {cap}", size=size, cap=cap)


def fixed_point_counts(space: CosetSpace) -> list:
    """fix(g), the number of points of K that g fixes, for each g fixing one.

    The point rH is fixed by g iff g lies in rHr^-1, so counting the
    conjugates r h r^-1 over every point r and every h in H gives each
    fix(g) in O(|G|), with no scan of the action table.  By Burnside's lemma
    level n has (1/|G|) * sum of fix(g)^n diagonal orbits.
    """
    g = space.group
    counts = [0] * g.order
    for r in space.points:
        for h in space.subgroup:
            counts[g.conjugate(r, h)] += 1
    return [c for c in counts if c]


class OrbitStructure:
    """Diagonal G-orbits on K^n: representatives plus an index function.

    Representatives are the lexicographically smallest members of their
    orbits, listed in lexicographic order.  H is the stabilizer of point 0,
    so the G-orbits on K^n match the H-orbits on K^(n-1) through the tuples
    (0, y) (Shapiro's lemma in orbit form).  A tuple is moved to first entry 0
    by a precomputed coset element, its tail is read as a base-|K| code, and
    one table of size |K|^(n-1) maps each code to the index of its H-orbit.
    For trivial H the table is the identity and costs nothing to build.
    """

    def __init__(self, space: CosetSpace, n: int, cap=5_000_000):
        if n < 1:
            raise ValueError("n must be >= 1")
        check_level_size(space, n, cap)
        k = space.size
        self.space = space
        self.n = n
        self._k = k
        action, inv = space.action, space.group.inv
        # _to_base[x]: the action of a coset element moving point x to 0
        to_base = [None] * k
        for g in range(space.group.order):
            x = action[g][0]
            if to_base[x] is None:
                to_base[x] = action[inv[g]]
        self._to_base = tuple(to_base)
        # _table[code]: H-orbit index of the tail with that code; _reps: the
        # smallest code of each H-orbit, in increasing order
        moves = [action[h] for h in space.subgroup if h]
        if not moves:
            self._table = self._reps = range(k ** (n - 1))
        else:
            table = [-1] * k ** (n - 1)
            reps = []
            for code, tail in enumerate(product(range(k), repeat=n - 1)):
                if table[code] >= 0:
                    continue
                idx = len(reps)
                reps.append(code)
                table[code] = idx
                for a in moves:
                    c = 0
                    for x in tail:
                        c = c * k + a[x]
                    table[c] = idx
            self._table, self._reps = table, reps
        self.count = len(self._reps)

    def reps(self):
        """Yield orbit representatives in lexicographic order."""
        reps, table = self._reps, self._table
        tails = product(range(self._k), repeat=self.n - 1)
        return ((0,) + tail for code, tail in enumerate(tails) if reps[table[code]] == code)

    def rep(self, idx):
        code = self._reps[idx]
        k = self._k
        tail = []
        for _ in range(self.n - 1):
            code, x = divmod(code, k)
            tail.append(x)
        return (0,) + tuple(reversed(tail))

    def index(self, tup):
        """Orbit index of an arbitrary tuple."""
        a = self._to_base[tup[0]]
        k = self._k
        code = 0
        for x in tup[1:]:
            code = code * k + a[x]
        return self._table[code]

    def canonical(self, tup):
        """Lexicographically smallest member of the orbit of tup."""
        return self.rep(self.index(tup))
