"""Finitely generated abelian groups: structure, duality, Hom/Tor/Ext, direct limits.

Groups are always held in canonical invariant-factor form, so isomorphism is
field equality.  Functor computations (tor, ext, ker_tensor) run on explicit
free resolutions through the exact linear algebra layer, with the closed gcd
formulas reserved for hom_structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from cantorext import exactla
from cantorext.exactla import CapExceeded, ExactMatrix, _json_int

# Largest free rank read from JSON: Tor and Ext work on matrices whose side
# grows with it, so a larger rank is refused before any is built.
MAX_JSON_RANK = 256

# trial division tries the divisors below this bound, then gcd refinement
_TRIAL_DIVISION_BOUND = 1 << 10


def _coprime_factorizations(orders):
    """Each order (>= 2) as {base: exponent} over one pairwise coprime base.

    Trial division by 2, 3, ... below _TRIAL_DIVISION_BOUND stops once p^2
    exceeds what is left, so small orders cost a few divisions (a composite p
    never divides, its primes being gone).  The leftover cofactors have no
    prime factor below the last p tried, and are refined by gcds into
    a pairwise coprime base (Bach, Driscoll and Shallit, "Factor refinement",
    J. Algorithms 1993): every step divides the product of the pending
    numbers by a gcd > 1, so there are at most log2 of it.  Base elements are
    not always prime, but the invariant factors only need the base to be
    coprime: for each base b, every prime of b sees the exponents of b scaled
    by one constant, so they sort alike.
    """
    out = []
    leftovers = []
    for n in orders:
        f = {}
        for p in range(2, _TRIAL_DIVISION_BOUND):
            if p * p > n:
                break
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                f[p] = e
        out.append(f)
        leftovers.append(n)
    base = []
    work = [n for n in leftovers if n > 1]
    while work:
        x = work.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                work.extend(y for y in (b // g, g, x // g) if y > 1)
                break
        else:
            base.append(x)
    for f, n in zip(out, leftovers):
        for b in base:
            e = 0
            while n % b == 0:
                n //= b
                e += 1
            if e:
                f[b] = e
        if n != 1:
            raise AssertionError("an order does not factor over the coprime base")
    return out


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in canonical form.

    invariant_factors: ascending, each >= 2 and dividing the next;
    free_rank: number of Z summands.  Two groups are isomorphic iff equal.
    """

    invariant_factors: tuple = ()
    free_rank: int = 0

    def __post_init__(self):
        facs = tuple(int(f) for f in self.invariant_factors)
        for f in facs:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "invariant_factors", facs)

    @classmethod
    def trivial(cls):
        return cls((), 0)

    @classmethod
    def cyclic(cls, n):
        return cls.from_orders([n])

    @classmethod
    def free(cls, rank):
        return cls((), rank)

    @classmethod
    def from_orders(cls, orders, free_rank=0):
        """Canonicalize an arbitrary list of cyclic orders (0 meaning Z)."""
        rank = free_rank
        finite = []
        for n in orders:
            n = abs(int(n))
            if n == 0:
                rank += 1
            elif n > 1:
                finite.append(n)
        primary = {}  # coprime base element -> list of exponents
        for f in _coprime_factorizations(finite):
            for b, e in f.items():
                primary.setdefault(b, []).append(e)
        k = max((len(v) for v in primary.values()), default=0)
        factors = [1] * k
        for p, exps in primary.items():
            exps.sort(reverse=True)
            for i, e in enumerate(exps):
                # largest exponent goes to the last invariant factor
                factors[k - 1 - i] *= p ** e
        return cls(tuple(factors), rank)

    @property
    def is_trivial(self):
        return not self.invariant_factors and self.free_rank == 0

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        """Order as an int, or None when infinite."""
        if not self.is_finite:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def exponent(self):
        if not self.is_finite:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def direct_sum(self, other):
        return FgAbGroup.from_orders(
            list(self.invariant_factors) + list(other.invariant_factors),
            self.free_rank + other.free_rank,
        )

    def generator_count(self):
        return len(self.invariant_factors) + self.free_rank

    def relation_columns(self):
        """Columns of the canonical relation lattice in Z^generator_count."""
        s = self.generator_count()
        cols = []
        for i, f in enumerate(self.invariant_factors):
            c = [0] * s
            c[i] = f
            cols.append(tuple(c))
        return cols

    def to_json_obj(self):
        return {"factors": list(self.invariant_factors), "rank": self.free_rank}

    @classmethod
    def from_json_obj(cls, obj):
        factors = obj.get("factors", [])
        if not isinstance(factors, list):
            raise ValueError("field 'factors': expected a list of integers")
        factors = [_json_int(f, "factors") for f in factors]
        rank = _json_int(obj.get("rank", 0), "rank")
        if rank > MAX_JSON_RANK:
            raise CapExceeded(f"rank exceeds the cap of {MAX_JSON_RANK}",
                              size=rank, cap=MAX_JSON_RANK)
        return cls.from_orders(factors, rank)

    def __str__(self):
        parts = [f"Z/{f}" for f in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class AbHom:
    """Homomorphism between f.g. abelian groups on canonical generators.

    matrix is target_gens x source_gens and must carry each source relation
    into the target relation lattice.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: ExactMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.generator_count():
            raise ValueError("matrix rows disagree with target generators")
        if self.matrix.cols != self.source.generator_count():
            raise ValueError("matrix cols disagree with source generators")
        tgt_rel = exactla.lattice_basis(self.matrix.rows, self.target.relation_columns())
        for rel in self.source.relation_columns():
            img = self.matrix.apply(rel)
            if any(img):
                if not exactla.in_lattice(tgt_rel, img):
                    raise ValueError("matrix does not respect relations")

    @classmethod
    def identity(cls, g):
        return cls(g, g, ExactMatrix.identity(g.generator_count()))


@dataclass(frozen=True)
class LimitOutcome:
    """Result of a direct limit of one group under a self-map."""

    kind: str  # "finitely_generated" | "non_finitely_generated"
    group: FgAbGroup | None = None
    witness: tuple | None = None  # (stable sublattice basis matrix, acting matrix)

    @property
    def is_finitely_generated(self):
        return self.kind == "finitely_generated"


def torsion_part(g: FgAbGroup) -> FgAbGroup:
    return FgAbGroup(g.invariant_factors, 0)


def dual_finite(g: FgAbGroup) -> FgAbGroup:
    """Pontryagin dual of a finite abelian group (isomorphic to itself)."""
    if not g.is_finite:
        raise ValueError("dual_finite requires a finite group")
    return FgAbGroup(g.invariant_factors, 0)


def hom_structure(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Structure of Hom(a, b) for finite a: gcd formula summand by summand."""
    if not a.is_finite:
        raise ValueError("hom_structure requires finite first argument")
    orders = []
    for fa in a.invariant_factors:
        for fb in b.invariant_factors:
            orders.append(gcd(fa, fb))
        # Hom(Z/fa, Z) = 0: free summands of b contribute nothing
    return FgAbGroup.from_orders(orders)


def ext_z(g: FgAbGroup) -> FgAbGroup:
    """Ext(g, Z) for finite g, via the diagonal free resolution 0 -> A -> B -> g -> 0.

    Applying hom(., Z) to the resolution leaves coker of the transposed
    relation map, which is computed honestly through Smith form.
    """
    if not g.is_finite:
        raise ValueError("ext_z requires a finite group")
    k = len(g.invariant_factors)
    rel = ExactMatrix.diagonal(list(g.invariant_factors), rows=k, cols=k)
    return exactla.cokernel_structure(rel.transpose())


def _presentation(g: FgAbGroup):
    """(dim, relation columns) presenting g as Z^dim / lattice."""
    return g.generator_count(), g.relation_columns()


def _preimage_kernel_structure(dim, map_matrix, target_rel_cols, source_rel_cols):
    """Structure of ker(Z^dim/L_src --map--> Z^rows/L_tgt).

    Kernel = {x : map x in L_tgt} / L_src, computed as a lattice quotient.
    Requires L_src contained in the preimage lattice (i.e. the map is
    well-defined), which the callers guarantee.
    """
    rows = map_matrix.rows
    # kernel of [map | tgt_rel] gives x-parts generating the preimage lattice
    tgt = ExactMatrix(rows, len(target_rel_cols), {
        (i, j): target_rel_cols[j][i]
        for j in range(len(target_rel_cols))
        for i in range(rows)
        if target_rel_cols[j][i]
    })
    big = map_matrix.hstack(tgt)
    ker = exactla.kernel_basis(big)
    pre_gens = [k[:dim] for k in ker]
    return exactla.lattice_quotient_structure(dim, pre_gens + list(source_rel_cols),
                                              list(source_rel_cols))


def tor(m: FgAbGroup, g: FgAbGroup) -> FgAbGroup:
    """Tor(m, g) for finite g via the kernel of A (x) m -> B (x) m.

    Resolution 0 -> Z^k --diag--> Z^k -> g -> 0; tensoring with m and taking
    the kernel of the induced map realizes Tor.
    """
    if not g.is_finite:
        raise ValueError("tor requires finite second argument")
    k = len(g.invariant_factors)
    if k == 0:
        return FgAbGroup.trivial()
    s, m_rel = _presentation(m)
    if s == 0:
        return FgAbGroup.trivial()
    # A (x) m = m^k; induced map = diag(d_i) acting blockwise
    dim = k * s
    ent = {}
    for blk, d in enumerate(g.invariant_factors):
        for t in range(s):
            ent[(blk * s + t, blk * s + t)] = d
    induced = ExactMatrix(dim, dim, ent)
    rel_cols = []
    for blk in range(k):
        for c in m_rel:
            col = [0] * dim
            for t, v in enumerate(c):
                col[blk * s + t] = v
            rel_cols.append(tuple(col))
    return _preimage_kernel_structure(dim, induced, rel_cols, rel_cols)


def ker_tensor(j: AbHom, g: FgAbGroup) -> FgAbGroup:
    """Structure of ker(j (x) id_g) for j between torsion-free groups, g finite."""
    if j.source.invariant_factors or j.target.invariant_factors:
        raise ValueError("ker_tensor requires torsion-free source and target")
    if not g.is_finite:
        raise ValueError("ker_tensor requires finite g")
    k = len(g.invariant_factors)
    a = j.source.free_rank
    b = j.target.free_rank
    if k == 0 or a == 0:
        return FgAbGroup.trivial()
    # Z^a (x) g = g^a presented as Z^(a k) / diag lattice, likewise target
    dim_s = a * k
    dim_t = b * k
    ent = {}
    for (r, c), v in {(i, jj): j.matrix[i, jj] for i in range(b) for jj in range(a)}.items():
        if v:
            for blk in range(k):
                ent[(blk * b + r, blk * a + c)] = v
    big_map = ExactMatrix(dim_t, dim_s, ent)

    def diag_lattice(n_gens, dims):
        cols = []
        for blk, d in enumerate(g.invariant_factors):
            for t in range(n_gens):
                col = [0] * dims
                col[blk * n_gens + t] = d
                cols.append(tuple(col))
        return cols

    src_rel = diag_lattice(a, dim_s)
    tgt_rel = diag_lattice(b, dim_t)
    return _preimage_kernel_structure(dim_s, big_map, tgt_rel, src_rel)


def direct_limit_lattice(dim, rel_cols, endo: ExactMatrix, cap=None) -> LimitOutcome:
    """Direct limit of Z^dim/L under the endomorphism induced by endo.

    Requires endo * L <= L.  Iterates image lattices M_k = endo^k Z^dim + L,
    compared by canonical Hermite bases; on stabilization the induced map on
    the eventual image is surjective, hence an automorphism (Hopfian), and
    the limit is the stabilized subquotient.
    """
    if endo.rows != dim or endo.cols != dim:
        raise ValueError("endo must be square of size dim")
    rel_basis = exactla.lattice_basis(dim, rel_cols)
    for c in rel_basis:
        if not exactla.in_lattice(rel_basis, endo.apply(c)):
            raise ValueError("endo does not preserve the relation lattice")
    if cap is None:
        diag = exactla.snf_diagonal(
            ExactMatrix(dim, len(rel_cols), {
                (i, j): rel_cols[j][i]
                for j in range(len(rel_cols)) for i in range(dim) if rel_cols[j][i]
            })
        ) if rel_cols else []
        largest = max([d for d in diag if d > 1], default=1)
        cap = max(1, dim) * (largest.bit_length() + 64)

    current = exactla.lattice_basis(dim, [tuple(int(i == j) for i in range(dim)) for j in range(dim)])
    for _ in range(cap):
        nxt_gens = [endo.apply(c) for c in current] + list(rel_cols)
        nxt = exactla.lattice_basis(dim, nxt_gens)
        if nxt == current:
            group = exactla.lattice_quotient_structure(dim, current, rel_cols)
            return LimitOutcome("finitely_generated", group=group)
        current = nxt
    basis_mat = ExactMatrix(dim, len(current), {
        (i, j): current[j][i] for j in range(len(current)) for i in range(dim) if current[j][i]
    })
    return LimitOutcome("non_finitely_generated", witness=(basis_mat, endo))


def direct_limit_endo(c: FgAbGroup, phi: AbHom) -> LimitOutcome:
    """Direct limit of c --phi--> c --phi--> ... (phi an endomorphism of c)."""
    if phi.source != c or phi.target != c:
        raise ValueError("phi must be an endomorphism of c")
    dim = c.generator_count()
    if dim == 0:
        return LimitOutcome("finitely_generated", group=FgAbGroup.trivial())
    return direct_limit_lattice(dim, c.relation_columns(), phi.matrix)
