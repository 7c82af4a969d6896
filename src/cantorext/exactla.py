"""Exact integer linear algebra: Smith/Hermite forms, kernels, cokernels, solving.

Everything works over Python's arbitrary-precision integers.  Matrices are
immutable; elimination happens on private working copies.  Large sparse
matrices (the simplicial differentials) go through the sparse elimination
paths, which never densify.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class CapExceeded(Exception):
    """A computation was refused because it exceeds a configured size cap."""

    def __init__(self, message, size=None, cap=None):
        super().__init__(message)
        self.size = size
        self.cap = cap


def _json_int(value, field, strings=False):
    """An integer field read from JSON.

    A JSON integer, or with `strings` also a decimal string; floats and
    booleans are refused rather than truncated.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if strings and isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"field {field!r}: expected an integer, got {value!r}")


def _json_int_rows(value, field, strings=False):
    """A JSON list of lists of integers (see _json_int), as a list of lists."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"field {field!r}: expected a list of lists of integers")
    return [[_json_int(v, field, strings) for v in row] for row in value]


class ExactMatrix:
    """Immutable integer matrix.

    Entries are held in a dict keyed by (row, col), zeros omitted, so dense
    and sparse construction paths yield identical objects and compare equal.
    """

    __slots__ = ("rows", "cols", "_d")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        d = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = int(v)
            if v:
                d[(i, j)] = v
        self._d = d

    @classmethod
    def from_rows(cls, data, rows=None, cols=None):
        data = [list(r) for r in data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        ent = {}
        for i, r in enumerate(data):
            if len(r) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(r):
                if v:
                    ent[(i, j)] = v
        return cls(rows, cols, ent)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return cls(rows, cols, {(i, i): d for i, d in enumerate(diag)})

    @classmethod
    def column(cls, vec):
        return cls(len(vec), 1, {(i, 0): v for i, v in enumerate(vec)})

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._d.get((i, j), 0)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._d.items())))

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"ExactMatrix({self.to_rows()})"
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    @property
    def nnz(self):
        return len(self._d)

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._d.items():
            out[i][j] = v
        return out

    def row_dicts(self):
        """Working copy as a list of {col: value} dicts."""
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self._d.items():
            rows[i][j] = v
        return rows

    def transpose(self):
        return ExactMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self._d.items()})

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # sparse row x sparse row product
        a = self.row_dicts()
        b = other.row_dicts()
        ent = {}
        for i, arow in enumerate(a):
            acc = {}
            for k, av in arow.items():
                for j, bv in b[k].items():
                    acc[j] = acc.get(j, 0) + av * bv
            for j, v in acc.items():
                if v:
                    ent[(i, j)] = v
        return ExactMatrix(self.rows, other.cols, ent)

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        out = [0] * self.rows
        for (i, j), v in self._d.items():
            out[i] += v * vec[j]
        return tuple(out)

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self._d.items():
            cols[j][i] = v
        return [tuple(c.get(i, 0) for i in range(self.rows)) for c in cols]

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        ent = dict(self._d)
        for (i, j), v in other._d.items():
            ent[(i, j + self.cols)] = v
        return ExactMatrix(self.rows, self.cols + other.cols, ent)

    def to_json_obj(self):
        """{"rows": r, "cols": c, "entries": [[...]]} with decimal-string entries."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(v) for v in row] for row in self.to_rows()],
        }

    @classmethod
    def from_json_obj(cls, obj):
        rows = _json_int(obj["rows"], "rows")
        cols = _json_int(obj["cols"], "cols")
        data = _json_int_rows(obj["entries"], "entries", strings=True)
        if len(data) != rows:
            raise ValueError("entries row count disagrees with 'rows'")
        return cls.from_rows(data, rows, cols)


@dataclass(frozen=True)
class SmithForm:
    """u * m * v = d with u, v unimodular and d diagonal with divisibility chain."""

    d: ExactMatrix
    u: ExactMatrix
    v: ExactMatrix

    def diagonal(self):
        n = min(self.d.rows, self.d.cols)
        return [self.d[i, i] for i in range(n)]


def _swap_rows(m, u, i, j):
    if i != j:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]


def _swap_cols(m, v, i, j):
    if i != j:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]


def snf(m: ExactMatrix) -> SmithForm:
    """Smith normal form with transforms.  Dense working algorithm.

    Intended for the moderate-size matrices that need u, v (kernels, solving);
    use snf_diagonal for invariant factors of large sparse matrices.
    """
    a = m.to_rows()
    R, C = m.rows, m.cols
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    v = [[int(i == j) for j in range(C)] for i in range(C)]

    t = 0
    while t < min(R, C):
        # locate minimal absolute nonzero entry in the trailing submatrix
        best = None
        for i in range(t, R):
            row = a[i]
            for j in range(t, C):
                x = row[j]
                if x:
                    if best is None or abs(x) < best[0]:
                        best = (abs(x), i, j)
                        if abs(x) == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _swap_rows(a, u, t, best[1])
        _swap_cols(a, v, t, best[2])

        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, R):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, C):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot row/col clear: enforce divisibility into the rest
            p = a[t][t]
            offender = None
            for i in range(t + 1, R):
                row = a[i]
                for j in range(t + 1, C):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = ExactMatrix.from_rows(a, R, C)
    return SmithForm(d=d, u=ExactMatrix.from_rows(u, R, R), v=ExactMatrix.from_rows(v, C, C))


def _unimodular_row_gcd(ra, rb, col):
    """Unimodular 2x2 combination making rb[col] = 0, ra[col] = gcd.

    ra, rb are {col: value} dicts, modified in place-ish (returns new dicts).
    """
    a = ra.get(col, 0)
    b = rb.get(col, 0)
    if b == 0:
        return ra, rb
    if a == 0:
        return rb, ra
    if b % a == 0:
        q = b // a
        out = dict(rb)
        for j, v in ra.items():
            w = out.get(j, 0) - q * v
            if w:
                out[j] = w
            else:
                out.pop(j, None)
        return ra, out
    g, x, y = _xgcd(a, b)
    aa, bb = a // g, b // g
    new_a, new_b = {}, {}
    for j in set(ra) | set(rb):
        va = ra.get(j, 0)
        vb = rb.get(j, 0)
        w1 = x * va + y * vb
        w2 = -bb * va + aa * vb
        if w1:
            new_a[j] = w1
        if w2:
            new_b[j] = w2
    return new_a, new_b


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _sparse_echelon(m: ExactMatrix) -> list:
    """Row-eliminate to echelon form with unimodular operations; returns pivot rows.

    Pivot columns are chosen by (approximate) Markowitz order: a lazy heap of
    column occupancy counts picks short columns; within a column the entry
    with minimal |value| then shortest row wins.  The simplicial differentials
    then eliminate almost entirely on +-1 pivots with little growth.
    """
    import heapq

    rows = m.row_dicts()
    col_rows = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)

    def unregister(i):
        for j in rows[i]:
            s = col_rows.get(j)
            if s is not None:
                s.discard(i)
                if not s:
                    del col_rows[j]

    def register(i):
        for j in rows[i]:
            col_rows.setdefault(j, set()).add(i)

    heap = [(len(rs), j) for j, rs in col_rows.items()]
    heapq.heapify(heap)

    pivot_rows = []
    while heap:
        clen, pj = heapq.heappop(heap)
        rs = col_rows.get(pj)
        if not rs:
            continue
        if len(rs) != clen:
            heapq.heappush(heap, (len(rs), pj))
            continue
        # best entry within this column
        pi = min(rs, key=lambda i: (abs(rows[i][pj]), len(rows[i]), i))
        others = sorted(rs - {pi})
        prow = rows[pi]
        touched = set()
        for i in others:
            unregister(i)
            new_p, orow = _unimodular_row_gcd(prow, rows[i], pj)
            if new_p is not prow:
                unregister(pi)
                prow = new_p
                rows[pi] = prow
                register(pi)
            rows[i] = orow
            if orow:
                register(i)
                touched.update(orow)
        unregister(pi)
        col_rows.pop(pj, None)
        pivot_rows.append(prow)
        rows[pi] = {}
        for j in touched:
            if j in col_rows:
                heapq.heappush(heap, (len(col_rows[j]), j))
    return pivot_rows


# The largest prime below 2^30: residues fit in one CPython digit, and it
# exceeds the order of any group the permutation-closure cap admits.
RANK_PRIME = 1_073_741_789


def rank(m: ExactMatrix) -> int:
    """Exact rank of m, by sparse unimodular row elimination over Z."""
    return len(_sparse_echelon(m))


def rank_reaches(rows, bound: int) -> bool:
    """Whether the rows, {col: value} dicts streamed in order, reach rank bound mod p.

    A rank mod RANK_PRIME never exceeds the rational rank, so given the
    caller's proof that the rank is at most ``bound``, True certifies that it
    equals ``bound``.  Reading stops at the row that reaches it; False means
    every row was read and the exact ``rank`` must decide.

    Pivots are keyed by column and each row pivots on its largest column, so a
    reduced row only ever gains entries to the left of the pivot it meets;
    pivoting on the smallest column fills in far more on the differentials.
    """
    if bound <= 0:
        return True
    p = RANK_PRIME
    found = 0
    pivots = {}  # leading column -> rest of the row, scaled to leading entry 1
    for r in rows:
        row = {j: v % p for j, v in r.items() if v % p}
        while row:
            j = max(row)
            c = row.pop(j)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(c, -1, p)
                pivots[j] = {k: v * inv % p for k, v in row.items()}
                found += 1
                if found == bound:
                    return True
                break
            for k, v in piv.items():
                w = (row.get(k, 0) - c * v) % p
                if w:
                    row[k] = w
                else:
                    del row[k]  # w == 0 needs row[k] present: c, v are units
    return False


def snf_diagonal(m: ExactMatrix) -> list:
    """Invariant factors (nonzero SNF diagonal) without transforms, sparse-friendly.

    Eliminates to echelon form, then finishes the (much smaller) echelon core
    with the dense algorithm and repairs the divisibility chain pairwise.
    """
    pivot_rows = _sparse_echelon(m)
    if not pivot_rows:
        return []
    # compress the echelon rows to their occupied columns and run dense SNF
    cols = sorted(set().union(*pivot_rows))
    cmap = {c: k for k, c in enumerate(cols)}
    dense = [[0] * len(cols) for _ in pivot_rows]
    for i, r in enumerate(pivot_rows):
        for j, v in r.items():
            dense[i][cmap[j]] = v
    diag = snf(ExactMatrix.from_rows(dense)).diagonal()
    diag = [abs(x) for x in diag if x]
    return _fix_divisibility(diag)


def _fix_divisibility(diag):
    diag = [abs(x) for x in diag if x]
    n = len(diag)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                a, b = diag[i], diag[j]
                if b % a:
                    g = gcd(a, b)
                    diag[i], diag[j] = g, a // g * b
                    changed = True
    return sorted(diag)


def kernel_basis(m: ExactMatrix) -> list:
    """Basis of the integer kernel lattice of m (saturated).

    Column-reduces [m] with unimodular column operations recorded in v;
    kernel basis = columns of v over the zero columns of the echelon form.
    """
    a = m.to_rows()
    R, C = m.rows, m.cols
    v = [[int(i == j) for j in range(C)] for i in range(C)]

    def col(mat, j, nrows):
        return [mat[i][j] for i in range(nrows)]

    pivot_col = 0
    for i in range(R):
        if pivot_col >= C:
            break
        # clear row i to the right of pivot_col via gcd column ops
        j0 = None
        for j in range(pivot_col, C):
            if a[i][j]:
                j0 = j
                break
        if j0 is None:
            continue
        _swap_cols(a, v, pivot_col, j0)
        for j in range(pivot_col + 1, C):
            while a[i][j]:
                aa, bb = a[i][pivot_col], a[i][j]
                if abs(bb) >= abs(aa):
                    q = bb // aa
                    for row in a:
                        row[j] -= q * row[pivot_col]
                    for row in v:
                        row[j] -= q * row[pivot_col]
                else:
                    _swap_cols(a, v, pivot_col, j)
        pivot_col += 1

    ker = []
    for j in range(pivot_col, C):
        if all(a[i][j] == 0 for i in range(R)):
            ker.append(tuple(v[i][j] for i in range(C)))
    # columns pivot_col..C-1 are exactly the zero columns after echelon
    return ker


def solve_integer(m: ExactMatrix, b):
    """One integer solution of m x = b, or None."""
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    s = snf(m)
    c = s.u.apply(b)
    n = min(m.rows, m.cols)
    y = [0] * m.cols
    for i in range(m.rows):
        di = s.d[i, i] if i < n else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return s.v.apply(y)


def cokernel_structure(m: ExactMatrix):
    """Structure of Z^rows / image(m) as an FgAbGroup."""
    from cantorext.abelian import FgAbGroup

    diag = snf_diagonal(m)
    free = m.rows - len(diag)
    return FgAbGroup.from_orders([d for d in diag if d > 1], free_rank=free)


def determinant(m: ExactMatrix) -> int:
    """Determinant via dense fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Lattice utilities (columns of a matrix generate a sublattice of Z^n)


def lattice_basis(dim, gen_cols):
    """Canonical basis (column HNF) of the lattice spanned by gen_cols in Z^dim.

    Returns a list of columns (tuples), echelon by leading row, positive
    pivots, entries above each pivot reduced; two lattices are equal iff
    their canonical bases are equal.
    """
    cols = [dict((i, v) for i, v in enumerate(c) if v) for c in gen_cols]
    cols = [c for c in cols if c]
    basis = {}  # leading row -> column dict
    for c in cols:
        c = dict(c)
        while c:
            lead = min(c)
            if lead not in basis:
                basis[lead] = c
                break
            b = basis[lead]
            a, bb = b[lead], c[lead]
            if bb % a == 0:
                q = bb // a
                for i, v in b.items():
                    w = c.get(i, 0) - q * v
                    if w:
                        c[i] = w
                    else:
                        c.pop(i, None)
            else:
                g, x, y = _xgcd(a, bb)
                aa2, bb2 = a // g, bb // g
                nb, nc = {}, {}
                for i in set(b) | set(c):
                    vb = b.get(i, 0)
                    vc = c.get(i, 0)
                    w1 = x * vb + y * vc
                    w2 = -bb2 * vb + aa2 * vc
                    if w1:
                        nb[i] = w1
                    if w2:
                        nc[i] = w2
                basis[lead] = nb
                c = nc
    # normalize: positive pivots, reduce entries of other columns at pivot rows
    for lead in sorted(basis):
        if basis[lead][lead] < 0:
            basis[lead] = {i: -v for i, v in basis[lead].items()}
    leads = sorted(basis)
    for k, lead in enumerate(leads):
        p = basis[lead][lead]
        for other in leads[:k]:
            c = basis[other]
            v = c.get(lead, 0)
            q = v // p
            if q:
                for i, w in basis[lead].items():
                    nv = c.get(i, 0) - q * w
                    if nv:
                        c[i] = nv
                    else:
                        c.pop(i, None)
    return [tuple(basis[lead].get(i, 0) for i in range(dim)) for lead in leads]


def in_lattice(basis_cols, vec):
    """Whether vec lies in the lattice given by echelon basis columns."""
    v = {i: x for i, x in enumerate(vec) if x}
    by_lead = {}
    for c in basis_cols:
        lead = next(i for i, x in enumerate(c) if x)
        by_lead[lead] = c
    while v:
        lead = min(v)
        c = by_lead.get(lead)
        if c is None or v[lead] % c[lead]:
            return False
        q = v[lead] // c[lead]
        for i, x in enumerate(c):
            if x:
                w = v.get(i, 0) - q * x
                if w:
                    v[i] = w
                else:
                    v.pop(i, None)
    return True


def lattice_coordinates(basis_cols, vec):
    """Coordinates of vec in the echelon basis, or None if outside."""
    v = {i: x for i, x in enumerate(vec) if x}
    coords = [0] * len(basis_cols)
    by_lead = {}
    for k, c in enumerate(basis_cols):
        lead = next(i for i, x in enumerate(c) if x)
        by_lead[lead] = (k, c)
    while v:
        lead = min(v)
        if lead not in by_lead:
            return None
        k, c = by_lead[lead]
        if v[lead] % c[lead]:
            return None
        q = v[lead] // c[lead]
        coords[k] = q
        for i, x in enumerate(c):
            if x:
                w = v.get(i, 0) - q * x
                if w:
                    v[i] = w
                else:
                    v.pop(i, None)
    return coords


def lattice_quotient_structure(dim, big_gen_cols, small_gen_cols):
    """Structure of P/L for lattices L <= P <= Z^dim given by generators."""
    from cantorext.abelian import FgAbGroup

    basis = lattice_basis(dim, big_gen_cols)
    if not basis:
        if any(any(c) for c in small_gen_cols):
            raise ValueError("small lattice not contained in big lattice")
        return FgAbGroup.trivial()
    coeff_cols = []
    for c in small_gen_cols:
        coords = lattice_coordinates(basis, c)
        if coords is None:
            raise ValueError("small lattice not contained in big lattice")
        coeff_cols.append(coords)
    r = len(basis)
    mat = ExactMatrix(r, len(coeff_cols), {
        (i, j): coeff_cols[j][i] for j in range(len(coeff_cols)) for i in range(r)
    })
    return cokernel_structure(mat)
