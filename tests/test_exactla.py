"""Unit tests for the exact integer linear algebra layer."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorext import exactla
from cantorext.exactla import ExactMatrix


def same_lattice(dim, cols_a, cols_b):
    return exactla.lattice_basis(dim, cols_a) == exactla.lattice_basis(dim, cols_b)


class TestExactMatrix:
    def test_dense_sparse_equality(self):
        a = ExactMatrix.from_rows([[1, 0], [0, 2]])
        b = ExactMatrix(2, 2, {(0, 0): 1, (1, 1): 2})
        assert a == b
        assert hash(a) == hash(b)

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(1, 1, {(1, 0): 1})

    def test_matmul_apply_transpose(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        b = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert a.matmul(b) == ExactMatrix.from_rows([[2, 1], [4, 3]])
        assert a.apply((1, 1)) == (3, 7)
        assert a.transpose() == ExactMatrix.from_rows([[1, 3], [2, 4]])

    def test_hstack_columns(self):
        a = ExactMatrix.from_rows([[1], [2]])
        b = ExactMatrix.from_rows([[3], [4]])
        assert a.hstack(b) == ExactMatrix.from_rows([[1, 3], [2, 4]])
        assert a.hstack(b).columns() == [(1, 2), (3, 4)]

    def test_json_round_trip(self):
        a = ExactMatrix.from_rows([[2, -2], [0, 2]])
        assert ExactMatrix.from_json_obj(a.to_json_obj()) == a
        # entries are serialized as decimal strings, safe for huge integers
        big = ExactMatrix.from_rows([[10**30]])
        obj = big.to_json_obj()
        assert obj["entries"][0][0] == str(10**30)
        assert ExactMatrix.from_json_obj(obj) == big


class TestSmithForm:
    def test_identity(self):
        s = exactla.snf(ExactMatrix.identity(2))
        assert s.diagonal() == [1, 1]

    def test_morse_map(self):
        s = exactla.snf(ExactMatrix.from_rows([[2, -2], [0, 2]]))
        assert s.diagonal() == [2, 2]

    def test_divisibility(self):
        s = exactla.snf(ExactMatrix.from_rows([[2, 4], [6, 8]]))
        assert s.diagonal() == [2, 4]

    def test_transform_identity(self):
        m = ExactMatrix.from_rows([[2, 4], [6, 8]])
        s = exactla.snf(m)
        assert s.u.matmul(m).matmul(s.v) == s.d
        assert exactla.determinant(s.u) in (1, -1)
        assert exactla.determinant(s.v) in (1, -1)

    def test_snf_diagonal_matches_snf(self):
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randrange(1, 5)
            c = rng.randrange(1, 5)
            m = ExactMatrix.from_rows(
                [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
            )
            dense = [abs(x) for x in exactla.snf(m).diagonal() if x]
            assert exactla.snf_diagonal(m) == sorted(dense)


class TestKernel:
    def test_sum_map(self):
        ker = exactla.kernel_basis(ExactMatrix.from_rows([[1, 1]]))
        assert same_lattice(2, ker, [(1, -1)])

    def test_injective(self):
        assert exactla.kernel_basis(ExactMatrix.identity(2)) == []

    def test_zero_map(self):
        ker = exactla.kernel_basis(ExactMatrix.zero(1, 2))
        assert same_lattice(2, ker, [(1, 0), (0, 1)])

    def test_saturation(self):
        # kernel of [2 2] is spanned by (1,-1), not (2,-2)
        ker = exactla.kernel_basis(ExactMatrix.from_rows([[2, 2]]))
        assert same_lattice(2, ker, [(1, -1)])


class TestCokernel:
    def test_morse_map(self):
        g = exactla.cokernel_structure(ExactMatrix.from_rows([[2, -2], [0, 2]]))
        assert g.invariant_factors == (2, 2)
        assert g.free_rank == 0

    def test_unit(self):
        assert exactla.cokernel_structure(ExactMatrix.from_rows([[1]])).is_trivial

    def test_column(self):
        g = exactla.cokernel_structure(ExactMatrix.column((2, 1)))
        assert g.invariant_factors == ()
        assert g.free_rank == 1


class TestSolve:
    def test_solvable(self):
        assert exactla.solve_integer(ExactMatrix.from_rows([[2]]), (4,)) == (2,)

    def test_parity_obstruction(self):
        assert exactla.solve_integer(ExactMatrix.from_rows([[2]]), (3,)) is None

    def test_back_substitution(self):
        m = ExactMatrix.from_rows([[2, -2], [0, 2]])
        x = exactla.solve_integer(m, (2, 2))
        assert x is not None and m.apply(x) == (2, 2)

    def test_underdetermined(self):
        m = ExactMatrix.from_rows([[1, 1]])
        x = exactla.solve_integer(m, (5,))
        assert x is not None and m.apply(x) == (5,)


class TestDeterminant:
    def test_known(self):
        assert exactla.determinant(ExactMatrix.from_rows([[2, -2], [0, 2]])) == 4
        assert exactla.determinant(ExactMatrix.zero(2, 2)) == 0
        assert exactla.determinant(ExactMatrix.identity(3)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            exactla.determinant(ExactMatrix.zero(1, 2))


class TestLattices:
    def test_canonical_basis_equality(self):
        assert exactla.lattice_basis(2, [(1, -1)]) == exactla.lattice_basis(
            2, [(-1, 1), (2, -2)]
        )

    def test_membership(self):
        basis = exactla.lattice_basis(2, [(2, 0), (0, 3)])
        assert exactla.in_lattice(basis, (4, -3))
        assert not exactla.in_lattice(basis, (1, 0))

    def test_coordinates(self):
        basis = exactla.lattice_basis(2, [(2, 0), (0, 3)])
        coords = exactla.lattice_coordinates(basis, (4, -3))
        vec = [0, 0]
        for q, c in zip(coords, basis):
            vec = [a + q * b for a, b in zip(vec, c)]
        assert tuple(vec) == (4, -3)
        assert exactla.lattice_coordinates(basis, (1, 0)) is None

    def test_quotient_structure(self):
        full = [(1, 0), (0, 1)]
        g = exactla.lattice_quotient_structure(2, full, [(2, 0), (0, 3)])
        assert g.invariant_factors == (6,) and g.free_rank == 0

    def test_quotient_containment_enforced(self):
        with pytest.raises(ValueError):
            exactla.lattice_quotient_structure(2, [(2, 0)], [(1, 0)])


@st.composite
def small_matrices(draw):
    r = draw(st.integers(1, 8))
    c = draw(st.integers(1, 8))
    data = draw(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return ExactMatrix.from_rows(data)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(small_matrices())
    def test_snf_identities(self, m):
        s = exactla.snf(m)
        assert s.u.matmul(m).matmul(s.v) == s.d
        assert exactla.determinant(s.u) in (1, -1)
        assert exactla.determinant(s.v) in (1, -1)
        diag = [x for x in s.diagonal() if x]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0

    @settings(max_examples=120, deadline=None)
    @given(small_matrices())
    def test_kernel_annihilates_and_saturates(self, m):
        ker = exactla.kernel_basis(m)
        for v in ker:
            assert not any(m.apply(v))
        assert len(ker) == m.cols - exactla.rank(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_rank_agrees_with_snf(self, m):
        assert exactla.rank(m) == len([x for x in exactla.snf(m).diagonal() if x])

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_cokernel_order_vs_determinant(self, m):
        if m.rows != m.cols:
            return
        det = exactla.determinant(m)
        g = exactla.cokernel_structure(m)
        if det:
            assert g.order() == abs(det)
        else:
            assert g.free_rank > 0


@st.composite
def sparse_matrices(draw):
    """Sparse integer matrices; half are products through a narrow middle, so
    rank-deficient, and a few entries are the rank prime, which vanishes mod p."""
    values = st.one_of(st.integers(-3, 3), st.just(exactla.RANK_PRIME))

    def sparse(rows, cols):
        if not rows or not cols:
            return ExactMatrix.zero(rows, cols)
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return ExactMatrix(rows, cols, draw(
            st.dictionaries(cells, values, max_size=2 * (rows + cols))))

    r = draw(st.integers(0, 12))
    c = draw(st.integers(0, 12))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(r, c)))
        return sparse(r, k).matmul(sparse(k, c))
    return sparse(r, c)


def dense_rank_mod_p(m):
    """Rank of m mod RANK_PRIME by dense Gaussian elimination."""
    p = exactla.RANK_PRIME
    a = [[v % p for v in row] for row in m.to_rows()]
    r = 0
    for j in range(m.cols):
        i = next((i for i in range(r, m.rows) if a[i][j]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][j], -1, p)
        for i in range(r + 1, m.rows):
            f = a[i][j] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


class TestCertifiedRank:
    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    def test_bounded_rank_is_exact(self, m):
        exact = exactla.rank(m)
        mod_p = dense_rank_mod_p(m)
        assert mod_p <= exact
        # the exact rank as bound is reached unless p kills a pivot
        assert exactla.rank_reaches(m.row_dicts(), exact) == (mod_p == exact)
        assert exactla.rank_reaches(m.row_dicts(), mod_p)
        # a bound above the rank is never reached mod p
        assert not exactla.rank_reaches(m.row_dicts(), exact + 1)

    def test_certificate_failure_falls_back(self):
        # [[p]] has rank 0 mod p but rank 1 over Z: the certificate fails and
        # only the exact rank sees the pivot
        m = ExactMatrix.from_rows([[exactla.RANK_PRIME]])
        assert not exactla.rank_reaches(m.row_dicts(), 1)
        assert exactla.rank(m) == 1

    def test_stops_at_bound(self):
        def rows():
            yield {0: 1}
            yield {0: 2}  # dependent: the rank stays 1
            yield {1: 3}
            raise AssertionError("read past the row that reaches the bound")

        assert exactla.rank_reaches(rows(), 2)

    def test_rank_prime(self):
        p = exactla.RANK_PRIME
        assert p < 1 << 30
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))
