"""Unit tests for the invariant chain complex and its cohomology."""

import pytest

from cantorext import cochain, exactla, groups
from cantorext.abelian import FgAbGroup
from cantorext.exactla import CapExceeded, ExactMatrix
from cantorext.groups import coset_space


class TestDifferential:
    def test_d1_is_zero_on_regular_z2(self):
        k = coset_space(groups.builtin("Z2"), [])
        d1 = cochain.differential_matrix(k, 1)
        assert d1.rows == 2 and d1.cols == 1 and d1.nnz == 0

    def test_single_point_alternates(self):
        g = groups.builtin("S3")
        k = coset_space(g, [1, 2, 3, 4, 5])
        for n in range(1, 5):
            d = cochain.differential_matrix(k, n)
            assert (d.rows, d.cols) == (1, 1)
            assert d[0, 0] == (1 if n % 2 == 0 else 0)

    def test_z2_d2_against_direct_evaluation(self):
        k = coset_space(groups.builtin("Z2"), [])
        d2 = cochain.differential_matrix(k, 2)
        assert (d2.rows, d2.cols) == (4, 2)
        # boundary of each 3-tuple orbit evaluated by hand on representatives
        # reps of K^3 orbits: (0,x,y); faces with signs +,-,+ land in K^2 orbits
        src = groups.OrbitStructure(k, 2)
        dst = groups.OrbitStructure(k, 3)
        for i, rep in enumerate(dst.reps()):
            acc = {}
            sign = 1
            for j in range(3):
                face = rep[:j] + rep[j + 1:]
                o = src.index(face)
                acc[o] = acc.get(o, 0) + sign
                sign = -sign
            for o in range(src.count):
                assert d2[i, o] == acc.get(o, 0)

    def test_composition_is_zero(self):
        s3 = groups.builtin("S3")
        transposition = [s3.element_of_perm((1, 0, 2))]
        three_cycle = [s3.element_of_perm((1, 2, 0))]
        spaces = [
            coset_space(groups.builtin("Z3"), []),
            coset_space(s3, []),
            coset_space(groups.builtin("Z2"), [1]),
            coset_space(s3, transposition),
            coset_space(s3, three_cycle),
        ]
        for k in spaces:
            diffs = [cochain.differential_matrix(k, m) for m in range(1, 5)]
            for a, b in zip(diffs, diffs[1:]):
                assert b.matmul(a).nnz == 0

    def test_representative_independence_on_cosets(self):
        g = groups.builtin("S3")
        k = coset_space(g, [g.element_of_perm((1, 0, 2))])
        # validation is on by default for non-regular spaces; must not raise
        cochain.differential_matrix(k, 2)


def face_entries_oracle(k, n):
    """d_n built by slicing each representative tuple, one face at a time."""
    src = groups.OrbitStructure(k, n)
    dst = groups.OrbitStructure(k, n + 1)
    entries = {}
    for i, rep in enumerate(dst.reps()):
        sign = 1
        for j in range(len(rep)):
            o = src.index(rep[:j] + rep[j + 1:])
            entries[(i, o)] = entries.get((i, o), 0) + sign
            sign = -sign
    return ExactMatrix(dst.count, src.count, entries)


def test_differential_matches_tuple_slicing_oracle():
    for name in groups.BUILTIN_NAMES:
        g = groups.builtin(name)
        for h in ([], [1], range(1, g.order)):
            k = coset_space(g, h)
            for n in range(1, 7):
                if k.size ** n > 20_000:
                    break
                assert cochain.differential_matrix(k, n) == face_entries_oracle(k, n), \
                    (name, len(k.subgroup), n)


class LastCodeSwapped(list):
    """Representative codes whose iteration, which the row kernel reads,
    yields a wrong last code, while indexing (``OrbitStructure.rep``) does not."""

    def __iter__(self):
        yield from self[:-1]
        yield self[0]


def test_rows_after_early_exit_are_validated(monkeypatch):
    # d_3 over the non-regular K = D4/<5>, whose rank is certified early
    d4 = groups.builtin("D4")
    k = coset_space(d4, [5])
    assert not k.is_regular
    streamed = []
    real_reaches = exactla.rank_reaches

    def rank_reaches(rows, bound):
        def counted():
            for row in rows:
                streamed.append(row)
                yield row
        return real_reaches(counted(), bound)

    monkeypatch.setattr(exactla, "rank_reaches", rank_reaches)
    assert cochain.homology_at(k, 3) == FgAbGroup((2, 2))
    assert 0 < len(streamed) < groups.OrbitStructure(k, 4).count

    class Corrupted(groups.OrbitStructure):
        def __init__(self, space, n, cap):
            super().__init__(space, n, cap)
            if n == 4:
                self._reps = LastCodeSwapped(self._reps)

    monkeypatch.setattr(cochain, "OrbitStructure", Corrupted)
    with pytest.raises(AssertionError, match="representative choice"):
        cochain.homology_at(k, 3)


class TestHomologyAt:
    def test_level_one_is_z(self):
        k = coset_space(groups.builtin("Z3"), [])
        assert cochain.homology_at(k, 1) == FgAbGroup.free(1)

    def test_level_two_trivial(self):
        for name in ("Z2", "Z3"):
            k = coset_space(groups.builtin(name), [])
            assert cochain.homology_at(k, 2).is_trivial

    def test_single_point_exact(self):
        g = groups.builtin("Z2")
        k = coset_space(g, [1])
        # level 1 carries the constants; the alternating chain is exact above
        assert cochain.homology_at(k, 1) == FgAbGroup.free(1)
        for m in range(2, 5):
            assert cochain.homology_at(k, m).is_trivial

    def test_level_out_of_range(self):
        k = coset_space(groups.builtin("Z2"), [])
        with pytest.raises(ValueError):
            cochain.homology_at(k, 0)

    def test_refusal_size_non_regular(self):
        # a non-regular space is still refused by its tuple count |K|^n
        g = groups.builtin("S3")
        k = coset_space(g, [g.element_of_perm((1, 0, 2))])
        with pytest.raises(CapExceeded) as exc:
            cochain.homology_at(k, 4, cap=50)
        assert (exc.value.size, exc.value.cap) == (3**4, 50)


@pytest.fixture
def exact_rank_fallback_raises(monkeypatch):
    """Make exactla.rank, the exact fallback of homology_at, raise."""

    def rank(m):
        raise AssertionError("exact rank fallback reached")

    monkeypatch.setattr(exactla, "rank", rank)


class TestCertifiedRank:
    def test_torsion_levels_certify(self, exact_rank_fallback_raises):
        d4 = groups.builtin("D4")
        assert cochain.group_cohomology(d4, 3) == FgAbGroup((2,))
        # non-regular K = D4/<5>
        assert cochain.relative_cohomology_isometric(d4, [5], 0) == FgAbGroup((2, 2))

    def test_free_level_falls_back(self, exact_rank_fallback_raises):
        # H^0 = Z is free, so the bound on d_1 is never reached mod p
        with pytest.raises(AssertionError, match="fallback"):
            cochain.group_cohomology(groups.builtin("D4"), 0)


class TestGroupCohomology:
    def test_z2_table(self):
        g = groups.builtin("Z2")
        assert cochain.group_cohomology(g, 0) == FgAbGroup.free(1)
        assert cochain.group_cohomology(g, 1).is_trivial
        assert cochain.group_cohomology(g, 2) == FgAbGroup((2,))

    def test_s3_h2(self):
        assert cochain.group_cohomology(groups.builtin("S3"), 2) == FgAbGroup((2,))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            cochain.group_cohomology(groups.builtin("Z2"), -1)

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            cochain.group_cohomology(groups.builtin("S5"), 3, cap=1000)


class TestRelativeCohomology:
    def test_z2_shift(self):
        assert cochain.relative_cohomology_isometric(
            groups.builtin("Z2"), [], 0
        ) == FgAbGroup((2,))

    def test_one_point_fiber(self):
        g = groups.builtin("S3")
        all_gens = [1, 2, 3, 4, 5]
        for n in (0, 1, 2):
            assert cochain.relative_cohomology_isometric(g, all_gens, n).is_trivial

    def test_s3_transposition_regression_pin(self):
        # recorded value of the full computation; must stay stable
        g = groups.builtin("S3")
        h = [g.element_of_perm((1, 0, 2))]
        res = cochain.relative_cohomology_isometric(g, h, 0)
        assert res.is_trivial
        # Thm 6.3 properties hold regardless of the pinned value
        assert res.free_rank == 0
        for f in res.invariant_factors:
            assert 6 % f == 0
