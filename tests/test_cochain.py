"""Unit tests for the invariant chain complex and its cohomology."""

from collections import deque

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


class LastCodeReplaced(list):
    """Representative codes whose iteration, which the row kernel reads,
    yields the code at ``source`` in place of the last one, while indexing
    (``OrbitStructure.rep``) does not.  The row at ``source`` must differ
    from the last row, or the replacement goes unseen."""

    def __init__(self, codes, source):
        super().__init__(codes)
        self.source = source

    def __iter__(self):
        yield from self[:-1]
        yield self[self.source]


def test_level_above_m_is_never_built(monkeypatch):
    # H^3 over the non-regular K = D4/<5>: rank(d_3) comes from the transfer,
    # so level 4, which holds the rows of d_3, is never built, and rank(d_2)
    # is n_2, so level 1 is not built either
    d4 = groups.builtin("D4")
    k = coset_space(d4, [5])
    assert not k.is_regular
    built = []

    class Recorded(groups.OrbitStructure):
        def __init__(self, space, n, cap):
            built.append(n)
            super().__init__(space, n, cap)

    monkeypatch.setattr(cochain, "OrbitStructure", Recorded)
    assert cochain.homology_at(k, 3) == FgAbGroup((2, 2))
    assert sorted(built) == [2, 3]

    class Corrupted(groups.OrbitStructure):
        def __init__(self, space, n, cap):
            super().__init__(space, n, cap)
            if n == 3:
                # the first rows of d_2 equal the last, {0: 1}; row 4 does not
                self._reps = LastCodeReplaced(self._reps, 4)

    # level 3 holds the rows of d_2, which are still generated and validated
    monkeypatch.setattr(cochain, "OrbitStructure", Corrupted)
    with pytest.raises(AssertionError, match="representative choice"):
        cochain.homology_at(k, 3)


def test_rows_no_prime_reads_are_validated(monkeypatch):
    # K = S3/<(0 1)> at level 4: H is 0, so both primes of |S3| certify d_3
    # before its last row (8 of 14 rows read); the rest is still validated
    s3 = groups.builtin("S3")
    k = coset_space(s3, [s3.element_of_perm((1, 0, 2))])
    read = []
    real_counts = exactla.local_invariant_counts

    def local_invariant_counts(rows, p, e, stop):
        def counted():
            for row in rows:
                read.append(p)
                yield row
        return real_counts(counted(), p, e, stop)

    monkeypatch.setattr(exactla, "local_invariant_counts", local_invariant_counts)
    assert cochain.homology_at(k, 4).is_trivial
    assert 0 < read.count(2) < groups.OrbitStructure(k, 4).count

    class Corrupted(groups.OrbitStructure):
        def __init__(self, space, n, cap):
            super().__init__(space, n, cap)
            if n == 4:
                # the first and last rows of d_3 are both zero; row 1 is not
                self._reps = LastCodeReplaced(self._reps, 1)

    monkeypatch.setattr(cochain, "OrbitStructure", Corrupted)
    with pytest.raises(AssertionError, match="representative choice"):
        cochain.homology_at(k, 4)


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
def no_elimination(monkeypatch):
    """Make the local counts, the exact torsion fallback and OrbitStructure raise."""

    def fail(*args, **kwargs):
        raise AssertionError("elimination or orbit structure reached")

    monkeypatch.setattr(exactla, "local_invariant_counts", fail)
    monkeypatch.setattr(exactla, "snf_diagonal", fail)
    monkeypatch.setattr(cochain, "OrbitStructure", fail)


@pytest.fixture
def exact_torsion_fallback_raises(monkeypatch):
    """Make exactla.snf_diagonal, the exact torsion fallback of homology_at, raise."""

    def snf_diagonal(m):
        raise AssertionError("exact torsion fallback reached")

    monkeypatch.setattr(exactla, "snf_diagonal", snf_diagonal)


class TestCertifiedRank:
    def test_torsion_levels_certify(self, exact_torsion_fallback_raises):
        d4 = groups.builtin("D4")
        assert cochain.group_cohomology(d4, 3) == FgAbGroup((2,))
        # non-regular K = D4/<5>
        assert cochain.relative_cohomology_isometric(d4, [5], 0) == FgAbGroup((2, 2))

    def test_free_level_eliminates_nothing(self, no_elimination):
        # H^0 = Z is free, the one level the transfer leaves open: level 1 has
        # one orbit, the constants, so d_1 = 0 and nothing is built
        assert cochain.group_cohomology(groups.builtin("D4"), 0) == FgAbGroup.free(1)

    def test_count_below_bound_falls_back(self, monkeypatch):
        # one invariant factor fewer than U: the local counts do not certify
        # rank(d_(m-1)), and the exact snf_diagonal decides
        real_counts, real_snf = exactla.local_invariant_counts, exactla.snf_diagonal
        exact_calls = []

        def short_counts(rows, p, e, stop):
            counts = real_counts(rows, p, e, stop)
            counts[0] -= 1
            return counts

        def snf_diagonal(m):
            exact_calls.append(m.rows)
            return real_snf(m)

        monkeypatch.setattr(exactla, "local_invariant_counts", short_counts)
        monkeypatch.setattr(exactla, "snf_diagonal", snf_diagonal)
        q8 = groups.builtin("Q8")
        assert cochain.group_cohomology(q8, 2) == FgAbGroup((2, 2))
        # one exact elimination, of d_2, whose rows are the orbits of level 3
        assert exact_calls == [groups.OrbitStructure(coset_space(q8, []), 3).count]

    def test_trivial_group_eliminates_nothing(self, no_elimination):
        # |G| = 1 has no prime, and by the transfer it annihilates every
        # level m >= 2: the answer is 0 with nothing built
        trivial = groups.FiniteGroup([[0]])
        for n in range(1, 5):
            assert cochain.group_cohomology(trivial, n).is_trivial


# Every class of job in the group and relative cohomology benchmark decks:
# (group, n) for H^n(G), and (group, subgroup generators, n) for H^n(X|Y).
DECK_REGULAR = (
    ("S4", 2), ("Q8", 3), ("D4", 3), ("Z5", 4), ("A4", 2), ("Z4", 4), ("Z6", 3),
    ("S3", 3), ("Z12", 2), ("Z11", 2), ("Z5", 3), ("Z10", 2), ("Z9", 2), ("D4", 2),
    ("Z7", 2), ("Q8", 2), ("Z8", 2), ("Z3", 4), ("Z4", 3), ("Z6", 2), ("S3", 2),
    ("Z5", 2), ("Z2", 4), ("Z3", 3), ("Z2", 2), ("Z3", 2), ("Z4", 2), ("Z2", 3),
)
DECK_H1 = ("S5", "A5", "S4", "A4", "S3", "Z12", "Z11", "Z9", "D4", "Q8", "Z10")
DECK_RELATIVE = (
    ("A5", (3,), 0), ("S5", (33,), 0), ("A5", (1,), 0), ("S5", (1, 2), 0),
    ("S4", (3,), 1), ("S4", (7, 16), 1), ("Z12", (6,), 1), ("S5", (1, 16), 0),
    ("A5", (3, 8), 0), ("S4", (1,), 0), ("S4", (7,), 0), ("S5", (7, 26), 0),
    ("A4", (3,), 1), ("A5", (16,), 0), ("S5", (3, 7), 0), ("S5", (1, 26), 0),
    ("S4", (9,), 1), ("A5", (1, 12), 0), ("A5", (3, 13), 1), ("S5", (7, 32), 1),
    ("S4", (1, 6), 1), ("S5", (1, 8), 1), ("Z12", (4,), 1), ("Z8", (4,), 1),
    ("D4", (5,), 1), ("S4", (3,), 0), ("A5", (1, 3), 1), ("Q8", (1,), 1),
    ("Z12", (6,), 0), ("D4", (2,), 1), ("D4", (1,), 1), ("S4", (1, 2), 1),
    ("S4", (9,), 0), ("A5", (3, 13), 0), ("A4", (1,), 1), ("A4", (3,), 0),
    ("Z8", (4,), 0), ("Q8", (1,), 0), ("D4", (5,), 0), ("S5", (1, 8), 0),
    ("S5", (7, 32), 0), ("Z12", (4,), 0), ("S3", (), 0), ("Q8", (), 0),
    ("D4", (), 0), ("Z4", (), 0), ("Z6", (), 1), ("A4", (), 0), ("Z3", (), 1),
)


def deck_answers():
    out = {}
    for name, n in DECK_REGULAR:
        out[(name, n)] = cochain.group_cohomology(groups.builtin(name), n)
    for name, gens, n in DECK_RELATIVE:
        out[(name, gens, n)] = cochain.relative_cohomology_isometric(
            groups.builtin(name), list(gens), n)
    return out


def test_deck_jobs_certify_and_match_the_exact_path(monkeypatch):
    real_snf = exactla.snf_diagonal
    monkeypatch.setattr(exactla, "snf_diagonal", lambda m: pytest.fail("torsion fallback"))
    certified = deck_answers()
    # the oracle: every torsion step forced onto the exact snf_diagonal
    monkeypatch.setattr(exactla, "snf_diagonal", real_snf)
    monkeypatch.setattr(exactla, "local_invariant_counts", lambda rows, p, e, stop: [])
    assert certified == deck_answers()


@pytest.mark.parametrize("name", DECK_H1)
def test_deck_h1_reaches_the_torsion_fallback(name, no_elimination):
    # the torsion fallback is no longer reached, nor anything else: level 2
    # is ker(d_2) since d_1 = 0, free and, by the transfer, torsion, so 0
    assert cochain.group_cohomology(groups.builtin(name), 1).is_trivial


DEEP_JOBS = [
    ("Q8", 4, (8,)),
    ("S3", 4, (6,)),
    ("D4", 4, (2, 2, 4)),
    ("A4", 3, (2,)),
    ("S4", 3, (2,)),
    pytest.param("Z12", 4, (12,), marks=pytest.mark.slow),
    pytest.param("A4", 4, (6,), marks=pytest.mark.slow),
]


@pytest.mark.parametrize("name, n, factors", DEEP_JOBS)
def test_deep_jobs(name, n, factors, exact_torsion_fallback_raises):
    assert cochain.group_cohomology(groups.builtin(name), n) == FgAbGroup(factors)


# (group, subgroup generators, level m) of every job class above whose rank of
# d_m homology_at takes from the transfer: the decks and the non-slow deep
# jobs, each distinct (K, m) once
TRANSFER_LEVELS = list(dict.fromkeys(
    [(name, (), n + 1) for name, n in DECK_REGULAR]
    + [(name, gens, n + 3) for name, gens, n in DECK_RELATIVE]
    + [(name, (), n + 1) for name, n, _ in (j for j in DEEP_JOBS if not hasattr(j, "marks"))]
))


# a prime above the order of every group the closure cap admits
RANK_PRIME = 1_073_741_789


@pytest.mark.parametrize("name, gens, m", TRANSFER_LEVELS, ids=[
    f"{name}<{','.join(map(str, gens))}>-m{m}" for name, gens, m in TRANSFER_LEVELS])
def test_transfer_gives_the_rank_of_d_m(name, gens, m):
    # the old runtime certificate, kept as an oracle: since d_m . d_(m-1) = 0,
    # rank(d_m) <= U = n_m - rank(d_(m-1)), and a rank mod p never exceeds
    # the rational rank, so reaching U mod p proves rank(d_m) = U, that is a
    # free rank of 0 at level m; the rows of d_m are streamed, and on
    # non-regular K every one of them is validated, as differential_matrix does
    k = coset_space(groups.builtin(name), list(gens))
    d_prev = cochain.differential_matrix(k, m - 1)
    rank_prev = len(exactla._sparse_echelon(d_prev))
    # the Euler sum homology_at takes for rank(d_(m-1)) is that exact rank
    assert cochain._euler_rank(k, m, d_prev.cols) == rank_prev
    src, dst = groups.OrbitStructure(k, m), groups.OrbitStructure(k, m + 1)
    bound = src.count - rank_prev
    rows = cochain._differential_rows(k, src, dst)
    assert exactla._stream_pivots(rows, RANK_PRIME, RANK_PRIME, bound, ({}, {})) == bound
    if not k.is_regular:
        deque(rows, maxlen=0)


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
