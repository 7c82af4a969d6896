"""Unit tests for finite groups, coset spaces, and diagonal orbits."""

from itertools import product

import pytest

from cantorext import groups
from cantorext.abelian import FgAbGroup
from cantorext.exactla import CapExceeded
from cantorext.groups import OrbitStructure, coset_space, from_permutations


BUILTIN_ORDERS = {
    **{f"Z{k}": k for k in range(2, 13)},
    "S3": 6, "S4": 24, "S5": 120, "A4": 12, "A5": 60, "D4": 8, "Q8": 8,
}


class TestFiniteGroup:
    def test_builtin_orders(self):
        for name, order in BUILTIN_ORDERS.items():
            assert groups.builtin(name).order == order

    def test_builtin_names_cover_orders(self):
        assert set(groups.BUILTIN_NAMES) == set(BUILTIN_ORDERS)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            groups.builtin("Z13")
        with pytest.raises(ValueError):
            groups.builtin("M11")

    def test_identity_and_inverses(self):
        for name in ("Z6", "S4", "Q8", "A5"):
            g = groups.builtin(name)
            for a in range(g.order):
                assert g.mul[a][0] == a and g.mul[0][a] == a
                assert g.mul[a][g.inv[a]] == 0

    def test_validation_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            groups.FiniteGroup([[0, 1], [1, 1]])  # row not a permutation
        with pytest.raises(ValueError):
            groups.FiniteGroup([[1, 0], [0, 1]])  # index 0 not the identity

    def test_from_permutations_examples(self):
        assert from_permutations(3, [(1, 0, 2), (1, 2, 0)]).order == 6
        assert from_permutations(2, [(1, 0)]).order == 2
        assert from_permutations(4, [(1, 2, 0, 3), (1, 0, 3, 2)]).order == 12

    def test_from_permutations_cap(self):
        cycle = tuple(list(range(1, 9)) + [0])
        transposition = tuple([1, 0] + list(range(2, 9)))
        with pytest.raises(CapExceeded):
            from_permutations(9, [cycle, transposition], cap=1000)

    def test_element_of_perm(self):
        g = groups.builtin("S3")
        e = g.element_of_perm((1, 0, 2))
        assert g.mul[e][e] == 0
        with pytest.raises(ValueError):
            g.element_of_perm((0, 1))

    def test_subgroup_closure(self):
        g = groups.builtin("S3")
        a3 = g.subgroup_closure([g.element_of_perm((1, 2, 0))])
        assert len(a3) == 3

    def test_commutator_conjugate(self):
        g = groups.builtin("S3")
        for a in range(6):
            for b in range(6):
                c = g.commutator(a, b)
                # ab = ba . [a,b] with the a^-1 b^-1 a b convention
                assert g.mul[g.mul[b][a]][c] == g.mul[a][b]
                assert g.conjugate(a, b) == g.mul[g.mul[a][b]][g.inv[a]]


class TestAbelianization:
    def test_examples(self):
        assert groups.abelianization(groups.builtin("S3")) == FgAbGroup((2,))
        assert groups.abelianization(groups.builtin("Z6")) == FgAbGroup((6,))
        assert groups.abelianization(groups.builtin("Q8")) == FgAbGroup((2, 2))

    def test_more_groups(self):
        assert groups.abelianization(groups.builtin("S4")) == FgAbGroup((2,))
        assert groups.abelianization(groups.builtin("A4")) == FgAbGroup((3,))
        assert groups.abelianization(groups.builtin("D4")) == FgAbGroup((2, 2))
        assert groups.abelianization(groups.builtin("A5")).is_trivial

    def test_order_divides(self):
        for name in groups.BUILTIN_NAMES:
            if name == "S5":
                continue  # covered by A5/S4; skip the big commutator scan
            g = groups.builtin(name)
            ab = groups.abelianization(g)
            assert g.order % ab.order() == 0


class TestCosetSpace:
    def test_index_two(self):
        g = groups.builtin("S3")
        k = coset_space(g, [g.element_of_perm((1, 2, 0))])
        assert k.size == 2 and not k.is_regular

    def test_index_three(self):
        g = groups.builtin("S3")
        k = coset_space(g, [g.element_of_perm((1, 0, 2))])
        assert k.size == 3
        # the action is the natural S3 action: transitive, faithful on points
        orbits = {k.action[a][0] for a in range(g.order)}
        assert orbits == set(range(3))

    def test_regular(self):
        g = groups.builtin("Z4")
        k = coset_space(g, [])
        assert k.size == 4 and k.is_regular
        assert k.act_tuple(1, (0, 2)) == (1, 3)

    def test_full_subgroup(self):
        g = groups.builtin("S3")
        k = coset_space(g, [1, 2, 3, 4, 5])
        assert k.size == 1


def brute_force_orbits(k, n):
    """Diagonal orbits on K^n by materializing every tuple and every translate.

    Returns (orbit sets ordered by smallest member, {tuple: orbit index}).
    """
    index = {}
    orbits = []
    for tup in product(range(k.size), repeat=n):
        if tup in index:
            continue
        orbit = {k.act_tuple(g, tup) for g in range(k.group.order)}
        for t in orbit:
            index[t] = len(orbits)
        orbits.append(orbit)
    return orbits, index


def oracle_spaces():
    """Every builtin group with trivial, cyclic and whole-group H."""
    for name in groups.BUILTIN_NAMES:
        g = groups.builtin(name)
        subgroups = {(0,), tuple(range(g.order))}
        subgroups.update(g.subgroup_closure([x]) for x in range(1, g.order))
        for h in sorted(subgroups):
            yield name, coset_space(g, list(h))


ORACLE_MAX_TUPLES = 20_000
ORACLE_MAX_LEVEL = 6


class TestOrbits:
    def test_z2_squared(self):
        k = coset_space(groups.builtin("Z2"), [])
        st = OrbitStructure(k, 2)
        assert list(st.reps()) == [(0, 0), (0, 1)]
        assert st.index((1, 0)) == 1 and st.index((1, 1)) == 0

    def test_transitive_single_orbit(self):
        k = coset_space(groups.builtin("S3"), [])
        assert OrbitStructure(k, 1).count == 1

    def test_s3_squared(self):
        k = coset_space(groups.builtin("S3"), [])
        assert OrbitStructure(k, 2).count == 6

    def test_burnside_cross_check(self):
        for name in ("Z4", "S3", "D4"):
            g = groups.builtin(name)
            for h_gens in ([], [1]):
                k = coset_space(g, h_gens)
                for n in (1, 2, 3):
                    if k.size**n > 5000:
                        continue
                    orbits, _ = brute_force_orbits(k, n)
                    burnside = (
                        sum(
                            sum(1 for p in range(k.size) if k.action[a][p] == p) ** n
                            for a in range(g.order)
                        )
                        // g.order
                    )
                    assert len(orbits) == burnside == OrbitStructure(k, n).count

    def test_orbit_sizes_divide_group_order(self):
        g = groups.builtin("S3")
        k = coset_space(g, [g.element_of_perm((1, 0, 2))])
        orbits, _ = brute_force_orbits(k, 2)
        for o in orbits:
            assert g.order % len(o) == 0

    def test_orbit_structure_matches_brute_force(self):
        checked = 0
        for name, k in oracle_spaces():
            for n in range(1, ORACLE_MAX_LEVEL + 1):
                if k.size**n > ORACLE_MAX_TUPLES:
                    break
                st = OrbitStructure(k, n)
                orbits, index = brute_force_orbits(k, n)
                reps = [min(o) for o in orbits]
                assert st.count == len(orbits), (name, k.subgroup, n)
                assert list(st.reps()) == reps
                assert [st.rep(i) for i in range(st.count)] == reps
                for tup, o in index.items():
                    assert st.index(tup) == o
                    assert st.canonical(tup) == reps[o]
                checked += 1
        assert checked > 100

    def test_orbit_structure_cap(self):
        k = coset_space(groups.builtin("S5"), [])
        with pytest.raises(CapExceeded):
            OrbitStructure(k, 5, cap=1000)
