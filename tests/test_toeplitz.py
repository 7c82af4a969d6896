"""Unit tests for Toeplitz windows over finite groups."""

from fractions import Fraction

import pytest

from cantorext import groups, toeplitz
from cantorext.exactla import CapExceeded
from cantorext.groups import FiniteGroup


def val2(n):
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


class TestGenerateWindow:
    def test_z2_hand_example(self):
        g = groups.builtin("Z2")
        w = toeplitz.generate_window(g, (0, 1), 3)
        assert w.values == (0, 1, 0, 1, 0, 1, 0, 1)
        assert w.stage_values[:2] == (0, 1)
        # g_2: a = w0+w1+w2 = 1, b = w0 = 0, target u_0 = 0, so g_2 = 1
        assert w.stage_values[2] == 1

    def test_trivial_group(self):
        g = FiniteGroup([[0]])
        w = toeplitz.generate_window(g, (0,), 4)
        assert set(w.values) == {0}

    def test_fill_stages(self):
        g = groups.builtin("S3")
        w = toeplitz.generate_window(g, tuple(range(6)), 6)
        for i, s in enumerate(w.stage_of):
            assert s == val2(i + 1)
        # periodicity: one value per stage
        for k in range(w.depth):
            vals = {w.values[i] for i in range(len(w)) if w.stage_of[i] == k}
            assert vals == {w.stage_values[k]}

    def test_enumeration_validated(self):
        g = groups.builtin("Z3")
        with pytest.raises(ValueError):
            toeplitz.generate_window(g, (1, 0, 2), 3)  # identity not first
        with pytest.raises(ValueError):
            toeplitz.generate_window(g, (0, 1), 3)  # not a bijection

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            toeplitz.generate_window(groups.builtin("Z2"), (0, 1), 1)

    def test_window_cap(self):
        z2 = groups.builtin("Z2")
        assert len(toeplitz.generate_window(z2, (0, 1), 12)) == 1 << 12
        with pytest.raises(CapExceeded) as exc:
            toeplitz.generate_window(z2, (0, 1), 10**12)
        assert (exc.value.size, exc.value.cap) == (10**12, 22)


class TestConstructionIdentity:
    def test_all_builtins_shallow(self):
        for name in groups.BUILTIN_NAMES:
            g = groups.builtin(name)
            w = toeplitz.generate_window(g, tuple(range(g.order)), 7)
            assert toeplitz.construction_identity_holds(w), name


class TestCocycleProduct:
    def test_identity_at_zero(self):
        g = groups.builtin("S3")
        w = toeplitz.generate_window(g, tuple(range(6)), 5)
        assert toeplitz.cocycle_product(w, 0) == 0

    def test_z2_values(self):
        g = groups.builtin("Z2")
        w = toeplitz.generate_window(g, (0, 1), 5)
        assert toeplitz.cocycle_product(w, 2) == 1
        assert toeplitz.cocycle_product(w, 4) == 0

    def test_range_checked(self):
        g = groups.builtin("Z2")
        w = toeplitz.generate_window(g, (0, 1), 3)
        with pytest.raises(ValueError):
            toeplitz.cocycle_product(w, 9)

    def test_newest_left_order(self):
        g = groups.builtin("S3")
        w = toeplitz.generate_window(g, tuple(range(6)), 5)
        for t in (3, 5, 8):
            acc = 0
            for i in range(t):
                acc = g.mul[w.values[i]][acc]
            assert toeplitz.cocycle_product(w, t) == acc


class TestEssentialValues:
    def test_z2_example(self):
        g = groups.builtin("Z2")
        assert toeplitz.essential_values_check(g, (0, 1), 5, 4) == {0, 1}

    def test_trivial_group(self):
        g = FiniteGroup([[0]])
        assert toeplitz.essential_values_check(g, (0,), 5, 4) == {0}

    def test_s3_lex_enumeration(self):
        g = groups.builtin("S3")
        realized = toeplitz.essential_values_check(g, tuple(range(6)), 9, 8)
        assert realized == set(range(6))

    def test_depth_precondition(self):
        g = groups.builtin("S5")
        with pytest.raises(ValueError):
            toeplitz.essential_values_check(g, tuple(range(120)), 8, 4)
        with pytest.raises(CapExceeded):
            toeplitz.essential_values_check(g, tuple(range(120)), 10**12, 4)


class TestDefaultEnumeration:
    def test_starts_with_identity_and_is_bijective(self):
        for name in ("Z5", "S4", "Q8"):
            g = groups.builtin(name)
            enum = toeplitz.default_enumeration(g)
            assert enum[0] == 0
            assert sorted(enum) == list(range(g.order))

    def test_deterministic(self):
        g = groups.builtin("Z12")
        assert toeplitz.default_enumeration(g) == toeplitz.default_enumeration(g)

    def test_canonical_depth(self):
        assert toeplitz.canonical_depth(2) == 9
        assert toeplitz.canonical_depth(24) == 10
        assert toeplitz.canonical_depth(120) == 12


def quadratic_greedy_order(group):
    """The greedy order by brute force: at every step, the first remaining
    element whose addition strictly enlarges the generated subgroup."""
    chosen = [0]
    remaining = list(range(1, group.order))
    while remaining:
        current = group.subgroup_closure(chosen[1:]) if len(chosen) > 1 else [0]
        pick = None
        for e in remaining:
            if len(group.subgroup_closure(chosen[1:] + [e])) > len(current):
                pick = e
                break
        if pick is None:
            pick = remaining[0]
        chosen.append(pick)
        remaining.remove(pick)
    return tuple(chosen)


class TestGreedyClosureOrder:
    @pytest.mark.parametrize("name", groups.BUILTIN_NAMES)
    def test_matches_quadratic_oracle(self, name):
        g = groups.builtin(name)
        assert toeplitz._greedy_closure_order(g) == quadratic_greedy_order(g)


class TestRegularity:
    def test_densities(self):
        g = groups.builtin("Z3")
        w = toeplitz.generate_window(g, (0, 1, 2), 6)
        profile = toeplitz.regularity_profile(w)
        assert profile[0] == Fraction(1, 2)
        assert profile[1] == Fraction(3, 4)
        for k, d in enumerate(profile):
            assert d == 1 - Fraction(1, 2 ** (k + 1))
