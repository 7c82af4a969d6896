"""Unit tests for Toeplitz windows over finite groups."""

import dataclasses
import random
from fractions import Fraction

import pytest

from cantorext import groups, toeplitz
from cantorext.exactla import CapExceeded
from cantorext.groups import FiniteGroup


def cocycle_product(w, t):
    """omega(t-1) . omega(t-2) ... omega(0); identity for t = 0."""
    if not 0 <= t <= len(w):
        raise ValueError(f"t must lie in [0, {len(w)}]")
    acc = 0
    for i in range(t):
        acc = w.group.mul[w.values[i]][acc]
    return acc


def regularity_profile(w):
    """Density (as an exact Fraction) of positions filled by stages <= k, k < depth."""
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
        assert cocycle_product(w, 0) == 0

    def test_z2_values(self):
        g = groups.builtin("Z2")
        w = toeplitz.generate_window(g, (0, 1), 5)
        assert cocycle_product(w, 2) == 1
        assert cocycle_product(w, 4) == 0

    def test_range_checked(self):
        g = groups.builtin("Z2")
        w = toeplitz.generate_window(g, (0, 1), 3)
        with pytest.raises(ValueError):
            cocycle_product(w, 9)

    def test_newest_left_order(self):
        g = groups.builtin("S3")
        w = toeplitz.generate_window(g, tuple(range(6)), 5)
        for t in (3, 5, 8):
            acc = 0
            for i in range(t):
                acc = g.mul[w.values[i]][acc]
            assert cocycle_product(w, t) == acc


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

    def test_refuse_check_depth(self):
        g = groups.builtin("S5")
        toeplitz.refuse_check_depth(g, 9)
        with pytest.raises(ValueError, match="depth must be >= 2"):
            toeplitz.refuse_check_depth(g, 1)
        with pytest.raises(toeplitz.CheckDepthError):
            toeplitz.refuse_check_depth(g, 8)
        with pytest.raises(CapExceeded):
            toeplitz.refuse_check_depth(g, 10**12)

    def test_agree_radius_range(self):
        w = toeplitz.generate_window(groups.builtin("Z2"), (0, 1), 5)
        assert toeplitz.essential_values(w, 16) <= {0, 1}
        for radius in (-1, 17):
            with pytest.raises(ValueError, match="agree_radius"):
                toeplitz.essential_values(w, radius)


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
        profile = regularity_profile(w)
        assert profile[0] == Fraction(1, 2)
        assert profile[1] == Fraction(3, 4)
        for k, d in enumerate(profile):
            assert d == 1 - Fraction(1, 2 ** (k + 1))


def oracle_window(group, enumeration, m):
    """The stride fill, every prefix product recomputed from position 0."""
    size = 1 << m
    values = [None] * size
    stage_of = [None] * size
    stage_values = []

    def prefix_product(upto):
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
            u = enumeration[k % group.order]
            g = group.mul[group.mul[group.inv[a]][u]][group.inv[b]]
        stage_values.append(g)
        for pos in range((1 << k) - 1, size, 1 << (k + 1)):
            assert values[pos] is None
            values[pos] = g
            stage_of[pos] = k
    assert None not in values
    return tuple(values), tuple(stage_of), tuple(stage_values)


def oracle_identity(w):
    """a_k g_k b_k = u_(k mod N), each prefix product recomputed from position 0."""
    mul = w.group.mul

    def product(upto):
        acc = 0
        for i in range(upto + 1):
            acc = mul[acc][w.values[i]]
        return acc

    n = len(w.enumeration)
    for k in range(w.depth + 1):
        a = product((1 << k) - 2)
        b = product((1 << (k - 1)) - 2) if k >= 1 else 0
        if mul[mul[a][w.stage_values[k]]][b] != w.enumeration[k % n]:
            return False
    return True


def oracle_essential_values(w, agree_radius):
    """Cocycle products over the shifts t <= 2^(m-1), one all(...) scan per shift."""
    vals = w.values
    limit = len(w) // 2
    products = [0]
    for v in vals[:limit]:
        products.append(w.group.mul[v][products[-1]])
    return {products[t] for t in range(limit + 1)
            if all(vals[i + t] == vals[i] for i in range(agree_radius))}


def oracle_enumerations(g):
    """Lexicographic, greedy and two seeded shuffles."""
    enums = [tuple(range(g.order)), toeplitz._greedy_closure_order(g)]
    for seed in (1, 2):
        rest = list(range(1, g.order))
        random.Random(seed).shuffle(rest)
        enums.append(tuple([0] + rest))
    return enums


class TestAgainstOracles:
    def assert_matches(self, g, enum, m):
        w = toeplitz.generate_window(g, enum, m)
        assert (w.values, w.stage_of, w.stage_values) == oracle_window(g, enum, m)
        assert toeplitz.construction_identity_holds(w) and oracle_identity(w)
        if (1 << m) <= 4 * g.order:
            with pytest.raises(toeplitz.CheckDepthError):
                toeplitz.essential_values(w, 4)
            return
        for radius in (0, 1, 4, 8, len(w) // 2):  # len(w) // 2 = 2^(m-1), the largest allowed
            assert toeplitz.essential_values(w, radius) == oracle_essential_values(w, radius)
        assert toeplitz.essential_values_check(g, enum, m, 4) == oracle_essential_values(w, 4)

    @pytest.mark.parametrize("name", groups.BUILTIN_NAMES)
    def test_builtin_windows(self, name):
        g = groups.builtin(name)
        for enum in oracle_enumerations(g):
            for m in range(2, 13):
                self.assert_matches(g, enum, m)

    def test_group_above_one_byte(self):
        # S6, order 720: element indices above 255 take code points above one byte
        g = groups.from_permutations(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
        assert g.order == 720
        for enum in oracle_enumerations(g)[::2]:
            for m in (2, 11, 12, 13):
                self.assert_matches(g, enum, m)
        assert max(toeplitz.generate_window(g, oracle_enumerations(g)[2], 13).values) > 255

    def test_deep_window(self):
        g = groups.builtin("A5")
        self.assert_matches(g, oracle_enumerations(g)[2], 16)

    def test_changed_stage_value_fails_identity(self):
        g = groups.builtin("S3")
        w = toeplitz.generate_window(g, tuple(range(6)), 8)
        for k in range(w.depth + 1):
            for other in set(range(g.order)) - {w.stage_values[k]}:
                stage_values = w.stage_values[:k] + (other,) + w.stage_values[k + 1:]
                bad = dataclasses.replace(w, stage_values=stage_values)
                assert not toeplitz.construction_identity_holds(bad)
                assert not oracle_identity(bad)

    def test_changed_value_fails_identity(self):
        # position 2^k - 1 lies in the prefix a_(k+1): the check reads the
        # window itself, not the products that built it
        g = groups.builtin("S3")
        w = toeplitz.generate_window(g, tuple(range(6)), 8)
        for k in range(w.depth):
            pos = (1 << k) - 1
            values = list(w.values)
            values[pos] = g.mul[values[pos]][1]
            bad = dataclasses.replace(w, values=tuple(values))
            assert not toeplitz.construction_identity_holds(bad)
            assert not oracle_identity(bad)
