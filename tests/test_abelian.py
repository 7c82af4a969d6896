"""Unit tests for finitely generated abelian groups and their functors."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorext import abelian, exactla
from cantorext.abelian import AbHom, FgAbGroup
from cantorext.exactla import ExactMatrix


def trial_division_from_orders(orders, free_rank=0):
    """Canonical form through prime factorization by plain trial division."""
    primary = {}
    for n in orders:
        n = abs(n)
        if n == 0:
            free_rank += 1
            continue
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                primary.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            primary.setdefault(n, []).append(1)
    k = max((len(v) for v in primary.values()), default=0)
    factors = [1] * k
    for p, exps in primary.items():
        for i, e in enumerate(sorted(exps, reverse=True)):
            factors[k - 1 - i] *= p ** e
    return FgAbGroup(tuple(factors), free_rank)


@st.composite
def factored_orders(draw):
    """Products of small primes and of primes above the trial-division bound,
    shared between the orders of one list so the gcd refinement has work."""
    pool = (2, 3, 5, 7, 1021, 1031, 1033, 2039, 4093)
    n = 1
    for p in pool:
        n *= p ** draw(st.integers(0, 2 if p < 1024 else 3))
    return n


class TestCanonicalForm:
    def test_from_orders_canonicalizes(self):
        assert FgAbGroup.from_orders([4, 6]) == FgAbGroup((2, 12))
        assert FgAbGroup.from_orders([2, 3]) == FgAbGroup((6,))
        assert FgAbGroup.from_orders([0, 2]) == FgAbGroup((2,), 1)
        assert FgAbGroup.from_orders([1, 1]).is_trivial

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-50, 200), factored_orders()), max_size=6),
           st.integers(0, 2))
    def test_from_orders_matches_trial_division(self, orders, free_rank):
        assert FgAbGroup.from_orders(orders, free_rank) == \
            trial_division_from_orders(orders, free_rank)

    def test_from_orders_large_primes(self):
        p, q = 1_000_000_000_000_000_003, 1_000_000_007
        start = time.perf_counter()
        assert FgAbGroup.from_orders([p]) == FgAbGroup((p,))
        assert FgAbGroup.from_orders([p * q, p, 4]) == FgAbGroup((p, 4 * p * q))
        assert FgAbGroup.from_orders([p ** 2 * q, p * q ** 3]) == \
            FgAbGroup((p * q, p * q ** 3 * p))
        assert time.perf_counter() - start < 1.0

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup((4, 2))
        with pytest.raises(ValueError):
            FgAbGroup((1,))

    def test_str(self):
        assert str(FgAbGroup((2, 4), 1)) == "Z/2 + Z/4 + Z"
        assert str(FgAbGroup.free(2)) == "Z^2"
        assert str(FgAbGroup.trivial()) == "0"

    def test_order_exponent(self):
        g = FgAbGroup((2, 4))
        assert g.order() == 8 and g.exponent() == 4
        assert FgAbGroup.free(1).order() is None

    def test_json_round_trip(self):
        g = FgAbGroup((2, 4), 3)
        assert FgAbGroup.from_json_obj(g.to_json_obj()) == g


class TestTorsionDual:
    def test_torsion_part(self):
        assert abelian.torsion_part(FgAbGroup((2, 4), 3)) == FgAbGroup((2, 4))
        assert abelian.torsion_part(FgAbGroup.free(1)).is_trivial
        assert abelian.torsion_part(FgAbGroup((6,))) == FgAbGroup((6,))

    def test_dual_finite(self):
        assert abelian.dual_finite(FgAbGroup((6,))) == FgAbGroup((6,))
        assert abelian.dual_finite(FgAbGroup((2, 4))) == FgAbGroup((2, 4))
        assert abelian.dual_finite(FgAbGroup.trivial()).is_trivial
        with pytest.raises(ValueError):
            abelian.dual_finite(FgAbGroup.free(1))


class TestHom:
    def test_examples(self):
        assert abelian.hom_structure(FgAbGroup((2,)), FgAbGroup((4,))) == FgAbGroup((2,))
        assert abelian.hom_structure(FgAbGroup((2,)), FgAbGroup.free(1)).is_trivial
        assert abelian.hom_structure(
            FgAbGroup((6,)), FgAbGroup.from_orders([4, 9])
        ) == FgAbGroup((6,))

    def test_brute_force_cross_check(self):
        # count homomorphisms Z/a -> Z/b directly
        for a in (2, 4, 6):
            for b in (2, 3, 4, 9, 12):
                h = abelian.hom_structure(FgAbGroup((a,)), FgAbGroup((b,)))
                count = sum(1 for x in range(b) if (a * x) % b == 0)
                assert h.order() == count


class TestExtTor:
    def test_ext_is_dual(self):
        assert abelian.ext_z(FgAbGroup((5,))) == FgAbGroup((5,))
        assert abelian.ext_z(FgAbGroup.trivial()).is_trivial
        assert abelian.ext_z(FgAbGroup((2, 4))) == FgAbGroup((2, 4))
        with pytest.raises(ValueError):
            abelian.ext_z(FgAbGroup.free(1))

    def test_tor_examples(self):
        assert abelian.tor(FgAbGroup((4,)), FgAbGroup((6,))) == FgAbGroup((2,))
        assert abelian.tor(FgAbGroup.free(1), FgAbGroup((6,))).is_trivial
        assert abelian.tor(
            FgAbGroup((2,), 1), FgAbGroup((2,))
        ) == FgAbGroup((2,))

    def test_tor_requires_finite(self):
        with pytest.raises(ValueError):
            abelian.tor(FgAbGroup((2,)), FgAbGroup.free(1))

    def test_tor_hom_isomorphism_sampled(self):
        rng = random.Random(5)
        for _ in range(30):
            m = FgAbGroup.from_orders(
                [rng.randrange(2, 13) for _ in range(rng.randrange(0, 3))],
                rng.randrange(0, 3),
            )
            g = FgAbGroup.from_orders(
                [rng.randrange(2, 13) for _ in range(rng.randrange(1, 3))]
            )
            lhs = abelian.tor(m, g)
            rhs = abelian.hom_structure(
                abelian.dual_finite(g), abelian.torsion_part(m)
            )
            assert lhs == rhs


class TestAbHom:
    def test_relation_check(self):
        z2 = FgAbGroup((2,))
        z4 = FgAbGroup((4,))
        # Z/2 -> Z/4 must land in the 2-torsion: x -> 2x is fine, x -> x is not
        AbHom(z2, z4, ExactMatrix.from_rows([[2]]))
        with pytest.raises(ValueError):
            AbHom(z2, z4, ExactMatrix.from_rows([[1]]))

    def test_identity(self):
        g = FgAbGroup((2, 4), 1)
        h = AbHom.identity(g)
        assert h.matrix == ExactMatrix.identity(3)


class TestKerTensor:
    def test_times_two(self):
        j = AbHom(FgAbGroup.free(1), FgAbGroup.free(1), ExactMatrix.from_rows([[2]]))
        assert abelian.ker_tensor(j, FgAbGroup((4,))) == FgAbGroup((2,))

    def test_identity_map(self):
        j = AbHom.identity(FgAbGroup.free(2))
        assert abelian.ker_tensor(j, FgAbGroup((6,))).is_trivial

    def test_diagonal_embedding(self):
        j = AbHom(
            FgAbGroup.free(1), FgAbGroup.free(2), ExactMatrix.from_rows([[2], [2]])
        )
        assert abelian.ker_tensor(j, FgAbGroup((2,))) == FgAbGroup((2,))

    def test_torsion_rejected(self):
        j = AbHom.identity(FgAbGroup((2,)))
        with pytest.raises(ValueError):
            abelian.ker_tensor(j, FgAbGroup((2,)))

    def test_cokernel_cross_check_sampled(self):
        rng = random.Random(11)
        for _ in range(20):
            a = rng.randrange(1, 3)
            b = rng.randrange(a, 4)
            while True:
                mat = ExactMatrix.from_rows(
                    [[rng.randrange(-4, 5) for _ in range(a)] for _ in range(b)]
                )
                if exactla.rank(mat) == a:
                    break  # the identity needs an injective map (exact 0->K->L)
            j = AbHom(FgAbGroup.free(a), FgAbGroup.free(b), mat)
            g = FgAbGroup.from_orders([rng.randrange(2, 13)])
            coker = exactla.cokernel_structure(mat)
            lhs = abelian.ker_tensor(j, g)
            rhs = abelian.hom_structure(
                abelian.dual_finite(g), abelian.torsion_part(coker)
            )
            assert lhs == rhs


class TestDirectLimits:
    def test_identity_limit(self):
        z = FgAbGroup.free(1)
        out = abelian.direct_limit_endo(z, AbHom.identity(z))
        assert out.is_finitely_generated and out.group == z

    def test_doubling_not_fg(self):
        z = FgAbGroup.free(1)
        phi = AbHom(z, z, ExactMatrix.from_rows([[2]]))
        out = abelian.direct_limit_endo(z, phi)
        assert not out.is_finitely_generated
        basis, endo = out.witness
        assert endo == ExactMatrix.from_rows([[2]])

    def test_morse_eventual_image(self):
        # Z^2 / R Z^2 = (Z/2)^2 with the induced map (x, y) -> (0, x + y)
        c = FgAbGroup((2, 2))
        phi = AbHom(c, c, ExactMatrix.from_rows([[0, 0], [1, 1]]))
        out = abelian.direct_limit_endo(c, phi)
        assert out.is_finitely_generated and out.group == FgAbGroup((2,))

    def test_trivial_group(self):
        c = FgAbGroup.trivial()
        out = abelian.direct_limit_endo(c, AbHom.identity(c))
        assert out.is_finitely_generated and out.group.is_trivial

    def test_lattice_preservation_enforced(self):
        # the shear does not preserve the lattice spanned by (2, 0)
        with pytest.raises(ValueError):
            abelian.direct_limit_lattice(
                2,
                [(2, 0)],
                ExactMatrix.from_rows([[1, 0], [1, 1]]),
                cap=10,
            )
