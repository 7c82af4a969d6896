"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints/asserts a single criterion; run with -v to get one
pass/fail line per criterion.  Criterion 3 is marked slow and enforces an
explicit 30-minute budget: an overrun skips loudly, it never passes silently.
"""

import random
import subprocess
import sys

import pytest

from cantorext import abelian, cochain, dimlim, exactla, groups, toeplitz
from cantorext.abelian import AbHom, FgAbGroup
from cantorext.exactla import CapExceeded, ExactMatrix


def test_criterion_01_cyclic_cohomology_table():
    for k in (2, 3, 4, 6):
        g = groups.builtin(f"Z{k}")
        for n in range(5):
            h = cochain.group_cohomology(g, n)
            if n == 0:
                assert h == FgAbGroup.free(1), (k, n)
            elif n % 2 == 1:
                assert h.is_trivial, (k, n)
            else:
                assert h == FgAbGroup((k,)), (k, n)


def test_criterion_02_dual_abelianization_law():
    expected = {
        "S3": FgAbGroup((2,)),
        "S4": FgAbGroup((2,)),
        "A4": FgAbGroup((3,)),
        "D4": FgAbGroup((2, 2)),
        "Q8": FgAbGroup((2, 2)),
    }
    for name, value in expected.items():
        g = groups.builtin(name)
        h2 = cochain.group_cohomology(g, 2)
        dual_ab = abelian.dual_finite(groups.abelianization(g))
        assert h2 == dual_ab == value, name


@pytest.mark.slow
def test_criterion_03_perfect_group_vanishing():
    # run in a subprocess so the 30-minute budget is enforced preemptively;
    # an overrun skips with an explicit marker instead of passing silently
    code = (
        "from cantorext import cochain, groups\n"
        "h = cochain.group_cohomology(groups.builtin('A5'), 2)\n"
        "print('H2A5', h.invariant_factors, h.free_rank)\n"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=1800,
        )
    except subprocess.TimeoutExpired:
        pytest.skip("H^2(A5) exceeded the 30-minute budget; not verified")
    assert proc.returncode == 0, proc.stderr
    assert "H2A5 () 0" in proc.stdout


def test_criterion_04_shift_law():
    for name in ("Z2", "Z3", "S3"):
        g = groups.builtin(name)
        for n in (0, 1):
            rel = cochain.relative_cohomology_isometric(g, [], n)
            grp = cochain.group_cohomology(g, n + 2)
            assert rel == grp, (name, n)


def test_criterion_05_annihilation_and_finiteness():
    cap = 60_000
    cases = 0
    for name in groups.BUILTIN_NAMES:
        g = groups.builtin(name)
        subgroup_choices = [[], [1], [1, 2], list(range(1, g.order))]
        subgroup_choices = [
            [e for e in gens if e < g.order] for gens in subgroup_choices
        ]
        tested_this_group = False
        for gens in subgroup_choices:
            k = groups.coset_space(g, gens)
            for n in (0, 1):
                if k.size ** (n + 4) > cap:
                    continue
                h = cochain.relative_cohomology_isometric(g, gens, n, cap=cap)
                assert h.free_rank == 0, (name, gens, n)
                for f in h.invariant_factors:
                    assert g.order % f == 0, (name, gens, n, f)
                cases += 1
                tested_this_group = True
        assert tested_this_group, name
    assert cases >= 30


def test_criterion_06_morse_pipeline():
    report = dimlim.morse_report()
    assert report["intertwiner_RB_eq_AR"] == "PASS"
    assert report["intertwiner_unit"] == "PASS"
    assert report["quotient_XZ"] == "Z/2"
    assert report["quotient_ZY"] == "Z"
    assert report["quotient_XY"] == "Z"
    assert report["h0_XZ"] == "Z/2"
    assert report["h0_XY"] == "0"
    assert report["membership_check"] == "PASS"
    assert report["all_pass"] and report["failures"] == []


def test_criterion_07_morse_symbolic_checks():
    word, code, checked = dimlim.morse_window(6)
    assert word.startswith("01101001")
    assert len(word) == 64
    assert checked == 63  # cocycle identity held at every interior position
    assert code[: len(word) - 1] == "".join(
        str((int(a) + int(b)) % 2) for a, b in zip(word, word[1:])
    )


def test_criterion_08_appendix_e_suite():
    rng = random.Random(2024)
    for _ in range(50):
        m = FgAbGroup.from_orders(
            [rng.randrange(2, 13) for _ in range(rng.randrange(0, 4))],
            rng.randrange(0, 3),
        )
        g = FgAbGroup.from_orders(
            [rng.randrange(2, 13) for _ in range(rng.randrange(1, 4))]
        )
        assert abelian.tor(m, g) == abelian.hom_structure(
            abelian.dual_finite(g), abelian.torsion_part(m)
        )
        assert abelian.ext_z(g) == g
    for _ in range(20):
        a = rng.randrange(1, 4)
        b = rng.randrange(a, 5)
        while True:
            mat = ExactMatrix.from_rows(
                [[rng.randrange(-6, 7) for _ in range(a)] for _ in range(b)]
            )
            if len(exactla._sparse_echelon(mat)) == a:
                break  # the Appendix E identity needs an injective map
        j = AbHom(FgAbGroup.free(a), FgAbGroup.free(b), mat)
        g = FgAbGroup.from_orders(
            [rng.randrange(2, 13) for _ in range(rng.randrange(1, 3))]
        )
        lhs = abelian.ker_tensor(j, g)
        rhs = abelian.hom_structure(
            abelian.dual_finite(g),
            abelian.torsion_part(exactla.cokernel_structure(mat)),
        )
        assert lhs == rhs


def test_criterion_09_toeplitz_suite():
    for name in groups.BUILTIN_NAMES:
        g = groups.builtin(name)
        m = toeplitz.canonical_depth(g.order)
        enum = toeplitz.default_enumeration(g, m)
        w = toeplitz.generate_window(g, enum, m)
        # fill invariants: stage = 2-adic valuation of position+1, no gaps
        for i, s in enumerate(w.stage_of):
            v, p = 0, i + 1
            while p % 2 == 0:
                p //= 2
                v += 1
            assert s == v, (name, i)
        # periodicity: one value per in-window stage
        for k in range(m):
            vals = {w.values[i] for i in range(len(w)) if w.stage_of[i] == k}
            assert vals == {w.stage_values[k]}, (name, k)
        assert toeplitz.construction_identity_holds(w), name
        realized = toeplitz.essential_values_check(g, enum, m, 4)
        assert realized == set(range(g.order)), (name, sorted(realized))


def test_criterion_10_linear_algebra_properties():
    rng = random.Random(99)
    for _ in range(500):
        r = rng.randrange(1, 9)
        c = rng.randrange(1, 9)
        m = ExactMatrix.from_rows(
            [[rng.randrange(-20, 21) for _ in range(c)] for _ in range(r)]
        )
        s = exactla.snf(m)
        assert s.u.matmul(m).matmul(s.v) == s.d
        assert exactla.determinant(s.u) in (1, -1)
        assert exactla.determinant(s.v) in (1, -1)
        diag = [x for x in s.diagonal() if x]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        if r == c:
            det = exactla.determinant(m)
            if det:
                assert exactla.cokernel_structure(m).order() == abs(det)
