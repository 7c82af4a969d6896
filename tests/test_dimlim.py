"""Unit tests for stationary dimension groups and the Morse pipeline."""

import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorext import abelian, cli, dimlim
from cantorext.abelian import FgAbGroup, LimitOutcome
from cantorext.dimlim import (
    MORSE_A,
    MORSE_B,
    MORSE_R,
    MORSE_UNIT_X,
    MORSE_UNIT_Z,
    Intertwiner,
    StationaryLimit,
    morse_limit_x,
    morse_limit_z,
    odometer_limit,
)
from cantorext.exactla import ExactMatrix


def element_equal(lim, x, y):
    """Equality of (level, vector) pairs in the limit.

    The stationary matrix is injective, so it suffices to compare at the
    larger of the two levels.
    """
    (nx, vx), (ny, vy) = x, y
    vx, vy = tuple(vx), tuple(vy)
    if len(vx) != lim.dimension or len(vy) != lim.dimension:
        raise ValueError("vector length disagrees with dimension")
    while nx < ny:
        vx = lim.a.apply(vx)
        nx += 1
    while ny < nx:
        vy = lim.a.apply(vy)
        ny += 1
    return vx == vy


def rational_eigenvalue_group(lim):
    """Torsion of K0 / (Z . unit): the group of rational eigenvalues.

    Requires the unit to be an eigenvector of the stationary matrix with an
    integer eigenvalue c.  For |c| >= 2 the elements unit/c^k give a strictly
    increasing chain of torsion, so the group is not finitely generated and a
    witness (unit column, [c]) is returned; for |c| = 1 the level groups are
    constant and the limit is computed directly.
    """
    e = lim.unit
    if not any(e):
        raise ValueError("unit must be nonzero")
    ae = lim.a.apply(e)
    c = None
    for x, y in zip(ae, e):
        if y:
            if x % y:
                c = None
                break
            q = x // y
            if c is None:
                c = q
            elif c != q:
                c = None
                break
        elif x:
            c = None
            break
    if c is None:
        raise ValueError("unit is not an eigenvector with integer eigenvalue")
    if abs(c) >= 2:
        witness = (ExactMatrix.column(e), ExactMatrix.from_rows([[c]]))
        return LimitOutcome("non_finitely_generated", witness=witness)
    outcome = abelian.direct_limit_lattice(lim.dimension, [e], lim.a)
    if outcome.is_finitely_generated:
        return LimitOutcome("finitely_generated", group=abelian.torsion_part(outcome.group))
    return outcome


# Oracles: the deciders of the Morse membership check in fractions.Fraction.

def oracle_membership_in_limit(lim, v):
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v)) if v else 1
    u = tuple(int(x * den) % den for x in v)
    seen = set()
    while u not in seen:
        if not any(u):
            return True
        seen.add(u)
        u = tuple(x % den for x in lim.a.apply(u))
    return False


def oracle_fact_set_member(a, b):
    a = Fraction(a)
    b = int(b)
    den = a.denominator
    n0 = 0
    while den % 2 == 0:
        den //= 2
        n0 += 1
    if den != 1:
        return False
    for n in (n0, n0 + 1):
        lhs = int(a * 2 ** n)
        rhs = b if n % 2 == 0 else -b
        if (lhs - rhs) % 3 == 0:
            return True
    return False


def oracle_morse_coordinates(a, b):
    a = Fraction(a)
    b = Fraction(b)
    return ((a + 2 * b) / 3, (a - b) / 3)


def sample_grid():
    for a_num in range(-12, 13):
        for a_den in (1, 2, 4, 8, 3):
            for b in range(-4, 5):
                yield a_num, a_den, b


def oracle_sample_membership_agreement(count=100):
    checked = 0
    for a_num, a_den, b in sample_grid():
        a = Fraction(a_num, a_den)
        in_set = oracle_fact_set_member(a, b)
        in_lim = oracle_membership_in_limit(morse_limit_x, oracle_morse_coordinates(a, b))
        if in_set != in_lim:
            return checked, (a, b)
        checked += 1
        if checked >= count:
            return checked, None
    return checked, None


class TestStationaryLimit:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            StationaryLimit(ExactMatrix.from_rows([[1, 1], [1, 1]]), (1, 1))

    def test_unit_length_checked(self):
        with pytest.raises(ValueError):
            StationaryLimit(ExactMatrix.identity(2), (1,))


class TestElementEqual:
    def test_defining_relation(self):
        v = (3, -1)
        assert element_equal(morse_limit_x, (0, v), (1, MORSE_A.apply(v)))

    def test_morse_unit(self):
        assert element_equal(morse_limit_x, (0, (2, 2)), (1, (4, 4)))

    def test_distinct(self):
        assert not element_equal(morse_limit_x, (0, (1, 0)), (0, (0, 1)))

    def test_equivalence_relation_sampled(self):
        pairs = [(0, (1, 2)), (1, MORSE_A.apply((1, 2))), (2, (0, 3))]
        for x in pairs:
            assert element_equal(morse_limit_x, x, x)
            for y in pairs:
                assert element_equal(morse_limit_x, x, y) == element_equal(
                    morse_limit_x, y, x
                )


class TestMembership:
    def test_integral(self):
        assert dimlim.membership_in_limit(morse_limit_x, (2, 2))

    def test_halves(self):
        assert dimlim.membership_in_limit(
            morse_limit_x, (Fraction(1, 2), Fraction(1, 2))
        )

    def test_thirds_rejected(self):
        assert not dimlim.membership_in_limit(morse_limit_x, (Fraction(1, 3), 0))

    def test_odometer(self):
        assert dimlim.membership_in_limit(odometer_limit, (Fraction(5, 8),))
        assert not dimlim.membership_in_limit(odometer_limit, (Fraction(1, 6),))


class TestFactSet:
    def test_unit_point(self):
        assert dimlim.fact_set_member(6, 0)
        assert dimlim.morse_coordinates(6, 0) == (2, 2)

    def test_alpha_point(self):
        assert dimlim.fact_set_member(2, -1)
        assert dimlim.morse_coordinates(2, -1) == (0, 1)

    def test_thirds_rejected(self):
        assert not dimlim.fact_set_member(Fraction(1, 3), 0)

    def test_agreement_with_limit(self):
        checked, mismatch = dimlim._sample_membership_agreement(200)
        assert mismatch is None and checked >= 100


def rationals():
    """Zero, negatives, and denominators with primes other than 2 and 3."""
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)),
        st.builds(Fraction, st.integers(-60, 60),
                  st.sampled_from([5, 7, 10, 12, 14, 25, 35, 48, 96])),
    )


class TestIntegerDeciders:
    """The integer deciders agree with the Fraction oracles."""

    def test_sample_grid(self):
        rows = morse_limit_x.a.to_rows()
        grid = list(sample_grid())
        assert len(grid) == 25 * 5 * 9
        members = 0
        for a_num, a_den, b in grid:
            a = Fraction(a_num, a_den)
            in_set = oracle_fact_set_member(a, b)
            coords = oracle_morse_coordinates(a, b)
            in_lim = oracle_membership_in_limit(morse_limit_x, coords)
            assert dimlim.fact_set_member(a, b) == in_set
            assert dimlim._fact_set_member_reduced(a.numerator, a.denominator, b) == in_set
            assert dimlim.morse_coordinates(a, b) == coords
            assert dimlim.membership_in_limit(morse_limit_x, coords) == in_lim
            w, den = dimlim._morse_numerators(a_num, b * a_den, a_den)
            assert tuple(Fraction(x, den) for x in w) == coords
            assert dimlim._integral_under_powers(rows, w, den) == in_lim
            members += in_lim
        assert 0 < members < len(grid)

    @settings(max_examples=200, deadline=None)
    @given(rationals(), st.integers(-20, 20), rationals())
    def test_rationals(self, a, b, c):
        assert dimlim.fact_set_member(a, b) == oracle_fact_set_member(a, b)
        for bb in (b, c):
            coords = dimlim.morse_coordinates(a, bb)
            assert coords == oracle_morse_coordinates(a, bb)
            assert (dimlim.membership_in_limit(morse_limit_x, coords)
                    == oracle_membership_in_limit(morse_limit_x, coords))
        for lim, v in ((morse_limit_z, (a, c)), (odometer_limit, (a,))):
            assert dimlim.membership_in_limit(lim, v) == oracle_membership_in_limit(lim, v)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=2), st.integers(1, 60),
           st.integers(1, 6))
    def test_unreduced_denominator(self, w, den, scale):
        # a^n (w / den) is integral iff a^n w == 0 mod den, reduced or not
        v = tuple(Fraction(x, den) for x in w)
        expected = oracle_membership_in_limit(morse_limit_x, v)
        rows = MORSE_A.to_rows()
        assert dimlim._integral_under_powers(rows, [x * scale for x in w], den * scale) == expected

    @pytest.mark.parametrize("count", [100, 200, 1125])
    def test_sampler_matches_oracle(self, count):
        assert dimlim._sample_membership_agreement(count) == \
            oracle_sample_membership_agreement(count)


class TestMembershipCheckBites:
    """A decider wrong on one sample fails the report and the CLI."""

    @pytest.fixture
    def wrong_on_one_sample(self, monkeypatch):
        right = dimlim._fact_set_member_reduced
        # a = -11/2, b = 1 is among the first 100 samples
        monkeypatch.setattr(dimlim, "_fact_set_member_reduced",
                            lambda num, den, b: right(num, den, b) != ((num, den, b) == (-11, 2, 1)))

    def test_report_fails(self, wrong_on_one_sample):
        report = dimlim.morse_report()
        assert report["all_pass"] is False
        assert report["membership_check"] == "FAIL"
        assert len(report["failures"]) == 1
        assert "agrees with limit membership" in report["failures"][0]
        assert "Fraction(-11, 2), 1" in report["failures"][0]

    def test_cli_exit_1(self, wrong_on_one_sample, capsys):
        code = cli.run(["morse", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["all_pass"] is False and report["membership_check"] == "FAIL"

    def test_other_decider_wrong(self, monkeypatch):
        right = dimlim._integral_under_powers
        monkeypatch.setattr(dimlim, "_integral_under_powers",
                            lambda rows, w, den: not right(rows, w, den))
        assert dimlim._sample_membership_agreement() == (0, (Fraction(-12), -4))
        assert dimlim.morse_report()["all_pass"] is False


class TestQuotients:
    def test_morse_xz(self):
        t = Intertwiner(source=morse_limit_z, target=morse_limit_x, r=MORSE_R)
        out = dimlim.quotient_by_intertwiner(t)
        assert out.is_finitely_generated and out.group == FgAbGroup((2,))

    def test_morse_zy(self):
        t = Intertwiner(
            source=odometer_limit, target=morse_limit_z,
            r=ExactMatrix.column(MORSE_UNIT_Z),
        )
        out = dimlim.quotient_by_intertwiner(t)
        assert out.is_finitely_generated and out.group == FgAbGroup.free(1)

    def test_morse_xy(self):
        t = Intertwiner(
            source=odometer_limit, target=morse_limit_x,
            r=ExactMatrix.column(MORSE_UNIT_X),
        )
        out = dimlim.quotient_by_intertwiner(t)
        assert out.is_finitely_generated and out.group == FgAbGroup.free(1)

    def test_identity_intertwiner_trivial_quotient(self):
        t = Intertwiner(
            source=morse_limit_x, target=morse_limit_x, r=ExactMatrix.identity(2)
        )
        out = dimlim.quotient_by_intertwiner(t)
        assert out.is_finitely_generated and out.group.is_trivial

    def test_intertwiner_validation(self):
        with pytest.raises(ValueError):
            Intertwiner(
                source=morse_limit_z, target=morse_limit_x, r=ExactMatrix.identity(2)
            )


class TestRationalEigenvalues:
    def test_odometer_not_fg(self):
        out = rational_eigenvalue_group(odometer_limit)
        assert not out.is_finitely_generated
        basis, endo = out.witness
        assert endo == ExactMatrix.from_rows([[2]])

    def test_trivial_for_unit_matrix(self):
        lim = StationaryLimit(ExactMatrix.from_rows([[1]]), (1,))
        out = rational_eigenvalue_group(lim)
        assert out.is_finitely_generated and out.group.is_trivial

    def test_morse_x_half_unit_in_limit(self):
        # (1,1) = e_X / 2 lies in the limit, giving 2-torsion mod Z.e_X
        assert dimlim.membership_in_limit(morse_limit_x, (1, 1))

    def test_non_eigenvector_rejected(self):
        lim = StationaryLimit(MORSE_A, (1, 0))
        with pytest.raises(ValueError):
            rational_eigenvalue_group(lim)


class TestMorseWindow:
    def test_m3(self):
        word, code, checked = dimlim.morse_window(3)
        assert word == "01101001"
        assert code == "1011101"
        assert checked == 7

    def test_m6_prefix(self):
        word, code, checked = dimlim.morse_window(6)
        assert word.startswith("01101001")
        assert len(word) == 64 and checked == 63


class TestMorseReport:
    def test_all_pass(self):
        report = dimlim.morse_report()
        assert report["all_pass"] and report["failures"] == []

    def test_paper_fields(self):
        report = dimlim.morse_report()
        assert report["quotient_XZ"] == "Z/2"
        assert report["quotient_ZY"] == "Z"
        assert report["quotient_XY"] == "Z"
        assert report["h0_XZ"] == "Z/2"
        assert report["h0_XY"] == "0"
        assert report["window_prefix"].startswith("01101001")
