"""Stationary dimension groups lim(Z^d, A): elements, membership, quotients.

Reproduces the Morse computations end to end: the three quotient groups, the
explicit dyadic/mod-3 description of the limit, and the symbolic cocycle
identity on substitution windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from cantorext import abelian, exactla
from cantorext.abelian import FgAbGroup, LimitOutcome
from cantorext.exactla import ExactMatrix


@dataclass(frozen=True)
class StationaryLimit:
    """Direct limit lim(Z^d, a) with distinguished unit vector.

    Elements are pairs (level n >= 0, integer vector) under (n, v) ~ (n+1, a v).
    """

    a: ExactMatrix
    unit: tuple

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise ValueError("stationary matrix must be square")
        if exactla.determinant(self.a) == 0:
            raise ValueError("stationary matrix must be nonsingular")
        if len(self.unit) != self.a.rows:
            raise ValueError("unit length disagrees with dimension")
        object.__setattr__(self, "unit", tuple(int(x) for x in self.unit))

    @property
    def dimension(self):
        return self.a.rows


@dataclass(frozen=True)
class Intertwiner:
    """Map of stationary limits induced by r with r.B = A.r and r(unit) = unit."""

    source: StationaryLimit
    target: StationaryLimit
    r: ExactMatrix

    def __post_init__(self):
        if self.r.rows != self.target.dimension or self.r.cols != self.source.dimension:
            raise ValueError("intertwiner shape mismatch")
        if self.r.matmul(self.source.a) != self.target.a.matmul(self.r):
            raise ValueError("r.B != A.r")
        if self.r.apply(self.source.unit) != self.target.unit:
            raise ValueError("r does not carry the source unit to the target unit")


def _integral_under_powers(rows, w, den) -> bool:
    """Whether a^n w == 0 mod den for some n >= 0, a given by its integer rows."""
    u = tuple(x % den for x in w)
    seen = set()
    while u not in seen:
        if not any(u):
            return True
        seen.add(u)
        u = tuple(sum(map(mul, row, u)) % den for row in rows)
    return False


def membership_in_limit(lim: StationaryLimit, v) -> bool:
    """Whether the rational vector v lies in the limit embedded in Q^d.

    Writes v = w / den with integer w and a common denominator den, and
    decides whether a^n v is integral for some n >= 0.  The denominator need
    not be reduced: a^n (w / den) is integral iff a^n w == 0 mod den, so the
    walk tracks a^n w mod den.  The state space is finite, so a repeat
    without reaching zero is a definitive no.
    """
    v = [Fraction(x) for x in v]
    if len(v) != lim.dimension:
        raise ValueError("vector length disagrees with dimension")
    den = lcm(*(x.denominator for x in v)) if v else 1
    w = [x.numerator * (den // x.denominator) for x in v]
    return _integral_under_powers(lim.a.to_rows(), w, den)


def _fact_set_member_reduced(num: int, den: int, b: int) -> bool:
    """`fact_set_member` for a = num / den in lowest terms, den > 0."""
    if den & (den - 1):  # the denominator must be a power of two, den = 2^n0
        return False
    n0 = den.bit_length() - 1
    return (num - (b if n0 % 2 == 0 else -b)) % 3 == 0


def fact_set_member(a, b) -> bool:
    """The explicit Morse limit condition: some n with 2^n a integral and
    2^n a congruent to (-1)^n b mod 3.

    As 2 = -1 mod 3, going from n to n + 1 negates 2^n a - (-1)^n b mod 3,
    so the condition holds for some n iff it holds at the minimal
    integralizing n0, where 2^n0 a = numerator of a.
    """
    a = Fraction(a)
    return _fact_set_member_reduced(a.numerator, a.denominator, int(b))


def quotient_by_intertwiner(t: Intertwiner) -> LimitOutcome:
    """lim(Z^d, A) / r(lim(Z^e, B)) as a direct limit of coker(r) under A.

    Well-defined because A.(r Z^e) = r.(B Z^e) is contained in r Z^e.
    """
    d = t.target.dimension
    rel_cols = t.r.columns()
    return abelian.direct_limit_lattice(d, rel_cols, t.target.a)


# ---------------------------------------------------------------------------
# The Morse system: fixed data from the substitution computations


MORSE_A = ExactMatrix.from_rows([[0, 2], [1, 1]])
MORSE_UNIT_X = (2, 2)
MORSE_B = ExactMatrix.from_rows([[1, 2], [1, 0]])
MORSE_UNIT_Z = (2, 1)
MORSE_R = ExactMatrix.from_rows([[2, -2], [0, 2]])

morse_limit_x = StationaryLimit(MORSE_A, MORSE_UNIT_X)
morse_limit_z = StationaryLimit(MORSE_B, MORSE_UNIT_Z)
odometer_limit = StationaryLimit(ExactMatrix.from_rows([[2]]), (1,))


def _morse_numerators(a_num: int, b_num: int, den: int):
    """The Q^2 point of (a, b) = (a_num, b_num) / den as (numerators, denominator)."""
    return (a_num + 2 * b_num, a_num - b_num), 3 * den


def morse_coordinates(a, b):
    """Map the (a, b) parameters of the explicit limit description to Q^2."""
    a = Fraction(a)
    b = Fraction(b)
    den = lcm(a.denominator, b.denominator)
    w, wden = _morse_numerators(a.numerator * (den // a.denominator),
                                b.numerator * (den // b.denominator), den)
    return tuple(Fraction(x, wden) for x in w)


def morse_window(m: int):
    """m-fold substitution window of the Morse fixed point plus its code word.

    Returns (word, code, positions_checked) where the cocycle identity
    x[i+1] - x[i] = z[i] - 2*[x[i..i+1] == 10] was verified at every interior
    position; an identity failure raises.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    word = [0]
    for _ in range(m):
        word = [b for a in word for b in (a, 1 - a)]
    code = [(word[i] + word[i + 1]) % 2 for i in range(len(word) - 1)]
    checked = 0
    for i in range(len(word) - 1):
        lhs = word[i + 1] - word[i]
        indicator = 1 if (word[i], word[i + 1]) == (1, 0) else 0
        rhs = code[i] - 2 * indicator
        if lhs != rhs:
            raise AssertionError(f"cocycle identity fails at position {i}")
        checked += 1
    return "".join(map(str, word)), "".join(map(str, code)), checked


def _sample_membership_agreement(count=100):
    """Sampled two-sided agreement of the explicit description with the limit.

    Both deciders see the sample (a, b) = (a_num / a_den, b) as integers: the
    explicit description its reduced pair, the residue walk the unreduced
    numerators of its Q^2 point over 3 a_den.
    """
    rows = morse_limit_x.a.to_rows()
    checked = 0
    for a_num in range(-12, 13):
        for a_den in (1, 2, 4, 8, 3):
            g = gcd(a_num, a_den)
            for b in range(-4, 5):
                in_set = _fact_set_member_reduced(a_num // g, a_den // g, b)
                in_lim = _integral_under_powers(rows, *_morse_numerators(a_num, b * a_den, a_den))
                if in_set != in_lim:
                    return checked, (Fraction(a_num, a_den), b)
                checked += 1
                if checked >= count:
                    return checked, None
    return checked, None


def morse_report() -> dict:
    """Verify and report the full Morse pipeline."""
    from cantorext import cochain, groups

    failures = []

    def check(name, ok):
        if not ok:
            failures.append(name)
        return "PASS" if ok else "FAIL"

    report = {}
    report["intertwiner_RB_eq_AR"] = check(
        "RB=AR", MORSE_R.matmul(MORSE_B) == MORSE_A.matmul(MORSE_R)
    )
    report["intertwiner_unit"] = check(
        "R e_Z = e_X", MORSE_R.apply(MORSE_UNIT_Z) == MORSE_UNIT_X
    )

    r_xz = Intertwiner(source=morse_limit_z, target=morse_limit_x, r=MORSE_R)
    q_zy = Intertwiner(source=odometer_limit, target=morse_limit_z,
                       r=ExactMatrix.column(MORSE_UNIT_Z))
    p_xy = Intertwiner(source=odometer_limit, target=morse_limit_x,
                       r=ExactMatrix.column(MORSE_UNIT_X))

    quot_xz = quotient_by_intertwiner(r_xz)
    quot_zy = quotient_by_intertwiner(q_zy)
    quot_xy = quotient_by_intertwiner(p_xy)

    z2 = FgAbGroup.cyclic(2)
    z1 = FgAbGroup.free(1)
    report["quotient_XZ"] = str(quot_xz.group) if quot_xz.is_finitely_generated else "non-fg"
    report["quotient_ZY"] = str(quot_zy.group) if quot_zy.is_finitely_generated else "non-fg"
    report["quotient_XY"] = str(quot_xy.group) if quot_xy.is_finitely_generated else "non-fg"
    report["quotient_XZ_check"] = check(
        "K0(X)/r*K0(Z) = Z/2", quot_xz.is_finitely_generated and quot_xz.group == z2
    )
    report["quotient_ZY_check"] = check(
        "K0(Z)/q*K0(Y) = Z", quot_zy.is_finitely_generated and quot_zy.group == z1
    )
    report["quotient_XY_check"] = check(
        "K0(X)/p*K0(Y) = Z", quot_xy.is_finitely_generated and quot_xy.group == z1
    )

    # torsion cross-checks against group cohomology
    h2_z2 = cochain.group_cohomology(groups.builtin("Z2"), 2)
    report["h0_XZ"] = str(abelian.torsion_part(quot_xz.group))
    report["h0_XZ_check"] = check(
        "torsion(K0(X)/r*K0(Z)) = H^2(Z2) = Z/2",
        abelian.torsion_part(quot_xz.group) == h2_z2 == z2,
    )
    report["h0_XY"] = str(abelian.torsion_part(quot_xy.group))
    report["h0_XY_check"] = check(
        "torsion(K0(X)/p*K0(Y)) = 0", abelian.torsion_part(quot_xy.group).is_trivial
    )
    report["h0_ZY_check"] = check(
        "torsion(K0(Z)/q*K0(Y)) = 0", abelian.torsion_part(quot_zy.group).is_trivial
    )

    samples, mismatch = _sample_membership_agreement()
    report["membership_samples"] = samples
    report["membership_check"] = check(
        f"explicit set description agrees with limit membership ({mismatch})",
        mismatch is None,
    )

    word, code, checked = morse_window(6)
    report["window_prefix"] = word[:16]
    report["window_check"] = check(
        "window prefix and cocycle identity", word.startswith("01101001") and checked == 63
    )
    report["code_prefix"] = code[:15]

    report["all_pass"] = not failures
    report["failures"] = failures
    return report
