"""Job decks for the three workloads and the expected answer of every job.

A workload runs in passes.  Every pass runs the same fixed multiset of job
classes (the deck), so passes cost the same and a run's figures do not hinge
on which draws happened to land in it.  The seed, together with the pass
index, draws everything else: the order of the pass and, per job, the
variant inside its class (a conjugate subgroup, Tor/Ext factors, dimquot
matrices, a Toeplitz enumeration or depth).

Expected answers are known before a job runs.  They come from closed forms,
from identities checked with code of the benchmark's own (gcd formulas, a
Toeplitz construction check), or, for relative cohomology, from a reference
table recorded at the seed commit (`reference_relative.json`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference_relative.json")

WORKLOADS = ("hn-regular", "hn-relative", "queries")

BUILTIN_NAMES = tuple(
    [f"Z{k}" for k in range(2, 13)] + ["S3", "S4", "S5", "A4", "A5", "D4", "Q8"]
)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Context:
    """What set-up builds once per run: modules, builtin groups, cached laws."""

    mods: dict
    groups: dict
    reference: dict
    abelianizations: dict

    @classmethod
    def build(cls, mods):
        grp = mods["groups"]
        return cls(mods=mods, groups={n: grp.builtin(n) for n in BUILTIN_NAMES},
                   reference=load_reference(), abelianizations={})

    def abelianization(self, name):
        if name not in self.abelianizations:
            ab = self.mods["groups"].abelianization(self.groups[name])
            self.abelianizations[name] = (tuple(ab.invariant_factors), ab.free_rank)
        return self.abelianizations[name]


# ---------------------------------------------------------------------------
# Independent references


def _prime_powers(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                q *= p
                n //= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def canonical(orders, rank=0):
    """(invariant factors, free rank) of the sum of Z/o over `orders` (0 = Z)."""
    by_prime = {}
    for o in orders:
        o = abs(o)
        if o == 0:
            rank += 1
        elif o > 1:
            for p, q in _prime_powers(o):
                by_prime.setdefault(p, []).append(q)
    k = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * k
    for qs in by_prime.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[k - 1 - i] *= q
    return tuple(factors), rank


# H^3 = dual of the Schur multiplier; H^4 where the deck or the checks need it
SCHUR_DUAL_H3 = {"S3": (), "Q8": (), "D4": (2,), "A4": (2,), "S4": (2,)}
H4 = {"S3": (6,), "Q8": (8,)}


def expected_cohomology(ctx, name, n):
    """Closed form of H^n(G) for builtin G, as (invariant factors, free rank)."""
    if n == 0:
        return (), 1
    if n == 1:
        return (), 0
    if name.startswith("Z"):
        return ((int(name[1:]),) if n % 2 == 0 else ()), 0
    if n == 2:
        return ctx.abelianization(name)  # dual of G^ab, isomorphic to G^ab
    if n == 3:
        return SCHUR_DUAL_H3[name], 0
    if n == 4:
        return H4[name], 0
    raise KeyError((name, n))


def _pair(fg):
    return tuple(fg.invariant_factors), fg.free_rank


# ---------------------------------------------------------------------------
# hn-regular: group_cohomology(G, n) over the builtin groups

# (group, n, copies per pass).  The classes between about 8 and 40 ms run
# three to ten times a pass, so that the median falls inside the 16 ms classes
# H^2(D4) and H^2(Q8) and the p75 tail inside the 30-35 ms classes H^2(Z10)
# and H^3(Z5), never in a gap between two classes of different cost.
REGULAR_DECK = (
    ("S4", 2, 1), ("Q8", 3, 1), ("D4", 3, 1), ("Z5", 4, 1), ("S5", 1, 1), ("A4", 2, 1),
    ("Z4", 4, 1), ("Z6", 3, 1), ("S3", 3, 1), ("A5", 1, 1), ("Z12", 2, 1), ("Z11", 2, 1),
    ("Z5", 3, 10), ("Z10", 2, 10), ("Z9", 2, 6), ("D4", 2, 6), ("Z7", 2, 3), ("Q8", 2, 6),
    ("Z8", 2, 6), ("S4", 1, 6), ("Z3", 4, 3), ("Z4", 3, 6), ("Z6", 2, 1), ("S3", 2, 1),
    ("Z5", 2, 1), ("A4", 1, 1), ("S3", 1, 1), ("Z2", 4, 1), ("Z3", 3, 1), ("Z12", 1, 1),
    ("Z11", 1, 1), ("Z9", 1, 1), ("D4", 1, 1), ("Q8", 1, 1), ("S5", 0, 1), ("A5", 0, 1),
    ("Z2", 2, 1), ("Z3", 2, 1), ("Z4", 2, 1), ("Z2", 3, 1), ("Z6", 0, 1), ("Z10", 1, 1),
)


def _regular_cost(ctx, name, n):
    return ctx.groups[name].order ** (n + 1)


def regular_pass(ctx, rng, tiny):
    cochain = ctx.mods["cochain"]
    jobs = []
    for name, n, copies in REGULAR_DECK:
        if tiny and _regular_cost(ctx, name, n) > 512:
            continue
        g = ctx.groups[name]
        want = expected_cohomology(ctx, name, n)
        jobs += [Job(
            label=f"H^{n}({name})",
            run=lambda g=g, n=n: cochain.group_cohomology(g, n),
            check=lambda res, want=want: _pair(res) == want,
        ) for _ in range(copies)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# hn-relative: relative_cohomology_isometric(G, H, n), |K| = |G/H| in 4..30

# (group, canonical subgroup generators as element indices, n, copies per
# pass); an empty generator list is the trivial subgroup, checked by the shift
# law.  The classes between about 40 and 110 ms run three times a pass, so the
# p75 tail falls among many samples of close cost.
RELATIVE_DECK = (
    ("A5", (3,), 0, 1), ("S5", (33,), 0, 1), ("A5", (1,), 0, 1), ("S5", (1, 2), 0, 1),
    ("S4", (3,), 1, 1), ("S4", (7, 16), 1, 1), ("Z12", (6,), 1, 1), ("S5", (1, 16), 0, 3),
    ("A5", (3, 8), 0, 1), ("S4", (1,), 0, 3), ("S4", (7,), 0, 3), ("S5", (7, 26), 0, 3),
    ("A4", (3,), 1, 3), ("A5", (16,), 0, 3), ("S5", (3, 7), 0, 1), ("S5", (1, 26), 0, 1),
    ("S4", (9,), 1, 1), ("A5", (1, 12), 0, 1), ("A5", (3, 13), 1, 1), ("S5", (7, 32), 1, 1),
    ("S4", (1, 6), 1, 1), ("S5", (1, 8), 1, 1), ("Z12", (4,), 1, 1), ("Z8", (4,), 1, 1),
    ("D4", (5,), 1, 1), ("S4", (3,), 0, 1), ("A5", (1, 3), 1, 1), ("Q8", (1,), 1, 1),
    ("Z12", (6,), 0, 1), ("D4", (2,), 1, 1), ("D4", (1,), 1, 1), ("S4", (1, 2), 1, 1),
    ("S4", (9,), 0, 1), ("A5", (3, 13), 0, 1), ("A4", (1,), 1, 1), ("A4", (3,), 0, 1),
    ("Z8", (4,), 0, 1), ("Q8", (1,), 0, 1), ("D4", (5,), 0, 1), ("S5", (1, 8), 0, 1),
    ("S5", (7, 32), 0, 1), ("Z12", (4,), 0, 1),
    ("S3", (), 0, 1), ("Q8", (), 0, 1), ("D4", (), 0, 1), ("Z4", (), 0, 1), ("Z6", (), 1, 1),
    ("A4", (), 0, 3), ("Z3", (), 1, 1),
)


def relative_key(name, gens, n):
    return f"{name}|{','.join(map(str, gens))}|{n}"


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return {k: (tuple(v["factors"]), v["rank"]) for k, v in json.load(fh).items()}


def _relative_cost(ctx, name, gens, n):
    g = ctx.groups[name]
    if not gens:
        return g.order ** (n + 3)
    return (g.order // len(g.subgroup_closure(gens))) ** (n + 4)


def relative_pass(ctx, rng, tiny):
    jobs = []
    for name, gens, n, copies in RELATIVE_DECK:
        if tiny and _relative_cost(ctx, name, gens, n) > 1300:
            continue
        jobs += [_relative_job(ctx, rng, name, gens, n) for _ in range(copies)]
    rng.shuffle(jobs)
    return jobs


def _relative_job(ctx, rng, name, gens, n):
    cochain = ctx.mods["cochain"]
    g = ctx.groups[name]
    if gens:
        # a seeded conjugate of H: an isomorphic coset space, the same answer
        c = rng.randrange(g.order)
        h = [g.conjugate(c, x) for x in gens]
        want = ctx.reference[relative_key(name, gens, n)]

        def check(res):
            factors, rank = _pair(res)
            return (rank == 0 and all(g.order % f == 0 for f in factors)
                    and (factors, rank) == want)
    else:
        h = []
        want = expected_cohomology(ctx, name, n + 2)  # shift law

        def check(res):
            return _pair(res) == want
    return Job(
        label=f"H^{n}({name}, H=<{','.join(map(str, gens))}>)",
        run=lambda: cochain.relative_cohomology_isometric(g, h, n),
        check=check,
    )


# ---------------------------------------------------------------------------
# queries: small in-process CLI requests


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def _cli_job(ctx, label, argv, check):
    cli = ctx.mods["cli"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return CliResult(rc, out.getvalue(), err.getvalue())

    def checked(res):
        return res.rc == 0 and check(res.out)

    return Job(label=label, run=run, check=checked)


def _json_result(out):
    res = json.loads(out)["result"]
    return tuple(res["factors"]), res["rank"]


def _fg_json(factors, rank=0):
    return json.dumps({"factors": list(factors), "rank": rank})


def _tor_job(ctx, rng):
    m = [rng.randint(2, 12) for _ in range(rng.randint(1, 3))]
    m_rank = rng.randint(0, 2)
    g = [rng.randint(2, 12) for _ in range(rng.randint(1, 2))]
    # Tor(M, G) = Hom(dual G, tors M) = sum of Z/gcd over cyclic summands
    want = canonical([gcd(a, b) for a in m for b in g])
    argv = ["tor", f"--m={_fg_json(m, m_rank)}", f"--g={_fg_json(g)}", "--json"]
    return _cli_job(ctx, "tor", argv, lambda out: _json_result(out) == want)


def _ext_job(ctx, rng):
    g = [rng.randint(2, 12) for _ in range(rng.randint(1, 3))]
    want = canonical(g)  # Ext(G, Z) = G for finite G
    argv = ["ext", f"--g={_fg_json(g)}", "--json"]
    return _cli_job(ctx, "ext", argv, lambda out: _json_result(out) == want)


def _dimquot_job(ctx, rng):
    """Quotient of lim(Z^2, A) by R = c0 I + c1 A with source B = A.

    With gcd(det A, det R) = 1, A acts invertibly on coker R, so the limit of
    coker R under A is coker R itself: Z/d1 + Z/d2 with d1 the gcd of the
    entries of R and d1 d2 = |det R|.
    """
    while True:
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det_a = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        c0, c1 = rng.randint(-3, 3), rng.randint(-3, 3)
        r = [[c0 * (i == j) + c1 * a[i][j] for j in range(2)] for i in range(2)]
        det_r = r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if det_a and det_r and gcd(det_a, det_r) == 1:
            break
    unit = [rng.randint(1, 4), rng.randint(1, 4)]
    target_unit = [r[i][0] * unit[0] + r[i][1] * unit[1] for i in range(2)]
    d1 = gcd(*(x for row in r for x in row))
    want = canonical([d1, abs(det_r) // d1])

    def mat(rows):
        return json.dumps({"rows": 2, "cols": 2, "entries": rows})

    argv = ["dimquot", f"--target-matrix={mat(a)}",
            f"--target-unit={target_unit[0]},{target_unit[1]}",
            f"--source-matrix={mat(a)}", f"--source-unit={unit[0]},{unit[1]}",
            f"--map={mat(r)}", "--json"]
    return _cli_job(ctx, "dimquot", argv, lambda out: _json_result(out) == want)


# cheap (group, n) pairs for hn-group queries
HN_GROUP_DECK = (
    ("Z2", 2), ("Z2", 4), ("Z3", 2), ("Z3", 3), ("Z4", 2), ("Z5", 2), ("Z6", 2),
    ("Z7", 1), ("Z8", 2), ("Z9", 1), ("Z10", 1), ("Z11", 0), ("Z12", 1), ("S3", 1),
    ("S3", 2), ("D4", 1), ("Q8", 1), ("A4", 1), ("S4", 0), ("A5", 0),
)


def _hn_group_job(ctx, name, n):
    want = expected_cohomology(ctx, name, n)
    argv = ["hn-group", f"--group={name}", f"--n={n}", "--json"]
    return _cli_job(ctx, f"hn-group {name} {n}", argv, lambda out: _json_result(out) == want)


def _morse_job(ctx):
    return _cli_job(ctx, "morse", ["morse", "--json"],
                    lambda out: json.loads(out)["all_pass"] is True)


def window_is_toeplitz(group, enumeration, depth, values):
    """The window has length 2^depth, is constant on each stage's positions,
    and satisfies a_k g_k b_k = u_(k mod N) for every stage k."""
    size = 1 << depth
    if len(values) != size or any(not 0 <= v < group.order for v in values):
        return False
    mul = group.mul
    prefix = []
    acc = 0
    for v in values:
        acc = mul[acc][v]
        prefix.append(acc)

    def upto(i):
        return prefix[i] if i >= 0 else 0

    for k in range(depth + 1):
        g_k = values[(1 << k) - 1]
        if any(values[p] != g_k for p in range((1 << k) - 1, size, 1 << (k + 1))):
            return False
        a = upto((1 << k) - 2)
        b = upto((1 << (k - 1)) - 2) if k else 0
        if mul[mul[a][g_k]][b] != enumeration[k % group.order]:
            return False
    return True


def toeplitz_depth(order):
    """Window depth for a group of this order, by the formula of the library's
    `toeplitz.canonical_depth`: its adapted enumeration realizes the whole
    group from that depth on."""
    return max(9, (8 * order - 1).bit_length() + 2)


def _toeplitz_job(ctx, rng, name):
    g = ctx.groups[name]
    depth = toeplitz_depth(g.order)
    rest = list(range(1, g.order))
    rng.shuffle(rest)
    enum = [0] + rest
    argv = ["toeplitz", f"--group={name}", f"--depth={depth}",
            f"--enumeration={','.join(map(str, enum))}"]

    def check(out):
        values = [int(x) for x in out.split()]
        return window_is_toeplitz(g, enum, depth, values)

    return _cli_job(ctx, f"toeplitz {name}", argv, check)


def _toeplitz_check_job(ctx, name):
    g = ctx.groups[name]
    depth = toeplitz_depth(g.order)  # one cost per group: the A5 checks set job_tail_s
    argv = ["toeplitz", f"--group={name}", f"--depth={depth}", "--check"]

    def check(out):
        window, report = out.splitlines()
        report = json.loads(report)
        return (len(window.split()) == 1 << depth and report["construction_identity"]
                and report["full_group"])

    return _cli_job(ctx, f"toeplitz --check {name}", argv, check)


# The per-pass mix of query classes.  There is no recorded traffic to copy, so
# the counts are choices, each made for the end-to-end metric it decides (see
# README.md, "The queries mix"):
# - 1000 requests a pass, so p99 is the tail percentile with 10 beyond it;
# - tor, ext and dimquot are 600 of them, so the median request is a small
#   algebra request and job_p50_s is the fixed cost of one CLI request;
# - 14 A5 --check requests (a 2-candidate enumeration search) are the only
#   requests between the one S5 --check and the rest, so p99 falls among
#   them and job_tail_s is the cost of a searching --check;
# - the single S5 --check (28 candidates) is over a third of pass time and
#   weighs on jobs_per_s only;
# - the other classes give every CLI command and builtin group a share.
SMALL_CHECK_GROUPS = tuple(f"Z{k}" for k in range(2, 13)) + ("S3", "D4", "Q8", "A4")
QUERY_MIX = {
    "tor": 300, "ext": 150, "dimquot": 150, "morse": 20,
    "hn-group": HN_GROUP_DECK * 5,
    "windows": {name: 11 for name in BUILTIN_NAMES},
    "checks": {**{name: 4 for name in SMALL_CHECK_GROUPS}, "S4": 7, "A5": 14, "S5": 1},
}
TINY_GROUPS = ("Z2", "Z3", "Z5", "S3", "D4", "Q8")
TINY_QUERY_MIX = {
    "tor": 8, "ext": 6, "dimquot": 6, "morse": 2,
    "hn-group": HN_GROUP_DECK[:4],
    "windows": {name: 1 for name in TINY_GROUPS},
    "checks": {name: 1 for name in TINY_GROUPS},
}


def queries_pass(ctx, rng, tiny):
    mix = TINY_QUERY_MIX if tiny else QUERY_MIX
    jobs = [_tor_job(ctx, rng) for _ in range(mix["tor"])]
    jobs += [_ext_job(ctx, rng) for _ in range(mix["ext"])]
    jobs += [_dimquot_job(ctx, rng) for _ in range(mix["dimquot"])]
    jobs += [_morse_job(ctx) for _ in range(mix["morse"])]
    jobs += [_hn_group_job(ctx, name, n) for name, n in mix["hn-group"]]
    jobs += [_toeplitz_job(ctx, rng, name)
             for name, k in mix["windows"].items() for _ in range(k)]
    jobs += [_toeplitz_check_job(ctx, name)
             for name, k in mix["checks"].items() for _ in range(k)]
    rng.shuffle(jobs)
    return jobs


def make_pass(workload, ctx, seed, index, tiny=False):
    """The jobs of pass `index` of `workload`, drawn from `seed`."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "hn-regular":
        return regular_pass(ctx, rng, tiny)
    if workload == "hn-relative":
        return relative_pass(ctx, rng, tiny)
    if workload == "queries":
        return queries_pass(ctx, rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")
