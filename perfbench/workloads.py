"""The benchmark's workloads: seeded, fixed lists of ``discdeg`` invocations.

Each workload is a list of operations; one operation is one ``discdeg``
process.  The same seed gives the same list, and every seed gives a list
of the same length and make-up, so a run always attempts whole rounds of
the same operations.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import checks

DEFAULT_HEADS = (1, 2, 3, 4, 6, 8, 9, 12, 18)
CUBE = "examples_local/cube.json"
SWAP = "examples_local/swap.json"

# burnside-mul factor pairs of the default-heads S4 x Z2 catalog.  Products
# cost from milliseconds to seconds depending on the two down-closures; these
# pairs each take 0.3-0.5 s of ring work, so the mix costs about the same
# for every seed.  Some pairs fail (see CHANGES.md), none of these does.
MUL_PAIRS = (
    ("D2^{D1} x_{Z2}^{S4} S4p", "D2^{Z2} x_{Z2}^{Z3} D3"),
    ("O(2) x D1", "D1 x S4p"),
    ("D1 x Z2", "D2^{D1} x_{Z2}^{S4} S4p"),
    ("D2^{D1} x_{Z2}^{S4} S4p", "D3 x_{D3}^{V4} S4m"),
    ("D1 x_{Z2}^{D4d} D4p", "D2^{D1} x_{Z2}^{S4} S4p"),
    ("O(2) x D3", "D6 x_{D6} D3p"),
    ("D2^{D1} x_{Z2}^{S4} S4p", "D6 x_{D6} D3p"),
    ("O(2) x D3", "D2^{Z2} x_{Z2}^{Z3} D3"),
    ("O(2) x D1", "D4 x_{D4}^{Z2m} D4p"),
    ("D2^{D1} x_{Z2}^{S4} S4p", "D2 x_{D2}^{Z2} D2p"),
    ("O(2) x D3", "D1 x Z2"),
    ("O(2) x D3", "D3 x Z4p"),
    ("D2^{D1} x_{Z2}^{S4} S4p", "D3 x Z4p"),
    ("O(2) x D3", "D1 x S4p"),
    ("D1 x S4p", "D2^{D1} x_{Z2}^{S4} S4p"),
    ("O(2) x D3", "D2 x_{D2}^{Z2} D2p"),
    ("O(2) x D3", "D4 x_{D4}^{Z2m} D4p"),
)
# basic-degree (m, j, sign): one low-mode rep (0.07-0.22 s of ring work)
# and one of modes 2-3 (0.30-0.45 s).  The trivial rep (0, 0, 1) is left
# out: its basic degree should be -(G) but comes out 0 (see CHANGES.md).
LOW_MODE_REPS = tuple((m, j, s) for m in (0, 1) for j in range(5)
                      for s in (-1, 1) if (m, j, s) != (0, 0, 1))
HIGH_MODE_REPS = (
    (2, 1, 1), (2, 2, 1), (2, 3, -1), (2, 3, 1), (2, 4, -1), (2, 4, 1),
    (3, 0, -1), (3, 0, 1), (3, 1, -1), (3, 1, 1), (3, 2, -1), (3, 2, 1),
    (3, 3, -1), (3, 3, 1), (3, 4, -1), (3, 4, 1),
)
# Dihedral-headed classes to fold; nu is drawn so that nu * head stays a head.
FOLD_POOL = (
    "D1 x Z1", "D1 x V4p", "D1 x S4p", "D1 x_{Z2}^{D3z} D3p",
    "D2^{D1} x_{Z2}^{S4} S4p", "D2^{D1} x_{Z2}^{D2d} D2p",
    "D2 x_{D2}^{Z2} D2p", "D2^{Z2} x_{Z2}^{Z3} D3",
    "D3^{Z3} x_{Z2}^{D1} D1p", "D3 x_{D3}^{V4} S4m",
    "D4 x_{D4}^{Z2m} D4p", "D6 x_{D6} D3p",
)

# Seeded problems keep every eigenvalue in (0, EIG_MAX) and at least
# CLEARANCE away from every Bessel zero.  The largest eigenvalue is drawn
# from TOP_BAND, above j_{3,1} = 6.380 and below j_{4,1} = 7.588, so the
# active modes (1, 2, 3), the head set and the catalog size are the same
# for every seed and only the arithmetic differs.
EIG_MIN, EIG_MAX = 0.05, 7.5
TOP_BAND = (6.40, 7.5)
CLEARANCE = 1e-3
# Mode-0 counts are even (0 or 2) for eigenvalues below j_{0,1} = 2.405 or
# between j_{0,2} = 5.520 and EIG_MAX.
EVEN_MODE0 = ((EIG_MIN, 2.40), (5.53, EIG_MAX))


@dataclass
class Op:
    """One ``discdeg`` invocation and what its output must satisfy."""
    argv: list[str]
    check: object                    # callable(stdout, stderr) -> None
    expect_rc: int = 0
    mirror: int | None = None        # index of an op whose result must agree

    @property
    def label(self) -> str:
        return " ".join(self.argv[2:])


def _draw_eigenvalue(rng: random.Random, ranges, taken) -> Fraction:
    while True:
        lo, hi = rng.choice(ranges)
        v = Fraction(rng.randrange(round(lo * 1000) + 1, round(hi * 1000)),
                     1000)
        if (checks.bessel_clearance(float(v)) >= CLEARANCE
                and all(abs(v - t) >= Fraction(1, 1000) for t in taken)):
            taken.append(v)
            return v


def _draw_spectrum(rng: random.Random, n: int, even_mode0: bool):
    """n distinct eigenvalues; the largest lies in TOP_BAND."""
    ranges = EVEN_MODE0 if even_mode0 else ((EIG_MIN, EIG_MAX),)
    taken: list[Fraction] = []
    top = _draw_eigenvalue(rng, [(max(TOP_BAND[0], lo), hi)
                                 for lo, hi in ranges if hi > TOP_BAND[0]],
                           taken)
    rest = [_draw_eigenvalue(rng, [(lo, min(hi, float(top)))
                                   for lo, hi in ranges if lo < float(top)],
                             taken) for _ in range(n - 1)]
    order = [top] + rest
    rng.shuffle(order)
    return order


def s2_problem(rng: random.Random) -> dict:
    """S2 swapping two components; both mode-0 counts even (no radial type)."""
    lam_plus, lam_minus = _draw_spectrum(rng, 2, even_mode0=True)
    a, b = (lam_plus + lam_minus) / 2, (lam_plus - lam_minus) / 2
    return {"group": "S2", "action_generators": [[1, 0], [1, 0]],
            "matrix": [[str(a), str(b)], [str(b), str(a)]],
            "growth": {"alpha": 0.25, "beta": 3.0}}


def s3_problem(rng: random.Random) -> dict:
    """S3 permuting three components: A = a I + b (J - I)."""
    lam_triv, lam_std = _draw_spectrum(rng, 2, even_mode0=False)
    a, b = (lam_triv + 2 * lam_std) / 3, (lam_triv - lam_std) / 3
    m = [[str(a if i == j else b) for j in range(3)] for i in range(3)]
    return {"group": "S3", "action_generators": [[1, 0, 2], [1, 2, 0]],
            "matrix": m, "growth": {"alpha": 0.5, "beta": 2.0}}


def solve_op(path: str, doc: dict, **expect) -> Op:
    matrix = checks.problem_matrix(doc)
    return Op(["--format", "json", "solve", path],
              lambda out, err, m=matrix, e=expect:
              checks.check_solve(out, m, **e))


def cube41(seed: int, root: str, work: str) -> list[Op]:
    """The paper's example; it has no seeded input."""
    with open(os.path.join(root, CUBE)) as fh:
        doc = json.load(fh)
    return [solve_op(CUBE, doc, paper_cube=True)]


def cli_mix(seed: int, root: str, work: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    for m, j, sign in (rng.choice(LOW_MODE_REPS), rng.choice(HIGH_MODE_REPS)):
        ops.append(Op(["--format", "json", "basic-degree", str(m), str(j),
                       str(sign)],
                      lambda out, err, m=m: checks.check_basic_degree(out, m)))

    for a, b in rng.sample(MUL_PAIRS, 2):
        first = len(ops)
        ops.append(Op(["--format", "json", "burnside-mul", a, b],
                      checks.check_terms))
        ops.append(Op(["--format", "json", "burnside-mul", b, a],
                      checks.check_terms, mirror=first))

    for name in rng.sample(FOLD_POOL, 2):
        h = checks.head_of(name)
        nu = rng.choice([n for n in range(2, 19) if n * h in DEFAULT_HEADS])
        ops.append(Op(["--format", "json", "fold", str(nu), name],
                      lambda out, err, nu=nu, h=h, name=name:
                      checks.check_fold(out, name, nu, h)))

    with open(os.path.join(root, SWAP)) as fh:
        ops.append(solve_op(SWAP, json.load(fh)))
    os.makedirs(work, exist_ok=True)
    for tag, doc, expect in (("s2", s2_problem(rng), {"radial_free": True}),
                             ("s3", s3_problem(rng), {})):
        path = os.path.join(work, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        ops.append(solve_op(os.path.relpath(path, root), doc, **expect))

    # J_10 has its first zero at 14.48, so every call lists at least one zero
    m, upper = rng.randrange(11), round(rng.uniform(15.0, 60.0), 3)
    ops.append(Op(["--format", "json", "bessel-zeros", str(m), str(upper)],
                  lambda out, err, m=m, u=upper:
                  checks.check_bessel(out, m, u)))
    ops.append(Op(["--format", "json", "chartab", "S4"], checks.check_chartab_s4))
    ops.append(Op(["--format", "json", "ccs", "S4*Z2"], checks.check_ccs_s4z2))
    # documented outcome for an unsupported group: exit 2 with a reason
    ops.append(Op(["--format", "json", "chartab", "D4"],
                  checks.check_refused, expect_rc=2))
    return ops


WORKLOADS = {"cube41": cube41, "cli-mix": cli_mix}
