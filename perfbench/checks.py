"""Output checks for every ``discdeg`` invocation the benchmark makes.

Each check compares the program's JSON output against a computation made
here, apart from the program (numpy eigenvalues, scipy Bessel zeros, a
brute-force subgroup enumeration, the paper's published cube example), or
against a property the method must have.  A failed check raises
``CheckFailed`` with the reason.
"""
from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import jn_zeros

D_GUARD = 1e-8         # the program's condition (D) band
EIG_TOL = 1e-9
BESSEL_TOL = 1e-9
# Zeros of J_m for m <= 12 cover every mode whose first zero is below 15,
# far above any eigenvalue the workloads use.
_ZERO_MODES, _ZERO_UPPER = 13, 15.0

# The paper's S4 cube example, c = 4, d = 1.
CUBE_TERMS = 85
CUBE_FAMILIES = {
    ("D6m^{Zm} x_{D6} D3p", 1),
    ("D4m^{Zm} x_{D4}^{Z2m} D4p", 1),
    ("D2m^{Dm} x_{Z2}^{D2d} D2p", 1),
    ("D2m^{Dm} x_{Z2}^{D4z} D4p", 1),
    ("D2m^{Dm} x_{Z2}^{S4} S4p", 3),
}
CUBE_RADIAL = {("O(2) x D3", 1), ("O(2) x D3z", 1), ("O(2) x D4z", 1),
               ("O(2) x D4d", 1)}
# name-addressable coefficients of the published expansion
CUBE_SPOT_TERMS = {
    "O(2) x Z1": 1, "O(2) x D3": 1, "O(2) x D3z": 1, "O(2) x D4z": 1,
    "O(2) x D4d": 1, "O(2) x D1": -1, "O(2) x D1z": -1, "O(2) x V4m": -1,
    "O(2) x Z3": -1, "D1 x_{Z2} D1z": -8, "D4 x_{D4}^{Z2m} D4p": 2,
    "D2^{D1} x_{Z2}^{S4} S4p": -1,
}
FULL_CLASS_S4 = "O(2) x S4p"     # O(2) x S4 x Z2, the ring's unit


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def records(out: bytes, allow_empty: bool = False) -> list[dict]:
    recs = []
    for line in out.decode().splitlines():
        if line.strip():
            r = json.loads(line)
            _require(r.get("schema") == 1, f"record without schema 1: {line}")
            recs.append(r)
    _require(bool(recs) or allow_empty, "no output records")
    return recs


def _of(recs: list[dict], kind: str) -> list[dict]:
    return [r for r in recs if r["record"] == kind]


# ---------------------------------------------------------------------------
# Bessel zeros and problem data, computed here

@lru_cache(maxsize=None)
def _zeros(m: int, upper: float = _ZERO_UPPER) -> tuple[float, ...]:
    """Zeros of J_m up to ``upper`` and the first one above it."""
    n = 1
    while jn_zeros(m, n)[-1] <= upper:
        n += 1
    return tuple(float(z) for z in jn_zeros(m, n))


def bessel_clearance(x: float) -> float:
    """Distance from x to the nearest positive zero of any J_m, m <= 12."""
    return min(abs(z - x) for m in range(_ZERO_MODES) for z in _zeros(m))


def count_below(m: int, mu: float) -> int:
    return sum(1 for z in _zeros(m) if z < mu)


def _cube_adjacency() -> np.ndarray:
    """The cube graph: vertices are 3-bit words, edges flip one bit."""
    return np.array([[1.0 if bin(a ^ b).count("1") == 1 else 0.0
                      for b in range(8)] for a in range(8)])


def problem_matrix(doc: dict) -> np.ndarray:
    if "cube" in doc:
        c = float(Fraction(str(doc["cube"]["c"])))
        d = float(Fraction(str(doc["cube"]["d"])))
        return c * np.eye(8) + d * _cube_adjacency()
    return np.array([[float(Fraction(str(v))) for v in row]
                     for row in doc["matrix"]])


# ---------------------------------------------------------------------------
# solve

def check_solve(out: bytes, matrix: np.ndarray, paper_cube: bool = False,
                radial_free: bool = False) -> None:
    recs = records(out)
    k = len(matrix)
    eig = _of(recs, "eigenvalue")
    _require(sum(r["dim"] for r in eig) == k, "eigenvalue dims do not sum to k")
    got = sorted(float(Fraction(r["mu"])) for r in eig for _ in range(r["dim"]))
    want = sorted(np.linalg.eigvalsh(matrix))
    _require(all(abs(a - b) <= EIG_TOL * max(1.0, abs(b))
                 for a, b in zip(got, want)),
             f"eigenvalues {got} differ from numpy {want}")
    positive = {}
    for r in eig:
        mu = float(Fraction(r["mu"]))
        if mu > 0:
            positive[mu] = positive.get(mu, 0) + r["dim"]

    cond = _of(recs, "condition")
    _require(len(cond) == 1, "missing condition record")
    clear = min((bessel_clearance(mu) for mu in positive), default=1.0)
    _require(cond[0]["ok"] == (clear > D_GUARD),
             f"condition (D) reported {cond[0]['ok']}, clearance {clear}")
    _require(cond[0]["ok"], "workload problem violates condition (D)")

    counts = _of(recs, "mode_counts")
    _require(len(counts) == 1, "missing mode_counts record")
    counts = {int(m): v for m, v in counts[0]["counts"].items()}
    for m in range(_ZERO_MODES):
        want_m = sum(count_below(m, mu) * dim for mu, dim in positive.items())
        _require(counts.get(m, 0) == want_m,
                 f"mode_counts[{m}] = {counts.get(m)}, expected {want_m}")

    terms = [(r["name"], r["coeff"]) for r in _of(recs, "expansion")]
    _require(all(c != 0 for _, c in terms), "zero coefficient in expansion")
    _require(len({n for n, _ in terms}) == len(terms), "repeated class in expansion")
    for r in _of(recs, "counter"):
        odd = [int(v) for v, t in r["m_of"].items() if t % 2]
        _require(r["nu0"] == (max(odd) if odd else None),
                 f"nu0 of {r['class']} is not its largest odd level")
    # every maximal type with an odd counter is a non-radial family
    odd_counters = {(r["class"], r["nu0"]) for r in _of(recs, "counter")
                    if r["nu0"] is not None}
    nonradial = _of(recs, "nonradial")
    _require({(r["base"], r["nu0"]) for r in nonradial} == odd_counters
             and len(nonradial) == len(odd_counters),
             "non-radial families do not match the odd counters")
    _require(all(r["coeff"] != 0 for r in nonradial),
             "non-radial family without a nonzero witness")
    families = {(r["family"], r["nu0"]) for r in nonradial}
    radial = {(r["name"], r["coeff"]) for r in _of(recs, "radial")}

    # radial types come from odd mode-0 exponents only
    even0 = all(count_below(0, float(Fraction(r["mu"]))) * r["mult"] % 2 == 0
                for r in eig if float(Fraction(r["mu"])) > 0)
    if radial_free:
        _require(even0, "problem meant to have even mode-0 exponents does not")
    if even0:
        _require(not radial, f"radial types {radial} with even mode-0 exponents")

    if paper_cube:
        _require(len(terms) == CUBE_TERMS,
                 f"{len(terms)} expansion terms, the paper has {CUBE_TERMS}")
        _require(families == CUBE_FAMILIES, f"families {families}")
        _require(radial == CUBE_RADIAL, f"radial types {radial}")
        tmap = dict(terms)
        for name, v in CUBE_SPOT_TERMS.items():
            _require(tmap.get(name) == v, f"coefficient of ({name}) is "
                     f"{tmap.get(name)}, the paper has {v}")


# ---------------------------------------------------------------------------
# ring queries on the default-heads S4 x Z2 catalog

def head_of(name: str) -> int:
    m = re.match(r"D(\d+)(?=[\^ ])", name)
    if not m:
        raise CheckFailed(f"not a dihedral-headed class: {name}")
    return int(m.group(1))


def terms_of(out: bytes) -> list[tuple[str, int]]:
    recs = records(out)
    _require(all(r["record"] == "term" for r in recs), "non-term record")
    terms = [(r["name"], r["coeff"]) for r in recs]
    _require(all(isinstance(c, int) and c for _, c in terms),
             "zero or non-integer coefficient")
    _require(len({n for n, _ in terms}) == len(terms), "repeated class")
    return sorted(terms)


def check_terms(out: bytes, err: bytes = b"") -> None:
    terms_of(out)


def check_basic_degree(out: bytes, m: int) -> None:
    """Unit coefficient 1; the other terms are orbit types of mode m.

    The unit's coefficient is (-1)^dim V^G, which is 1 for every
    nontrivial irreducible V.
    """
    terms = dict(terms_of(out))
    _require(terms.pop(FULL_CLASS_S4, None) == 1,
             "basic degree lacks the unit term with coefficient 1")
    for name in terms:
        if m == 0:
            _require(name.startswith("O(2) x "),
                     f"mode-0 orbit type {name} is not O(2)-headed")
        else:
            _require(head_of(name) % m == 0,
                     f"mode-{m} orbit type {name} has a head not divisible by m")


def check_fold(out: bytes, name: str, nu: int, head: int) -> None:
    """Folding scales the dihedral head by nu and keeps the K-side class."""
    recs = records(out)
    _require(len(recs) == 1 and recs[0]["record"] == "fold", "not one fold record")
    r = recs[0]
    _require(r["name"] == name and r["nu"] == nu, "fold echoes wrong input")
    _require(head_of(r["result"]) == nu * head,
             f"fold {nu} of {name} gave {r['result']}, head not {nu * head}")
    _require(r["result"].split()[-1] == name.split()[-1],
             f"fold changed the K-side class: {r['result']}")


# ---------------------------------------------------------------------------
# Bessel zeros, character table, subgroup classes, refusal

def check_bessel(out: bytes, m: int, upper: float) -> None:
    recs = records(out, allow_empty=True)
    want = [z for z in _zeros(m, upper) if z <= upper]
    got = [r["value"] for r in recs]
    _require([r["n"] for r in recs] == list(range(1, len(want) + 1))
             and all(r["m"] == m for r in recs),
             f"zero records {[(r['m'], r['n']) for r in recs]}")
    _require(all(abs(a - b) <= BESSEL_TOL for a, b in zip(got, want)),
             f"J_{m} zeros differ from scipy by more than {BESSEL_TOL}")


def _s4_class_sizes() -> list[int]:
    def cycle_type(p):
        seen, out = set(), []
        for i in range(len(p)):
            j, c = i, 0
            while j not in seen:
                seen.add(j)
                j, c = p[j], c + 1
            if c:
                out.append(c)
        return tuple(sorted(out))
    return sorted(Counter(cycle_type(p)
                          for p in itertools.permutations(range(4))).values())


def check_chartab_s4(out: bytes, err: bytes = b"") -> None:
    """Row and column orthogonality, with class sizes read off the columns."""
    rows = [r["values"] for r in records(out)]
    n, k = 24, len(rows)
    _require(all(len(r) == k for r in rows), "character table is not square")
    cols = list(zip(*rows))
    cent = []
    for a in range(k):
        for b in range(k):
            s = sum(x * y for x, y in zip(cols[a], cols[b]))
            _require(s > 0 if a == b else s == 0,
                     f"columns {a}, {b} are not orthogonal")
        cent.append(sum(x * x for x in cols[a]))
    _require(all(n % c == 0 for c in cent), "centralizer order does not divide 24")
    sizes = [n // c for c in cent]
    _require(sorted(sizes) == _s4_class_sizes(), f"class sizes {sizes}")
    for i in range(k):
        for j in range(k):
            s = sum(z * x * y for z, x, y in zip(sizes, rows[i], rows[j]))
            _require(s == (n if i == j else 0), f"rows {i}, {j} not orthogonal")


@lru_cache(maxsize=1)
def _s4z2_classes() -> list[tuple[int, int]]:
    """(order, Weyl order) of each subgroup class of S4 x Z2, brute force."""
    elems = [(p, z) for p in itertools.permutations(range(4)) for z in (0, 1)]
    mul = lambda a, b: (tuple(a[0][i] for i in b[0]), a[1] ^ b[1])
    inv = lambda a: (tuple(sorted(range(4), key=lambda i: a[0][i])), a[1])
    ident = (tuple(range(4)), 0)

    def span(gens):
        out, todo = {ident}, [ident]
        while todo:
            x = todo.pop()
            for g in gens:
                y = mul(x, g)
                if y not in out:
                    out.add(y)
                    todo.append(y)
        return frozenset(out)

    subs = {frozenset([ident]): []}
    frontier = list(subs.items())
    while frontier:
        nxt = []
        for H, gens in frontier:
            for g in elems:
                if g not in H:
                    K = span(gens + [g])
                    if K not in subs:
                        subs[K] = gens + [g]
                        nxt.append((K, subs[K]))
        frontier = nxt
    seen, out = set(), []
    for H in subs:
        if H in seen:
            continue
        orbit = {frozenset(mul(mul(g, h), inv(g)) for h in H) for g in elems}
        seen |= orbit
        out.append((len(H), len(elems) // len(orbit) // len(H)))
    return sorted(out)


def check_ccs_s4z2(out: bytes, err: bytes = b"") -> None:
    recs = records(out)
    _require([r["cid"] for r in recs] == list(range(len(recs))), "cids not 0..n-1")
    got = sorted((r["order"], r["weyl"]) for r in recs)
    _require(got == _s4z2_classes(),
             f"{len(got)} classes differ from the brute-force enumeration")


def check_refused(out: bytes, err: bytes) -> None:
    """Exit 2 must come with a one-line reason, not a traceback."""
    text = err.decode()
    _require(text.startswith("error:") and "Traceback" not in text,
             f"refusal without a reason: {text[-200:]!r}")
