"""Acceptance suite: one test per top-level acceptance criterion.

Each test re-derives its target numbers end to end (no shortcuts through
intermediate fixtures beyond the shared catalog build) and enforces the
stated tolerances and runtime budgets.
"""
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from discdeg.bessel import ModeTable, bessel_j, bessel_zeros
from discdeg.burnside import BurnsideRing
from discdeg.characters import character_table, isotypic_multiplicities
from discdeg.degrees import basic_degree
from discdeg.elliptic import (collisions, cube_problem,
                              existence_report, isotypic_spectrum,
                              spectrum_summary)
from discdeg.naming import name_subgroup_classes
from discdeg.permgroup import (SubgroupClassTable, cyclic_group,
                               direct_product, symmetric_group)
from discdeg.reps import IrrDescriptor, maximal_orbit_types_union

from test_bessel import ZERO_TABLE
from test_burnside import _orbit_product_coeffs, _random_element
from test_catalog import S4Z2_NAMES
from test_degrees import _qualifying_pairs
from test_truncation import (HEADS_24, Model24, avatar, conjugacy_orbit,
                             d24_classes, _rep_matrices)

MAXIMAL_SEVEN = {
    "D6 x_{D6} D3p",
    "D4 x_{D4}^{Z2m} D4p",
    "D2^{D1} x_{Z2}^{D2d} D2p",
    "D2^{D1} x_{Z2}^{D4z} D4p",
    "D2^{D1} x_{Z2}^{D4d} D4p",
    "D2^{D1} x_{Z2}^{S4} S4p",
    "D2^{D1} x_{Z2}^{S4m} S4p",
}


# 1 ---------------------------------------------------------------------------

def test_criterion_1_subgroup_classes():
    """33 canonically named classes of S4 x Z2 in under 10 seconds."""
    t0 = time.perf_counter()
    table = SubgroupClassTable(direct_product(symmetric_group(4),
                                              cyclic_group(2)))
    name_subgroup_classes(table)
    assert time.perf_counter() - t0 < 10.0
    names = [r.name for r in table.classes]
    assert len(names) == 33
    assert sorted(names) == sorted(S4Z2_NAMES)   # bijection with the list
    assert len(set(names)) == 33                 # names are distinct


# 2 ---------------------------------------------------------------------------

def test_criterion_2_character_table(cube41):
    t = character_table(symmetric_group(4))
    assert [tuple(r) for r in t.irreps] == [
        (1, 1, 1, 1, 1),
        (1, -1, 1, 1, -1),
        (2, 0, 2, -1, 0),
        (3, 1, -1, 0, -1),
        (3, -1, -1, 0, 1),
    ]
    # vertex permutation character decomposes into irreps 0, 1, 3, 4
    mults = isotypic_multiplicities(t, cube41.permutation_character())
    assert mults == [1, 1, 0, 1, 1]


# 3 ---------------------------------------------------------------------------

def test_criterion_3_bessel_table():
    t0 = time.perf_counter()
    for (n, m), want in ZERO_TABLE.items():
        zs = bessel_zeros(m, want + 1.0)
        assert len(zs) >= n
        assert abs(zs[n - 1] - want) <= 5e-5, (n, m)
    assert time.perf_counter() - t0 < 1.0
    t = ModeTable(57.2)                 # first zeros up to j_{50,1} = 57.12
    for m in range(51):
        assert t.zeros[(1, m)] > (m * (m + 2)) ** 0.5


# 4 ---------------------------------------------------------------------------

def test_criterion_4_cube_spectrum():
    spec = isotypic_spectrum(cube_problem(4, 1))
    assert spectrum_summary(spec) == {Fraction(7): 1, Fraction(1): 1,
                                      Fraction(5): 3, Fraction(3): 3}
    assert collisions(spec, ModeTable(7.0)) == []


# 5 ---------------------------------------------------------------------------

def test_criterion_5_basic_degrees(cube_pipeline):
    cat, ring, ctx = (cube_pipeline.catalog, cube_pipeline.ring,
                      cube_pipeline.ctx)
    d10 = basic_degree(ring, ctx, IrrDescriptor(1, 0, -1))
    assert d10.coeffs == {cat.full_cid: 1,
                          cat.by_name["D2^{D1} x_{Z2}^{S4} S4p"]: -1}
    d14 = basic_degree(ring, ctx, IrrDescriptor(1, 4, -1))
    nontrivial = {c: v for c, v in d14.coeffs.items() if c != cat.full_cid}
    assert len(nontrivial) == 12
    assert Counter(nontrivial.values()) == {-2: 3, -1: 4, 2: 4, 1: 1}
    assert d14.coeff_by_name("D6 x_{D6} D3p") == -2
    assert d14.coeff_by_name("D4 x_{D4}^{Z2m} D4p") == -2
    assert d14.coeff_by_name("D2^{D1} x_{Z2}^{D2d} D2p") == -1
    assert d14.coeff_by_name("D2^{D1} x_{Z2}^{D4z} D4p") == -1
    # every basic degree the worked example uses is an involution
    one = ring.one().coeffs
    for m in (0, 1, 2, 3):
        for j in (0, 1, 3, 4):
            d = basic_degree(ring, ctx, IrrDescriptor(m, j, -1))
            assert (d * d).coeffs == one, (m, j)


# 6 ---------------------------------------------------------------------------

def test_criterion_6_maximal_types_and_folds(cube_pipeline):
    cat, ctx = cube_pipeline.catalog, cube_pipeline.ctx
    reps1 = [IrrDescriptor(1, j, -1) for j in (0, 1, 3, 4)]
    m1 = maximal_orbit_types_union(ctx, reps1)
    assert {cat.names[c] for c in m1} == MAXIMAL_SEVEN
    for nu in (2, 3):
        reps = [IrrDescriptor(nu, j, -1) for j in (0, 1, 3, 4)]
        assert ({cat.fold_class(c, nu) for c in m1}
                == set(maximal_orbit_types_union(ctx, reps)))


# 7 ---------------------------------------------------------------------------

def test_criterion_7_counters(cube41_report):
    expected_nu0 = {
        "D6 x_{D6} D3p": 1,
        "D4 x_{D4}^{Z2m} D4p": 1,
        "D2^{D1} x_{Z2}^{D2d} D2p": 1,
        "D2^{D1} x_{Z2}^{D4z} D4p": 1,
        "D2^{D1} x_{Z2}^{S4} S4p": 3,
    }
    by_name = {cc.name: cc for cc in cube41_report.counters}
    assert set(by_name) == MAXIMAL_SEVEN
    for name, nu0 in expected_nu0.items():
        assert by_name[name].m_of[1] == 1, name
        assert by_name[name].nu0 == nu0, name


# 8 ---------------------------------------------------------------------------

# the published 85-term expansion, frozen as per-kernel-bucket data: exact
# terms where the class is name-addressable, coefficient multisets for the
# dense bucket of Z1-kernel dihedral classes
BUCKET_0_TERMS = {
    "O(2) x Z1": 1, "O(2) x D3": 1, "O(2) x D3z": 1,
    "O(2) x D4z": 1, "O(2) x D4d": 1,
    "O(2) x D1": -1, "O(2) x D1z": -1, "O(2) x V4m": -1, "O(2) x Z3": -1,
}
BUCKET_1_MULTISET = {-8: 1, -2: 15, -1: 12, 1: 12, 2: 13, 4: 3}
# buckets 2 and 3 are the nu-folds of these ten mode-1 classes
FOLD_BASE_TERMS = {
    "D1 x D1": 1, "D1 x Z3": 1, "D2^{D1} x_{Z2} D1z": 1,
    "D2^{D1} x_{Z2}^{S4} S4p": 1, "D2^{D1} x_{Z2}^{Z2} V4m": 1,
    "D1 x D3": -1, "D1 x Z1": -1, "D2^{D1} x_{Z2}^{D2} D4d": -1,
    "D2^{D1} x_{Z2}^{Z3} D3z": -1, "D2^{D1} x_{Z2}^{Z4} D4z": -1,
}


def test_criterion_8_full_degree(cube_pipeline):
    t0 = time.perf_counter()
    rep = existence_report(cube_problem(4, 1), pipeline=cube_pipeline)
    assert time.perf_counter() - t0 < 300.0
    cat = cube_pipeline.catalog
    deg = rep.degree
    assert len(deg.coeffs) == 85
    buckets = {}
    for cid, v in deg.coeffs.items():
        head, bucket = cat.classes[["head", "bucket"]][cid].item()
        buckets.setdefault(bucket if head else 0, {})[cat.names[cid]] = v
    assert set(buckets) == {0, 1, 2, 3}
    assert buckets[0] == BUCKET_0_TERMS
    assert Counter(buckets[1].values()) == BUCKET_1_MULTISET
    assert len(buckets[1]) == 56
    for nu in (2, 3):
        folded = {cat.names[cat.fold_class(cat.by_name[n], nu)]: v
                  for n, v in FOLD_BASE_TERMS.items()}
        assert buckets[nu] == folded
    # name-addressable spot values of the printed expansion
    assert deg.coeff_by_name("D1 x_{Z2} D1z") == -8
    assert deg.coeff_by_name("D4 x_{D4}^{Z2m} D4p") == 2
    assert deg.coeff_by_name("D2^{D1} x_{Z2}^{S4} S4p") == -1
    assert deg.coeff_by_name("O(2) x Z1") == 1


# 9 ---------------------------------------------------------------------------

def test_criterion_9_existence_report(cube41_report):
    families = {(f.family_name, f.nu0) for f in cube41_report.non_radial}
    assert families == {
        ("D6m^{Zm} x_{D6} D3p", 1),
        ("D4m^{Zm} x_{D4}^{Z2m} D4p", 1),
        ("D2m^{Dm} x_{Z2}^{D2d} D2p", 1),
        ("D2m^{Dm} x_{Z2}^{D4z} D4p", 1),
        ("D2m^{Dm} x_{Z2}^{S4} S4p", 3),
    }
    assert {n for _, n, _ in cube41_report.radial} == {
        "O(2) x D3", "O(2) x D3z", "O(2) x D4z", "O(2) x D4d"}
    assert all(v == 1 for _, _, v in cube41_report.radial)


# 10 --------------------------------------------------------------------------

def test_criterion_10_ring_axioms_randomized(s4z2, s4z2_table):
    """Commutativity/associativity/distributivity/identity on 10^3 random
    elements of the Burnside ring of S4 x Z2."""
    ring = BurnsideRing(s4z2_table)
    rng = random.Random(2024)
    n = len(s4z2_table.classes)
    els = [_random_element(ring, rng, n) for _ in range(1000)]
    one = ring.one()
    for i in range(0, 999, 3):
        a, b, c = els[i], els[i + 1], els[i + 2]
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a * one).coeffs == a.coeffs


def test_criterion_10_coset_orbit_all_pairs(s4z2, s4z2_table):
    """ring.generator products match direct orbit counting on coset products
    for every pair of classes of S4 x Z2."""
    ring = BurnsideRing(s4z2_table)
    n = len(s4z2_table.classes)
    for h in range(n):
        for k in range(h, n):
            got = (ring.generator(h) * ring.generator(k)).coeffs
            want = _orbit_product_coeffs(s4z2, s4z2_table, h, k)
            assert got == {c: v for c, v in want.items() if v}, (h, k)


def test_criterion_10_truncation_agreement(cube_pipeline):
    """D24 x S4 x Z2 brute force: avatars close, n-counts match, and the
    mode-1 maximal orbit types are realized as exact vector stabilizers."""
    cat, ctx = cube_pipeline.catalog, cube_pipeline.ctx
    m = Model24(cat.K)
    rng = random.Random(99)
    cids = d24_classes(cat)
    # subgroup closure on a sample of avatars
    for cid in rng.sample(cids, 25):
        A = avatar(cat, cid)
        probe = list(A) if len(A) <= 16 else rng.sample(sorted(A), 16)
        for a in probe:
            for b in probe:
                assert m.mul(a, b) in A
    # n-counts against conjugate counting
    big = [c for c in cids if cat.classes["size"][c] >= 8]
    orbits = {}
    done = 0
    while done < 15:
        h, l = rng.choice(big), rng.choice(cids)
        if h not in orbits:
            orbits[h] = conjugacy_orbit(m, avatar(cat, h))
        La = avatar(cat, l)
        assert sum(1 for M in orbits[h] if La <= M) == cat.column(h).get(l, 0)
        done += 1
    # orbit types realized by stabilizers in the restricted representation
    import numpy as np
    nprng = np.random.default_rng(7)
    for j in (0, 3, 4):
        rep = IrrDescriptor(1, j, -1)
        mats = _rep_matrices(cat, 1, j)
        for cid in maximal_orbit_types_union(ctx, [rep]):
            if int(cat.classes["head"][cid]) not in HEADS_24:   # 0 unless D
                continue
            A = avatar(cat, cid)
            dim = mats[(0, 0, m.eid)].shape[0]
            stack = np.vstack([mats[g] - np.eye(dim) for g in A])
            _, s, vh = np.linalg.svd(stack)
            null = vh[np.concatenate([s, np.zeros(dim - len(s))]) < 1e-8]
            assert null.shape[0] == ctx.fixed_dims(rep)[cid]
            v = null.T @ nprng.standard_normal(null.shape[0])
            stab = {g for g in m.elements
                    if np.allclose(mats[g] @ v, v, atol=1e-8)}
            assert stab == set(A), cat.names[cid]


def test_criterion_10_lemma_identities(cube_pipeline):
    pairs = list(_qualifying_pairs(cube_pipeline))
    assert pairs
    for r1, r2, h in pairs:
        d1 = basic_degree(cube_pipeline.ring, cube_pipeline.ctx, r1)
        d2 = basic_degree(cube_pipeline.ring, cube_pipeline.ctx, r2)
        assert d1.coeff(h) == d2.coeff(h)
        assert (d1 * d2).coeff(h) == 0
