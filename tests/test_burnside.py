"""Burnside ring arithmetic: axioms, marks, and the coset-orbit oracle."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discdeg.burnside import BurnsideRing
from discdeg.catalog import ProductCatalog
from discdeg.permgroup import (SubgroupClassTable, cyclic_group,
                               direct_product, pidentity, pinv, pmul,
                               symmetric_group)


@pytest.fixture(scope="module")
def finite_ring(s4z2_table):
    return BurnsideRing(s4z2_table)


# -- coset-orbit brute force oracle (finite group) ---------------------------

def _cosets(G, H):
    seen, out = set(), []
    for g in G.elements:
        c = frozenset(pmul(g, h) for h in H)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _orbit_product_coeffs(G, table, h_cid, k_cid):
    """Coefficients of (H)·(K) by decomposing G/H x G/K into orbits."""
    H = table.classes[h_cid].representative
    K = table.classes[k_cid].representative
    ch, ck = _cosets(G, H), _cosets(G, K)
    class_of = {S: r.cid for r in table.classes for S in r.members}
    idx_h = {c: i for i, c in enumerate(ch)}
    idx_k = {c: i for i, c in enumerate(ck)}
    act_h = {g: [idx_h[frozenset(pmul(g, x) for x in c)] for c in ch]
             for g in G.elements}
    act_k = {g: [idx_k[frozenset(pmul(g, x) for x in c)] for c in ck]
             for g in G.elements}
    unseen = {(i, j) for i in range(len(ch)) for j in range(len(ck))}
    coeffs = {}
    while unseen:
        i0, j0 = next(iter(unseen))
        orbit = {(i0, j0)}
        frontier = [(i0, j0)]
        while frontier:
            i, j = frontier.pop()
            for g in G.generators:
                t = (act_h[g][i], act_k[g][j])
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        unseen -= orbit
        stab = frozenset(g for g in G.elements
                         if act_h[g][i0] == i0 and act_k[g][j0] == j0)
        cid = class_of[stab]
        coeffs[cid] = coeffs.get(cid, 0) + 1
    return coeffs


def test_generator_products_match_coset_orbits(s4z2, s4z2_table, finite_ring):
    """Every generator pair in A(S4 x Z2) against the brute-force oracle."""
    n = len(s4z2_table.classes)
    for h in range(n):
        for k in range(h, n):
            if k == s4z2_table.full_cid:
                got = {h: 1}
            else:
                got = dict(finite_ring.multiply(
                    finite_ring.generator(h), finite_ring.generator(k)).coeffs)
            want = _orbit_product_coeffs(s4z2, s4z2_table, h, k)
            assert got == want, (h, k)


# -- ring axioms --------------------------------------------------------------

def _true_generator(ring, cid):
    """The honest Burnside generator in the lattice's reported basis.

    For lattices whose reported Weyl order halves the plain normalizer
    quotient, the true class (H) carries reported coefficient 2.
    """
    lat = ring.lattice
    w = lat.weyl_orders[cid]
    scale = (int(lat.classes["n_model"][cid] // lat.classes["size"][cid])
             if isinstance(lat, ProductCatalog) else w)
    return ring.generator(cid) * (scale // w)


def _random_element(ring, rng, nclasses):
    el = ring.zero()
    for _ in range(rng.randint(1, 4)):
        g = _true_generator(ring, rng.randrange(nclasses))
        el = el + g if rng.random() < 0.7 else el - g
    return el


def test_ring_axioms_finite(s4z2_table, finite_ring):
    rng = random.Random(0)
    n = len(s4z2_table.classes)
    one = finite_ring.one()
    for _ in range(300):
        a = _random_element(finite_ring, rng, n)
        b = _random_element(finite_ring, rng, n)
        c = _random_element(finite_ring, rng, n)
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == ((a * b) + (a * c)).coeffs
        assert (a * one).coeffs == a.coeffs


def test_ring_axioms_catalog(cube_pipeline):
    cat, ring = cube_pipeline.catalog, cube_pipeline.ring
    rng = random.Random(1)
    n = len(cat.classes)
    one = ring.one()
    for _ in range(40):
        a = _random_element(ring, rng, n)
        b = _random_element(ring, rng, n)
        c = _random_element(ring, rng, n)
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == ((a * b) + (a * c)).coeffs
        assert (a * one).coeffs == a.coeffs


def test_marks_are_multiplicative(cube_pipeline):
    """mark_L is a ring homomorphism to the integers."""
    cat, ring = cube_pipeline.catalog, cube_pipeline.ring
    rng = random.Random(2)
    n = len(cat.classes)
    for _ in range(25):
        a = _random_element(ring, rng, n)
        b = _random_element(ring, rng, n)
        ab = a * b
        for _ in range(6):
            l = rng.randrange(n)
            assert ring.mark(dict(ab.coeffs), l) == \
                ring.mark(dict(a.coeffs), l) * ring.mark(dict(b.coeffs), l)


def test_square_leading_coefficient(cube_pipeline):
    """coeff at (H) of (H)^2 equals the reported Weyl order of (H)."""
    cat, ring = cube_pipeline.catalog, cube_pipeline.ring
    rng = random.Random(4)
    for cid in rng.sample(range(len(cat.classes)), 30):
        g = ring.generator(cid)
        sq = g * g
        expect = 1 if cid == cat.full_cid else cat.weyl_orders[cid]
        assert sq.coeff(cid) == expect


def test_one_is_full_class(cube_pipeline):
    ring = cube_pipeline.ring
    one = ring.one()
    assert one.coeffs == {cube_pipeline.catalog.full_cid: 1}


def test_integer_scalar_multiplication(finite_ring):
    g = finite_ring.generator(0)
    assert (g * 3).coeffs == {0: 3}
    assert (g * 0).coeffs == {}


def test_fold_is_additive_ring_map(cube_pipeline):
    """Folding commutes with addition and preserves the identity."""
    cat, ring = cube_pipeline.catalog, cube_pipeline.ring
    d_cids = [cid for cid, head in enumerate(cat.classes["head"].tolist())
              if head and 2 * head in cat.heads]
    rng = random.Random(5)
    for _ in range(10):
        a = ring.generator(rng.choice(d_cids))
        b = ring.generator(rng.choice(d_cids))
        assert (a + b).fold(2).coeffs == (a.fold(2) + b.fold(2)).coeffs


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 32), st.integers(-3, 3)),
                min_size=0, max_size=5))
def test_add_sub_neg_consistency(s4z2_table, pairs):
    ring = BurnsideRing(s4z2_table)
    el = ring.zero()
    for c, v in pairs:
        el = el + ring.generator(c) * v
    assert (el - el).coeffs == {}
    assert (-(-el)).coeffs == el.coeffs
