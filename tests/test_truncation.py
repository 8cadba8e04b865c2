"""Finite-truncation oracle: D24 x S4 x Z2.

Every dihedral-headed catalog class whose head divides 24 embeds in the
finite group G24 = D24 x K (|G24| = 2304) as an explicit subgroup (its
"avatar").  Inside G24 everything is brute-forceable: subgroup closure,
conjugacy, containment counts, and vector stabilizers.  The ambient
conjugacy relation is G24-conjugacy extended by the half-step axis shift
(conjugation by a rotation that lies outside D24 but normalizes it).
"""
import math
import random

import numpy as np
import pytest

from conftest import grid_rowid
from discdeg.characters import character_table
from discdeg.elliptic import cube_action
from discdeg.permgroup import pidentity, pinv, pmul
from discdeg.reps import IrrDescriptor, maximal_orbit_types_union

HEADS_24 = {1, 2, 3, 4, 6, 8, 12}
N = 24


# -- the finite model ----------------------------------------------------------
# Elements are (flip, t, k): flip in {0,1}, t in Z_24, k an index into
# K.elements.  Rotation t has angle 2*pi*t/24; reflection (1, t) has axis
# angle t*pi/24 (same convention as the catalog grid, scaled by 6).

class Model24:
    def __init__(self, K):
        self.K = K
        self.kmul = [[K.index_of[pmul(a, b)] for b in K.elements]
                     for a in K.elements]
        self.kinv = [K.index_of[pinv(g)] for g in K.elements]
        self.eid = K.index_of[pidentity(K.degree)]
        self.elements = [(f, t, k) for f in (0, 1) for t in range(N)
                         for k in range(len(K.elements))]

    def mul(self, a, b):
        f1, t1, k1 = a
        f2, t2, k2 = b
        t = (t1 + t2) % N if f1 == 0 else (t1 - t2) % N
        return (f1 ^ f2, t, self.kmul[k1][k2])

    def inv(self, a):
        f, t, k = a
        return (f, t if f else (-t) % N, self.kinv[k])

    def conj(self, g, x):
        return self.mul(self.mul(g, x), self.inv(g))

    def conj_set(self, g, s):
        return frozenset(self.conj(g, x) for x in s)

    @staticmethod
    def half_shift(s):
        """Conjugation by the rotation of angle pi/24 (in O(2), outside D24):
        rotations are fixed, reflection axes advance one step."""
        return frozenset((f, (t + f) % N, k) for f, t, k in s)


def _model(cat):
    return Model24(cat.K)


def avatar(cat, cid):
    """The catalog class representative as an explicit subgroup of G24."""
    assert int(cat.classes["head"][cid]) in HEADS_24     # 0 unless D
    step = cat.P // N          # = 6 for the cube catalog grid
    out = set()
    for o2, k in zip(*np.nonzero(cat.rows[grid_rowid(cat, cid)])):
        f, t = (1, o2 - cat.P) if o2 >= cat.P else (0, o2)
        assert t % step == 0, "class does not live on the D24 subgrid"
        out.add((f, t // step, int(k)))
    assert len(out) == cat.classes["size"][cid]
    return frozenset(out)


def conjugacy_orbit(m, sub, limit=200000):
    """All G24-subgroups ambient-conjugate to ``sub``: closure under
    conjugation by G24 generators and the half-step shift."""
    gens = [(0, 1, m.eid), (1, 0, m.eid)]
    gens += [(0, 0, m.K.index_of[g]) for g in m.K.generators]
    seen = {sub}
    queue = [sub]
    while queue:
        s = queue.pop()
        images = [m.conj_set(g, s) for g in gens] + [m.half_shift(s)]
        for im in images:
            if im not in seen:
                seen.add(im)
                queue.append(im)
        if len(seen) > limit:
            raise RuntimeError("orbit blew up")
    return seen


def d24_classes(cat):
    return [cid for cid, head in enumerate(cat.classes["head"].tolist())
            if head in HEADS_24]


# -- avatars are honest subgroups (Goursat soundness) --------------------------

def test_avatars_are_subgroups(cube_pipeline):
    cat = cube_pipeline.catalog
    m = _model(cat)
    rng = random.Random(7)
    cids = d24_classes(cat)
    sample = rng.sample(cids, 60) + [
        cid for cid in cids if cat.classes["head"][cid] in (8, 12)][:20]
    for cid in sample:
        A = avatar(cat, cid)
        assert (0, 0, m.eid) in A
        for a in A:
            assert m.inv(a) in A
        probe = list(A) if len(A) <= 24 else rng.sample(sorted(A), 24)
        for a in probe:
            for b in probe:
                assert m.mul(a, b) in A, cat.names[cid]


def test_avatar_order_matches_goursat_count(cube_pipeline, s4z2_table):
    """|U| = 2h * |K'| / |L|: the class size equals head times kernel size."""
    cat = cube_pipeline.catalog
    for cid in random.Random(3).sample(d24_classes(cat), 40):
        head, kp_cid, size = cat.classes[["head", "kp_cid", "size"]][
            cid].item()
        kp = s4z2_table.classes[kp_cid]
        r = int(cat.rows[grid_rowid(cat, cid)[0]].sum())        # |R|
        assert size == 2 * head * kp.order // (kp.order // r)


# -- conjugacy: distinct classes stay distinct ---------------------------------

def test_distinct_classes_have_disjoint_orbits(cube_pipeline):
    cat = cube_pipeline.catalog
    m = _model(cat)
    rng = random.Random(11)
    # group candidates by (head, size, K-projection) so the pairs tested are
    # the ones a weaker invariant could not separate
    buckets = {}
    for cid in d24_classes(cat):
        head, size, kp_cid = cat.classes[["head", "size", "kp_cid"]][cid].item()
        buckets.setdefault((head, size, kp_cid), []).append(cid)
    hard = [v for v in buckets.values() if len(v) > 1]
    pairs = []
    for group in rng.sample(hard, min(12, len(hard))):
        a, b = rng.sample(group, 2)
        pairs.append((a, b))
    for a, b in pairs:
        orb = conjugacy_orbit(m, avatar(cat, a))
        assert avatar(cat, b) not in orb, \
            (cat.names[a], cat.names[b])
        # sanity: the orbit does contain translated copies of a itself
        assert m.half_shift(avatar(cat, a)) in orb


# -- n-counts ------------------------------------------------------------------

def test_n_count_matches_brute_force(cube_pipeline):
    cat = cube_pipeline.catalog
    m = _model(cat)
    rng = random.Random(23)
    cids = d24_classes(cat)
    # bias the sample toward comparable pairs; keep the orbit sizes small by
    # preferring larger subgroups H
    big = [c for c in cids if cat.classes["size"][c] >= 8]
    checked_pos = checked_zero = 0
    orbits = {}
    while checked_pos < 25 or checked_zero < 10:
        h = rng.choice(big)
        l = rng.choice(cids)
        n = cat.column(h).get(l, 0)
        if n > 0 and checked_pos >= 25:
            continue
        if n == 0 and checked_zero >= 10:
            continue
        if h not in orbits:
            orbits[h] = conjugacy_orbit(m, avatar(cat, h))
        La = avatar(cat, l)
        brute = sum(1 for M in orbits[h] if La <= M)
        assert brute == n, (cat.names[l], cat.names[h], brute, n)
        if n > 0:
            checked_pos += 1
        else:
            checked_zero += 1


def test_n_count_d1_in_d2(cube_pipeline):
    """A conjugate of D2 contains the fixed axis of D1 only when its axis
    offset is 0 mod pi/2 -- exactly one subgroup, even though D2 splits into
    two axis flavours in any finite dihedral truncation."""
    cat = cube_pipeline.catalog
    m = _model(cat)
    l = cat.by_name["D1 x Z1"]
    h = cat.by_name["D2 x Z1"]
    assert cat.column(h).get(l, 0) == 1
    orb = conjugacy_orbit(m, avatar(cat, h))
    La = avatar(cat, l)
    assert sum(1 for M in orb if La <= M) == 1
    # and the dual direction: D2 contains 2 conjugates of D1
    assert sum(1 for M in conjugacy_orbit(m, La) if M <= avatar(cat, h)) == 2


# -- orbit types of the mode-m representations ---------------------------------

def _rep_matrices(cat, m_mode, j):
    """Explicit real matrices of G24 on the V_j block of R^2 (x) R^8 (mode
    m >= 1) or R^8 (mode 0), with the Z2 factor acting by the sign -1."""
    gamma, action = cube_action()
    K = cat.K
    table = character_table(gamma)
    deg = table.degrees[j]
    # exact isotypic projector onto the V_j block of the vertex rep
    P = np.zeros((8, 8))
    for g in gamma.elements:
        Mg = np.zeros((8, 8))
        for i in range(8):
            Mg[action[g][i], i] = 1.0
        P += table.value(j, g) * Mg
    P *= deg / gamma.order
    # orthonormal basis of the block
    w, vecs = np.linalg.eigh(P)
    B = vecs[:, w > 0.5]
    assert B.shape[1] == deg        # V_j appears with multiplicity 1
    mats = {}
    for (f, t) in [(f, t) for f in (0, 1) for t in range(N)]:
        if m_mode == 0:
            O = np.eye(1)
        else:
            a = 2 * math.pi * t / N * m_mode
            if f == 0:
                O = np.array([[math.cos(a), -math.sin(a)],
                              [math.sin(a), math.cos(a)]])
            else:
                b = 2 * m_mode * (t * math.pi / N)
                O = np.array([[math.cos(b), math.sin(b)],
                              [math.sin(b), -math.cos(b)]])
        for k, ke in enumerate(K.elements):
            gperm = tuple(ke[:4])
            sign = 1.0 if ke[4] == 4 else -1.0
            Mg = np.zeros((8, 8))
            for i in range(8):
                Mg[action[gperm][i], i] = 1.0
            blk = B.T @ Mg @ B
            mats[(f, t, k)] = sign * np.kron(O, blk)
    return mats


def test_rep_matrices_are_a_homomorphism(cube_pipeline):
    cat = cube_pipeline.catalog
    m = _model(cat)
    mats = _rep_matrices(cat, 1, 4)
    rng = random.Random(5)
    els = m.elements
    for _ in range(60):
        a, b = rng.choice(els), rng.choice(els)
        assert np.allclose(mats[m.mul(a, b)], mats[a] @ mats[b], atol=1e-10)


@pytest.mark.parametrize("m_mode,j", [(1, 0), (1, 3), (1, 4), (2, 4), (3, 3)])
def test_orbit_types_realized_by_stabilizers(cube_pipeline, m_mode, j):
    """Each emitted maximal orbit type with head dividing 24 is realized:
    its avatar's fixed space has the catalog's fixed dimension, and a
    generic fixed vector has the avatar as its exact stabilizer."""
    cat, ctx = cube_pipeline.catalog, cube_pipeline.ctx
    m = _model(cat)
    rep = IrrDescriptor(m_mode, j, -1)
    mats = _rep_matrices(cat, m_mode, j)
    rng = np.random.default_rng(42)
    tested = 0
    for cid in maximal_orbit_types_union(ctx, [rep]):
        if int(cat.classes["head"][cid]) not in HEADS_24:   # 0 unless D
            continue
        A = avatar(cat, cid)
        dim = mats[(0, 0, m.eid)].shape[0]
        # fixed space of the avatar
        stack = np.vstack([mats[g] - np.eye(dim) for g in A])
        _, s, vh = np.linalg.svd(stack)
        null = vh[np.concatenate([s, np.zeros(dim - len(s))]) < 1e-8]
        assert null.shape[0] == ctx.fixed_dims(rep)[cid], cat.names[cid]
        assert null.shape[0] > 0, cat.names[cid]
        # generic fixed vector: stabilizer inside G24 equals the avatar
        v = null.T @ rng.standard_normal(null.shape[0])
        stab = {g for g in m.elements
                if np.allclose(mats[g] @ v, v, atol=1e-8)}
        assert stab == set(A), cat.names[cid]
        tested += 1
    assert tested >= 1
