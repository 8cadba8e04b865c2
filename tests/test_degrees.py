"""Basic degrees, folding, and the coefficient lemmas of the degree engine."""
import math
import random
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_sizes
from discdeg.burnside import BurnsideRing
from discdeg.catalog import KINDS, ProductCatalog, dihedral_quotient_orders
from discdeg.degrees import basic_degree, linear_degree
from discdeg.elliptic import odd_reps
from discdeg.permgroup import (SubgroupClassTable, build_group, cyclic_group,
                               direct_product)
from discdeg.reps import (IrrDescriptor, RepContext, _maximal,
                          maximal_orbit_types_union)

# the reps whose basic degrees drive the published worked example,
# with their exponents in the linear degree product
CUBE_EXPONENTS = {
    (0, 0): 2, (1, 0): 1, (2, 0): 1, (3, 0): 1,
    (0, 4): 1, (1, 4): 1, (0, 3): 1,
}
ALL_REPS = sorted(CUBE_EXPONENTS) + [(1, 3)]


def _deg(pipe, m, j):
    return basic_degree(pipe.ring, pipe.ctx, IrrDescriptor(m, j, -1))


def test_every_basic_degree_squares_to_one(cube_pipeline):
    one = cube_pipeline.ring.one()
    for m, j in ALL_REPS:
        d = _deg(cube_pipeline, m, j)
        assert (d * d).coeffs == one.coeffs, (m, j)


def test_deg_1_0_two_terms(cube_pipeline):
    """deg of the mode-1 trivial-character rep: (G) - (D2^{D1} x_{Z2}^{S4} S4p)."""
    d = _deg(cube_pipeline, 1, 0)
    assert d.coeff(cube_pipeline.catalog.full_cid) == 1
    assert d.coeff_by_name("D2^{D1} x_{Z2}^{S4} S4p") == -1
    assert len(d.coeffs) == 2


def test_deg_1_chi4_matches_published_12_terms(cube_pipeline):
    """The published 12-nontrivial-term mode-1 basic degree.

    In the published labeling this expansion belongs to the eigenvalue
    mu = c + d whose isotypic character is the 5-column row (3,-1,-1,0,1),
    index 4 in the canonical table order.
    """
    cat = cube_pipeline.catalog
    d = _deg(cube_pipeline, 1, 4)
    nontrivial = {c: v for c, v in d.coeffs.items() if c != cat.full_cid}
    assert d.coeff(cat.full_cid) == 1
    assert len(nontrivial) == 12
    # coefficient multiset of the printed expansion
    assert Counter(nontrivial.values()) == {-2: 3, -1: 4, 2: 4, 1: 1}
    # the name-identified maximal classes with printed coefficients
    assert d.coeff_by_name("D6 x_{D6} D3p") == -2
    assert d.coeff_by_name("D4 x_{D4}^{Z2m} D4p") == -2
    assert d.coeff_by_name("D2^{D1} x_{Z2}^{D2d} D2p") == -1
    assert d.coeff_by_name("D2^{D1} x_{Z2}^{D4z} D4p") == -1


def test_fold_of_basic_degree_is_folded_mode(cube_pipeline):
    """Psi_nu(deg of mode m) = deg of mode nu*m."""
    for j in (0, 3, 4):
        d1 = _deg(cube_pipeline, 1, j)
        for nu in (2, 3):
            assert d1.fold(nu).coeffs == _deg(cube_pipeline, nu, j).coeffs


def test_maximal_mode1_types_are_the_published_seven(cube_pipeline):
    names = {cube_pipeline.catalog.names[c]
             for c in maximal_orbit_types_union(
                 cube_pipeline.ctx,
                 [IrrDescriptor(1, j, -1) for j in (0, 1, 3, 4)])}
    assert names == {
        "D6 x_{D6} D3p",
        "D4 x_{D4}^{Z2m} D4p",
        "D2^{D1} x_{Z2}^{D2d} D2p",
        "D2^{D1} x_{Z2}^{D4z} D4p",
        "D2^{D1} x_{Z2}^{D4d} D4p",
        "D2^{D1} x_{Z2}^{S4} S4p",
        "D2^{D1} x_{Z2}^{S4m} S4p",
    }


def test_folded_mode1_types_are_mode_nu_types(cube_pipeline):
    """Psi_nu(M_1) = M_nu for nu in {2, 3}, by direct recomputation."""
    cat, ctx = cube_pipeline.catalog, cube_pipeline.ctx
    reps1 = [IrrDescriptor(1, j, -1) for j in (0, 1, 3, 4)]
    m1 = maximal_orbit_types_union(ctx, reps1)
    for nu in (2, 3):
        reps_nu = [IrrDescriptor(nu, j, -1) for j in (0, 1, 3, 4)]
        m_nu = set(maximal_orbit_types_union(ctx, reps_nu))
        folded = {cat.fold_class(c, nu) for c in m1}
        assert folded == m_nu


def test_basic_degree_maximal_coefficient_formula(cube_pipeline):
    """coeff at a maximal type is -x_o with x_o read off dim parity and W."""
    cat, ctx = cube_pipeline.catalog, cube_pipeline.ctx
    for m, j in ALL_REPS:
        d = _deg(cube_pipeline, m, j)
        rep = IrrDescriptor(m, j, -1)
        for h in maximal_orbit_types_union(ctx, [rep]):
            dim = int(ctx.fixed_dims(rep)[h])
            w = cat.weyl_orders[h]
            if dim % 2 == 0:
                x = 0
            else:
                assert w in (1, 2)
                x = 2 // w
            assert d.coeff(h) == -x, (m, j, cat.names[h])


def _qualifying_pairs(pipe):
    """Pairs of basic degrees sharing a maximal type with odd fixed dims."""
    ctx = pipe.ctx
    reps = [IrrDescriptor(m, j, -1) for m, j in ALL_REPS]
    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1:]:
            shared = set(maximal_orbit_types_union(ctx, [r1])) & \
                set(maximal_orbit_types_union(ctx, [r2]))
            for h in shared:
                if ctx.fixed_dims(r1)[h] % 2 and ctx.fixed_dims(r2)[h] % 2:
                    yield r1, r2, h


def test_lemma_coefficient_identities(cube_pipeline):
    """Shared odd maximal types: equal coefficients, and 0 in the product."""
    pairs = list(_qualifying_pairs(cube_pipeline))
    assert pairs, "no qualifying pairs found in the worked example"
    for r1, r2, h in pairs:
        d1 = basic_degree(cube_pipeline.ring, cube_pipeline.ctx, r1)
        d2 = basic_degree(cube_pipeline.ring, cube_pipeline.ctx, r2)
        assert d1.coeff(h) == d2.coeff(h)              # part (i)
        assert (d1 * d2).coeff(h) == 0                 # part (ii)


def test_gdeg_linear_even_exponents_drop_out(cube_pipeline, cube41_spectrum,
                                             cube41_modes):
    """Squared factors contribute nothing: only odd multiplicities matter.
    The cube(4,1) exponents n_m(mu_j) m_j are CUBE_EXPONENTS, ``odd_reps``
    keeps the odd ones, and -id on every rep taken as often as its exponent
    has the degree of -id on those alone."""
    spec, modes = cube41_spectrum, cube41_modes
    exponents = {(m, e.j): modes.count_below(m, e.mu) * e.mult
                 for e in spec for m in range(modes.max_mode + 1)}
    assert {r: e for r, e in exponents.items() if e} == CUBE_EXPONENTS
    odd = odd_reps(spec, modes)
    assert odd == sorted(IrrDescriptor(m, j, -1)
                         for (m, j), e in CUBE_EXPONENTS.items() if e % 2)
    every = [IrrDescriptor(m, j, -1)
             for (m, j), e in CUBE_EXPONENTS.items() for _ in range(e)]
    ring, ctx = cube_pipeline.ring, cube_pipeline.ctx
    assert (linear_degree(ring, ctx, every).coeffs
            == linear_degree(ring, ctx, odd).coeffs)


def test_orbit_types_contain_full_fixed_classes(cube_pipeline):
    """Every term of the basic degree off the full class, an orbit type, has
    a nonzero fixed space; every class with one lies below a maximal orbit
    type, which has one too; no maximal one lies below another."""
    cat, ctx = cube_pipeline.catalog, cube_pipeline.ctx
    rep = IrrDescriptor(1, 4, -1)
    dims = ctx.fixed_dims(rep)
    terms = set(_deg(cube_pipeline, 1, 4).coeffs) - {cat.full_cid}
    assert terms and all(dims[h] > 0 for h in terms)
    mots = maximal_orbit_types_union(ctx, [rep])
    assert all(dims[t] > 0 for t in mots)
    for u in np.flatnonzero(dims).tolist():
        assert any(u in cat.column(t) for t in mots), cat.names[u]
    for t in mots:
        assert not any(s != t and s in cat.column(t) for s in mots)


# -- head-set consistency ------------------------------------------------------

_PIPELINES: dict = {}


def _pipeline(gamma: str, heads):
    """Ring and rep context of Gamma x Z2 on ``heads``, built once."""
    heads = sorted({d for h in heads for d in range(1, h + 1) if h % d == 0})
    key = (gamma, tuple(heads))
    if key not in _PIPELINES:
        G = build_group(gamma)
        cat = ProductCatalog(direct_product(G, cyclic_group(2)), heads)
        _PIPELINES[key] = BurnsideRing(cat), RepContext(cat, G)
    return _PIPELINES[key]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(gamma=st.sampled_from(["S3", "S4"]), m=st.integers(1, 3),
       j=st.integers(0, 4), sign=st.sampled_from([-1, 1]),
       extra=st.sampled_from([1, 4, 8, 9, 12]))
def test_basic_degree_is_the_same_on_a_larger_head_set(gamma, m, j, sign,
                                                       extra):
    """H1: the heads of the rep's fixed-point classes, which the head check
    asks for.  H2 adds r*m for every dihedral quotient order r of K (the old,
    stricter check) and one more head.  The degree on H2 has the same terms,
    and none on a class whose head only H2 has."""
    _, ctx0 = _pipeline(gamma, [1])
    rep = IrrDescriptor(m, j % len(ctx0.gamma_table.irreps), sign)
    h1 = ctx0.fixed_point_heads(rep) | {1}
    rs = dihedral_quotient_orders(SubgroupClassTable(ctx0.catalog.K))
    h2 = h1 | {r * m for r in rs} | {extra}
    assert 2 * math.lcm(*h2) <= 720
    ring1, ctx1 = _pipeline(gamma, h1)
    ring2, ctx2 = _pipeline(gamma, h2)
    d1 = basic_degree(ring1, ctx1, rep)
    d2 = basic_degree(ring2, ctx2, rep)
    assert d2.terms() == d1.terms(), rep
    heads1 = set(ctx1.catalog.heads)
    for cid in d2.coeffs:
        head = int(ctx2.catalog.classes["head"][cid])     # 0 unless D
        assert not head or head in heads1, (rep, ctx2.catalog.names[cid])


# -- the degree of -id on a sum ------------------------------------------------

def _ring_ctx(gamma, cube_pipeline):
    if gamma == "S4":
        return cube_pipeline.ring, cube_pipeline.ctx
    return _pipeline("S3", [1, 2, 3, 6])


@pytest.mark.parametrize("gamma", ["S3", "S4"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_linear_degree_of_a_sum_is_the_product(gamma, data, cube_pipeline):
    """deg(-id) on V_0 + V_1 + ..., a mode-0 rep and some of modes 1-3 whose
    fixed-point heads the catalog holds, is the ring product of their basic
    degrees."""
    ring, ctx = _ring_ctx(gamma, cube_pipeline)
    heads = set(ctx.catalog.heads)
    reps = [IrrDescriptor(m, j, s) for m in range(4)
            for j in range(len(ctx.gamma_table.irreps)) for s in (-1, 1)]
    reps = [r for r in reps if r.m == 0 or ctx.fixed_point_heads(r) <= heads]
    zero = data.draw(st.sampled_from([r for r in reps if r.m == 0]))
    rest = data.draw(st.lists(st.sampled_from([r for r in reps if r.m]),
                              min_size=1, max_size=3, unique=True))
    want = reduce(lambda x, r: x * basic_degree(ring, ctx, r), rest,
                  basic_degree(ring, ctx, zero))
    assert linear_degree(ring, ctx, [zero, *rest]).coeffs == want.coeffs


@pytest.mark.parametrize("gamma", ["S3", "S4"])
def test_ordered_maximal_matches_the_definition(gamma, cube_pipeline):
    """The classes below no other one, found from the largest down against
    the kept ones only, are those of the pairwise definition, on random
    sets of classes together with parts of their down-closures."""
    cat = _ring_ctx(gamma, cube_pipeline)[1].catalog
    rng = random.Random(7)
    for _ in range(20):
        tops = rng.sample(range(len(cat)), 4)
        ots = set(tops)
        for t in tops:
            down = tuple(cat.column(t))
            ots.update(rng.sample(down, min(len(down), 6)))
        ots = sorted(ots)
        size = grid_sizes(cat)
        want = [u for u in ots if not any(
            t != u and size[t] > size[u] and size[t] % size[u] == 0
            and u in cat.column(t) for t in ots)]
        assert _maximal(cat, ots) == want


def _maxima(cat, ids):
    """The classes of ``ids`` below no other one of ``ids``."""
    return set(ids) - {u for t in ids for u in cat.column(t) if u != t}


def _per_dimension_maxima(ctx, reps):
    """The maxima of the union of each rep's orbit types, as they were first
    defined: the maximal classes of each nonzero fixed-point dimension among
    those of the rep's kind (O(2)-headed for m = 0, else D-headed)."""
    cat, ots = ctx.catalog, set()
    for rep in reps:
        kind = KINDS.index("O2" if rep.m == 0 else "D")
        dims = ctx.fixed_dims(rep)
        of_kind = np.flatnonzero((cat.classes["kind"] == kind) & (dims > 0))
        for d in set(dims[of_kind].tolist()):
            ots |= _maxima(cat, of_kind[dims[of_kind] == d].tolist())
    return sorted(_maxima(cat, ots))


@pytest.mark.parametrize("gamma", ["S3", "S4"])
def test_maximal_orbit_types_match_the_per_dimension_definition(
        gamma, cube_pipeline):
    """The maximal classes with a nonzero fixed space in some rep are the
    maxima of the per-dimension orbit types, for every rep of modes 0-3
    alone and for each mode's reps together."""
    if gamma == "S4":
        ctx = cube_pipeline.ctx
    else:
        ctx = _pipeline("S3", [12, 18])[1]
    reps = [IrrDescriptor(m, j, s) for m in range(4)
            for j in range(len(ctx.gamma_table.irreps)) for s in (-1, 1)]
    for group in [[r] for r in reps] + [[r for r in reps if r.m == m]
                                        for m in range(4)]:
        assert (maximal_orbit_types_union(ctx, group)
                == _per_dimension_maxima(ctx, group)), group
