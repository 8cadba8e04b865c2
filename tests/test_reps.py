"""Fixed-point dimensions in integers: the rotation sums behind them, against
float cosine oracles, and the checks that make them raise."""
import math

import numpy as np
import pytest

from discdeg.catalog import KINDS, ProductCatalog, on_head
from discdeg.permgroup import build_group, symmetric_group
from discdeg.reps import IrrDescriptor, RepContext, _rotation_sums


@pytest.fixture(scope="module")
def contexts(cube_pipeline):
    """Rep contexts of S3 x Z2, S4 x Z2 (cube heads, the divisors of 24, and
    heads without 2) and S5 x Z2."""
    def ctx(n, heads):
        return RepContext(ProductCatalog(build_group(f"S{n}*Z2"), heads),
                          symmetric_group(n))
    return {"S3": ctx(3, [1, 2, 3, 6]), "S4": cube_pipeline.ctx,
            "S4 heads 1,2,3,4,6,8,12,24": ctx(4, [1, 2, 3, 4, 6, 8, 12, 24]),
            "S4 heads 1,7,11,13,17": ctx(4, [1, 7, 11, 13, 17]),
            "S5": ctx(5, [1, 2, 3, 4, 5, 6])}


def _reps(ctx, modes=7):
    return [IrrDescriptor(m, j, s) for m in range(modes)
            for j in range(len(ctx.gamma_table.irreps)) for s in (-1, 1)]


def _float_chi(ctx, rep):
    """The character of U_j^sign on K, in floats."""
    K, d = ctx.catalog.K, ctx.gamma.degree
    z = K.factors[-1][1]
    return np.array([ctx.gamma_table.value(rep.j, g[:d])
                     * (-1 if rep.sign < 0 and g[z] != z else 1)
                     for g in K.elements], dtype=float)


def _float_dims(ctx, rep):
    """The character of W_m (x) U_j^sign averaged over the head points of
    every class in floats: 2 cos(2 pi m k / h) at rotation k of D_h.  Each
    class's labels, the row over each point of its head, are its gluing
    row spread over the head (``on_head``), for all classes of one kind,
    head and period at once; SO(2) keeps only the rotation's."""
    cat = ctx.catalog
    c = cat.rows @ _float_chi(ctx, rep)
    (q, at), out = cat._glue, np.full(len(cat), np.nan)
    keys = np.c_[cat.classes["kind"], cat.classes["head"], q]
    for kind, h, p in np.unique(keys, axis=0).tolist():
        ids = np.flatnonzero((keys == (kind, h, p)).all(axis=1))
        labels = on_head(cat.gluings[p][at[ids]], max(h, 1))
        labels = labels[:, :1] if KINDS[kind] == "SO2" else labels
        n = labels.shape[1]
        w = (np.ones(n) if rep.m == 0 else np.zeros(n) if h == 0 else
             np.r_[2 * np.cos(2 * math.pi * rep.m * np.arange(h) / h),
                   np.zeros(h)])
        out[ids] = c[labels] @ w / (n * cat.rows[labels[:, 0]].sum(1))
    return out


@pytest.mark.parametrize("which, modes", [
    ("S3", 7), ("S4", 7), ("S5", 7), ("S4 heads 1,2,3,4,6,8,12,24", 9)],
    ids=["S3", "S4", "S5", "S4 heads 1,2,3,4,6,8,12,24"])
def test_fixed_dims_match_a_float_cosine_oracle(which, modes, contexts):
    """Every class, every mode below ``modes``, every irreducible and sign:
    the integer dimension is the float average, which lies within 1e-6 of
    it.  On the divisors of 24, modes 4 and 8 meet kernels Z4 and Z8."""
    ctx = contexts[which]
    for rep in _reps(ctx, modes):
        d = _float_dims(ctx, rep)
        assert np.abs(d - ctx.fixed_dims(rep)).max() < 1e-6, rep


@pytest.mark.parametrize("which", ["S3", "S4", "S4 heads 1,7,11,13,17", "S5"])
def test_fixed_point_heads_match_the_float_threshold(which, contexts):
    """The heads r d whose gluings of period r fix a vector at mode m/d, by
    a float cosine sum against r |R| (an integer dimension above 1/2), over
    the rotation half of each period's gluing table."""
    ctx = contexts[which]
    cat = ctx.catalog
    size = cat.rows.sum(axis=1)
    for rep in _reps(ctx):
        if not rep.m:
            continue
        c = cat.rows @ _float_chi(ctx, rep)
        want = {r * d for r, rows in cat.gluings.items()
                for ids in [rows[:, :r]]
                for d in range(1, rep.m + 1) if rep.m % d == 0
                and (c[ids] @ (2 * np.cos(2 * math.pi * (rep.m // d)
                                          * np.arange(r) / r))
                     > r * size[ids[:, 0]]).any()}
        assert ctx.fixed_point_heads(rep) == want, rep


def test_rotation_sums_are_the_cosine_sums():
    """Random integer sums constant on the gcd classes of every h <= 30,
    for modes 0-12: the integer result is the float cosine sum."""
    rng = np.random.default_rng(1)
    for h in range(1, 31):
        gcd = np.gcd(np.arange(h), h)
        c = rng.integers(-50, 50, size=(3, h + 1))[:, gcd]
        for m in range(13):
            w = 2 * np.cos(2 * math.pi * m * np.arange(h) / h)
            got = _rotation_sums(c, m)
            assert got.dtype == np.int64
            assert np.abs(got - c @ w).max() < 1e-9, (h, m)


def test_rotation_sums_reject_sums_that_break_the_gcd_rule():
    """Rotations 1 and 3 of D4 generate the same group, so their sums
    must agree."""
    c = np.array([[4, 2, 0, 2], [4, 1, 0, 3]])
    with pytest.raises(AssertionError, match="differ within a gcd class"):
        _rotation_sums(c, 1)


def test_a_non_integral_dimension_raises_naming_rep_and_class(contexts):
    """A class function that is no character (1 at the identity of K, 0
    elsewhere) gives O(2) x K' the dimension 1/|K'|: it raises at the first
    such class."""
    ctx = RepContext(contexts["S3"].catalog, symmetric_group(3))
    delta = np.zeros(ctx.catalog.K.order, dtype=np.int64)
    delta[0] = 1
    ctx._chi = lambda rep: delta
    with pytest.raises(AssertionError,
                       match=r"not a nonneg integer for W0 \(x\) U0- at "):
        ctx.fixed_dims(IrrDescriptor(0, 0, -1))
