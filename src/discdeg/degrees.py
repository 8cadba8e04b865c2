"""Equivariant degree computations: basic degrees and linearized degrees.

The degree of -id on the unit ball of a representation V has the mark
(-1)^{dim V^H} at each class (H), so its coefficients follow the top-down
mark recurrence (``BurnsideRing.from_marks``)

    n_H = ( (-1)^{dim V^H} - sum_{(L) > (H)} n_L * n(H, L) * |W(L)| ) / |W(H)|

over the classes with a nonzero fixed space in V together with the class
of the full group.  The coefficients vanish off the orbit types by
themselves, so none has to be found first, and the recurrence reads the
column of a class only where its coefficient is nonzero.  For an
irreducible V it is the basic degree, an involution: deg * deg = (G).
Marks multiply, so a product of basic degrees is the degree on the sum of
their reps: ``linear_degree`` needs one recurrence and no ring product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .burnside import BurnsideElement, BurnsideRing
from .catalog import (MAX_HEAD, ProductCatalog, cached_catalog,
                      required_heads)
from .permgroup import (FiniteGroup, SubgroupClassTable, cyclic_group,
                        direct_product)
from .reps import IrrDescriptor, RepContext


@dataclass
class PipelineContext:
    """Catalog, ring and representation data shared across a run."""
    catalog: ProductCatalog
    ring: BurnsideRing
    ctx: RepContext


def build_context(gamma: FiniteGroup, modes=None, heads=None,
                  cache=None) -> PipelineContext:
    """Catalog, ring and rep data for O(2) x Gamma x Z2 on ``heads``, or on
    those the active modes of the ``bessel.ModeTable`` ``modes`` need.  The
    head list and the catalog go through ``cache(tag, build)`` when given,
    so a stored catalog is found without the subgroup table of K."""
    cache = cache or (lambda tag, build: build())
    K = direct_product(gamma, cyclic_group(2))
    ktable = lru_cache(maxsize=1)(lambda: SubgroupClassTable(K))
    if heads is None:
        active = sorted(m for m, c in modes.counts.items() if m >= 1 and c > 0)
        heads = cache(f"heads|{K.name}|{active}",
                      lambda: required_heads(ktable(), set(active)))
    cat = cached_catalog(K, heads, cache, make_ktable=ktable)
    return PipelineContext(catalog=cat, ring=BurnsideRing(cat),
                           ctx=RepContext(cat, gamma))


def linear_degree(ring: BurnsideRing, ctx: RepContext,
                  reps: list[IrrDescriptor]) -> BurnsideElement:
    """Degree of -id on the sum of ``reps``: their basic degrees' product."""
    cat = ctx.catalog
    for rep in reps:
        if rep.m < 0 or not 0 <= rep.j < len(ctx.gamma_table.irreps):
            raise ValueError(
                f"no irreducible {rep} for Gamma = {ctx.gamma.name}")
        # the degree needs the head of every orbit type (each has a nonzero
        # fixed space), m's among them (Psi_m of D1 x Z1 fixes U); a mode
        # above MAX_HEAD is refused for m alone, before its heads are walked
        needed = (ctx.fixed_point_heads(rep) if 0 < rep.m <= MAX_HEAD
                  else {rep.m} - {0})
        if max(needed, default=0) > MAX_HEAD:
            raise ValueError(f"{rep} needs head D{max(needed)}, beyond the "
                             f"largest supported head D{MAX_HEAD}")
        if missing := sorted(needed - set(cat.heads)):
            raise ValueError(f"{rep} needs catalog heads {missing}, missing "
                             f"from the heads {cat.heads}")
    dims = sum(map(ctx.fixed_dims, reps), np.zeros(len(cat), dtype=np.int64))
    odd = (dims % 2).tolist()
    # the full class is the orbit type of the origin
    domain = set(np.flatnonzero(dims).tolist()) | {cat.full_cid}
    return ring.element(ring.from_marks(domain, lambda h: 1 - 2 * odd[h]))


def basic_degree(ring: BurnsideRing, ctx: RepContext,
                 rep: IrrDescriptor) -> BurnsideElement:
    """The basic degree of ``rep``: the degree of -id on it alone."""
    return linear_degree(ring, ctx, [rep])
