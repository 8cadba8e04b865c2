"""Equivariant degree computations: basic degrees and linearized degrees.

The basic degree of an irreducible representation V is the equivariant
Brouwer degree of -id on its unit ball.  Its coefficients follow the
top-down recurrence

    n_H = ( (-1)^{dim V^H} - sum_{(L) > (H)} n_L * n(H, L) * |W(L)| ) / |W(H)|

over the orbit types of V together with the class of the full group.
It is the mark recurrence of the Burnside ring, solved by
``BurnsideRing.from_marks`` with the mark (-1)^{dim V^H}.
Every basic degree is an involution: deg * deg = (G).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .burnside import BurnsideElement, BurnsideRing
from .reps import IrrDescriptor, RepContext, orbit_types


def basic_degree(ring: BurnsideRing, ctx: RepContext,
                 rep: IrrDescriptor) -> BurnsideElement:
    """The basic degree of ``rep``, computed once per rep on ``ctx``."""
    if rep in ctx.basic_degrees:
        return ctx.basic_degrees[rep]
    if rep.m < 0 or not 0 <= rep.j < len(ctx.gamma_table.irreps):
        raise ValueError(f"no irreducible {rep} for Gamma = {ctx.gamma.name}")
    cat = ctx.catalog
    # every orbit type of a mode-m rep has a nonzero fixed space; without
    # the heads of those classes the degree would be incomplete
    missing = sorted(ctx.fixed_point_heads(rep) - set(cat.heads)
                     if rep.m else ())
    if missing:
        raise ValueError(f"{rep} needs catalog heads {missing}, missing from "
                         f"the heads {cat.heads}")
    # the full class is an orbit type of the trivial rep; visit it once
    domain = set(orbit_types(ctx, rep)) | {cat.full_cid}
    ctx.basic_degrees[rep] = ring.element(ring.from_marks(
        domain, lambda h: -1 if ctx.fixed_dim(rep, h) % 2 else 1))
    return ctx.basic_degrees[rep]


@dataclass
class SpectralAssignment:
    """Which basic degrees enter a linearization, with multiplicities.

    ``exponents`` maps an irreducible (m, j, sign) to the total number of
    negative eigenvalues of the linearization on the isotypic component
    modeled on it.  Only the parity matters: each basic degree squares to
    the identity.
    """
    exponents: dict[IrrDescriptor, int] = field(default_factory=dict)

    def add(self, rep: IrrDescriptor, count: int) -> None:
        if count:
            self.exponents[rep] = self.exponents.get(rep, 0) + count

    def odd_reps(self) -> list[IrrDescriptor]:
        return sorted((r for r, e in self.exponents.items() if e % 2),
                      key=lambda r: (r.m, r.j, r.sign))


def gdeg_linear(ring: BurnsideRing, ctx: RepContext,
                assignment: SpectralAssignment) -> BurnsideElement:
    """Degree of the linearized map: product of odd-multiplicity basic degrees."""
    out = ring.one()
    for rep in assignment.odd_reps():
        out = out * basic_degree(ring, ctx, rep)
    return out


def gdeg_field(ring: BurnsideRing, ctx: RepContext,
               assignment: SpectralAssignment) -> BurnsideElement:
    """Degree of the full (nonlinear) field on the admissible annulus:
    identity minus the linearized degree at the origin."""
    return ring.one() - gdeg_linear(ring, ctx, assignment)
