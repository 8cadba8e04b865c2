"""Irreducible representations of O(2) x Gamma x Z2 and their orbit types.

An irreducible representation is described by a triple (m, j, sign):
W_m tensor U_j^{sign}, where W_m is the m-th rotation representation of
O(2) (m = 0 trivial), U_j the j-th irreducible of Gamma, and sign = -1
tensors with the antipodal action of the central Z2.

Fixed-point dimensions are computed by character averaging over the grid
model of each catalog class; rotation characters are cosines, so sums are
floats rounded under a strict integrality check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ProductCatalog
from .characters import CharacterTable, character_table
from .permgroup import FiniteGroup


@dataclass(frozen=True)
class IrrDescriptor:
    m: int          # O(2) mode
    j: int          # index of the Gamma-irreducible
    sign: int = -1  # +1 or -1: action of the central Z2

    def __str__(self):
        sgn = "-" if self.sign < 0 else "+"
        return f"W{self.m} (x) U{self.j}{sgn}"


class RepContext:
    """Character data for K = Gamma x Z2 aligned with a product catalog."""

    def __init__(self, catalog: ProductCatalog, gamma: FiniteGroup):
        self.catalog = catalog
        self.gamma = gamma
        self.gamma_table = character_table(gamma)
        K = catalog.K
        if K.factors is None or len(K.factors) < 2:
            raise ValueError("catalog group must be a direct product Gamma x Z2")
        zoff = K.factors[-1][1]
        d = gamma.degree
        self._gamma_part = [g[:d] for g in K.elements]
        self._z_sign = np.array([-1 if g[zoff] != zoff else 1
                                 for g in K.elements], dtype=np.int64)
        self._chi_cache: dict[tuple[int, int], np.ndarray] = {}
        self._dim_cache: dict[tuple[IrrDescriptor, int], int] = {}

    def chi_k(self, j: int, sign: int) -> np.ndarray:
        """Character of U_j^{sign} on the elements of K, indexed like them."""
        key = (j, sign)
        if key not in self._chi_cache:
            vals = np.array([self.gamma_table.value(j, g)
                             for g in self._gamma_part], dtype=np.float64)
            if sign < 0:
                vals = vals * self._z_sign
            self._chi_cache[key] = vals
        return self._chi_cache[key]

    def fixed_dim(self, rep: IrrDescriptor, cid: int) -> int:
        key = (rep, cid)
        if key in self._dim_cache:
            return self._dim_cache[key]
        c = self.catalog.classes[cid]
        P = self.catalog.P
        chik = self.chi_k(rep.j, rep.sign)[c.k_idx]
        if rep.m == 0:
            total = chik.sum()
        else:
            rot = c.o2_idx < P
            ang = 2.0 * math.pi * rep.m * c.o2_idx[rot] / P
            total = (2.0 * np.cos(ang) * chik[rot]).sum()
        d = total / c.size
        r = round(d)
        if abs(d - r) > 1e-6 or r < 0:
            raise AssertionError(
                f"fixed-point dimension {d} not a nonneg integer for {rep} at {c.name}")
        self._dim_cache[key] = int(r)
        return int(r)


def orbit_types(ctx: RepContext, rep: IrrDescriptor) -> list[int]:
    """Classes arising as isotropy groups of nonzero vectors in the rep.

    A class U with nonzero fixed space fails to be an orbit type exactly
    when some strictly larger class T has the same fixed-point dimension
    (a finite union of proper subspaces cannot cover the fixed space).
    For m >= 1 the candidates are dihedral-headed, for m = 0 only the
    full products O(2) x K' can appear.
    """
    cat = ctx.catalog
    kind = "O2" if rep.m == 0 else "D"
    dims = {c.cid: ctx.fixed_dim(rep, c.cid)
            for c in cat.classes if c.kind == kind}
    cands = [cid for cid, d in dims.items() if d > 0]
    out = []
    for u in cands:
        du = dims[u]
        dominated = any(
            t != u and dims[t] == du and cat.n_count(u, t) > 0
            for t in cands if cat.classes[t].size > cat.classes[u].size
            and cat.classes[t].size % cat.classes[u].size == 0)
        if not dominated:
            out.append(u)
    return sorted(out)


def maximal_orbit_types(ctx: RepContext, rep: IrrDescriptor) -> list[int]:
    ots = orbit_types(ctx, rep)
    return _maximal(ctx.catalog, ots)


def maximal_orbit_types_union(ctx: RepContext,
                              reps: list[IrrDescriptor]) -> list[int]:
    """Maximal elements of the union of the orbit types of several reps."""
    union: set[int] = set()
    for rep in reps:
        union |= set(orbit_types(ctx, rep))
    return _maximal(ctx.catalog, sorted(union))


def _maximal(cat: ProductCatalog, ots: list[int]) -> list[int]:
    out = []
    for u in ots:
        if not any(t != u and cat.classes[t].size > cat.classes[u].size
                   and cat.classes[t].size % cat.classes[u].size == 0
                   and cat.n_count(u, t) > 0 for t in ots):
            out.append(u)
    return sorted(out)
