"""Irreducible representations of O(2) x Gamma x Z2 and their orbit types.

An irreducible representation is described by a triple (m, j, sign):
W_m tensor U_j^{sign}, where W_m is the m-th rotation representation of
O(2) (m = 0 trivial), U_j the j-th irreducible of Gamma, and sign = -1
tensors with the antipodal action of the central Z2.

Fixed-point dimensions are read off the gluing tables
(``catalog.gluings``) and kept per rep as one integer array over the
catalog.  The character of the rep is a product w(a) chi(k), and a class
on D_{pd} with kernel Z_d holds over rotation and reflection k the coset
of R in row k mod p of its period-p gluing.  Over its head, the w-weighted
sum of (rows @ chi) at those rows is d times the gluing's plain sum at
mode 0; at mode m >= 1 (reflections, SO(2) and O(2) weigh 0) it is d times
its rotation sum on D_p at mode m/d if d | m, else 0; over 2pd|R| it is
the dimension.  Rotation characters are cosines, but their sums against
chi are integers (``_rotation_sums``), so each dimension is an exact
quotient, and a remainder raises.

The maximal orbit types are found without the others: a generic vector
of the fixed space of a class maximal among those with a nonzero fixed
space has that class as its isotropy, and every orbit type lies below
such a class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ProductCatalog
from .characters import character_table
from .permgroup import FiniteGroup


@dataclass(frozen=True, order=True)
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
        self._dims: dict[IrrDescriptor, np.ndarray] = {}

    def fixed_dims(self, rep: IrrDescriptor) -> np.ndarray:
        """dim of the fixed space of every class, by class id: the sum of
        its gluing at its kernel over 2 p |R| (see the module notes)."""
        if rep in self._dims:
            return self._dims[rep]
        cat, (q, at) = self.catalog, self.catalog._glue
        kernel = cat.classes["bucket"] if rep.m else 0     # 0 off D_h
        num = np.zeros(len(cat), dtype=np.int64)
        for p, d, sums in self._gluing_sums(rep):
            sel = (q == p) & (kernel == d)
            num[sel] = sums[at[sel]]
        # |R| of each class: its step's row holding K's identity (index 0)
        r = cat.rows[cat.rows[:, 0]].sum(axis=1)[cat.classes["glue_step"]]
        den = 2 * q * r
        dims, rem = np.divmod(num, den)
        for i in np.flatnonzero((rem != 0) | (num < 0))[:1]:
            raise AssertionError(
                f"fixed-point dimension {num[i]}/{den[i]} not a nonneg "
                f"integer for {rep} at {cat.names[i]}")
        dims.flags.writeable = False      # shared by every caller
        self._dims[rep] = dims
        return dims

    def _chi(self, rep: IrrDescriptor) -> np.ndarray:
        """The character of U_j^sign on the elements of K."""
        chi = np.array([self.gamma_table.value(rep.j, g)
                        for g in self._gamma_part], dtype=np.int64)
        return chi * self._z_sign if rep.sign < 0 else chi

    def _gluing_sums(self, rep: IrrDescriptor):
        """(p, d, sums): for each period p and kernel d that can fix a vector,
        the sum over D_{pd} of each row of ``gluings[p]``, over d (see the
        module notes); d = 0 is every kernel, SO(2) and O(2) at mode 0."""
        c, m = self.catalog.rows @ self._chi(rep), rep.m
        kernels = [d for i in range(1, math.isqrt(m) + 1) if m % i == 0
                   for d in {i, m // i}] if m else [0]
        for p, rows in self.catalog.gluings.items():
            for d in kernels:
                yield p, d, (_rotation_sums(c[rows[:, :p]], m // d) if m
                             else c[rows].sum(axis=1))

    def fixed_point_heads(self, rep: IrrDescriptor) -> set[int]:
        """Heads of the D-headed classes, in any head set, on which a rep of
        mode m >= 1 has a nonzero fixed space, its orbit types among them:
        the heads p d of the gluings with a positive sum (``_gluing_sums``)."""
        return {p * d for p, d, sums in self._gluing_sums(rep)
                if (sums > 0).any()}


def _rotation_sums(c: np.ndarray, m: int) -> np.ndarray:
    """sum_k c[:, k] 2 cos(2 pi m k / h), k < h = c.shape[1], in integers.

    A rational character summed over the coset at rotation k depends on
    g = gcd(k, h) only (checked), and the cosines summed over the class g
    are an integer: 2 (h/g) [h/g | m] over all multiples of g, less the
    sums over the classes of the larger divisors of h that g divides."""
    h = c.shape[1]
    for i in np.flatnonzero((c != c[:, np.gcd(np.arange(h), h) % h]).any(1)):
        raise AssertionError(f"coset sums {c[i].tolist()} over the rotations "
                             f"of D{h} differ within a gcd class")
    w = [0] * h                         # w[g % h]: the sum over class g
    for g in (g for g in range(h, 0, -1) if h % g == 0):
        w[g % h] = (2 * (h // g) * (m % (h // g) == 0)
                    - sum(w[f % h] for f in range(2 * g, h + 1, g)))
    return c @ np.array(w, dtype=np.int64)


def maximal_orbit_types_union(ctx: RepContext,
                              reps: list[IrrDescriptor]) -> list[int]:
    """The maximal orbit types of the sum of ``reps``: the maximal classes,
    of any kind, with a nonzero fixed space in some rep."""
    fixed = np.zeros(len(ctx.catalog), dtype=bool)
    for rep in reps:
        fixed |= ctx.fixed_dims(rep) > 0
    return _maximal(ctx.catalog, np.flatnonzero(fixed).tolist())


def _maximal(cat: ProductCatalog, ots: list[int]) -> list[int]:
    """The classes of ``ots`` below no other, from the largest down (ids
    ascend with size): one below some class of ``ots`` is below a maximal
    one, larger and kept before."""
    kept: list[int] = []
    for u in sorted(ots, reverse=True):
        if not any(u in cat.column(t) for t in kept):
            kept.append(u)
    return sorted(kept)
