"""Irreducible representations of O(2) x Gamma x Z2 and their orbit types.

An irreducible representation is described by a triple (m, j, sign):
W_m tensor U_j^{sign}, where W_m is the m-th rotation representation of
O(2) (m = 0 trivial), U_j the j-th irreducible of Gamma, and sign = -1
tensors with the antipodal action of the central Z2.

Fixed-point dimensions are computed by character averaging over each
catalog class on its own head, for all classes of one head at once, and
kept per rep as one integer array over the catalog.  The character of the
rep is a product w(a) chi(k), and a class holds one coset of R, the row
labels[a] its gluing puts there (``catalog.on_head``), over each point a
of its head, so its dimension is the sum of w(a) (rows @ chi)[labels[a]]
over the head points over |R| times their number.  Rotation characters
are cosines, but their sums against chi are integers (``_rotation_sums``),
so each dimension is an exact quotient, and a remainder raises.

The maximal orbit types are found without the others: a generic vector
of the fixed space of a class maximal among those with a nonzero fixed
space has that class as its isotropy, and every orbit type lies below
such a class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import KINDS, ProductCatalog, on_head
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
        self._blocks: list | None = None
        self._dims: dict[IrrDescriptor, np.ndarray] = {}

    def fixed_dims(self, rep: IrrDescriptor) -> np.ndarray:
        """dim of the fixed space of every class, by class id."""
        if rep in self._dims:
            return self._dims[rep]
        if self._blocks is None:
            self._blocks = [b for kind in KINDS
                            for b in self.catalog.head_blocks(kind)]
        rows = self.catalog.rows
        c = rows @ self._chi(rep)
        dims = np.zeros(len(self.catalog), dtype=np.int64)
        for h, ids, labels in self._blocks:
            # W_m at each head point: 1 for m = 0; else 2 cos(2 pi m k / h)
            # at rotation k of D_h, 0 at reflections and on SO(2) and O(2)
            num = (c[labels].sum(axis=1) if rep.m == 0
                   else _rotation_sums(c[labels[:, :h]], rep.m))
            den = labels.shape[1] * rows[labels[:, 0]].sum(axis=1)
            dims[ids], rem = np.divmod(num, den)
            for i in np.flatnonzero((rem != 0) | (num < 0))[:1]:
                raise AssertionError(
                    f"fixed-point dimension {num[i]}/{den[i]} not a nonneg "
                    f"integer for {rep} at {self.catalog.names[ids[i]]}")
        dims.flags.writeable = False      # shared by every caller
        self._dims[rep] = dims
        return dims

    def _chi(self, rep: IrrDescriptor) -> np.ndarray:
        """The character of U_j^sign on the elements of K."""
        chi = np.array([self.gamma_table.value(rep.j, g)
                        for g in self._gamma_part], dtype=np.int64)
        return chi * self._z_sign if rep.sign < 0 else chi

    def fixed_point_heads(self, rep: IrrDescriptor) -> set[int]:
        """Heads of the D-headed classes, in any head set, on which a rep of
        mode m >= 1 has a nonzero fixed space; its orbit types are among them.

        A gluing whose rows repeat with period r over the rotations has its
        class on head r d (kernel Z_d) fixing nothing unless d | m, and then
        2 r d |R| times its dimension, its rotation sum, is d times the sum
        over the stored rows at mode m/d, known before any class is counted."""
        c = self.catalog.rows @ self._chi(rep)
        return {r * d for r, rows in self.catalog.gluings.items()
                for d in range(1, rep.m + 1) if rep.m % d == 0
                and (_rotation_sums(c[on_head(rows, r)[:, :r]], rep.m // d)
                     > 0).any()}


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
