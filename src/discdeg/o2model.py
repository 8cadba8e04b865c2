"""Finite dihedral model of O(2) x K for subgroup-lattice computations.

O(2) is replaced by the dihedral group D_P acting on a grid of P rotation
steps; every closed subgroup of O(2) relevant to the computation (heads
D_h with h | P/2, plus SO(2) and O(2) themselves, modeled as the full
rotation/point sets) lives on this grid, and for those subgroups
conjugacy, normalizers and containment counts in O(2) x K agree with
their counterparts in D_P x K.  Rotations are indices t in Z_P (the angle
2*pi*t/P), reflections carry a flip bit; the axis of reflection (1, t) is
t*pi/P, so conjugating by the rotation c sends it to (1, t + 2c).

An element of D_P x K is a pair (o2, k) of indices, o2 = flip*P + t on
the grid and k into ``K.elements``.  The model keeps only the two
conjugation tables, ``o2_conj[g, x]`` (2P x 2P) and ``k_conj[g, x]``
(|K| x |K|), both g x g^-1; the D_P multiplication table is dropped
after construction, and ``k_conj`` is the one K keeps for its subgroup
lattice (``FiniteGroup._tables``).  Over each grid point the
elements of a catalog subgroup are none or one coset of a normal subgroup
R of K', so its membership table is factored as (rowid, rows): (a, k) is
in it iff rows[rowid[a], k], for boolean rows over K (row 0 empty, the
others cosets).  The catalog stores a class on its own head and spreads
it over the grid only for these counts.  The one lattice primitive is
``count_conj_into``: it counts the g in D_P x K that conjugate a list of
elements into a subgroup.  On a generating set of L it counts the g with
gLg^-1 <= H, which gives n(L, H) and |N(H)|.
It groups the grid points a by the tuple of row ids that a x a^-1 lands
on and gathers the K side once per distinct tuple.
"""
from __future__ import annotations

import numpy as np

from .permgroup import FiniteGroup


class O2Model:
    def __init__(self, P: int, K: FiniteGroup):
        if P % 2:
            raise ValueError("grid size P must be even")
        self.P = P
        self.K = K
        self.nK = K.order

        t = np.arange(P)
        # multiplication table of D_P: rows/cols indexed by flip*P + t
        mul = np.empty((2 * P, 2 * P), dtype=np.int32)
        mul[:P, :P] = (t[:, None] + t[None, :]) % P            # rot*rot
        mul[:P, P:] = P + (t[:, None] + t[None, :]) % P        # rot*refl
        mul[P:, :P] = P + (t[:, None] - t[None, :]) % P        # refl*rot
        mul[P:, P:] = (t[:, None] - t[None, :]) % P            # refl*refl
        inv = np.empty(2 * P, dtype=np.int32)
        inv[:P] = (-t) % P
        inv[P:] = P + t
        self.o2_conj = mul[mul, inv[:, None]]      # [g, x] = g x g^{-1}

        self.k_conj = K._tables()[2]

    def count_conj_into(self, Lo2: np.ndarray, Lk: np.ndarray,
                        table: tuple[np.ndarray, np.ndarray]) -> int:
        """Number of g in D_P x K with g x g^{-1} in H for every listed x.

        ``Lo2``, ``Lk`` list the elements x (a generating set of L suffices:
        then the count is #{g : g L g^{-1} <= H}); ``table`` is the
        factored membership table (rowid, rows) of H.
        """
        rowid, rows = table
        ids = rowid[self.o2_conj[:, Lo2]]              # (2P, n) row ids
        ids = ids[ids.all(axis=1)]                     # row 0 is empty
        keys = np.ascontiguousarray(ids).view(f"V{ids.itemsize * len(Lo2)}")
        _, first, weight = np.unique(keys.ravel(), return_index=True,
                                     return_counts=True)
        ok = rows[ids[first][:, None, :], self.k_conj[:, Lk]]   # (u, nK, n)
        return int(ok.all(axis=2).sum(axis=1) @ weight)
