"""Finite dihedral model of O(2) x K for subgroup-lattice counts.

O(2) is replaced by the dihedral group D_P on a grid of P rotation steps:
rotations are indices t in Z_P (the angle 2*pi*t/P), reflections carry a
flip bit, and the axis of reflection (1, t) is t*pi/P, so conjugating by
the rotation c sends it to (1, t + 2c).  An element of D_P x K is a pair
(o2, k), o2 = flip*P + t and k into ``K.elements``.  The catalog counts
each query on the grid of its subgroup's head, D_{2h} for D_h and D_2 for
SO(2) and O(2), so P is at most twice the largest head.

The model keeps two conjugation tables, ``o2_conj[g, x]`` (2P x 2P) and
K's own ``k_conj[g, x]`` (|K| x |K|), both g x g^-1.  Over each grid point
a catalog subgroup holds none or one coset of a normal subgroup R of K',
so its membership table is factored as (rowid, rows): (a, k) is in it iff
rows[rowid[a], k], for boolean rows over K (row 0 empty, the others
cosets).  The one lattice primitive, ``count_conj_into``, counts the g in
D_P x K that conjugate a list of elements into a subgroup; on a generating
set of L that is #{g : gLg^-1 <= H}, which gives n(L, H) and |N(H)|.  It
groups the grid points a by the tuple of row ids that a x a^-1 lands on
and gathers the K side once per distinct tuple.
"""
from __future__ import annotations

import numpy as np

from .permgroup import FiniteGroup


class O2Model:
    def __init__(self, P: int, K: FiniteGroup):
        t = np.arange(P, dtype=np.int32)
        c, rot = t[:, None], np.broadcast_to(t, (P, P))
        # g = rotation c (rows < P) or reflection (1, c) (rows >= P) sends
        # rotation t to t or -t and reflection (1, t) to (1, 2c + t or 2c - t)
        self.o2_conj = np.block([[rot, P + (2 * c + t) % P],
                                 [-rot % P, P + (2 * c - t) % P]])
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
