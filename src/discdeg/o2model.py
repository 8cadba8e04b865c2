"""Finite dihedral model of O(2) x K for subgroup-lattice counts.

O(2) is replaced by the dihedral group D_p on a grid of p rotation steps:
rotations are indices t in Z_p (the angle 2*pi*t/p), reflections carry a
flip bit, and the axis of reflection (1, t) is t*pi/p, so conjugating by
the rotation c sends it to (1, t + 2c).  An element of D_p x K is a pair
(o2, k), o2 = flip*p + t and k into ``K.elements``.  The catalog keeps
each class on its own head and counts each query on the grid of H's head,
p = 2h for D_h and p = 2 for SO(2) and O(2), so p is at most twice the
largest head, whatever the other heads.

The model keeps two conjugation tables, ``o2_conj[g, x]`` (2p x 2p) and
``k_orbit[x, g]`` (|K| x |K|, K's own table transposed), both g x g^-1.
Over each grid point a catalog subgroup holds none or one coset of a
normal subgroup R of K', so its membership table is factored as
(rowid, rows): (a, k) is in it iff rows[rowid[a], k], for boolean rows
over K (row 0 empty, the others cosets).  The one lattice primitive,
``count_conj_into``, counts for each of a stack of subgroups L the g in
D_p x K that conjugate every listed element of L into a subgroup H, one
H for the whole stack or one per L; on a generating set of L that is
#{g : gLg^-1 <= H}, which gives n(L, H) and |N(H)|.  It groups the pairs
(L, grid point a) by L and the tuple of row ids that a x a^-1 lands on,
and gathers the K side once per distinct group, all in one numpy pass.
"""
from __future__ import annotations

import numpy as np

from .permgroup import FiniteGroup


class O2Model:
    def __init__(self, p: int, K: FiniteGroup):
        t = np.arange(p, dtype=np.int32)
        c, rot = t[:, None], np.broadcast_to(t, (p, p))
        # g = rotation c (rows < p) or reflection (1, c) (rows >= p) sends
        # rotation t to t or -t and reflection (1, t) to (1, 2c + t or 2c - t)
        self.o2_conj = np.block([[rot, p + (2 * c + t) % p],
                                 [-rot % p, p + (2 * c - t) % p]])
        # k_orbit[x] lists g x g^-1 over g; |K| <= 720 fits int16
        self.k_orbit = np.ascontiguousarray(K._tables()[2].T, dtype=np.int16)

    def count_conj_into(self, Lo2: np.ndarray, Lk: np.ndarray,
                        table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """For each row i, the number of g in D_p x K with g x g^{-1} in H
        for every x listed in row i.

        ``Lo2``, ``Lk`` (m, n) list the o2 and k indices of n elements of
        each of m subgroups L (a generating set suffices: then the count
        is #{g : g L g^{-1} <= H}; repeat an element to pad a short list);
        ``table`` is the factored membership table (rowid, rows) of H, or
        of one H per row when ``rowid`` is (m, 2p).
        """
        rowid, rows = table
        m, n = Lo2.shape
        ids = np.broadcast_to(rowid, (m, rowid.shape[-1]))[
            np.arange(m)[:, None], self.o2_conj[:, Lo2]]  # (2p, m, n) row ids
        hit = ids.all(axis=2)                          # row 0 is empty
        keys = np.empty((np.count_nonzero(hit), n + 1), dtype=ids.dtype)
        keys[:, 0], keys[:, 1:] = np.nonzero(hit)[1], ids[hit]
        _, first, weight = np.unique(
            keys.view(f"V{keys.itemsize * (n + 1)}").ravel(),
            return_index=True, return_counts=True)
        l, ids = keys[first, 0], keys[first, 1:]
        ok = True                   # (u, |K|), one generator at a time
        for j in range(n):
            ok = ok & rows[ids[:, j, None], self.k_orbit[Lk[l, j]]]
        # float64 sums, exact: each count is at most 2p |K|
        return np.bincount(l, ok.sum(axis=1) * weight, m).astype(np.int64)
