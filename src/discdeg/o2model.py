"""Finite dihedral model of O(2) x K for subgroup-lattice computations.

O(2) is replaced by the dihedral group D_P acting on a grid of P rotation
steps; every closed subgroup of O(2) relevant to the computation (heads
D_h with h | P/2, plus SO(2) and O(2) themselves, modeled as the full
rotation/point sets) lives on this grid, and for those subgroups
conjugacy, normalizers and containment counts in O(2) x K agree with
their counterparts in D_P x K.  Rotations are indices t in Z_P (the angle
2*pi*t/P), reflections carry a flip bit; the axis of reflection (1, t) is
t*pi/P, so conjugating by the rotation c sends it to (1, t + 2c).

An element of D_P x K is a pair (o2, k) of indices, o2 = flip*P + t into
the D_P tables and k into ``K.elements``.  A subgroup is stored as its
elements and a few generators; its (2P, |K|) boolean membership mask is a
lookup table built from the elements in the process that queries it.  The
one lattice primitive is ``count_conj_into``: it counts the g in D_P x K
that conjugate a list of elements into a subgroup.  Called on a generating set of L, it counts the
g with gLg^-1 <= H, from which the catalog reads off both n(L, H) and the
normalizer order |N(H)|.
"""
from __future__ import annotations

import numpy as np

from .permgroup import FiniteGroup, Perm


class O2Model:
    def __init__(self, P: int, K: FiniteGroup):
        if P % 2:
            raise ValueError("grid size P must be even")
        self.P = P
        self.K = K
        self.nO2 = 2 * P
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
        self.o2_mul, self.o2_inv = mul, inv
        # o2_conj[g, x] = g x g^{-1}
        self.o2_conj = np.empty((2 * P, 2 * P), dtype=np.int32)
        for g in range(2 * P):
            self.o2_conj[g] = mul[mul[g], inv[g]]

        elems = K.elements
        idx = K.index_of
        from .permgroup import pmul, pinv
        kinv = [idx[pinv(g)] for g in elems]
        self.k_mul = np.array(
            [[idx[pmul(a, b)] for b in elems] for a in elems], dtype=np.int32)
        self.k_conj = np.empty((self.nK, self.nK), dtype=np.int32)
        for i in range(self.nK):
            self.k_conj[i] = self.k_mul[self.k_mul[i], kinv[i]]

    def count_conj_into(self, Lo2: np.ndarray, Lk: np.ndarray,
                        Hmask: np.ndarray) -> int:
        """Number of g in D_P x K with g x g^{-1} in H for every listed x.

        ``Lo2``, ``Lk`` list the elements x (a generating set of L suffices:
        then the count is #{g : g L g^{-1} <= H}); ``Hmask`` is a (2P, nK)
        boolean membership table for H.
        """
        n = len(Lo2)
        total = 0
        chunk = max(1, 2_000_000 // (self.nK * max(n, 1)))
        for start in range(0, self.nO2, chunk):
            co2 = self.o2_conj[start:start + chunk][:, Lo2]   # (c, n)
            ck = self.k_conj[:, Lk]                           # (nK, n)
            ok = Hmask[co2[:, None, :], ck[None, :, :]]       # (c, nK, n)
            total += int(ok.all(axis=2).sum())
        return total
