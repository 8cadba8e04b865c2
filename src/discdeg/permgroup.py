"""Finite permutation groups: construction, subgroup lattices, conjugacy counts.

Groups are sets of permutations of {0, ..., degree-1}, stored as tuples
(``p[i]`` is the image of ``i``) in sorted order, so each element is also
its index into ``FiniteGroup.elements``; the identity, the least
permutation, is index 0.  The tuple functions (``pmul``, ``pinv``,
``pconj``, ``closure``) are the public API and the slow, obviously
correct oracle that the tests compare the index code against.

Lattice work runs on element indices instead.  A group of order at most
``MAX_LATTICE_ORDER`` builds, on first use, an int32 Cayley table
``mul[i, j]`` (the index of ``elements[i] * elements[j]``), the inverse
vector and the conjugation table ``conj[g, x]`` (g x g^-1).  A subgroup
is a sorted index array or a boolean mask over the elements; ``<H, g>``
is closed coset by coset (Dimino's method), and the conjugates of H are
rows of ``conj[:, H]``.  ``SubgroupClassTable`` turns the index sets
into their public ``frozenset[Perm]`` values once, at the end.  Element
conjugacy classes need no table, so the character table of a group above
the bound still works: they are the orbits of conjugation by the
generators.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Perm = tuple[int, ...]

# largest group order for subgroup lattices and the tables behind them; at
# the bound, the subgroup table of S6 (1,455 subgroups) takes 7-8 s on a
# 2-core x86 machine.  Order does not bound the subgroup count (Z2^7 has
# 29,212), so a lattice stops past MAX_SUBGROUPS, above Z2^6's 2,825.
MAX_LATTICE_ORDER = 720
MAX_SUBGROUPS = 5000


def pmul(a: Perm, b: Perm) -> Perm:
    """Compose permutations: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def pidentity(n: int) -> Perm:
    return tuple(range(n))


def pconj(g: Perm, h: Perm) -> Perm:
    """g h g^{-1}."""
    return pmul(pmul(g, h), pinv(g))


def perm_order(p: Perm) -> int:
    o, q = 1, p
    e = pidentity(len(p))
    while q != e:
        q = pmul(q, p)
        o += 1
    return o


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths in decreasing order (including fixed points)."""
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j, c = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


def closure(gens: list[Perm], degree: int) -> frozenset[Perm]:
    """Subgroup generated by ``gens``."""
    elems = {pidentity(degree)}
    frontier = [pidentity(degree)]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = pmul(a, g)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(elems)


class FiniteGroup:
    """A finite permutation group with cached conjugacy data."""

    def __init__(self, degree: int, generators: list[Perm], name: str = "",
                 factors: list[tuple["FiniteGroup", int]] | None = None):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.name = name
        self.factors = factors  # [(factor group, point offset)] for direct products
        self.elements: tuple[Perm, ...] = tuple(sorted(closure(self.generators, degree)))
        self.order = len(self.elements)
        self.index_of = {g: i for i, g in enumerate(self.elements)}
        self._element_classes: list[list[Perm]] | None = None
        self._cayley: tuple[np.ndarray, ...] | None = None

    def __contains__(self, p: Perm) -> bool:
        return p in self.index_of

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mul, inv, conj) on element indices, built on first use and only
        for lattice work: mul[i, j] is the index of elements[i] * elements[j],
        inv[i] that of the inverse of elements[i], conj[g, x] that of
        g x g^-1.  A group above ``MAX_LATTICE_ORDER`` is refused first."""
        if self._cayley is None:
            if self.order > MAX_LATTICE_ORDER:
                raise ValueError(
                    f"{self.name or 'group'} has order {self.order}; subgroup "
                    f"lattices are supported up to order {MAX_LATTICE_ORDER}")
            mul = _cayley_table(self)
            inv = np.argmin(mul, axis=1)            # the identity is index 0
            self._cayley = mul, inv, mul[mul, inv[:, None]]
        return self._cayley

    def element_conjugacy_classes(self) -> list[list[Perm]]:
        """Conjugacy classes of elements, canonically ordered.

        Order: by element order, then number of moved points, then cycle
        type, then smallest representative.  For S4 this yields
        (), (12), (12)(34), (123), (1234).
        """
        if self._element_classes is not None:
            return self._element_classes
        idx, elems = self.index_of, self.elements
        # x -> s x s^-1 for each generator s; a class is an orbit of these
        moves = [[idx[pconj(s, g)] for g in elems] for s in self.generators]
        label = [-1] * self.order
        classes = []
        for x in range(self.order):
            if label[x] < 0:
                label[x] = len(classes)
                orbit = [x]
                for y in orbit:
                    for move in moves:
                        if label[move[y]] < 0:
                            label[move[y]] = len(classes)
                            orbit.append(move[y])
                classes.append([elems[i] for i in sorted(orbit)])
        def key(cls):
            r = cls[0]
            moved = sum(1 for i in range(self.degree) if r[i] != i)
            return (perm_order(r), moved, cycle_type(r), cls[0])
        classes.sort(key=key)
        self._element_classes = classes
        return classes

    def class_index_of_element(self) -> dict[Perm, int]:
        return {g: i for i, cls in enumerate(self.element_conjugacy_classes())
                for g in cls}


def _cayley_table(G: FiniteGroup) -> np.ndarray:
    """mul[i, j], the index of elements[i] * elements[j], one column per
    element: the column of x s is the column of x read through right
    multiplication by the generator s."""
    n, idx = G.order, G.index_of
    right = [np.array([idx[pmul(g, s)] for g in G.elements], dtype=np.int32)
             for s in G.generators]
    cols = np.empty((n, n), dtype=np.int32)     # cols[j] = mul[:, j]
    cols[0] = np.arange(n)
    seen = [True] + [False] * (n - 1)
    queue = [0]
    for x in queue:
        for r in right:
            y = int(r[x])
            if not seen[y]:
                seen[y] = True
                cols[y] = r[cols[x]]
                queue.append(y)
    return np.ascontiguousarray(cols.T)


def _element_orders(mul: np.ndarray) -> np.ndarray:
    """Order of every element, from the Cayley table."""
    n = len(mul)
    orders = np.zeros(n, dtype=np.int64)
    power, k = np.arange(n), 1
    while not orders.all():
        orders[(power == 0) & (orders == 0)] = k
        power, k = mul[power, np.arange(n)], k + 1
    return orders


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of ``a`` in lexicographic order, as
    ``np.unique(a, axis=0)`` gives them, without the numpy.ma import that
    call makes."""
    a = a[np.lexsort(a.T[::-1])]
    return a[np.r_[True, (a[1:] != a[:-1]).any(axis=1)]]


def _extend(mul: np.ndarray, H: np.ndarray, gens: list[int],
            g: int) -> np.ndarray:
    """Mask of <H, g>, for a subgroup H (sorted indices) generated by
    ``gens``: the right cosets H x, found by multiplying one representative
    of each coset found so far by every generator (Dimino's method)."""
    mask = np.zeros(len(mul), dtype=bool)
    mask[H] = True
    reps, gens = [0], gens + [g]
    for r in reps:
        for s in gens:
            x = mul[r, s]
            if not mask[x]:
                mask[mul[H, x]] = True
                reps.append(x)
    return mask


# ---------------------------------------------------------------------------
# group constructors

def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return FiniteGroup(max(n, 1), [], name=f"S{n}")
    gens = [tuple([1, 0] + list(range(2, n))),
            tuple(list(range(1, n)) + [0])]
    return FiniteGroup(n, gens[:1] if n == 2 else gens, name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n <= 2:
        return FiniteGroup(max(n, 1), [], name=f"A{n}")
    gens = []
    for i in range(n - 2):
        c = list(range(n))
        c[i], c[i + 1], c[i + 2] = c[i + 1], c[i + 2], c[i]
        gens.append(tuple(c))
    return FiniteGroup(n, gens, name=f"A{n}")


def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup(1, [], name="Z1")
    gen = tuple(list(range(1, n)) + [0])
    return FiniteGroup(n, [gen], name=f"Z{n}")


def dihedral_perm_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: the rotations and reflections of the
    n-gon on its vertices for n >= 3.  D1 (order 2) and D2 (order 4) are
    too small to act faithfully on n points, so there the reflection also
    swaps two added points n and n + 1."""
    fixed, swap = ([n, n + 1], [n + 1, n]) if n <= 2 else ([], [])
    rot = tuple(list(range(1, n)) + [0] + fixed)
    ref = tuple([(n - i) % n for i in range(n)] + swap)
    return FiniteGroup(len(rot), [g for g in (rot, ref)
                                  if g != tuple(range(len(g)))], name=f"D{n}")


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    degree = sum(g.degree for g in groups)
    gens = []
    factors = []
    off = 0
    for g in groups:
        for gen in g.generators:
            p = list(range(degree))
            for i, x in enumerate(gen):
                p[off + i] = off + x
            gens.append(tuple(p))
        factors.append((g, off))
        off += g.degree
    name = "*".join(g.name for g in groups)
    G = FiniteGroup(degree, gens, name=name, factors=factors)
    if math.prod(g.order for g in groups) != G.order:
        raise ValueError("direct product closure mismatch")
    return G


_ATOM = re.compile(r"^(S|A|Z|D)(\d+)$")


def build_group(descriptor: str) -> FiniteGroup:
    """Build a group from a descriptor like ``"S4"``, ``"Z2"`` or ``"S4*Z2"``.

    Supported atoms: Sn, An, Zn, Dn; ``*`` forms direct products.
    """
    parts = [p.strip() for p in descriptor.split("*")]
    groups = []
    for part in parts:
        m = _ATOM.match(part)
        if not m:
            raise ValueError(f"unrecognized group descriptor {part!r}")
        kind, n = m.group(1), int(m.group(2))
        if n == 0 and kind in "ZD":
            raise ValueError(f"group {part} has order 0; Z and D atoms need "
                             f"n >= 1")
        builder = {"S": symmetric_group, "A": alternating_group,
                   "Z": cyclic_group, "D": dihedral_perm_group}[kind]
        groups.append(builder(n))
    G = groups[0] if len(groups) == 1 else direct_product(*groups)
    if G.order > 10_000:
        raise ValueError(f"group order {G.order} exceeds supported bound 10000")
    return G


# ---------------------------------------------------------------------------
# subgroup lattice

def _lattice(G: FiniteGroup) -> list[tuple[np.ndarray, list[int]]]:
    """Every subgroup of G as (sorted int32 element indices, generators),
    sorted by order and then by elements, by breadth-first closure of
    generator extensions; refused once more than ``MAX_SUBGROUPS`` are found.

    Each subgroup H is extended by one g per double coset HgH, since
    <H, a g b> = <H, g> for every a, b in H.
    """
    mul = G._tables()[0]
    triv = (np.zeros(1, dtype=np.int32), [])
    found = {triv[0].tobytes(): triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for H, gens in frontier:
            tried = np.zeros(G.order, dtype=bool)
            tried[H] = True
            for g in range(G.order):
                if tried[g]:
                    continue
                tried[mul[mul[H, g][:, None], H]] = True
                K = np.flatnonzero(_extend(mul, H, gens, g)).astype(np.int32)
                if K.tobytes() not in found:
                    found[K.tobytes()] = sub = (K, gens + [g])
                    nxt.append(sub)
                    if len(found) > MAX_SUBGROUPS:
                        raise ValueError(
                            f"{G.name or 'group'} has more than {MAX_SUBGROUPS}"
                            f" subgroups, the most a lattice is built for")
        frontier = nxt
    return sorted(found.values(), key=lambda s: (len(s[0]), s[0].tolist()))


@dataclass
class SubgroupClassRecord:
    cid: int
    representative: frozenset[Perm]
    order: int
    normalizer_order: int
    weyl_order: int
    members: list[frozenset[Perm]]
    name: str = ""


class SubgroupClassTable:
    """Conjugacy classes of subgroups of a finite group, with n-counts.

    ``column(h)`` gives, by l, the number n(l, h) of conjugates of a
    class-h subgroup that contain a fixed class-l subgroup, where nonzero.
    As a catalog does, it lists ``names`` and ``weyl_orders`` for the ring,
    and its class ids ascend with order.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        conj = G._tables()[2]
        lattice = _lattice(G)
        position = {H.tobytes(): p for p, (H, _) in enumerate(lattice)}
        self._gens = [gens for _, gens in lattice]     # of each subgroup
        self._masks = np.zeros((len(lattice), G.order), dtype=bool)
        self._cid = np.full(len(lattice), -1)          # class of each subgroup
        orbits: list[list[int]] = []                   # positions, by class
        for p, (H, _) in enumerate(lattice):
            self._masks[p, H] = True
            if self._cid[p] < 0:
                # the conjugates g H g^-1 as sorted rows, in sorted() order
                rows = _unique_rows(np.sort(conj[:, H], axis=1))
                orbits.append([position[r.tobytes()] for r in rows])
                self._cid[orbits[-1]] = len(orbits) - 1
        subs = [frozenset(G.elements[i] for i in H.tolist())
                for H, _ in lattice]
        self.classes: list[SubgroupClassRecord] = []
        for cid, orbit in enumerate(orbits):
            nz = G.order // len(orbit)  # |N(H)| by orbit-stabilizer
            rep = subs[orbit[0]]
            self.classes.append(SubgroupClassRecord(
                cid=cid, representative=rep, order=len(rep),
                normalizer_order=nz, weyl_order=nz // len(rep),
                members=[subs[q] for q in orbit]))
        self._rep = [orbit[0] for orbit in orbits]   # position of each rep
        self.subgroups = subs

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def nk(self) -> np.ndarray:
        """n_K(a, b) for all classes a, b: the members of class b that hold
        a's representative, nonzero iff a is subconjugate to b."""
        held = ~(self._masks[self._rep] @ ~self._masks.T)   # rep a <= p
        return held.astype(np.int64) @ (self._cid[:, None]
                                         == np.arange(len(self)))

    @cached_property
    def weyl_orders(self) -> list[int]:
        return [r.weyl_order for r in self.classes]

    @property
    def names(self) -> list[str]:
        return [r.name for r in self.classes]

    @property
    def full_cid(self) -> int:
        return max(range(len(self.classes)), key=lambda i: self.classes[i].order)

    @property
    def by_name(self) -> dict[str, int]:
        return {r.name: r.cid for r in self.classes}

    def column(self, h: int) -> dict[int, int]:
        """The nonzero n(l, h) by l, in increasing order."""
        ls = np.flatnonzero(self.nk[:, h])
        return dict(zip(ls.tolist(), self.nk[ls, h].tolist()))

    def _normal(self, p: int) -> list[int]:
        """Positions of the normal subgroups of subgroup p, in list order:
        the subgroups R inside it with s R s^-1 <= R for its generators s."""
        masks = self._masks
        conj = self.group._tables()[2]
        rs = np.flatnonzero(~(masks & ~masks[p]).any(axis=1))
        for s in self._gens[p]:
            rs = rs[(masks[rs][:, conj[s]] >= masks[rs]).all(axis=1)]
        return rs.tolist()
