"""Finite permutation groups: construction, subgroup lattices, conjugacy counts.

Groups are sets of permutations of {0, ..., degree-1}, stored as tuples
(``p[i]`` is the image of ``i``).  Everything here is brute force on
purpose -- the groups that matter downstream have order <= a few hundred,
and exhaustive enumeration doubles as its own correctness argument.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

Perm = tuple[int, ...]


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

    def __contains__(self, p: Perm) -> bool:
        return p in self.index_of

    def element_conjugacy_classes(self) -> list[list[Perm]]:
        """Conjugacy classes of elements, canonically ordered.

        Order: by element order, then number of moved points, then cycle
        type, then smallest representative.  For S4 this yields
        (), (12), (12)(34), (123), (1234).
        """
        if self._element_classes is not None:
            return self._element_classes
        unseen = set(self.elements)
        classes = []
        while unseen:
            x = next(iter(unseen))
            orb = {pconj(g, x) for g in self.elements}
            unseen -= orb
            classes.append(sorted(orb))
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
    """Dihedral group of order 2n on n points (n >= 3)."""
    rot = tuple(list(range(1, n)) + [0])
    ref = tuple((n - i) % n for i in range(n))
    return FiniteGroup(n, [rot, ref], name=f"D{n}")


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
        builder = {"S": symmetric_group, "A": alternating_group,
                   "Z": cyclic_group, "D": dihedral_perm_group}[kind]
        groups.append(builder(n))
    G = groups[0] if len(groups) == 1 else direct_product(*groups)
    if G.order > 10_000:
        raise ValueError(f"group order {G.order} exceeds supported bound 10000")
    return G


# ---------------------------------------------------------------------------
# subgroup lattice

def all_subgroups(G: FiniteGroup) -> list[frozenset[Perm]]:
    """Every subgroup of G, by breadth-first closure of generator extensions.

    Each subgroup H is extended by one g per left coset gH, since
    <H, gh> = <H, g> for every h in H.
    """
    e = pidentity(G.degree)
    triv = frozenset([e])
    found = {triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for H in frontier:
            tried = set(H)
            for g in G.elements:
                if g in tried:
                    continue
                tried.update(pmul(g, h) for h in H)
                K = closure(list(H) + [g], G.degree)
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    return sorted(found, key=lambda H: (len(H), sorted(H)))


@dataclass
class SubgroupClassRecord:
    cid: int
    representative: frozenset[Perm]
    order: int
    normalizer_order: int
    weyl_order: int
    members: list[frozenset[Perm]]
    name: str = ""

    @property
    def size(self) -> int:   # uniform field name across lattice providers
        return self.order


class SubgroupClassTable:
    """Conjugacy classes of subgroups of a finite group, with n-counts.

    ``n_count(l, h)`` is the number of conjugates of a class-h subgroup
    that contain a fixed class-l subgroup.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        subs = all_subgroups(G)
        class_of: dict[frozenset[Perm], int] = {}
        self.classes: list[SubgroupClassRecord] = []
        for H in subs:
            if H in class_of:
                continue
            orbit = {frozenset(pconj(g, h) for h in H) for g in G.elements}
            members = sorted(orbit, key=sorted)
            nz = G.order // len(members)  # |N(H)| by orbit-stabilizer
            cid = len(self.classes)
            self.classes.append(SubgroupClassRecord(
                cid=cid, representative=members[0], order=len(H),
                normalizer_order=nz, weyl_order=nz // len(H), members=members))
            for M in members:
                class_of[M] = cid
        self.class_of = class_of
        self.subgroups = subs
        self._ncount: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.classes)

    def n_count(self, l: int, h: int) -> int:
        key = (l, h)
        if key not in self._ncount:
            L = self.classes[l].representative
            self._ncount[key] = sum(1 for H in self.classes[h].members if L <= H)
        return self._ncount[key]

    def leq(self, l: int, h: int) -> bool:
        return self.n_count(l, h) > 0

    def cid_of(self, H: frozenset[Perm] | set[Perm]) -> int:
        return self.class_of[frozenset(H)]

    @property
    def full_cid(self) -> int:
        return max(range(len(self.classes)), key=lambda i: self.classes[i].order)

    @property
    def by_name(self) -> dict[str, int]:
        return {r.name: r.cid for r in self.classes}

    def down_closure(self, h: int) -> list[int]:
        return [l for l in range(len(self.classes)) if self.n_count(l, h) > 0]

    def fold_class(self, cid: int, nu: int) -> int:
        if nu == 1:
            return cid
        raise ValueError("fold is only defined on product lattices")

    def normal_subgroups_of(self, H: frozenset[Perm]) -> list[frozenset[Perm]]:
        out = []
        for R in self.subgroups:
            if R <= H and all(frozenset(pconj(h, r) for r in R) == R for h in H):
                out.append(R)
        return out
