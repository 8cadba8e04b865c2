"""Exact integer character tables for the supported group constructors.

Groups that are the full symmetric group on their points (S_n, and Z1,
Z2, D3 as built here) get the Murnaghan-Nakayama rule (via beta-sets),
and direct products are tensored; any other group is refused.
All values are exact integers, which is all the downstream fixed-point
dimension bookkeeping needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .permgroup import FiniteGroup, Perm, cycle_type


def _partitions(n: int) -> list[tuple[int, ...]]:
    def rec(n, maxp):
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxp), 0, -1):
            for rest in rec(n - p, p):
                yield (p,) + rest
    return list(rec(n, n))


@lru_cache(maxsize=None)
def _mn_beta(beta: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama on a beta-set (distinct parts, sorted ascending)."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    bset = set(beta)
    total = 0
    for b in beta:
        if b - k < 0 or (b - k) in bset:
            continue
        crossed = sum(1 for c in beta if b - k < c < b)
        newbeta = tuple(sorted(bset - {b} | {b - k}))
        total += (-1) ** crossed * _mn_beta(newbeta, rest)
    return total


def symmetric_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character value chi_lambda on cycle type mu, for S_n with n = |lambda|."""
    n = sum(lam)
    rows = list(lam) + [0] * (n - len(lam))
    beta = tuple(sorted(rows[i] + (n - 1 - i) for i in range(n)))
    return _mn_beta(beta, tuple(sorted(mu, reverse=True)))


@dataclass
class CharacterTable:
    group: FiniteGroup
    class_reps: list[Perm]
    class_sizes: list[int]
    irreps: list[tuple[int, ...]]     # rows: values per conjugacy class
    names: list[str]

    def __post_init__(self):
        self._cls_of = self.group.class_index_of_element()

    @property
    def degrees(self) -> list[int]:
        return [row[0] for row in self.irreps]

    def value(self, irrep: int, g: Perm) -> int:
        return self.irreps[irrep][self._cls_of[g]]


def _order_irreps(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Canonical irrep order: by degree, then values lexicographically descending."""
    return sorted(rows, key=lambda r: (r[0], tuple(-v for v in r)))


def character_table(G: FiniteGroup) -> CharacterTable:
    classes = G.element_conjugacy_classes()
    reps = [cls[0] for cls in classes]
    sizes = [len(cls) for cls in classes]

    if G.factors is not None:
        tables = [character_table(f) for f, _ in G.factors]
        offsets = [off for _, off in G.factors]
        def project(g: Perm, f: FiniteGroup, off: int) -> Perm:
            return tuple(g[off + i] - off for i in range(f.degree))
        rows = []
        for combo in product(*[range(len(t.irreps)) for t in tables]):
            row = []
            for g in reps:
                v = 1
                for (f, off), t, i in zip(G.factors, tables, combo):
                    v *= t.value(i, project(g, f, off))
                row.append(v)
            rows.append(tuple(row))
    elif G.order == math.factorial(G.degree):
        # the full symmetric group on its points (Z1, Z2, D3 are S1, S2, S3
        # in disguise); a smaller group on as many points, like A2, is not
        n = G.degree
        types = [cycle_type(r) for r in reps]
        rows = [tuple(symmetric_character(lam, mu) for mu in types)
                for lam in _partitions(n)]
    else:
        raise NotImplementedError(
            f"exact character table not implemented for {G.name or 'this group'}")

    rows = _order_irreps(rows)
    table = CharacterTable(G, reps, sizes, rows,
                           [f"chi{i}" for i in range(len(rows))])
    _validate_orthogonality(table)
    return table


def _validate_orthogonality(t: CharacterTable) -> None:
    n = t.group.order
    for i, r1 in enumerate(t.irreps):
        for j, r2 in enumerate(t.irreps):
            s = sum(sz * a * b for sz, a, b in zip(t.class_sizes, r1, r2))
            if s != (n if i == j else 0):
                raise AssertionError("character table fails orthogonality")


def fixed_dim(table: CharacterTable, irrep: int, subgroup) -> int:
    """dim of the fixed-point space of a subgroup in the given irrep, by
    averaging the character over its elements: the independent oracle of
    ``reps.RepContext.fixed_dims``."""
    total = sum(table.value(irrep, h) for h in subgroup)
    d = Fraction(total, len(subgroup))
    if d.denominator != 1:
        raise AssertionError("non-integral fixed-point dimension")
    return int(d)


def isotypic_multiplicities(table: CharacterTable,
                            class_values: list[int]) -> list[int]:
    """Multiplicity of each irrep in a character given by its class values."""
    n = table.group.order
    out = []
    for row in table.irreps:
        s = sum(sz * a * b for sz, a, b in zip(table.class_sizes, row, class_values))
        m = Fraction(s, n)
        if m.denominator != 1 or m < 0:
            raise AssertionError("values are not a character of the group")
        out.append(int(m))
    return out
