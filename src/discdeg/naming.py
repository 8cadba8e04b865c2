"""Canonical names for conjugacy classes of subgroups of S4 and S4 x Z2.

S4 x Z2 has 33 classes of subgroups.  A subgroup U splits into one of
three shapes: a plain subgroup S x 1 (named after S), a full product
S x Z2 (suffix "p"), or a twisted subgroup {(s, phi(s))} determined by a
pair (S, R) with R = ker(phi) of index 2 in S.  Twisted names carry a
marker for the kernel: "z" for the cyclic kernel of a dihedral-type
subgroup, "d" / "hd" for the two kinds of Klein-four kernels inside D4,
"m" for the remaining sign twists.
"""
from __future__ import annotations

from .permgroup import Perm, cycle_type, pidentity


def _is_transposition(p: Perm) -> bool:
    return sorted(cycle_type(p), reverse=True)[0] == 2 and cycle_type(p).count(2) == 1


def _is_double_transposition(p: Perm) -> bool:
    return cycle_type(p).count(2) == 2


def s4_subgroup_name(S: frozenset[Perm]) -> str:
    """Structural name of a subgroup of S4 (on 4 points)."""
    n = len(S)
    if n == 1:
        return "Z1"
    if n == 2:
        g = next(p for p in S if p != pidentity(4))
        return "D1" if _is_transposition(g) else "Z2"
    if n == 3:
        return "Z3"
    if n == 4:
        if any(cycle_type(p) == (4,) for p in S):
            return "Z4"
        # Klein groups: the normal one consists of double transpositions
        if all(p == pidentity(4) or _is_double_transposition(p) for p in S):
            return "V4"
        return "D2"
    if n == 6:
        return "D3"
    if n == 8:
        return "D4"
    if n == 12:
        return "A4"
    if n == 24:
        return "S4"
    raise ValueError(f"not a subgroup order of S4: {n}")


# twisted subgroup names, keyed by (name of projection S, name of kernel R);
# for the Klein kernels of D4, "D2" is the one containing transpositions.
_TWIST_NAMES = {
    ("Z2", "Z1"): "Z2m",
    ("D1", "Z1"): "D1z",
    ("Z4", "Z2"): "Z4d",
    ("V4", "Z2"): "V4m",
    ("D2", "Z2"): "D2z",
    ("D2", "D1"): "D2d",
    ("D3", "Z3"): "D3z",
    ("D4", "Z4"): "D4z",
    ("D4", "D2"): "D4d",
    ("D4", "V4"): "D4hd",
    ("S4", "A4"): "S4m",
}

def s4z2_subgroup_name(U: frozenset[Perm]) -> str:
    """Name of a subgroup of S4 x Z2 (S4 on points 0-3, Z2 on points 4-5)."""
    central = tuple([0, 1, 2, 3, 5, 4])
    proj = frozenset(g[:4] for g in U)
    if central in U:
        return s4_subgroup_name(proj) + "p"
    if all(g[4] == 4 for g in U):
        return s4_subgroup_name(proj)
    kernel = frozenset(g[:4] for g in U if g[4] == 4)
    key = (s4_subgroup_name(proj), s4_subgroup_name(kernel))
    return _TWIST_NAMES[key]


def name_subgroup_classes(table) -> None:
    """Assign canonical names to a SubgroupClassTable in place."""
    G = table.group
    if G.name == "S4*Z2" and G.degree == 6:
        namer = s4z2_subgroup_name
    elif G.name == "S4" and G.degree == 4:
        namer = s4_subgroup_name
    else:
        namer = None
    for rec in table.classes:
        if namer is not None:
            rec.name = namer(rec.representative)
        else:
            rec.name = f"H{rec.cid}o{rec.order}"
