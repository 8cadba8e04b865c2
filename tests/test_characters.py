"""Character-table checks: printed S4 table, orthogonality, decompositions."""
from fractions import Fraction

import pytest

from discdeg.characters import (character_table, fixed_dim,
                                isotypic_multiplicities)
from discdeg.permgroup import (alternating_group, cyclic_group,
                               dihedral_perm_group, direct_product,
                               symmetric_group)

# the S4 character table with classes ordered (), (12), (12)(34), (123), (1234)
S4_TABLE = [
    (1, 1, 1, 1, 1),
    (1, -1, 1, 1, -1),
    (2, 0, 2, -1, 0),
    (3, 1, -1, 0, -1),
    (3, -1, -1, 0, 1),
]


def test_s4_class_order():
    G = symmetric_group(4)
    t = character_table(G)
    # classes in canonical order: sizes 1, 6, 3, 8, 6
    assert t.class_sizes == [1, 6, 3, 8, 6]


def test_s4_character_table_exact():
    t = character_table(symmetric_group(4))
    assert [tuple(r) for r in t.irreps] == S4_TABLE


def _check_orthogonality(G):
    t = character_table(G)
    n = G.order
    k = len(t.irreps)
    for i in range(k):
        for j in range(k):
            dot = sum(s * a * b for s, a, b in
                      zip(t.class_sizes, t.irreps[i], t.irreps[j]))
            assert dot == (n if i == j else 0)
    assert sum(r[0] ** 2 for r in t.irreps) == n


@pytest.mark.parametrize("G", [
    symmetric_group(2), symmetric_group(3), symmetric_group(4),
    direct_product(cyclic_group(2), cyclic_group(2)),
    direct_product(symmetric_group(3), cyclic_group(2)),
    direct_product(symmetric_group(4), cyclic_group(2)),
])
def test_orthogonality(G):
    _check_orthogonality(G)


def test_unsupported_group_is_rejected():
    """Groups with irrational characters are refused, not mis-handled."""
    with pytest.raises(NotImplementedError):
        character_table(alternating_group(4))


def test_direct_product_table_is_tensor():
    A = symmetric_group(3)
    B = cyclic_group(2)
    t = character_table(direct_product(A, B))
    assert len(t.irreps) == len(character_table(A).irreps) * 2
    _check_orthogonality(direct_product(A, B))


def test_cube_permutation_character_decomposition(cube41):
    """The 8-vertex permutation rep decomposes as U0 + U1 + U3 + U4."""
    t = character_table(cube41.gamma)
    chi_v = cube41.permutation_character()
    assert chi_v == [8, 0, 0, 2, 0]
    assert isotypic_multiplicities(t, chi_v) == [1, 1, 0, 1, 1]


def test_isotypic_multiplicities_regular_rep():
    G = symmetric_group(4)
    t = character_table(G)
    regular = [24, 0, 0, 0, 0]
    assert isotypic_multiplicities(t, regular) == [r[0] for r in t.irreps]


def test_isotypic_multiplicities_rejects_non_character():
    t = character_table(symmetric_group(4))
    with pytest.raises((ValueError, AssertionError)):
        isotypic_multiplicities(t, [1, 1, 1, 1, 0])


def test_fixed_dim_trivial_and_sign():
    G = symmetric_group(4)
    t = character_table(G)
    full = list(G.elements)
    assert fixed_dim(t, 0, full) == 1          # trivial character
    assert fixed_dim(t, 1, full) == 0          # sign character
    # A4 fixes the sign character
    A4 = [g for g in full if _parity(g) == 1]
    assert fixed_dim(t, 1, A4) == 1


def _parity(p):
    seen, sgn = set(), 1
    for i in range(len(p)):
        if i in seen:
            continue
        ln, j = 0, i
        while j not in seen:
            seen.add(j)
            j = p[j]
            ln += 1
        sgn *= (-1) ** (ln - 1)
    return sgn


def test_fixed_dim_monotone_under_subgroups():
    """Fixed dimension can only grow when passing to a smaller subgroup."""
    G = symmetric_group(4)
    t = character_table(G)
    from discdeg.permgroup import SubgroupClassTable
    table = SubgroupClassTable(G)
    for j in range(len(t.irreps)):
        dims = {rec.cid: fixed_dim(t, j, list(rec.representative))
                for rec in table.classes}
        for l in range(len(table.classes)):
            for h in range(len(table.classes)):
                if l != h and l in table.column(h):
                    assert dims[l] >= dims[h]
