"""Group-core oracles: brute-force lattice facts and closure properties."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discdeg.permgroup import (FiniteGroup, SubgroupClassTable,
                               alternating_group, build_group,
                               closure, cycle_type, cyclic_group,
                               dihedral_perm_group, direct_product, perm_order,
                               pidentity, pinv, pmul, symmetric_group)


def test_symmetric_group_orders():
    for n, order in ((1, 1), (2, 2), (3, 6), (4, 24)):
        assert symmetric_group(n).order == order
    assert alternating_group(4).order == 12
    assert cyclic_group(5).order == 5
    assert dihedral_perm_group(6).order == 12


def test_direct_product_order():
    G = direct_product(symmetric_group(4), cyclic_group(2))
    assert G.order == 48
    assert G.degree == 6


def test_build_group_descriptor():
    assert build_group("S4*Z2").order == 48
    assert build_group("D4").order == 8
    assert build_group("A4*Z3").order == 36
    with pytest.raises(ValueError):
        build_group("nonsense")


def test_group_axioms_s4():
    G = symmetric_group(4)
    e = pidentity(4)
    for g in G.elements:
        assert pmul(g, pinv(g)) == e
        assert pmul(g, e) == g


def test_conjugacy_classes_s4_sizes():
    G = symmetric_group(4)
    classes = G.element_conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    # every class is closed under conjugation
    for cls in classes:
        reps = set(cls)
        for g in G.elements:
            for x in cls:
                assert pmul(pmul(g, x), pinv(g)) in reps


def test_cycle_type_and_order():
    assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert perm_order((1, 2, 3, 0)) == 4
    assert perm_order(pidentity(5)) == 1


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(5)), st.permutations(range(5)))
def test_closure_is_subgroup(p, q):
    elems = closure([tuple(p), tuple(q)], 5)
    elems = set(elems)
    assert pidentity(5) in elems
    assert 120 % len(elems) == 0          # Lagrange in S5
    for a in elems:
        assert pinv(a) in elems
    sample = list(elems)[:10]
    for a in sample:
        for b in sample:
            assert pmul(a, b) in elems


# -- subgroup lattice oracles -------------------------------------------------

def brute_force_subgroups(G: FiniteGroup) -> set[frozenset]:
    """Every subgroup, extending each one found by every element outside it."""
    subgroups = {frozenset([pidentity(G.degree)])}
    frontier = set(subgroups)
    while frontier:
        nxt = set()
        for H in frontier:
            for g in G.elements:
                if g in H:
                    continue
                Hg = frozenset(closure(list(H) + [g], G.degree))
                if Hg not in subgroups:
                    subgroups.add(Hg)
                    nxt.add(Hg)
        frontier = nxt
    return subgroups


def brute_force_class_count(G: FiniteGroup) -> int:
    """Conjugacy classes of subgroups by exhaustive closure enumeration."""
    elems = G.elements
    classes = set()
    for H in brute_force_subgroups(G):
        orbit = frozenset(
            frozenset(pmul(pmul(g, h), pinv(g)) for h in H) for g in elems)
        classes.add(orbit)
    return len(classes)


@pytest.mark.parametrize("desc", ["S2*Z2", "S3*Z2", "D4*Z2", "A4*Z2", "S4*Z2"])
def test_all_subgroups_matches_unpruned_extension(desc):
    """Extending each subgroup once per coset finds the same list of a
    subgroup table, in the same order (by order, then sorted elements), as
    extending it by every element outside it."""
    G = build_group(desc)
    assert SubgroupClassTable(G).subgroups == sorted(
        brute_force_subgroups(G), key=lambda H: (len(H), sorted(H)))


@pytest.mark.parametrize("desc", ["S3*Z2", "D4*Z2", "A4*Z2"])
def test_subgroup_classes_match_conjugation_orbits(desc):
    """Classes in order of first appearance in the subgroup list, each with
    its conjugates sorted as element lists; element classes are the orbits
    of conjugation by every element."""
    G = build_group(desc)
    table = SubgroupClassTable(G)
    firsts = []
    for H in table.subgroups:
        orbit = {frozenset(pmul(pmul(g, h), pinv(g)) for h in H)
                 for g in G.elements}
        members = sorted(orbit, key=sorted)
        if members not in firsts:
            firsts.append(members)
    assert [rec.members for rec in table.classes] == firsts
    for rec in table.classes:
        assert rec.representative == rec.members[0]
        assert rec.normalizer_order * len(rec.members) == G.order
    orbits = {frozenset(pmul(pmul(g, x), pinv(g)) for g in G.elements)
              for x in G.elements}
    assert {frozenset(c) for c in G.element_conjugacy_classes()} == orbits


@pytest.mark.parametrize("desc", ["S3*Z2", "D4*Z2", "S4*Z2"])
def test_normal_subgroups_of_matches_definition(desc):
    """The normal subgroups of every class representative H, by position
    in the subgroup list: each subgroup R <= H with h R h^-1 = R for all h
    in H, in list order."""
    table = SubgroupClassTable(build_group(desc))
    for rec in table.classes:
        H = rec.representative
        want = [q for q, R in enumerate(table.subgroups) if R <= H and all(
            frozenset(pmul(pmul(h, r), pinv(h)) for r in R) == R for h in H)]
        assert table._normal(table.subgroups.index(H)) == want, rec.cid


def test_subgroup_classes_s4_oracle():
    G = symmetric_group(4)
    table = SubgroupClassTable(G)
    assert len(table.classes) == brute_force_class_count(G) == 11


def test_subgroup_classes_d6_oracle():
    G = dihedral_perm_group(6)
    table = SubgroupClassTable(G)
    assert len(table.classes) == brute_force_class_count(G)


def test_subgroup_table_invariants_s4z2(s4z2_table):
    G = s4z2_table.group
    for rec in s4z2_table.classes:
        assert G.order % rec.order == 0                       # Lagrange
        assert rec.normalizer_order % rec.order == 0
        assert rec.weyl_order == rec.normalizer_order // rec.order
        assert s4z2_table.classes[rec.cid] is rec
        assert s4z2_table.weyl_orders[rec.cid] == rec.weyl_order
        assert s4z2_table.names[rec.cid] == rec.name
        assert len(rec.members) == G.order // rec.normalizer_order
        # representative really is a subgroup
        H = rec.representative
        for a in list(H)[:8]:
            for b in list(H)[:8]:
                assert pmul(a, b) in H


def test_n_count_oracle_s4(s4z2_table):
    """n(L, H) = number of conjugates of H containing L, by brute force."""
    G = s4z2_table.group
    import random
    rng = random.Random(7)
    pairs = [(l, h) for l in range(len(s4z2_table.classes))
             for h in range(len(s4z2_table.classes))]
    for l, h in rng.sample(pairs, 60):
        L = s4z2_table.classes[l].representative
        H = s4z2_table.classes[h].representative
        conjs = {frozenset(pmul(pmul(g, x), pinv(g)) for x in H)
                 for g in G.elements}
        expected = sum(1 for c in conjs if L <= c)
        assert s4z2_table.column(h).get(l, 0) == expected
