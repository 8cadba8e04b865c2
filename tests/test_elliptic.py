"""Application layer: cube matrix spectra, conditions, counters, report."""
import json
import os
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from discdeg import cli
from discdeg.bessel import ModeTable
from discdeg.degrees import basic_degree, build_context, linear_degree
from discdeg.elliptic import (CUBE_ADJACENCY, CUBE_GENERATOR_IMAGES,
                              ClassCounters, CouplingProblem, GrowthMeta,
                              class_counters, collisions,
                              cube_action, cube_matrix,
                              cube_problem, existence_report,
                              isotypic_spectrum, m_counter,
                              odd_reps, spectrum_summary)
from discdeg.reps import IrrDescriptor, maximal_orbit_types_union

FIRST_J0_ZERO = 2.40482555769577


# -- cube template -------------------------------------------------------------

def test_cube_action_is_a_faithful_s4_action():
    gamma, action = cube_action()
    assert gamma.order == 24
    assert len(action) == 24
    from discdeg.permgroup import pmul
    for g in gamma.elements:
        for h in gamma.generators:
            assert action[pmul(h, g)] == pmul(action[h], action[g])
    # faithful: only the identity acts trivially
    trivial = [g for g, p in action.items() if p == tuple(range(8))]
    assert trivial == [tuple(range(4))]


def test_cube_action_is_by_rotations_moving_the_diagonals_as_s4():
    """Every image keeps the edges of the cube, moves the diagonals (the
    antipodal pairs, diagonal d holding vertex d) as its element of S4
    moves 0..3, and is not the antipodal map, which fixes every diagonal;
    the generators go to CUBE_GENERATOR_IMAGES."""
    gamma, action = cube_action()
    diagonals = [{0, 7}, {1, 4}, {2, 5}, {3, 6}]
    antipodal = tuple(next(iter(d - {v})) for v in range(8)
                      for d in diagonals if v in d)
    assert [action[s] for s in gamma.generators] == CUBE_GENERATOR_IMAGES
    for g, p in action.items():
        assert all(CUBE_ADJACENCY[p[i]][p[l]] == CUBE_ADJACENCY[i][l]
                   for i in range(8) for l in range(8)), g
        assert [{p[v] for v in d} for d in diagonals] == [
            diagonals[g[d]] for d in range(4)], g
        assert p != antipodal, g


def test_cube_matrix_rows():
    A = cube_matrix(4, 1)
    for i, row in enumerate(A):
        assert row[i] == 4
        assert sum(v for j, v in enumerate(row) if j != i) == 3


def test_cube_spectrum_41(cube41_spectrum):
    sigma = spectrum_summary(cube41_spectrum)
    assert sigma == {Fraction(7): 1, Fraction(1): 1,
                     Fraction(3): 3, Fraction(5): 3}


def test_cube_spectrum_symbolic():
    """sigma(A) = {c+3d, c-3d, c+d, c-d} with multiplicities (1, 1, 3, 3)."""
    c, d = Fraction(10), Fraction(2)
    spec = isotypic_spectrum(cube_problem(c, d))
    sigma = spectrum_summary(spec)
    assert sigma == {c + 3 * d: 1, c - 3 * d: 1, c + d: 3, c - d: 3}


def test_cube_diagonal_case():
    spec = isotypic_spectrum(cube_problem(5, 0))
    assert spectrum_summary(spec) == {Fraction(5): 8}


def test_spectrum_attribution_follows_characters(cube41_spectrum):
    """Eigenvalues pair with the character rows of their projectors:
    the isotypic index determines mu = c + d*(chi-weighted neighbor sum)."""
    by_j = {e.j: e for e in cube41_spectrum}
    assert set(by_j) == {0, 1, 3, 4}
    assert by_j[0].mu == 7 and by_j[0].dim == 1     # trivial character
    assert by_j[1].mu == 1 and by_j[1].dim == 1     # sign character
    assert {by_j[3].mu, by_j[4].mu} == {3, 5}
    assert by_j[3].dim == by_j[4].dim == 3


def test_non_commuting_matrix_rejected():
    gamma, action = cube_action()
    A = cube_matrix(4, 1)
    A[0][1] = Fraction(2)   # break the symmetry
    with pytest.raises(ValueError):
        CouplingProblem(gamma=gamma, action=action, matrix=A)


def test_non_scalar_isotypic_matrix_rejected():
    """A commuting matrix that is not scalar on an isotypic component
    (condition failure) is refused with a diagnostic."""
    from discdeg.permgroup import symmetric_group, pidentity
    gamma = symmetric_group(2)
    # action swapping coordinate pairs (0 1)(2 3): commutant is larger than
    # the span of the projectors, so a non-scalar block is constructible
    action = {(0, 1): (0, 1, 2, 3), (1, 0): (1, 0, 3, 2)}
    A = [[Fraction(v) for v in row] for row in
         [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]]
    with pytest.raises(ValueError, match="isotypic"):
        isotypic_spectrum(CouplingProblem(gamma=gamma, action=action, matrix=A))


def test_growth_metadata_validation():
    with pytest.raises(ValueError):
        GrowthMeta(alpha=1.0)
    with pytest.raises(ValueError):
        GrowthMeta(beta=1.0)
    with pytest.raises(ValueError):
        GrowthMeta(a=-1.0)
    GrowthMeta(alpha=0.5, beta=2.0)   # valid


# -- conditions ----------------------------------------------------------------

def test_condition_D_satisfied_for_cube41(cube41_spectrum, cube41_modes):
    assert collisions(cube41_spectrum, cube41_modes) == []


def test_condition_D_detects_planted_zero():
    gamma, action = cube_action()
    # c = s_10 - 3: then c + 3d = s_10 exactly (within float tolerance)
    spec = isotypic_spectrum(cube_problem(4, 1))
    planted = [type(spec[0])(j=0, mu=FIRST_J0_ZERO, mult=1, dim=1)]
    modes = ModeTable(3.0)
    found = collisions(planted, modes)
    assert found
    assert found[0][0] == 1 and found[0][1] == 0


def test_condition_D_vacuous_for_negative_spectrum(cube41_modes):
    spec = isotypic_spectrum(cube_problem(-10, 1))
    assert all(float(e.mu) < 0 for e in spec)
    assert collisions(spec, cube41_modes) == []


def test_resonant_set():
    planted2 = [_fake_eig(5.135622301840683, m=2)]   # first zero of J_2
    modes = ModeTable(6.0)
    assert {m for _, m, _ in collisions(planted2, modes)} == {2}


def _fake_eig(mu, m=0):
    from discdeg.elliptic import IsotypicEigenvalue
    return IsotypicEigenvalue(j=0, mu=mu, mult=1, dim=1)


# -- counters ------------------------------------------------------------------

def test_mode_counters_cube41(cube41_spectrum, cube41_modes):
    # n_m(mu) for the published zeros
    assert cube41_modes.count_below(0, 7) == 2
    assert cube41_modes.count_below(1, 7) == 1
    assert cube41_modes.count_below(1, 1) == 0
    assert cube41_modes.count_below(4, 7) == 0
    # m_m aggregates with algebraic multiplicities
    assert m_counter(cube41_spectrum, cube41_modes, 0) == 8
    assert m_counter(cube41_spectrum, cube41_modes, 1) == 4
    assert m_counter(cube41_spectrum, cube41_modes, 2) == 1
    assert m_counter(cube41_spectrum, cube41_modes, 3) == 1


def test_class_counters_published_values(cube_pipeline, cube41_spectrum,
                                         cube41_modes):
    cat = cube_pipeline.catalog
    expect = {
        "D6 x_{D6} D3p": 1,
        "D4 x_{D4}^{Z2m} D4p": 1,
        "D2^{D1} x_{Z2}^{D2d} D2p": 1,
        "D2^{D1} x_{Z2}^{D4z} D4p": 1,
        "D2^{D1} x_{Z2}^{S4} S4p": 3,
    }
    for name, nu0 in expect.items():
        cc = class_counters(cube41_spectrum, cube41_modes,
                            cube_pipeline.ctx, cat.by_name[name])
        assert cc.m_of[1] == 1, name
        assert cc.nu0 == nu0, name
    # the two remaining maximal classes never see an odd counter
    for name in ("D2^{D1} x_{Z2}^{D4d} D4p", "D2^{D1} x_{Z2}^{S4m} S4p"):
        cc = class_counters(cube41_spectrum, cube41_modes,
                            cube_pipeline.ctx, cat.by_name[name])
        assert cc.nu0 is None and all(v == 0 for v in cc.m_of.values())


# -- the report ----------------------------------------------------------------

def test_report_nonradial_families(cube41_report):
    got = {(f.family_name, f.nu0) for f in cube41_report.non_radial}
    assert got == {
        ("D6m^{Zm} x_{D6} D3p", 1),
        ("D4m^{Zm} x_{D4}^{Z2m} D4p", 1),
        ("D2m^{Dm} x_{Z2}^{D2d} D2p", 1),
        ("D2m^{Dm} x_{Z2}^{D4z} D4p", 1),
        ("D2m^{Dm} x_{Z2}^{S4} S4p", 3),
    }
    for f in cube41_report.non_radial:
        assert f.witness_coeff != 0        # report soundness invariant


def test_report_radial_types(cube41_report):
    names = {name for _, name, _ in cube41_report.radial}
    assert names == {"O(2) x D3", "O(2) x D3z", "O(2) x D4z", "O(2) x D4d"}
    for _, _, coeff in cube41_report.radial:
        assert coeff != 0


def test_report_excludes_zero_coefficient_radial_candidate(cube41_report):
    """O(2) x D2d is a maximal mode-0 orbit type but carries coefficient 0."""
    assert cube41_report.degree.coeff_by_name("O(2) x D2d") == 0
    assert "O(2) x D2d" not in {n for _, n, _ in cube41_report.radial}


def test_report_subcritical_spectrum_is_empty():
    rep = existence_report(cube_problem(1, Fraction(1, 10)))
    assert rep.condition_D
    assert rep.non_radial == [] and rep.radial == []
    assert rep.degree is not None and rep.degree.coeffs == {}


def test_report_refuses_nothing_but_flags_collision():
    rep = existence_report(cube_problem(FIRST_J0_ZERO - 3, 1))
    assert not rep.condition_D
    n, m, mu = rep.condition_D_witness
    assert (n, m) == (1, 0)
    assert rep.degree is None


def _same_report_on_larger_head_sets(c, P, sizes, wider):
    """Head-set oracle: cube(c,1) on its required heads and on those plus
    more heads gives the same expansion, non-radial families and radial
    types, class by class name; so the extra classes carry no terms."""
    problem = cube_problem(c, 1)
    modes = ModeTable(max(float(e.mu) for e in isotypic_spectrum(problem)))
    base = build_context(problem.gamma, modes)
    assert base.catalog.P == P

    def records(pipeline):
        rep = existence_report(problem, pipeline=pipeline)
        name = pipeline.catalog.names
        return ({name[c]: v for c, v in rep.degree.coeffs.items()},
                [(f.base_name, f.nu0, f.family_name, name[f.witness_cid],
                  f.witness_coeff) for f in rep.non_radial],
                [(n, v) for _, n, v in rep.radial])
    want = records(base)
    assert [len(r) for r in want] == sizes
    for extra, P in wider:
        wide = build_context(problem.gamma, modes,
                             heads=base.catalog.heads + extra)
        assert wide.catalog.P == P and len(wide.catalog) > len(base.catalog)
        assert records(wide) == want, extra


def test_cube51_report_is_the_same_on_a_larger_head_set():
    """Heads 32, 36 and 48 added (P = 576), and 5 (P = 1,440)."""
    _same_report_on_larger_head_sets(
        5, 288, [170, 6, 3], [([32, 36, 48], 576), ([5], 1440)])


def test_cube91_report_is_the_same_on_a_larger_head_set():
    """Heads 13, 26, 32 and 48 added: P = 10,080 grows to 262,080."""
    _same_report_on_larger_head_sets(
        9, 10080, [476, 7, 3], [([13, 26, 32, 48], 262080)])


# -- the linearized degree and the fold counters against their definitions ----

_CATALOGS: dict = {}


def _solve_data(problem):
    """Spectrum, mode table and pipeline of ``problem``, with one catalog per
    group and head set for the whole module."""
    spec = isotypic_spectrum(problem)
    modes = ModeTable(max(float(e.mu) for e in spec))
    assert not collisions(spec, modes)

    def cache(tag, build):
        if tag not in _CATALOGS:
            _CATALOGS[tag] = build()
        return _CATALOGS[tag]
    return spec, modes, build_context(problem.gamma, modes, cache=cache)


def _seeded_problem(group: str, seed: int, tmp_path):
    """An S2 swap or an S3 permutation problem with two eigenvalues in
    (0, 7.5), the larger above j_{3,1} = 6.380, clear of the Bessel zeros."""
    rng = random.Random(seed)
    while True:
        top = Fraction(rng.randrange(6400, 7500), 1000)
        low = Fraction(rng.randrange(50, int(top * 1000)), 1000)
        if group == "S2":
            a, b = (top + low) / 2, (top - low) / 2
            doc = {"group": "S2", "action_generators": [[1, 0]],
                   "matrix": [[str(a), str(b)], [str(b), str(a)]]}
        else:
            a, b = (top + 2 * low) / 3, (top - low) / 3
            doc = {"group": "S3", "action_generators": [[1, 0, 2], [1, 2, 0]],
                   "matrix": [[str(a if i == j else b) for j in range(3)]
                              for i in range(3)]}
        path = tmp_path / f"{group}-{seed}.json"
        path.write_text(json.dumps(doc))
        problem = cli._load_problem(str(path))
        spec = isotypic_spectrum(problem)
        if not collisions(spec, ModeTable(float(top))):
            return problem


SWAP = os.path.join(os.path.dirname(__file__), "..", "examples_local",
                    "swap.json")


def _problem(which, tmp_path):
    """The cube(c,1), swap or seeded S2/S3 problem named ``which``."""
    if which.startswith("cube"):
        return cube_problem(int(which[4]), 1)
    if which == "swap":
        return cli._load_problem(SWAP)
    return _seeded_problem(which[:2].upper(), int(which[3]), tmp_path)


def _fraction_spectrum(problem):
    """The isotypic spectrum in Fraction arithmetic, projector by projector:
    the oracle of the integer ``isotypic_spectrum``."""
    from discdeg.characters import character_table, isotypic_multiplicities
    G, k, A = problem.gamma, problem.dim, problem.matrix
    table = character_table(G)
    out = []
    for j, m_j in enumerate(isotypic_multiplicities(
            table, problem.permutation_character())):
        if m_j == 0:
            continue
        deg = table.degrees[j]
        P = [[Fraction(0)] * k for _ in range(k)]
        for g in G.elements:
            p = problem.action[g]
            for l in range(k):
                P[p[l]][l] += Fraction(deg * table.value(j, g), G.order)
        AP = [[sum(A[i][t] * P[t][l] for t in range(k)) for l in range(k)]
              for i in range(k)]
        i0, l0 = next((i, l) for i in range(k) for l in range(k) if P[i][l])
        mu = AP[i0][l0] / P[i0][l0]
        if any(AP[i][l] != mu * P[i][l] for i in range(k) for l in range(k)):
            raise ValueError(f"not scalar on isotypic component {j}")
        out.append((j, mu, m_j, m_j * deg))
    return out


@pytest.mark.parametrize("which", [
    "cube21", "cube31", "cube41", "cube51", "cube61", "swap", "s2-1", "s2-2",
    "s3-1", "s3-2", "non-scalar"])
def test_integer_spectrum_matches_the_fraction_projectors(which, tmp_path):
    """The spectrum computed in integers equals the one of the rational
    projectors, and a matrix that breaks (B2) is refused by both."""
    if which.startswith("cube"):
        problem = cube_problem(int(which[4]), 1)
    elif which == "swap":
        problem = cli._load_problem(SWAP)
    elif which == "non-scalar":
        from discdeg.permgroup import symmetric_group
        A = [[Fraction(v) for v in row] for row in
             [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]]
        problem = CouplingProblem(
            gamma=symmetric_group(2), matrix=A,
            action={(0, 1): (0, 1, 2, 3), (1, 0): (1, 0, 3, 2)})
        for spectrum in (isotypic_spectrum, _fraction_spectrum):
            with pytest.raises(ValueError):
                spectrum(problem)
        return
    else:
        problem = _seeded_problem(which[:2].upper(), int(which[3]), tmp_path)
    assert [(e.j, e.mu, e.mult, e.dim) for e in isotypic_spectrum(problem)] \
        == _fraction_spectrum(problem)


@pytest.mark.parametrize("which", [
    "cube21", "cube31", "cube41", "cube51", "swap", "s2-1", "s2-2", "s3-1",
    "s3-2"])
def test_linear_degree_is_the_product_of_the_odd_basic_degrees(which,
                                                               tmp_path):
    """The linear degree, one mark recurrence over the sum of the odd reps,
    equals the ring product of their basic degrees."""
    spec, modes, pipe = _solve_data(_problem(which, tmp_path))
    odd = odd_reps(spec, modes)
    assert odd
    want = reduce(lambda x, r: x * basic_degree(pipe.ring, pipe.ctx, r), odd,
                  pipe.ring.one())
    assert linear_degree(pipe.ring, pipe.ctx, odd).coeffs == want.coeffs


def _mark_mismatches(ctx, coeffs, reps) -> list[int]:
    """The classes L of the whole catalog at which the element ``coeffs``
    has a mark other than (-1)^{dim V^L}, V the sum of ``reps``."""
    cat = ctx.catalog
    marks = [0] * len(cat)
    for h, v in coeffs.items():
        for l, n in cat.column(h).items():
            marks[l] += v * n * cat.weyl_orders[h]
    dims = sum(map(ctx.fixed_dims, reps), np.zeros(len(cat), dtype=int))
    return [l for l, (mk, d) in enumerate(zip(marks, dims.tolist()))
            if mk != (-1) ** d]


@pytest.mark.parametrize("which", [
    "cube41", "cube61", "cube81", "swap", "s2-1", "s2-2", "s3-1", "s3-2"])
def test_every_degree_of_a_solve_has_its_marks_at_every_class(
        which, tmp_path, monkeypatch):
    """The one degree of -id a solve computes, the linear degree, has the
    mark (-1)^{dim V^L} at every class L of the catalog, not only at the
    classes its recurrence visits."""
    import discdeg.degrees as degrees
    import discdeg.elliptic as elliptic
    problem = _problem(which, tmp_path)
    spec, modes, pipe = _solve_data(problem)
    real, seen = degrees.linear_degree, []

    def recorded(ring, ctx, reps):
        seen.append((list(reps), real(ring, ctx, reps)))
        return seen[-1][1]
    monkeypatch.setattr(degrees, "linear_degree", recorded)
    monkeypatch.setattr(elliptic, "linear_degree", recorded)
    existence_report(problem, pipeline=pipe)
    assert len(seen) == 1
    for reps, d in seen:
        assert _mark_mismatches(pipe.ctx, d.coeffs, reps) == [], reps


def test_the_mark_check_sees_a_class_dropped_from_the_domain(
        cube41, cube_pipeline, monkeypatch):
    """Dropping any one class with a nonzero coefficient from the domain of
    the cube(4,1) linear degree's recurrence leaves a wrong mark, where the
    recurrence does not refuse on a non-exact division first."""
    from discdeg.burnside import BurnsideRing
    from discdeg.degrees import linear_degree
    ring, ctx = cube_pipeline.ring, cube_pipeline.ctx
    spec = isotypic_spectrum(cube41)
    reps = odd_reps(spec, ModeTable(max(float(e.mu) for e in spec)))
    coeffs = linear_degree(ring, ctx, reps).coeffs
    assert _mark_mismatches(ctx, coeffs, reps) == []
    real, seen = BurnsideRing.from_marks, 0
    for drop in coeffs:
        monkeypatch.setattr(BurnsideRing, "from_marks", lambda self, domain,
                            mark: real(self, set(domain) - {drop}, mark))
        try:
            wrong = linear_degree(ring, ctx, reps).coeffs
        except AssertionError:
            continue
        assert _mark_mismatches(ctx, wrong, reps), ctx.catalog.names[drop]
        seen += 1
    assert seen > 0


def _class_counters_by_fold(spec, modes, ring, ctx, cid) -> ClassCounters:
    """The counters by their definition: the mode-nu basic degree at the
    nu-fold of the class."""
    cat = ctx.catalog
    m_of = {}
    for nu in range(1, modes.max_mode + 1):
        raw = {e.j: (modes.count_below(nu, e.mu) if float(e.mu) > 0 else 0)
               for e in spec}
        if not any(raw.values()):
            m_of[nu] = 0
            continue
        h_nu = cat.fold_class(cid, nu)
        m_of[nu] = sum(raw[e.j] * e.mult for e in spec if raw[e.j]
                       and basic_degree(ring, ctx, IrrDescriptor(nu, e.j, -1))
                       .coeff(h_nu) != 0)
    odd = [v for v, t in m_of.items() if t % 2]
    return ClassCounters(cid=cid, name=cat.names[cid],
                         m_of=m_of, nu0=max(odd) if odd else None)


@pytest.mark.parametrize("which", [4, 5, "swap", "s2-1", "s3-1"])
def test_fold_counters_read_off_the_mode_1_basic_degrees(which, tmp_path):
    """For every maximal mode-1 class H, irreducible U_j and nu up to the
    largest mode with a negative eigenvalue, the mode-nu basic degree has a
    term at Psi_nu(H) exactly when the mode-1 one has a term at H, which is
    when dim V^H is odd, V = W_1 (x) U_j-; so the counters read off the
    mode-1 parities are those of their definition.  ``which`` is c of
    cube(c,1) or a problem."""
    cube = isinstance(which, int)
    spec, modes, pipe = _solve_data(
        cube_problem(which, 1) if cube else _problem(which, tmp_path))
    cat, ring, ctx = pipe.catalog, pipe.ring, pipe.ctx
    reps = [IrrDescriptor(1, j, -1) for j in range(len(ctx.gamma_table.irreps))]
    m1 = maximal_orbit_types_union(ctx, reps)
    top = max(m for m, n in modes.counts.items() if n)
    if cube:
        assert len(m1) == 7 and top == which - 1
    for h in m1:
        for rep in reps:
            at_h = basic_degree(ring, ctx, rep).coeff(h) != 0
            assert at_h == bool(ctx.fixed_dims(rep)[h] % 2), (h, rep)
            for nu in range(2, top + 1):
                d = basic_degree(ring, ctx, IrrDescriptor(nu, rep.j, -1))
                assert (d.coeff(cat.fold_class(h, nu)) != 0) == at_h, (h, rep)
        assert (class_counters(spec, modes, ctx, h)
                == _class_counters_by_fold(spec, modes, ring, ctx, h))


def test_solve_multiplies_nothing_and_runs_one_mark_recurrence(
        cube41, cube_pipeline, monkeypatch):
    """The cube(4,1) report takes its degree from one mark recurrence and
    its counters from fixed-point dimensions: no ring product is formed
    and no other degree is built."""
    from discdeg.burnside import BurnsideRing
    from discdeg.degrees import PipelineContext
    from discdeg.permgroup import symmetric_group
    from discdeg.reps import RepContext

    def no_product(*args):
        raise AssertionError("ring product on the solve path")
    real, calls = BurnsideRing.from_marks, []

    def counted(self, domain, mark):
        calls.append(len(domain))
        return real(self, domain, mark)
    monkeypatch.setattr(BurnsideRing, "multiply", no_product)
    monkeypatch.setattr(BurnsideRing, "from_marks", counted)
    cat = cube_pipeline.catalog
    pipe = PipelineContext(catalog=cat, ring=BurnsideRing(cat),
                           ctx=RepContext(cat, symmetric_group(4)))
    rep = existence_report(cube41, pipeline=pipe)
    assert len(rep.degree.coeffs) == 85 and len(rep.non_radial) == 5
    assert len(calls) == 1
