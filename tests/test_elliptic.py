"""Application layer: cube matrix spectra, conditions, counters, report."""
from fractions import Fraction

import pytest

from discdeg.bessel import ModeTable
from discdeg.elliptic import (CouplingProblem, GrowthMeta, check_condition_D,
                              check_s3_1, class_counters, cube_action,
                              cube_matrix, cube_problem, existence_report,
                              isotypic_spectrum, m_counter, n_counter,
                              resonant_set, spectrum_summary)

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
    ok, witness = check_condition_D(cube41_spectrum, cube41_modes)
    assert ok and witness is None


def test_condition_D_detects_planted_zero():
    gamma, action = cube_action()
    # c = s_10 - 3: then c + 3d = s_10 exactly (within float tolerance)
    spec = isotypic_spectrum(cube_problem(4, 1))
    planted = [type(spec[0])(j=0, mu=FIRST_J0_ZERO, mult=1, dim=1)]
    modes = ModeTable(3.0)
    ok, witness = check_condition_D(planted, modes)
    assert not ok
    assert witness[0] == 1 and witness[1] == 0


def test_condition_D_vacuous_for_negative_spectrum(cube41_modes):
    spec = isotypic_spectrum(cube_problem(-10, 1))
    assert all(float(e.mu) < 0 for e in spec)
    ok, _ = check_condition_D(spec, cube41_modes)
    assert ok


def test_resonant_set_and_s3_1():
    planted2 = [_fake_eig(5.135622301840683, m=2)]   # first zero of J_2
    modes = ModeTable(6.0)
    C = resonant_set(planted2, modes)
    assert C == {2}
    assert check_s3_1(C, 1)          # odd multiples of 1 miss 2
    assert not check_s3_1({3}, 3)    # 3 is an odd multiple of 3
    assert check_s3_1({3}, 2)
    assert check_s3_1(set(), 5)
    with pytest.raises(ValueError):
        check_s3_1(set(), 0)


def _fake_eig(mu, m=0):
    from discdeg.elliptic import IsotypicEigenvalue
    return IsotypicEigenvalue(j=0, mu=mu, mult=1, dim=1)


# -- counters ------------------------------------------------------------------

def test_mode_counters_cube41(cube41_spectrum, cube41_modes):
    # n_m(mu) for the published zeros
    assert n_counter(cube41_modes, 0, 7) == 2
    assert n_counter(cube41_modes, 1, 7) == 1
    assert n_counter(cube41_modes, 1, 1) == 0
    assert n_counter(cube41_modes, 4, 7) == 0
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
                            cube_pipeline.ring, cube_pipeline.ctx,
                            cat.by_name[name])
        assert cc.m_of[1] == 1, name
        assert cc.nu0 == nu0, name
    # the two remaining maximal classes never see an odd counter
    for name in ("D2^{D1} x_{Z2}^{D4d} D4p", "D2^{D1} x_{Z2}^{S4m} S4p"):
        cc = class_counters(cube41_spectrum, cube41_modes,
                            cube_pipeline.ring, cube_pipeline.ctx,
                            cat.by_name[name])
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


def test_cube51_report_is_the_same_on_a_larger_head_set():
    """Head-set oracle: cube(5,1) on its required heads (P = 288), on those
    plus 32, 36 and 48 (P = 576) and on those plus 5 (P = 1,440) gives the
    same expansion, non-radial families and radial types, class by class
    name; so the extra classes carry no terms."""
    from discdeg.elliptic import build_context
    problem = cube_problem(5, 1)
    modes = ModeTable(max(float(e.mu) for e in isotypic_spectrum(problem)))
    base = build_context(problem, modes)
    assert base.catalog.P == 288

    def records(pipeline):
        rep = existence_report(problem, pipeline=pipeline)
        name = {c.cid: c.name for c in pipeline.catalog.classes}
        return ({name[c]: v for c, v in rep.degree.coeffs.items()},
                [(f.base_name, f.nu0, f.family_name, name[f.witness_cid],
                  f.witness_coeff) for f in rep.non_radial],
                [(n, v) for _, n, v in rep.radial])
    want = records(base)
    assert [len(r) for r in want] == [170, 6, 3]
    for extra, P in (([32, 36, 48], 576), ([5], 1440)):
        wide = build_context(problem, modes, heads=base.catalog.heads + extra)
        assert wide.catalog.P == P and len(wide.catalog) > len(base.catalog)
        assert records(wide) == want, extra
