"""Bessel evaluation and zero-finding, with scipy as the independent oracle."""
import math
import time

import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from discdeg.bessel import ModeTable, bessel_j, bessel_zeros, watson_lower

# the published 4-decimal table of s_nm for n = 1..5, m = 0..5
ZERO_TABLE = {
    (1, 0): 2.4048, (1, 1): 3.8317, (1, 2): 5.1356,
    (1, 3): 6.3802, (1, 4): 7.5883, (1, 5): 8.7715,
    (2, 0): 5.5201, (2, 1): 7.0156, (2, 2): 8.4172,
    (2, 3): 9.7610, (2, 4): 11.0647, (2, 5): 12.3386,
    (3, 0): 8.6537, (3, 1): 10.1735, (3, 2): 11.6198,
    (3, 3): 13.0152, (3, 4): 14.3725, (3, 5): 15.7002,
    (4, 0): 11.7915, (4, 1): 13.3237, (4, 2): 14.7960,
    (4, 3): 16.2235, (4, 4): 17.6160, (4, 5): 18.9801,
    (5, 0): 14.9309, (5, 1): 16.4706, (5, 2): 17.9598,
    (5, 3): 19.4094, (5, 4): 20.8269, (5, 5): 22.2178,
}


def test_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def test_first_zero_value():
    assert abs(bessel_j(0, 2.4048)) < 5e-5


def test_values_against_scipy():
    for m in (0, 1, 2, 5, 13, 31, 64):
        for x in (0.1, 1.0, 4.5, 8.0, 8.5, 25.0, 120.0, 999.0):
            assert bessel_j(m, x) == pytest.approx(sp.jv(m, x), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 64), st.floats(0.0, 1000.0, allow_nan=False))
def test_values_against_scipy_random(m, x):
    assert bessel_j(m, x) == pytest.approx(sp.jv(m, x), abs=1e-12)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        bessel_j(65, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, 1001.0)
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)


@pytest.mark.parametrize("m", [0, 1, 3, 5, 17])
def test_zeros_against_scipy(m):
    zs = bessel_zeros(m, 60.0)
    ref = [z for z in sp.jn_zeros(m, 30) if z <= 60.0]
    assert len(zs) == len(ref)
    for a, b in zip(zs, ref):
        assert a == pytest.approx(b, abs=1e-10)


def test_zero_table_matches_reference_values():
    t0 = time.time()
    for (n, m), want in ZERO_TABLE.items():
        zs = bessel_zeros(m, want + 1.0)
        assert abs(zs[n - 1] - want) <= 5e-5
    assert time.time() - t0 < 1.0


def test_watson_bound_sweep():
    """s_1m > sqrt(m(m+2)) for m <= 50, on the first zeros of one table
    walk (j_{50,1} = 57.12)."""
    t = ModeTable(57.2)
    for m in range(51):
        assert t.zeros[(1, m)] > watson_lower(m) == math.sqrt(m * (m + 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 20))
def test_interlacing_property(m):
    """s_{n,m} < s_{n,m+1} < s_{n+1,m}: consecutive-order zeros interlace."""
    a = bessel_zeros(m, 40.0)
    b = bessel_zeros(m + 1, 40.0)
    for n in range(min(len(b), len(a) - 1)):
        assert a[n] < b[n] < a[n + 1]


def test_zeros_strictly_increasing():
    zs = bessel_zeros(4, 80.0)
    assert all(x < y for x, y in zip(zs, zs[1:]))


def test_mode_table_cube():
    t = ModeTable(7.0)
    assert t.max_mode == 7            # sqrt(7*9) = 7.94 >= 7; sqrt(6*8) < 7
    assert {m: t.counts[m] for m in range(8)} == {
        0: 2, 1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0}
    assert t.zeros[(1, 0)] == pytest.approx(2.4048, abs=5e-5)
    assert t.count_below(0, 7.0) == 2
    assert t.count_below(1, 1.0) == 0


@pytest.mark.parametrize("mu", [0.5, 3.9, 7.6, 15.0])
def test_mode_table_walks_the_levels_once(mu):
    """The table's single interlacing walk gives every mode's zeros exactly
    as a separate ``bessel_zeros`` call per mode does."""
    t = ModeTable(mu)
    upper = mu + 4.0
    assert t.zeros == {(n, m): z for m in range(t.max_mode + 1)
                       for n, z in enumerate(bessel_zeros(m, upper), 1)}


def test_brent_port_matches_scipy_brentq_bit_for_bit(monkeypatch):
    """Every bracket the zero finders refine gives exactly scipy's root."""
    from scipy.optimize import brentq

    import discdeg.bessel as B
    port, calls = B._brentq, []

    def both(f, a, b, **ends):
        x = port(f, a, b, **ends)
        assert x == brentq(f, a, b, xtol=1e-12), (a, b)
        calls.append(x)
        return x

    monkeypatch.setattr(B, "_brentq", both)
    for m in range(12):
        B.bessel_zeros(m, 30.0)
    assert len(calls) > 500


def _untrimmed_levels(M, upper):
    """The interlacing walk with every level carried to the end of the
    working range and both ends of every bracket evaluated afresh."""
    import discdeg.bessel as B
    levels = [B._zeros_j0(min(upper + B._TAIL + (math.pi + 1.0) * M,
                              B.X_MAX))]
    for mu in range(1, M + 1):
        f = (lambda x: B.bessel_j(mu, x))
        levels.append([B._brentq(f, a, b, fa=f(a), fb=f(b))
                       for a, b in zip(levels[-1], levels[-1][1:])])
    return [[z for z in zs if z <= upper] for zs in levels]


@pytest.mark.parametrize("M, upper", [
    (0, 10.0), (1, 3.0), (3, 11.0), (9, 57.537), (12, 30.0), (20, 26.0),
    (33, 40.0), (64, 70.0)])
def test_trimmed_walk_matches_the_untrimmed_walk_bit_for_bit(M, upper):
    """Each level stopped at its first zero past the range the levels above
    it need gives the same zeros, to the bit, as the whole walk."""
    from discdeg.bessel import _zero_levels
    assert _zero_levels(M, upper) == _untrimmed_levels(M, upper)
