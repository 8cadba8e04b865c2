"""Bessel functions J_m and their positive zeros s_nm.

Evaluation follows the classical split: ascending power series for small
arguments, Miller's downward recurrence with the J_0 + 2*sum J_{2k} = 1
normalization everywhere else (it is uniformly accurate for the whole
supported range m <= 64, x <= 1e3).

Zeros are found by certified bracketing.  The zeros of J_0 are isolated
by a sign-change scan (consecutive zeros of J_0 are more than 3 apart,
so a step of 0.5 cannot skip a pair), and the zeros of J_{m+1} strictly
interlace those of J_m: each pair of consecutive zeros of J_m brackets
exactly one zero of J_{m+1}, and there is none below the first zero of
J_m.  Walking m upward therefore yields every zero with a sign-changing
bracket, refined by Brent's method (``_brentq``, a port of scipy's brentq).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

M_MAX = 64
X_MAX = 1.0e3
_SCAN_STEP = 0.5
# tail kept beyond the requested upper bound so that every interlacing
# level still has a bracket whose right end exceeds the bound
_TAIL = 4.0


def bessel_j(m: int, x: float) -> float:
    """J_m(x) to absolute accuracy 1e-12 for 0 <= m <= 64, 0 <= x <= 1e3."""
    if not isinstance(m, int) or m < 0 or m > M_MAX:
        raise ValueError(f"order must be an integer in [0, {M_MAX}], got {m}")
    if not (0.0 <= x <= X_MAX):
        raise ValueError(f"argument must lie in [0, {X_MAX}], got {x}")
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    if x <= 8.0:
        return _series(m, x)
    return _miller(m, x)[m]


def _series(m: int, x: float) -> float:
    """Ascending series sum_k (-1)^k (x/2)^{m+2k} / (k! (m+k)!)."""
    h = 0.5 * x
    term = h**m / math.factorial(m)
    total = term
    k = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)) and k < 200:
        k += 1
        term *= -h * h / (k * (m + k))
        total += term
    return total


def _miller(m: int, x: float) -> list[float]:
    """J_0(x) .. J_m(x) by downward recurrence with normalization."""
    top = max(m, int(x)) + 20 + int(3.0 * max(m, int(x)) ** 0.5)
    if top % 2:
        top += 1
    jp, j = 0.0, 1e-300
    out = [0.0] * (m + 1)
    norm = 0.0
    for k in range(top, 0, -1):
        jm = 2.0 * k / x * j - jp
        jp, j = j, jm
        if abs(j) > 1e250:     # rescale to dodge overflow
            j *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            for i in range(m + 1):
                out[i] *= 1e-250
        if k - 1 <= m:
            out[k - 1] = j
        if (k - 1) % 2 == 0:
            norm += j if k == 1 else 2.0 * j
    return [v / norm for v in out]


def _brentq(f, xa: float, xb: float, *, fa: float, fb: float,
            xtol: float = 1e-12, rtol: float = 4 * sys.float_info.epsilon,
            maxiter: int = 100):
    """A zero of f in [xa, xb], where f changes sign, by Brent's method:
    inverse quadratic or secant steps, bisection when they are too long.
    ``fa`` and ``fb`` are f(xa) and f(xb), which every caller has already."""
    xpre, xcur, xblk, spre, scur = xa, xb, 0.0, 0.0, 0.0
    fpre, fcur, fblk = fa, fb, 0.0
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre and fcur and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf                     # bisect unless a step is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                           # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps")


def _zeros_j0(upper: float) -> list[float]:
    """All zeros of J_0 in (0, upper], by sign-change scan + Brent."""
    zeros = []
    x0, f0 = _SCAN_STEP, bessel_j(0, _SCAN_STEP)
    while x0 < upper:
        x1 = min(x0 + _SCAN_STEP, upper)
        f1 = bessel_j(0, x1)
        if f0 * f1 < 0.0:
            zeros.append(_brentq(lambda x: bessel_j(0, x), x0, x1,
                                 fa=f0, fb=f1))
        x0, f0 = x1, f1
    return zeros


def bessel_zeros(m: int, upper: float) -> list[float]:
    """All zeros of J_m in (0, upper], each to 1e-10, none missed."""
    if not (0.0 < upper <= X_MAX):
        raise ValueError(f"upper bound must lie in (0, {X_MAX}], got {upper}")
    if not isinstance(m, int) or m < 0 or m > M_MAX:
        raise ValueError(f"order must be an integer in [0, {M_MAX}], got {m}")
    return _zero_levels(m, upper)[m]


def _zero_levels(M: int, upper: float) -> list[list[float]]:
    """The zeros in (0, upper] of J_0, ..., J_M, by one interlacing walk."""
    # each interlacing level loses at most its last bracket, so extend the
    # working range by one spacing (< pi + 1) per level; a level stops at
    # its first zero past the range the levels above it still need
    work = upper + _TAIL + (math.pi + 1.0) * M
    levels = [_zeros_j0(min(work, X_MAX))]
    for mu in range(1, M + 1):
        stop = work - (math.pi + 1.0) * mu
        f, zs, nxt = (lambda x: bessel_j(mu, x)), levels[-1], []
        fa = f(zs[0]) if zs else 0.0
        for a, b in zip(zs, zs[1:]):
            fb = f(b)
            if not fa * fb < 0.0:
                raise AssertionError(
                    f"interlacing bracket failed for J_{mu} on ({a}, {b})")
            nxt.append(_brentq(f, a, b, fa=fa, fb=fb))
            if nxt[-1] > stop:
                break
            fa = fb
        levels.append(nxt)
    if levels[-1] and levels[-1][-1] <= upper and work < X_MAX:
        raise AssertionError("working range too small; zeros may be missing")
    return [[z for z in zs if z <= upper] for zs in levels]


def watson_lower(m: int) -> float:
    """Classical lower bound for the first zero: s_1m > sqrt(m(m+2))."""
    return math.sqrt(m * (m + 2))


@dataclass
class ModeTable:
    """Positive Bessel zeros s_nm for all modes relevant below mu_max.

    Modes run over 0..M with M minimal such that sqrt(M(M+2)) >= mu_max;
    the lower bound s_1m > sqrt(m(m+2)) then certifies that no omitted
    mode has a zero below mu_max.  Each mode stores every zero up to
    mu_max plus one beyond (so strict comparisons are always decided).
    ``mu_max`` may be an exact rational of any size; M is found in integers.
    """
    mu_max: float
    zeros: dict[tuple[int, int], float] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.mu_max <= 0:
            self.max_mode = -1
            return
        # M (M + 2) >= mu^2 holds iff it holds for ceil(mu^2), an integer
        mu, M = self.mu_max, math.isqrt(math.ceil(Fraction(self.mu_max) ** 2))
        if M > M_MAX:
            raise ValueError(
                f"largest eigenvalue mu = "
                f"{float(mu) if mu < sys.float_info.max else mu} needs Bessel "
                f"modes 0..{M}, beyond the supported 0..{M_MAX} (mu <= "
                f"sqrt({M_MAX}*{M_MAX + 2}) = {watson_lower(M_MAX):.2f})")
        self.mu_max, self.max_mode = float(mu), M
        for m, zs in enumerate(_zero_levels(M, min(self.mu_max + _TAIL,
                                                   X_MAX))):
            kept = 0
            for n, z in enumerate(zs, start=1):
                self.zeros[(n, m)] = z
                if z < self.mu_max:
                    kept = n
            self.counts[m] = kept

    def count_below(self, m: int, mu) -> int:
        """The counter n_m(mu): how many n have s_nm < mu, mu of any size."""
        if mu <= 0:
            return 0
        if (mu := float(min(mu, sys.float_info.max))) > self.mu_max:
            raise ValueError("mode table truncated below the requested value")
        return sum(1 for (n, mm), z in self.zeros.items()
                   if mm == m and z < mu)
