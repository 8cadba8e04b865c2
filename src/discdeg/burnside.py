"""Burnside ring arithmetic over a lattice of subgroup conjugacy classes.

Elements are finite integer combinations of classes.  Multiplication is
resolved through fixed-point marks: the mark of an element at a class (L)
is

    mark_L(X) = sum_H a_H * n(L, H) * |W(H)|,

marks multiply pointwise, and coefficients are recovered by walking the
common down-closure of the two supports from the top,

    m_L = ( mark_L(X) * mark_L(Y)
            - sum_{(L') > (L)} m_{L'} * n(L, L') * |W(L')| ) / |W(L)|.

``BurnsideRing.from_marks`` runs this recurrence for any mark function;
every degree of -id (see degrees) is one such call, so a solve multiplies
nothing, and ``multiply`` serves ``burnside-mul`` and the tests.  Every
division must be exact; a remainder indicates corrupted lattice data and
raises immediately, naming the class.  Products of single generators
(H)(K) go through the same route and are exposed for oracle testing, but
for lattices whose ``weyl_order`` is a normalization convention rather
than the plain normalizer quotient only whole-element products of marks
of honest elements are guaranteed integral.

The numbers n(L, H) * |W(H)| are the table of marks of the lattice.  The
lattice, a ``SubgroupClassTable`` or a ``ProductCatalog``, numbers its
classes with ids that ascend with size, so a class comes after its proper
subgroups, and provides by class id the lists ``names`` and
``weyl_orders`` (Python ints: no mark product wraps at 2^63), ``by_name``,
``column(h)`` (the nonzero n(l, h) by l, whose keys are the down-closure
of h), ``full_cid`` (class of the whole group, the ring identity) and, for
``fold``, ``fold_class(cid, nu)``.  The ring reads whole columns.  The
product catalog counts a column on first use, all its candidates L in one
pass over the group elements that conjugate a few generators of L into H,
and keeps it for the process; nothing is precomputed when a catalog is
loaded.
"""
from __future__ import annotations

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _check64(v: int) -> int:
    if not (_I64_MIN <= v <= _I64_MAX):
        raise OverflowError("Burnside coefficient exceeds 64-bit range")
    return v


class BurnsideElement:
    """An element of the Burnside ring, a map class-id -> coefficient."""

    def __init__(self, ring: "BurnsideRing", coeffs: dict[int, int]):
        self.ring = ring
        self.coeffs = {c: _check64(v) for c, v in coeffs.items() if v != 0}

    def coeff(self, cid: int) -> int:
        return self.coeffs.get(cid, 0)

    def coeff_by_name(self, name: str) -> int:
        return self.coeff(self.ring.lattice.by_name[name])

    def __eq__(self, other) -> bool:
        return isinstance(other, BurnsideElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            out[c] = out.get(c, 0) + v
        return BurnsideElement(self.ring, out)

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.ring, {c: -v for c, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BurnsideElement(
                self.ring, {c: v * other for c, v in self.coeffs.items()})
        return self.ring.multiply(self, other)

    __rmul__ = __mul__

    def fold(self, nu: int) -> "BurnsideElement":
        """Apply the ring homomorphism induced by the nu-fold cover of O(2)."""
        out: dict[int, int] = {}
        for c, v in self.coeffs.items():
            c2 = self.ring.lattice.fold_class(c, nu)
            out[c2] = out.get(c2, 0) + v
        return BurnsideElement(self.ring, out)

    def terms(self) -> list[tuple[str, int]]:
        """(name, coefficient) pairs, classes in descending order."""
        cs = sorted(self.coeffs, reverse=True)
        return [(self.ring.lattice.names[c], self.coeffs[c]) for c in cs]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for name, v in self.terms():
            sgn = "-" if v < 0 else ("+" if parts else "")
            mag = "" if abs(v) == 1 else str(abs(v))
            parts.append(f"{sgn} {mag}({name})".replace("- ", "-").replace("+ ", "+ "))
        return " ".join(parts).lstrip("+ ")


class BurnsideRing:
    def __init__(self, lattice):
        self.lattice = lattice

    def zero(self) -> BurnsideElement:
        return BurnsideElement(self, {})

    def one(self) -> BurnsideElement:
        return BurnsideElement(self, {self.lattice.full_cid: 1})

    def generator(self, cid: int) -> BurnsideElement:
        return BurnsideElement(self, {cid: 1})

    def element(self, coeffs: dict[int, int]) -> BurnsideElement:
        return BurnsideElement(self, dict(coeffs))

    def mark(self, coeffs: dict[int, int], l: int) -> int:
        """Number of fixed points of a class-l subgroup on the element."""
        lat = self.lattice
        return sum(v * lat.column(h).get(l, 0) * lat.weyl_orders[h]
                   for h, v in coeffs.items() if v)

    def from_marks(self, domain, mark) -> dict[int, int]:
        """Nonzero coefficients m_L, L in ``domain``, of the element whose
        mark at L is ``mark(L)``, by the top-down recurrence above.  The
        domain must hold every class whose coefficient can be nonzero.
        Each coefficient found is pushed down its column at once, so the
        sum over (L') > (L) visits only the classes below some L'."""
        lat = self.lattice
        m: dict[int, int] = {}
        above: dict[int, int] = {}      # l -> the sum over the L' found
        for l in sorted(domain, reverse=True):
            acc = mark(l) - above.get(l, 0)
            w = lat.weyl_orders[l]
            if acc % w:
                raise AssertionError(f"non-exact division in the mark "
                                     f"recurrence at {lat.names[l]}")
            if acc:
                m[l] = acc // w
                for lo, n in lat.column(l).items():
                    above[lo] = above.get(lo, 0) + acc * n
        return m

    def multiply(self, x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
        full = self.lattice.full_cid
        a = dict(x.coeffs)
        b = dict(y.coeffs)
        ag = a.pop(full, 0)
        bg = b.pop(full, 0)
        out: dict[int, int] = {full: ag * bg} if ag and bg else {}
        for coeffs, scale in ((a, bg), (b, ag)):
            if scale:
                for c, v in coeffs.items():
                    out[c] = out.get(c, 0) + _check64(scale * v)
        # the product's support lies in the common down-closure
        da, db = (set().union(*map(self.lattice.column, x)) for x in (a, b))
        for c, v in self.from_marks(
                da & db, lambda l: self.mark(a, l) * self.mark(b, l)).items():
            out[c] = out.get(c, 0) + _check64(v)
        return BurnsideElement(self, out)
