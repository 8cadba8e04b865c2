"""Application layer: coupling problems on the disc and the existence report.

Pipeline: a finite symmetry group Gamma acting on R^k together with a
Gamma-commuting linearization matrix A determine isotypic eigenvalues
mu_j (exact projector arithmetic, in integers), which are compared against
the Dirichlet spectrum s_nm of the disc; the resulting negative-spectrum
counters pick the basic degrees of odd multiplicity, whose product in the
Burnside ring of O(2) x Gamma x Z2 is one degree of -id (see degrees), and
the final expansion is read off for guaranteed non-radial and radial
solution orbit types; the fold counters read the parities of mode-1
fixed-point dimensions only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .bessel import ModeTable
from .burnside import BurnsideElement
from .catalog import ProductCatalog
from .characters import isotypic_multiplicities
from .degrees import PipelineContext, build_context, linear_degree
from .permgroup import FiniteGroup, Perm, pidentity, pmul, symmetric_group
from .reps import IrrDescriptor, RepContext, maximal_orbit_types_union

D_GUARD = 1e-8          # tolerance band for condition (D)


# ---------------------------------------------------------------------------
# problem data

@dataclass(frozen=True)
class GrowthMeta:
    """Growth constants of the nonlinearity; validated, never consumed."""
    alpha: float = 0.5   # sublinear exponent, in (0, 1)
    a: float = 1.0
    b: float = 1.0
    beta: float = 2.0    # linearization remainder exponent, > 1
    c: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.beta <= 1.0:
            raise ValueError(f"beta must exceed 1, got {self.beta}")
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise ValueError("growth constants a, b, c must be positive")


@dataclass
class CouplingProblem:
    """Symmetry group, its coordinate action, and the linearization matrix.

    ``action`` maps each element of ``gamma`` to the permutation of the k
    coordinates it induces; ``matrix`` is the k x k linearization, which
    must commute with every action permutation.
    """
    gamma: FiniteGroup
    action: dict[Perm, Perm]
    matrix: list[list[Fraction]]
    growth: GrowthMeta = field(default_factory=GrowthMeta)

    def __post_init__(self):
        k = len(self.matrix)
        if any(len(row) != k for row in self.matrix):
            raise ValueError("matrix must be square")
        if set(self.action) != set(self.gamma.elements):
            raise ValueError("action must cover every group element")
        for g in self.gamma.generators or [pidentity(self.gamma.degree)]:
            p = self.action[g]
            if len(p) != k:
                raise ValueError("action degree differs from matrix size")
            # equivariance (B1): A rho(g) = rho(g) A, i.e. A[p(i)][p(l)] = A[i][l]
            for i in range(k):
                for l in range(k):
                    if self.matrix[p[i]][p[l]] != self.matrix[i][l]:
                        raise ValueError(
                            "matrix does not commute with the group action")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def permutation_character(self) -> list[int]:
        """Fixed coordinates of each element conjugacy class of gamma."""
        out = []
        for cls in self.gamma.element_conjugacy_classes():
            p = self.action[cls[0]]
            out.append(sum(1 for i in range(len(p)) if p[i] == i))
        return out


# ---------------------------------------------------------------------------
# the cube template

# adjacency of the cube graph (vertices 0-7, antipodal pairs {0, 7},
# {1, 4}, {2, 5}, {3, 6}: the diagonals, numbered by their smaller vertex)
CUBE_ADJACENCY = [
    [0, 1, 0, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 1, 0, 0, 0, 1],
    [1, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 1, 0, 1],
    [1, 0, 0, 0, 1, 0, 1, 0],
    [0, 1, 0, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 0, 1, 0],
]
# the rotations of the cube that permute its diagonals as the generators
# (0 1) and (0 1 2 3) of ``symmetric_group(4)`` do
CUBE_GENERATOR_IMAGES = [(1, 0, 5, 6, 7, 2, 3, 4), (1, 2, 3, 0, 5, 6, 7, 4)]


@lru_cache(maxsize=1)
def cube_action() -> tuple[FiniteGroup, dict[Perm, Perm]]:
    """S4, as the permutations of the four diagonals, acting on the 8 cube
    vertices through the rotation group."""
    gamma = symmetric_group(4)
    return gamma, _extend_action(gamma, CUBE_GENERATOR_IMAGES)


def _extend_action(gamma: FiniteGroup,
                   gen_images: list[Perm]) -> dict[Perm, Perm]:
    """Extend generator images to the homomorphism on all of gamma.

    Each image must be a permutation of 0..k-1, and the extension must be
    consistent: action[s g] = img(s) action[g] for every g and generator s.
    """
    k = len(gen_images[0]) if gen_images else 1
    for img in gen_images:
        if len(img) != k or set(img) != set(range(k)):
            raise ValueError(f"action generator {list(img)} is not a "
                             f"permutation of 0..{k - 1}")
    action = {pidentity(gamma.degree): pidentity(k)}
    frontier = list(action)
    while frontier:
        nxt = []
        for g in frontier:
            for s, img in zip(gamma.generators, gen_images):
                h, image = pmul(s, g), pmul(img, action[g])
                if h not in action:
                    action[h] = image
                    nxt.append(h)
                elif action[h] != image:
                    raise ValueError("action generators do not define an "
                                     f"action of {gamma.name}")
        frontier = nxt
    return action


def cube_matrix(c, d) -> list[list[Fraction]]:
    """The 8x8 cube coupling matrix c*I + d*Adj."""
    c, d = Fraction(c), Fraction(d)
    return [[c if i == l else d * CUBE_ADJACENCY[i][l] for l in range(8)]
            for i in range(8)]


def cube_problem(c, d, growth: GrowthMeta | None = None) -> CouplingProblem:
    gamma, action = cube_action()
    return CouplingProblem(gamma=gamma, action=action,
                           matrix=cube_matrix(c, d),
                           growth=growth or GrowthMeta())


# ---------------------------------------------------------------------------
# isotypic spectrum

@dataclass(frozen=True)
class IsotypicEigenvalue:
    j: int                 # Gamma-irreducible index
    mu: Fraction           # eigenvalue of A on the isotypic component
    mult: int              # m_j = dim V_j / dim U_j
    dim: int               # dim V_j


def isotypic_spectrum(problem: CouplingProblem) -> list[IsotypicEigenvalue]:
    """Eigenvalue mu_j of A on each nonzero isotypic component of V.

    The projector P_j = (deg chi_j / |Gamma|) S_j, S_j = sum_g chi_j(g)
    rho(g), is exact rational; condition (B2) requires A P_j = mu_j P_j,
    which is verified entrywise and rejected with a diagnostic otherwise.
    All in integers: with A = A' / D over the least common denominator D,
    A P_j = mu_j P_j iff A' S_j = D mu_j S_j.
    """
    from .characters import character_table
    G, k = problem.gamma, problem.dim
    table = character_table(G)
    D = math.lcm(*(Fraction(v).denominator for r in problem.matrix for v in r))
    A = [[int(Fraction(v) * D) for v in row] for row in problem.matrix]
    mults = isotypic_multiplicities(table, problem.permutation_character())
    out = []
    for j, m_j in enumerate(mults):
        if m_j == 0:
            continue
        # S[i][l] = sum_g chi_j(g) [action(g): l -> i]
        S = [[0] * k for _ in range(k)]
        for g in G.elements:
            if chi := table.value(j, g):
                p = problem.action[g]
                for l in range(k):
                    S[p[l]][l] += chi
        AS = [[sum(a * S[t][l] for t, a in enumerate(row) if a)
               for l in range(k)] for row in A]
        i0, l0 = next((i, l) for i in range(k) for l in range(k) if S[i][l])
        # A' S must be a scalar multiple of S
        if any(AS[i][l] * S[i0][l0] != AS[i0][l0] * S[i][l]
               for i in range(k) for l in range(k)):
            raise ValueError(f"matrix is not scalar on isotypic component "
                             f"{j}; condition (B2) fails")
        out.append(IsotypicEigenvalue(
            j=j, mu=Fraction(AS[i0][l0], D * S[i0][l0]), mult=m_j,
            dim=m_j * table.degrees[j]))
    return out


def spectrum_summary(spec: list[IsotypicEigenvalue]) -> dict:
    """sigma(A) as {eigenvalue: algebraic multiplicity} plus attribution."""
    sigma: dict = {}
    for e in spec:
        sigma[e.mu] = sigma.get(e.mu, 0) + e.dim
    return sigma


# ---------------------------------------------------------------------------
# condition (D)

def collisions(spec: list[IsotypicEigenvalue], modes: ModeTable) -> list:
    """(n, m, mu) for each positive eigenvalue mu within D_GUARD of s_nm,
    eigenvalue by eigenvalue; the table must cover every such mu.
    Condition (D) holds iff there is none; their modes m are the set C."""
    out = []
    for e in spec:
        if e.mu <= 0:
            continue
        mu = float(e.mu)
        if mu > modes.mu_max:
            raise ValueError("mode table does not cover the spectrum")
        out += [(n, m, e.mu) for (n, m), z in modes.zeros.items()
                if abs(z - mu) <= D_GUARD]
    return out


# ---------------------------------------------------------------------------
# counters

def m_counter(spec: list[IsotypicEigenvalue], modes: ModeTable,
              m: int) -> int:
    """m_m = sum over positive eigenvalues of n_m(mu) * mult(mu)."""
    sigma = spectrum_summary(spec)
    return sum(modes.count_below(m, mu) * mult
               for mu, mult in sigma.items() if mu > 0)


@dataclass
class ClassCounters:
    """Fold counters for one maximal orbit type (H) of mode 1."""
    cid: int
    name: str
    m_of: dict[int, int]              # nu -> m(H_nu)
    nu0: int | None                   # max nu with m(H_nu) odd, if any


def class_counters(spec, modes, ctx: RepContext, cid: int) -> ClassCounters:
    """m(H_nu): n_nu(mu_j) m_j summed over the j whose mode-nu basic degree
    has a term at Psi_nu(H), i.e. whose mode-1 one has a term at H, as
    Psi_nu maps the one onto the other and is injective on classes.

    H is a maximal mode-1 orbit type, so in the basic degree of
    V = W_1 (x) U_j- the only class above H with a coefficient is the full
    class, with coefficient 1, and the recurrence gives the coefficient
    ((-1)^{dim V^H} - 1) / |W(H)| at H: nonzero exactly when dim V^H is
    odd."""
    odd = [e for e in spec
           if ctx.fixed_dims(IrrDescriptor(1, e.j, -1))[cid] % 2]
    m_of = {nu: sum(modes.count_below(nu, e.mu) * e.mult for e in odd)
            for nu in range(1, modes.max_mode + 1)}
    odd = [v for v, t in m_of.items() if t % 2]
    return ClassCounters(cid=cid, name=ctx.catalog.names[cid],
                         m_of=m_of, nu0=max(odd) if odd else None)


# ---------------------------------------------------------------------------
# full pipeline

@dataclass
class NonRadialFamily:
    base_name: str
    nu0: int
    family_name: str       # fold-parameter form, e.g. "D6m^{Zm} x_{D6} D3p"
    witness_cid: int       # class H_{nu0}
    witness_coeff: int     # its coefficient in gdeg(F, Omega)


@dataclass
class DegreeReport:
    condition_D: bool
    condition_D_witness: tuple | None
    resonant: set[int]
    spectrum: list[IsotypicEigenvalue]
    mode_counts: dict[int, int]          # m -> m_m of the mode counter
    counters: list[ClassCounters]
    degree: BurnsideElement | None
    non_radial: list[NonRadialFamily]
    radial: list[tuple[int, str, int]]   # (cid, name, coefficient)


def fold_family_name(cat: ProductCatalog, cid: int) -> str:
    """Name of the fold family {Psi_nu(H)}, with symbolic parameter m."""
    head, bucket, iso = cat.classes[["head", "bucket", "glue_iso"]][cid].item()
    if not head:
        raise ValueError("fold families are defined for dihedral-headed classes")
    _, sep, rest = cat.names[cid].partition(" x_")
    if not sep:
        # full product D_h x K' folds to D_{h m} x K'
        _, _, kname = cat.names[cid].partition(" x ")
        return f"D{head}m x {kname}"
    # the O(2)-side kernel: Z_bucket, or D_bucket for the trivial quotient
    # and Z2 by parity (``glue_iso`` < 0)
    sym = "D" if iso < 0 else "Z"
    kern = f"{sym}m" if bucket == 1 else f"{sym}{bucket}m"
    return f"D{head}m^{{{kern}}} x_{rest}"


def odd_reps(spec, modes) -> list[IrrDescriptor]:
    """The reps W_m (x) U_j- with n_m(mu_j) m_j odd, in order: only they
    survive in the degree, as each basic degree squares to the identity.
    No s_nm lies below an eigenvalue mu <= 0."""
    return sorted(IrrDescriptor(m, e.j, -1) for e in spec
                  for m in range(modes.max_mode + 1)
                  if modes.count_below(m, e.mu) * e.mult % 2)


def existence_report(problem: CouplingProblem,
                     pipeline: PipelineContext | None = None,
                     cache=None) -> DegreeReport:
    """Run the full pipeline and collect every reportable conclusion.

    Without a ``pipeline`` one is built by ``build_context``, through
    ``cache`` when given.
    """
    spec = isotypic_spectrum(problem)
    # compared as exact rationals: an eigenvalue need not fit a float
    modes = ModeTable(max((e.mu for e in spec if e.mu > 0), default=0))
    found = collisions(spec, modes)
    resonant = {m for _, m, _ in found}
    if found or modes.max_mode < 0:
        return DegreeReport(condition_D=not found,
                            condition_D_witness=found[0] if found else None,
                            resonant=resonant, spectrum=spec, mode_counts={},
                            counters=[], degree=None, non_radial=[], radial=[])

    if pipeline is None:
        pipeline = build_context(problem.gamma, modes, cache=cache)
    cat, ring, ctx = pipeline.catalog, pipeline.ring, pipeline.ctx

    mode_counts = {m: m_counter(spec, modes, m)
                   for m in range(modes.max_mode + 1)}
    odd = odd_reps(spec, modes)
    # the field's degree on the annulus: (G) minus that of the linearization
    gdeg = ring.one() - linear_degree(ring, ctx, odd)

    m1 = maximal_orbit_types_union(
        ctx, [IrrDescriptor(1, e.j, -1) for e in spec])
    counters = [class_counters(spec, modes, ctx, cid) for cid in m1]

    non_radial = []
    for cc in counters:
        if cc.nu0 is None:
            continue
        h0 = cat.fold_class(cc.cid, cc.nu0)
        non_radial.append(NonRadialFamily(
            base_name=cc.name, nu0=cc.nu0,
            family_name=fold_family_name(cat, cc.cid),
            witness_cid=h0, witness_coeff=gdeg.coeff(h0)))
        if non_radial[-1].witness_coeff == 0:
            raise AssertionError(
                f"odd counter at {cc.name} but zero degree coefficient at "
                f"{cat.names[h0]}")

    # only reps with odd multiplicity survive in the degree product, so the
    # radial candidates are the maximal orbit types of the odd mode-0 reps
    odd0 = [r for r in odd if r.m == 0]
    radial = [(cid, cat.names[cid], gdeg.coeff(cid)) for cid
              in maximal_orbit_types_union(ctx, odd0) if gdeg.coeff(cid)]

    return DegreeReport(condition_D=True, condition_D_witness=None,
                        resonant=resonant, spectrum=spec,
                        mode_counts=mode_counts, counters=counters,
                        degree=gdeg, non_radial=non_radial, radial=radial)
