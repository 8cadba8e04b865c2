"""Conjugacy classes of closed subgroups of O(2) x K with finite Weyl group.

Every such subgroup is an amalgamated product  H ^Z x_L^R K'  glued from a
closed subgroup H <= O(2) and a subgroup K' <= K along a common finite
quotient L = H/Z = K'/R: the pairs (a, k) with a in H and k in the coset
of R that the gluing assigns to a.  The catalog builds every class this
way, whatever its head (D_h, SO(2) or O(2)), and keeps it as its gluing:
one boolean table ``rows`` over K (row 0 empty, then one row per coset of
R, R first, for every step (K', R)), and ``gluings[q]``, the rows each
gluing of period q puts over the rotations, then the reflections, j < q
(onto K'/R = D_q, Z2 for q = 1, by a dihedral isomorphism; the trivial
quotient; Z2 by parity).  A class on D_h with kernel Z_b is the gluing of
period q = h/b: its labels, the row of each point of its head, are
``on_head``, and SO(2) and O(2) take a period-1 gluing over all their
rotations and reflections (none for SO(2)).  R is ``rows[labels[0]]``.
Only the lattice counts need a grid model of O(2) (see o2model), each on
the grid of H's own head: D_{2h} = N(D_h) for a D_h head, with point k
of D_h at grid point 2k, and D_2 for SO(2) and O(2).

Each class also has a small generating set, read off its labels
(``_generators``): lifts of the head's rotation step (head point 1, or the
rotation pi, D_2's step, for SO(2) and O(2); none for D1) and of a
reflection (point n; none for SO(2)), a lift being the first element of
the point's coset, and the generators of R, kept per step in ``r_gens``.
These generate a subgroup S of the class that projects onto the head and
whose fibre over the identity contains R; since the class holds exactly
one coset of R over each point of its head, S is the class.

``gluing_steps`` walks every (K', R) once per subgroup table of K; the
catalog and ``dihedral_quotient_orders`` both read its list.  The build
makes a record of every gluing of each period q on its own head D_q, and
of the SO(2)- and O(2)-headed ones.  Records of one kind, head, K', size
and fingerprint (their element histogram, ranked as its sparse tuple
sorts) form a bucket, and rounds of counts keep one per class.  Every
head h = q nu then takes the gluings kept on D_q, with kernel Z_nu: the
nu-fold pullback of a class on D_q (``ProductCatalog.fold_class``).  A
class keeps its gluing as ``glue`` = (step, dihedral isomorphism or -1).
``reps.RepContext`` reads fixed-point dimensions off the gluing tables,
and the heads a rep needs, also those the catalog lacks.

The catalog covers heads D_h for h in a divisor-closed set ``heads``,
plus all SO(2)- and O(2)-headed classes.  Within that scope it supplies
the complete lattice data the Burnside-ring recurrences need: Weyl group
orders and the counts n(L, H) of conjugates of H containing L.  Both rest
on one primitive: a conjugate gLg^-1 lies in H exactly when the
conjugates of the generators of L do, so

    n(L, H) = #{g : g gens(L) g^-1 in H} / |N(H)|,
    |N(H)|  = #{g : g gens(H) g^-1 in H},

counted over g in D_{2h} x K for H on D_h (such a g takes the reflection
(1, 0) of L into D_h), and the Weyl order is |N(H)| / |H|.  An SO(2)- or
O(2)-headed class is the same over every rotation and every reflection,
so it is counted, and sized, on D_2 x K: each class on its own head.

A query takes the whole column of H at once, on first use in a process.
Under H = O(2) x K' it counts nothing: L lies in a conjugate of H iff
pi_K(L) lies in the conjugate of K', so n(L, H) = n_K(pi_K L, K').  Else
its candidates L pass cheap necessary conditions, tested for all classes
at once on per-process columns: |L| divides |H|, the K-projections are
subconjugate and, under a D_h head, L is D-headed with head and kernel
dividing H's.  Under a D_h head L must also pass the histogram test:
conjugation keeps an element's reflection bit, rotation order and K-class,
so L has at most as many elements as H in each such bin.  The survivors
are counted in one numpy pass, and the column is kept as the nonzero
n(L, H) by L.

The catalog is its columns, with no object per class: ``classes`` has a
row of the integers COLUMNS per class, each in the smallest dtype that
holds it.  The stored state (the attributes STORED) is these, the heads,
and ``rows``, ``gluings``, ``r_gens``, the name tail " x_{L}^{R} K'" of
each step (``tails``) and the K-lattice counts ``nk``, which depend on K
alone: no group, no subgroup table, no name and no Weyl order.  K's
subgroup table is read only while a catalog is built, and
``cached_catalog``, which loads every stored catalog, gives it the K its
cache key names.  A load and a build both end in ``_register``, the one
place that derives, checking that the columns fit, the gluing of each
class (``_gluing``), the ring's lists ``names`` and ``weyl_orders`` (of
Python ints that never wrap), ``by_name`` and ``full_cid`` (O(2) x K).
Class ids ascend with size on D_P (``P``), so the ring orders classes by
id.  Labels, generators, grid models and histograms are derived per
process.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .o2model import O2Model
from .permgroup import (FiniteGroup, SubgroupClassTable, _element_orders,
                        _extend, _unique_rows)
from .naming import name_subgroup_classes

MAX_HEAD = 360   # largest head h: its grid D_{2h} has a (4h)^2 table
KINDS = ("D", "O2", "O2amalg", "SO2")   # sorted: codes order as names do
# per class: kind code, head (h for D_h, else 0), K-projection's class in the
# K table, |U ^ (SO(2) x 1)| (d for a kernel Z_d), elements and |N(U)| on its
# head's grid, gluing (step, iso or -1)
COLUMNS = ("kind", "head", "kp_cid", "bucket", "size", "n_model",
           "glue_step", "glue_iso")
STORED = ("heads", "rows", "gluings", "r_gens", "tails", "classes", "nk")


def _dihedral_isos(mul: np.ndarray, q: int):
    """Isomorphisms from the dihedral group of order 2q onto the group with
    multiplication table ``mul`` (identity 0); none unless that group is
    dihedral of order 2q.  Each is a row: the images of the rotations x^j,
    then of the reflections y x^-j, j < q, of its generators x and y."""
    powers = []                 # i^0, i^1, ... up to the order of i
    for i in range(len(mul)):
        p = [0]
        while (j := int(mul[p[-1], i])) != 0:
            p.append(j)
        powers.append(p)
    return [np.r_[px, mul[y, px][-np.arange(q) % q]]
            for x, px in enumerate(powers) if len(px) == q
            for y, py in enumerate(powers)
            if len(py) == 2 and y not in px
            and mul[mul[y, x], y] == px[-1]]            # y x y = x^-1


@lru_cache(maxsize=1)
def gluing_steps(ktable: SubgroupClassTable) -> list[tuple]:
    """Every (K', R) with R normal in K', over the subgroup classes of K in
    catalog order, as (K' record, R, cosets, mul, isos): R as its position
    in ``ktable.subgroups``, the cosets gR as sorted rows of K indices in
    the order of their least elements (coset 0 is R: the identity is
    index 0), the multiplication table of K'/R on their positions, and
    the dihedral isomorphisms onto K'/R.

    Kept for the last table asked, so the head selection of a solve and
    the catalog it builds walk the steps once."""
    kmul = ktable.group._tables()[0]
    row_of = np.empty(len(kmul), dtype=np.intp)
    steps = []
    for kp in ktable.classes:
        p = ktable._rep[kp.cid]
        for r in ktable._normal(p):
            cosets = _unique_rows(np.sort(kmul[np.ix_(
                np.flatnonzero(ktable._masks[p]),
                np.flatnonzero(ktable._masks[r]))], axis=1))
            row_of[cosets] = np.arange(len(cosets))[:, None]
            mul = row_of[kmul[np.ix_(cosets[:, 0], cosets[:, 0])]]
            steps.append((kp, r, cosets, mul,
                          _dihedral_isos(mul, len(cosets) // 2)))
    return steps


def dihedral_quotient_orders(ktable: SubgroupClassTable) -> frozenset[int]:
    """Rotation orders r of dihedral quotients K'/R over subgroups of K."""
    return frozenset({1, 2} | {len(cosets) // 2 for _, _, cosets, _, isos
                               in gluing_steps(ktable) if isos})


def required_heads(ktable: SubgroupClassTable,
                   active_modes: set[int]) -> list[int]:
    """Divisor-closed head set covering all orbit types and folds.

    Heads of dihedral-kind orbit types of a mode-m representation are of
    the form r*m, with r the rotation order of a dihedral subquotient of
    K; folding a mode-1 orbit type to level nu lands on head r*nu, so
    ranging m over the active modes covers both uses.
    """
    base = {r * m for r in dihedral_quotient_orders(ktable)
            for m in (active_modes or {1})}       # holds 1 * 1 or 1 * m
    return sorted({d for h in base for d in range(1, h + 1) if h % d == 0})


class ProductCatalog:
    """Catalog of finite-Weyl subgroup classes of O(2) x K on a grid model."""

    def __init__(self, K: FiniteGroup, heads: list[int],
                 ktable: SubgroupClassTable | None = None):
        heads = sorted(set(heads))
        if max(heads, default=1) > MAX_HEAD:
            raise ValueError(f"head set {heads} not supported: it needs heads "
                             f"up to {MAX_HEAD}")
        if any(h % d == 0 and d not in heads for h in heads
               for d in range(1, h)):
            raise ValueError("head set must be divisor-closed")
        self.heads = heads
        self.K = K
        ktable = ktable if ktable is not None else SubgroupClassTable(K)
        if not any(r.name for r in ktable.classes):
            name_subgroup_classes(ktable)
        self.nk = _small(ktable.nk)
        self._ncount, self._models = {}, {}
        self._build(ktable)

    @property
    def P(self) -> int:
        """2 lcm(heads), 4 with no heads: D_P holds every class."""
        return 2 * math.lcm(*self.heads) if self.heads else 4

    def __getstate__(self):
        """The stored state: the attributes STORED."""
        return {k: getattr(self, k) for k in STORED}

    def __setstate__(self, state):
        """Set the stored state; the per-process memos start empty.  K is
        not stored: ``cached_catalog`` sets it."""
        self.__dict__.update({k: state[k] for k in STORED})
        self._ncount, self._models = {}, {}
        self._register()

    def _register(self):
        """Check that the columns fit the steps, the name tails and the
        gluing tables, and derive each class's gluing, ``names``,
        ``weyl_orders``, ``by_name`` and ``full_cid``: see the module notes."""
        cols, steps = self.classes, self.rows[:, 0].sum()
        try:
            if (cols.dtype.names != COLUMNS or len(self.r_gens) != steps
                    or len(self.tails) != steps):
                raise IndexError
            self._check_runs()
            self._glue = q, at = self._gluing(*(cols[f] for f in (
                "head", "bucket", "glue_step", "glue_iso")))
            # reported convention: a D-headed class with no reflection over
            # K's identity gets half of |N(H)| / |H|: the central coset is
            # not counted
            e_refl = np.zeros(len(cols), dtype=bool)
            for p in set(q.tolist()):
                e_refl[q == p] = self.rows[self.gluings[p][at[q == p], p:],
                                           0].any(axis=1)
            nw = cols["n_model"].astype(np.int64) // cols["size"]
            self.weyl_orders = np.where((cols["head"] > 0) & ~e_refl,
                                        nw // 2, nw).tolist()
            # names: head and kernel (Z_d, or D_d by parity; none for the
            # trivial quotient and the kernel Z1), each made once, then the
            # step's tail; the notation does not always pin the class, so
            # the k-th repeat gets " ~k"
            kind, head, bucket, iso = parts = np.stack([cols[f].astype(
                np.int64) for f in ("kind", "head", "bucket", "glue_iso")])
            _, first, code = np.unique((head * 8 + kind * 2 + (iso < 0)) * (
                bucket.max() + 1) + bucket, return_index=True,
                return_inverse=True)
            pre = [(("", "O(2)", "O(2)^{SO(2)}", "SO(2)")[k] or f"D{h}") + (
                "" if b == (h if i < 0 else 1) else
                f"^{{{'D' if i < 0 else 'Z'}{b}}}")
                for k, h, b, i in parts[:, first].T.tolist()]
            self.names, seen = [pre[c] + self.tails[s] for c, s in zip(
                code.tolist(), cols["glue_step"].tolist())], {}
            for j, name in enumerate(self.names):
                seen[name] = k = seen.get(name, 0) + 1
                self.names[j] = f"{name} ~{k}" if k > 1 else name
            [self.full_cid] = np.flatnonzero((kind == KINDS.index("O2")) & (
                cols["kp_cid"] == len(self.nk) - 1)).tolist()
        except (IndexError, KeyError, ValueError):
            raise ValueError(f"stored catalog columns do not fit its "
                             f"{len(cols)} classes") from None
        self.by_name = dict(zip(self.names, range(len(self.names))))
        self._cols = None

    def _check_runs(self):
        """Raise IndexError unless each table ``gluings[p]`` is sorted and
        holds, for each step it glues, as many rows as that step has
        gluings of period p: one onto a quotient of order q = p <= 2 (the
        trivial one, or Z2 by parity), else the isomorphisms of D_p onto
        K'/R (q = 2p): 1 for p = 1, 6 for p = 2, p phi(p) from p = 3.  q is
        the number of rows from the step's R row to the next one's."""
        r_row = np.flatnonzero(self.rows[:, 0])
        quo = np.diff(np.r_[r_row, len(self.rows)])
        for p, t in self.gluings.items():
            starts, runs = np.unique(t[:, 0], return_counts=True)
            step = np.searchsorted(r_row, starts)
            q = quo[step]                   # IndexError past the last step
            auts = 6 if p == 2 else p * sum(math.gcd(p, k) == 1
                                            for k in range(p))
            want = np.select([(q == p) & (p <= 2), q == 2 * p], [1, auts])
            if ((r_row[step] != starts).any() or (runs != want).any()
                    or (np.diff(t[:, 0]) < 0).any()):
                raise IndexError(f"the gluing table of period {p} is cut")

    def _gluing(self, head, bucket, step, iso):
        """(q, at): the period and the row in ``gluings[q]`` of each gluing
        (step, iso) with kernel Z_bucket on ``head`` (q = 1 off D_h): a row
        opens with R's, and a step's rows are a run in isomorphism order."""
        q = np.maximum(head, 1) // np.maximum(bucket, 1)
        at = np.maximum(iso, 0).astype(np.intp)
        r_row = np.flatnonzero(self.rows[:, 0])[step]      # row 0 is empty
        for p in set(q.tolist()):
            t, sel = self.gluings[p], q == p
            at[sel] += np.searchsorted(t[:, 0], r_row[sel])
            if (t[at[sel], 0] != r_row[sel]).any():
                raise IndexError(f"a gluing of period {p} is missing")
        return q, at

    def labels_of(self, cid: int) -> np.ndarray:
        """The row of ``rows`` over each point of the head of class cid:
        rotations, then reflections (none for SO(2))."""
        (q, at), (kind, head) = (g[cid] for g in self._glue), self.classes[
            ["kind", "head"]][cid].item()
        return on_head(self.gluings[q][at:at + 1], max(head, 1))[
            0, :1 if KINDS[kind] == "SO2" else None]

    # -- construction -------------------------------------------------------

    def _build(self, ktable: SubgroupClassTable):
        """Every gluing of ``ktable``'s steps on its period's head D_q, as
        records (see the module notes), for ``_dedupe_and_register``."""
        steps, kmul = gluing_steps(ktable), self.K._tables()[0]
        korder = _element_orders(kmul)
        quo = np.array([len(cosets) for _, _, cosets, _, _ in steps])
        base = np.cumsum(quo) - quo + 1                       # row 0: empty
        self.rows = np.zeros((1 + quo.sum(), self.K.order), dtype=bool)
        glue, self.tails, r_gens = {}, [], []
        for i, (kp, r, cosets, mul, isos) in enumerate(steps):
            self.rows[base[i] + np.arange(quo[i])[:, None], cosets] = True
            # the gluings by period q: (rows, step, isomorphism or -1 for
            # the trivial quotient and Z2 by parity)
            triv = [(-1, np.tile(np.arange(quo[i]), 2))] if quo[i] <= 2 else []
            for j, row in list(enumerate(isos)) + triv:
                q = len(row) // 2
                glue.setdefault(q, []).append((base[i] + row, i, j))
            rname = ktable.classes[ktable._cid[r]].name
            rname = f"^{{{rname}}}" if rname not in ("", "Z1") else ""
            lname = "Z2" if quo[i] == 2 else f"D{quo[i] // 2}"
            self.tails.append(f" x {kp.name}" if quo[i] == 1
                              else f" x_{{{lname}}}{rname} {kp.name}")
            # R's generators: by decreasing element order, each one outside
            # the subgroup generated by those kept before it
            gens, span = [], np.arange(1)
            for g in sorted(cosets[0].tolist(), key=lambda g: -korder[g]):
                if g not in span:
                    span = np.flatnonzero(_extend(kmul, span, gens, g))
                    gens.append(g)
            r_gens.append(gens)
        self.gluings = {q: _small([row for row, _, _ in gl])
                        for q, gl in sorted(glue.items())}
        most = max(map(len, r_gens))
        self.r_gens = _small([g + [-1] * (most - len(g)) for g in r_gens])

        # the records (head, bucket, kind, step, isomorphism): O(2) and
        # SO(2) x K', O(2)^{SO(2)} x_{Z2} K', then every gluing of each
        # period q on its own head D_q, with kernel Z1
        recs = [(0, 0, KINDS.index(k), i, -1) for k, n in (
            ("O2", 1), ("SO2", 1), ("O2amalg", 2))
            for i in np.flatnonzero(quo == n).tolist()]
        recs += [(q, 1, 0, i, j) for q, gl in glue.items() if q in self.heads
                 for _, i, j in gl]
        rec = dict(zip(("head", "bucket", "kind", "glue_step", "glue_iso"),
                       np.array(recs).T))
        head, kind = rec["head"], rec["kind"]
        rec["q"], rec["at"] = self._gluing(head, rec["bucket"],
                                           rec["glue_step"], rec["glue_iso"])
        rec["kp_cid"] = np.array([s[0].cid for s in steps])[rec["glue_step"]]
        # per record: as COLUMNS, its fingerprint's rank on its head (its grid
        # elements by reflection bit, rotation order or reflection parity and
        # canonical K-class; on D_h all reflections are even), the labels its
        # gens lift
        rowhist = self._rowhist()
        for f in ("size", "fp"):
            rec[f] = np.zeros(len(head), dtype=np.int64)
        points = np.zeros((len(head), 2), dtype=np.intp)
        for h, ids, labels in self._blocks(np.arange(len(head)), head, kind,
                                           rec["q"], rec["at"]):
            counts = _binned(labels, _dihedral_bins(self.heads, h),
                             rowhist) if h else _binned(
                labels[:, [0, 0, 1, 1]], np.arange(4), rowhist)
            rec["size"][ids] = counts.sum(axis=(1, 2))
            rec["fp"][ids] = _sparse_rank(counts.reshape(len(ids), -1))
            points[ids] = labels[:, [h > 1, max(h, 1)]]
        self._dedupe_and_register(rec, points)

    def _blocks(self, ids, head, kind, q, at):
        """(h, the ids on h, their labels) for each head h of the records or
        classes ``ids``, given their head, kind code and gluing: its row
        ``on_head`` h, with the empty row 0 over SO(2)'s reflections."""
        for h in sorted(set(head[ids].tolist())):
            i = ids[head[ids] == h]
            labels = np.empty((len(i), 2 * max(h, 1)), dtype=np.intp)
            for p in set(q[i].tolist()):
                labels[q[i] == p] = on_head(self.gluings[p][at[i[q[i] == p]]],
                                            max(h, 1))
            labels[kind[i] == KINDS.index("SO2"), 1:] = 0
            yield h, i, labels

    def _rowhist(self) -> np.ndarray:
        """Each row of ``rows`` counted by K's canonically ordered classes."""
        cls_of = self.K.class_index_of_element()
        kcls = np.array([cls_of[g] for g in self.K.elements])
        return self.rows @ np.eye(kcls.max() + 1, dtype=np.int32)[kcls]

    def _generators(self, kind, head, step, points):
        """The generating sets of records or classes (``kind`` codes, head,
        gluing step) whose labels over the rotation step and the first
        reflection are ``points``, as a (2, m, w) stack of O(2) parts (n > 0
        the rotation 2 pi / n, -1 a reflection) and K indices padded by
        repeating the first generator, and their lengths: the rotation step
        (h on D_h, 2 off D_h; none on D1) and a reflection (none for SO(2))
        over the first elements of those labels' rows, then (0, g) for R's
        generators g."""
        head, r = head.astype(np.int64), self.r_gens[step].astype(np.intp)
        gens = np.stack([np.c_[np.where(head > 0, head, 2), -np.ones_like(
            head), 0 * r], np.c_[np.argmax(self.rows, axis=1)[points], r]])
        has = np.c_[head != 1, kind != KINDS.index("SO2"), r >= 0]
        n, j = has.sum(axis=1), np.argsort(~has, axis=1, kind="stable")
        j = np.where(np.arange(has.shape[1]) < n[:, None], j, j[:, :1])
        return np.take_along_axis(gens, j[None], axis=2), n

    def _on_grid(self, head: int, labels: np.ndarray) -> np.ndarray:
        """The row ids of the classes with ``labels`` (..., labels) on
        ``head`` over the 4n points of its grid D_{2n}, n = head or 1 (see
        the module notes)."""
        n, lead = head or 1, labels.shape[:-1]
        rowid = np.zeros(lead + (2, n, 2), dtype=np.int32)
        rowid[..., :labels.shape[-1] // n, :, :1 if head else None] = (
            labels.reshape(lead + (-1, n, 1)))
        return rowid.reshape(lead + (-1,))

    def _count(self, gens: np.ndarray, head: int,
               rowid: np.ndarray) -> np.ndarray:
        """#{g in D_p x K : g x g^-1 in H for each x in gens[:, i]} for each
        i, for H on ``head`` with ``rowid`` (or one H per i, with rowid
        (m, 2p)), counted on the grid D_p of the head: the rotation 2 pi / n
        is p/n steps there, and under SO(2) or O(2) any rotation is
        rotation 1 (see the module notes).  ``gens`` is a (2, m, n) stack
        of generating sets (see ``_generators``)."""
        p = 2 * (head or 1)
        if p not in self._models:
            self._models[p] = O2Model(p, self.K)
        c = gens[0]
        t = np.where(c > 0, p // np.maximum(c, 1) if head else 1, 0)
        return self._models[p].count_conj_into(np.where(c < 0, p, t), gens[1],
                                               (rowid, self.rows))

    def _rowid(self, cid: int) -> np.ndarray:
        """Class ``cid`` on the grid of its head."""
        return self._on_grid(int(self.classes["head"][cid]),
                             self.labels_of(cid))

    def _dedupe_and_register(self, rec: dict, points: np.ndarray):
        """Keep one record of each class, on every head its period divides,
        and write the columns in the class order from the records' columns
        and their generators' labels."""
        head, kind, step, iso = (rec[f] for f in (
            "head", "kind", "glue_step", "glue_iso"))
        pads, ngens = self._generators(kind, head, step, points)
        # Records in one bucket (kind, head, K', size, fingerprint) have the
        # same size, so a conjugate of one inside another is the whole
        # record.  Each round keeps the first record of every bucket, in step
        # and isomorphism order, and counts it into each record of its
        # bucket, every record on one head in one pass: into itself this
        # gives |N(U)|, and the records it misses are the next round's.
        buckets = _lex_ranks(np.stack([rec[f] for f in (
            "kind", "head", "kp_cid", "size", "fp")], axis=1))
        pending = np.lexsort((iso, step, buckets))
        n_model, first = np.zeros((2, len(head)), dtype=np.int64)
        while len(pending):
            new = np.r_[True, np.diff(buckets[pending]) != 0]
            first[pending] = pending[new][np.cumsum(new) - 1]
            n = np.zeros(len(head), dtype=np.int64)
            for h, ids, labels in self._blocks(pending, head, kind, rec["q"],
                                               rec["at"]):
                n[ids] = self._count(
                    pads[:, first[ids], :ngens[first[ids]].max()], h,
                    self._on_grid(h, labels))
            n_model[pending[new]] = n[pending[new]]
            pending = pending[n[pending] == 0]

        # Each head h = q nu takes the gluings kept on D_q (kernel Z_nu, nu
        # times the elements and |N(U)|, the fingerprint on D_q as order
        # key): two gluings of one (K', R) are conjugate when N(D_h) = D_{2h}
        # and N_K(K') carry one to the other, and D_{2h} acts on D_h/Z_nu =
        # D_q as Inn(D_q) with y -> yx at every h, so every h keeps the same.
        rec["n_model"], q, heads = n_model, head, np.array([0] + self.heads)
        src, at = np.nonzero((heads % np.maximum(q, 1)[:, None] == 0) & (
            (heads > 0) == (q > 0)[:, None]) & (n_model > 0)[:, None])
        nu = np.maximum(heads[at], 1) // np.maximum(q[src], 1)
        c = {f: v[src] * (nu if f in ("size", "bucket", "n_model") else 1)
             for f, v in rec.items()} | {"head": heads[at]}
        # ids ascend with the size on D_P, P/2 times the size on D_2 off D_h;
        # min(P/2, largest size + 1) in its place gives the same order
        scale = min(self.P // 2, int(c["size"].max()) + 1)
        cls = np.lexsort([c[f] for f in (
            "glue_iso", "glue_step", "fp", "kp_cid", "bucket", "head", "kind")]
            + [c["size"] * np.where(c["head"] > 0, 1, scale)])
        c = {f: v[cls] for f, v in c.items()}
        cols = [_small(c[f]) for f in COLUMNS]
        self.classes = np.empty(len(cls), dtype=[
            (f, col.dtype) for f, col in zip(COLUMNS, cols)])
        for f, col in zip(COLUMNS, cols):
            self.classes[f] = col
        self._register()

    # -- lattice queries -----------------------------------------------------

    def __len__(self):
        return len(self.classes)

    def column(self, h: int) -> dict[int, int]:
        """The nonzero n(l, h) by l, in increasing order, on first use: read
        off the K lattice under h = O(2) x K', else every candidate l of h
        (``_candidates``, and under a D-headed h the histogram test) counted
        in one pass."""
        if h not in self._ncount:
            kind, head, kp, n_model = self.classes[
                ["kind", "head", "kp_cid", "n_model"]][h].item()
            nk, cols, _, pads, ngens = self._index()
            if KINDS[kind] == "O2":
                # L lies in a conjugate of O(2) x K' iff pi_K(L) lies in the
                # conjugate of K': n(L, O(2) x K') = n_K(pi_K L, K')
                ls, n = np.arange(len(self)), nk[cols[4], kp]
            else:
                ls = np.flatnonzero(self._candidates(h))
                if head:
                    ls = self._within_histogram(h, ls)
                n, r = np.divmod(self._count(pads[:, ls, :ngens[ls].max()],
                                             head, self._rowid(h)), n_model)
                if r.any():
                    raise AssertionError(f"non-exact division by |N(H)| at "
                                         f"{self.names[h]}")
            self._ncount[h] = dict(zip(ls[n > 0].tolist(), n[n > 0].tolist()))
        return self._ncount[h]

    def _index(self):
        """Per-process columns over all classes, built on first query:
        (nk, class columns, element histograms, padded generators, their
        lengths).  ``nk`` is the stored K-lattice counts
        (``SubgroupClassTable.nk``).  The class columns are size, D-headed,
        head, bucket and K-projection.
        The histogram of a D-headed class counts its elements by (reflection
        bit, rotation order, K-class) over its head (``_dihedral_bins``)."""
        if self._cols is None:
            heads, n, kind = self.heads, len(self), self.classes["kind"]
            size, head, bucket, kp = (self.classes[f].astype(np.int64) for f
                                      in ("size", "head", "bucket", "kp_cid"))
            cols = np.stack([size, head > 0, np.maximum(head, 1),
                             np.maximum(bucket, 1), kp])
            rowhist = self._rowhist()
            hist = np.zeros((n, len(heads) + 1, rowhist.shape[1]),
                            dtype=np.int32)
            points = np.zeros((n, 2), dtype=np.intp)
            for h, at, labels in self._blocks(np.arange(n), head, kind,
                                              *self._glue):
                points[at] = labels[:, [h > 1, max(h, 1)]]
                if h:
                    hist[at] = _binned(labels, _dihedral_bins(heads, h),
                                       rowhist)
            self._cols = (self.nk, cols, hist.reshape(n, -1),
                          *self._generators(kind, head, self.classes[
                              "glue_step"], points))
        return self._cols

    def _candidates(self, h: int) -> np.ndarray:
        """Mask of the l passing necessary tests for (l) <= (h): |l| divides
        |h| (both on one grid: skipped for a D-headed l under SO(2) or O(2)
        heads), K-projections are subconjugate, and under a D-headed h only
        D-headed l whose head and rotation kernel divide h's."""
        nk, (size, dihedral, head, bucket, kp), _, _, _ = self._index()
        ok, divides = nk[kp, kp[h]] > 0, size[h] % size == 0
        if dihedral[h]:
            return ok & divides & ((dihedral == 1) & (head[h] % head == 0)
                                   & (bucket[h] % bucket == 0))
        return ok & (divides | (dihedral == 1))

    def _within_histogram(self, h: int, ls: np.ndarray) -> np.ndarray:
        """The D-headed l of ``ls`` whose element histogram is at most that
        of the D-headed class h in every bin.  Conjugation keeps the
        reflection bit, the rotation order and the K-class of an element,
        so a conjugate of l inside h needs no more."""
        hist = self._index()[2]
        return ls[(hist[ls] <= hist[h]).all(axis=1)]

    # -- folding -------------------------------------------------------------

    def fold_class(self, cid: int, nu: int) -> int:
        """Image of a class under the pullback along the nu-fold cover of O(2).

        It is the same gluing on D_{h nu}: element k of D_{h nu} covers
        element k mod h of D_h, and ``on_head`` gives both the label of k;
        the build puts every kept gluing on every head its period divides.
        O(2)- and SO(2)-headed classes are fixed."""
        if nu < 1:
            raise ValueError(f"fold index nu must be a positive integer, "
                             f"got {nu}")
        cols = self.classes
        step, iso, head = cols[["glue_step", "glue_iso", "head"]][cid].item()
        if nu == 1 or not head:
            return cid
        if head * nu not in self.heads:
            raise ValueError(
                f"folded head D{head * nu} outside catalog heads {self.heads}")
        return int(np.flatnonzero((cols["head"] == head * nu) & (
            cols["glue_step"] == step) & (cols["glue_iso"] == iso))[0])


def on_head(rows: np.ndarray, h: int) -> np.ndarray:
    """The labels on D_h of gluings of a period q dividing h, given their
    ``rows`` (m, 2q) over the rotations, then the reflections, j < q:
    rotation and reflection k take the rows of j = k mod q, so each half
    repeats h/q times (on D_q the labels are the rows)."""
    q = rows.shape[1] // 2
    return np.tile(rows.reshape(-1, 2, q), h // q).reshape(-1, 2 * h)


def _dihedral_bins(heads: list[int], h: int) -> np.ndarray:
    """The bin of each point of D_h: rotation k by its order h / gcd(h, k),
    as its position in ``heads``, then all reflections in the last bin."""
    k = np.arange(h)
    return np.r_[np.searchsorted(heads, h // np.gcd(h, k)),
                 np.full(h, len(heads))]


def _binned(labels: np.ndarray, bins: np.ndarray,
            rowhist: np.ndarray) -> np.ndarray:
    """(m, bins, K-classes): for each of the m rows of ``labels``, the
    K-class counts ``rowhist`` of the row of each point summed by the bin
    of the point, one segment of the points sorted by bin per filled bin."""
    order = np.argsort(bins, kind="stable")
    sbins = bins[order]
    starts = np.flatnonzero(np.r_[True, sbins[1:] != sbins[:-1]])
    out = np.zeros((len(labels), sbins[-1] + 1, rowhist.shape[1]),
                   dtype=rowhist.dtype)
    out[:, sbins[starts]] = np.add.reduceat(rowhist[labels[:, order]], starts,
                                            axis=1)
    return out


def _lex_ranks(a: np.ndarray) -> np.ndarray:
    """The rank of each row of ``a`` among its distinct rows, in
    lexicographic order."""
    order = np.lexsort(a.T[::-1])
    new = np.r_[True, (a[order[1:]] != a[order[:-1]]).any(axis=1)]
    ranks = np.empty(len(a), dtype=np.intp)
    ranks[order] = np.cumsum(new) - 1
    return ranks


def _sparse_rank(counts: np.ndarray) -> np.ndarray:
    """The rank of each row of ``counts`` in the order Python gives the
    tuples of its nonzero (column, count) items: a zero stands above every
    count where a nonzero one follows it in its row (the other row's item
    comes first), else below (its row ends first)."""
    later = np.logical_or.accumulate(counts[:, ::-1] > 0, axis=1)[:, ::-1]
    return _lex_ranks(np.where(counts > 0, counts,
                               later * (counts.max() + 1)))


def _small(a) -> np.ndarray:
    """``a`` in the smallest integer dtype that holds its values."""
    return np.array(a, dtype=np.result_type(*map(np.min_scalar_type,
                                                 (np.min(a), np.max(a)))))


def cached_catalog(K: FiniteGroup, heads: list[int], cache,
                   make_ktable=None) -> ProductCatalog:
    """The catalog of O(2) x K on ``heads``, looked up through ``cache``.

    ``cache(tag, build)`` returns the object stored under ``tag``, or
    builds, stores and returns it.  The tag names the group and the head
    set, so every caller asking for the same catalog shares one entry.
    A stored catalog holds no group, so the one returned is given K, the
    group its tag names.  ``make_ktable``, when given, returns a subgroup
    table of K already built, for use on a cache miss.
    """
    heads = sorted(set(heads))
    cat = cache(f"catalog|{K.name}|{heads}", lambda: ProductCatalog(
        K, heads, ktable=make_ktable() if make_ktable else None))
    cat.K = K
    return cat
