"""Conjugacy classes of closed subgroups of O(2) x K with finite Weyl group.

Every such subgroup is an amalgamated product  H ^Z x_L^R K'  glued from a
closed subgroup H <= O(2) and a subgroup K' <= K along a common finite
quotient L = H/Z = K'/R: the pairs (a, k) with a in H and k in the coset
of R that the gluing assigns to a.  The catalog builds every class this
way, whatever its head (D_h, SO(2) or O(2)), and keeps it on that head:
one boolean table ``rows`` over K for all classes (row 0 empty, then one
row per coset of R for every (K', R)), and per class the row of each
point of its head, ``labels``: rotations 0..n-1, then reflections, with
n = h for D_h and n = 1 for SO(2) (no reflections) and O(2).  R is
``rows[labels[0]]``.  Only the lattice counts need a grid model of O(2)
(see o2model), and each runs on the grid of H's own head: D_{2h} = N(D_h)
for a D_h head, with point k of D_h at grid point 2k, and D_2 for SO(2)
and O(2), with their labels over both rotations or reflections.

Each class also keeps a small generating set, read off the same labels:
lifts of the head's rotation step (head point 1, or a generating grid
rotation of SO(2) and O(2); none for D1) and of a reflection (point n;
none for SO(2)), a lift being the first element of the point's coset,
and generators of R.  These generate a subgroup S of the class that
projects onto the head and whose fibre over the identity contains R;
since the class holds exactly one coset of R over each point of its
head, S is the class.

``gluing_steps`` walks every (K', R) once per subgroup table of K; the
catalog and ``dihedral_quotient_orders`` both read its list.  Each class
keeps its gluing as ``glue`` = (step, dihedral isomorphism or -1), and
the nu-fold pullback of a D_h-headed class is the same gluing on D_{nu h}
(see ``ProductCatalog.fold_class``), so a fold is a lookup.  The rows
over the rotations of one period r of every D-headed gluing, also of
those whose heads the catalog lacks, are kept in ``rotation_rows[r]``,
from which ``reps.RepContext.fixed_point_heads`` reads the heads a rep
needs.

The catalog covers heads D_h for h in a divisor-closed set ``heads``,
plus all SO(2)- and O(2)-headed classes.  Within that scope it supplies
the complete lattice data the Burnside-ring recurrences need: Weyl group
orders and the counts n(L, H) of conjugates of H containing L.  Both rest
on one primitive: a conjugate gLg^-1 lies in H exactly when the
conjugates of the generators of L do, so

    n(L, H) = #{g : g gens(L) g^-1 in H} / |N(H)|,
    |N(H)|  = #{g : g gens(H) g^-1 in H},

counted over g in D_P x K, P = 2 lcm(heads), and the Weyl order is
|N(H)| / |H|.  Under a D_h head such a g takes the reflection (1, 0) of L
into D_h, so it lies in D_{2h} x K: the count on H's grid is the one on
D_P.  An SO(2)- or O(2)-headed class is the same over every rotation and
every reflection, so its count on D_P is P/2 times the one on D_2; sizes
and |N(H)| are given as on D_P.

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
row of the integers COLUMNS per class, ``labels`` and ``kgens`` hold the
labels and the K side of the generators of each class in turn, and each
takes the smallest dtype that holds it.  The O(2) side of the generators
is fixed by P, head and kind (``_o2_gens``).  The stored state (the
attributes STORED) is these, K and its subgroup table, the heads, P,
``rows``, ``rotation_rows`` and the names as one string.  A load and a
build both end in ``_register``, which checks that the columns fit and
makes ``by_name`` and the lists ``names``, ``weyl_orders`` and ``sizes``
that the ring reads, of Python ints that never wrap.  Grid models,
histograms and padded generators are rebuilt per process, never stored.
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
# K table, |U ^ (SO(2) x 1)| (d for a kernel Z_d), grid elements, reported
# Weyl order, |N(U)/U|, |N(U)| in D_P x K, gluing (step, isomorphism or -1)
COLUMNS = ("kind", "head", "kp_cid", "bucket", "size", "weyl_order",
           "normalizer_weyl_order", "n_model", "glue_step", "glue_iso",
           "n_labels", "n_gens")
STORED = ("K", "ktable", "heads", "P", "rows", "rotation_rows", "full_cid",
          "classes", "labels", "kgens", "names")


def _dihedral_isos(mul: np.ndarray, q: int):
    """Isomorphisms from the dihedral group of order 2q onto the group with
    multiplication table ``mul`` (identity 0); none unless that group is
    dihedral of order 2q.  Each is given as (powers of x, y), x and y the
    images of the rotation and reflection generators."""
    powers = []                 # i^0, i^1, ... up to the order of i
    for i in range(len(mul)):
        p = [0]
        while (j := int(mul[p[-1], i])) != 0:
            p.append(j)
        powers.append(p)
    return [(np.array(px), y) for x, px in enumerate(powers) if len(px) == q
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
        P = 2 * math.lcm(*heads) if heads else 4
        if max(heads, default=1) > MAX_HEAD or 2 * P * K.order >= 2 ** 63:
            raise ValueError(f"head set {heads} not supported: it needs heads "
                             f"up to {MAX_HEAD} and grid sizes 2P|K| below "
                             f"2^63 (P = 2 lcm(heads) = {P})")
        if any(h % d == 0 and d not in heads for h in heads
               for d in range(1, h)):
            raise ValueError("head set must be divisor-closed")
        self.heads = heads
        self.K = K
        self.ktable = ktable if ktable is not None else SubgroupClassTable(K)
        if not any(r.name for r in self.ktable.classes):
            name_subgroup_classes(self.ktable)
        self.P = P
        self._ncount, self._models = {}, {}
        self._build()

    def __getstate__(self):
        """The stored state: the attributes STORED, names as one string."""
        return {k: getattr(self, k) for k in STORED} | {
            "names": "\n".join(self.names)}

    def __setstate__(self, state):
        """Set the stored state; the per-process memos start empty."""
        self.__dict__.update({k: state[k] for k in STORED if k != "names"})
        self._ncount, self._models = {}, {}
        self._register(state["names"])

    def _register(self, names: str):
        """Check that the columns fit ``names``, one a line, and make the
        lists ``names``, ``weyl_orders`` and ``sizes`` and ``by_name``; no
        loop runs over the classes (see the module notes)."""
        self.names, cols = names.split("\n"), self.classes
        if (cols.dtype.names != COLUMNS or len(cols) != len(self.names)
                or cols["n_labels"].sum() != len(self.labels)
                or cols["n_gens"].sum() != len(self.kgens)):
            raise ValueError(f"stored catalog columns do not fit its "
                             f"{len(self.names)} classes")
        self.weyl_orders = cols["weyl_order"].tolist()
        self.sizes = cols["size"].tolist()
        self.by_name = dict(zip(self.names, range(len(self.names))))
        self._cols = self._folds = None

    def labels_of(self, cid: int) -> np.ndarray:
        """The row of ``rows`` over each point of the head of class cid."""
        n = self.classes["n_labels"]
        return self.labels[int(n[:cid].sum()):int(n[:cid + 1].sum())]

    def head_blocks(self, kind: str):
        """(head, class ids, their labels as rows) for each head of ``kind``,
        gathered from the flat labels (no ``np.unique``: numpy.ma import)."""
        cols, n = self.classes, self.classes["n_labels"].astype(np.intp)
        of_kind = cols["kind"] == KINDS.index(kind)
        for h in sorted(set(cols["head"][of_kind].tolist())):
            ids = np.flatnonzero(of_kind & (cols["head"] == h))
            yield h, ids, self.labels[(np.cumsum(n) - n)[ids][:, None]
                                      + np.arange(n[ids[0]])]

    # -- construction -------------------------------------------------------

    def _build(self):
        ktable = self.ktable
        blocks = [np.zeros((1, self.K.order), dtype=bool)]     # row 0: empty
        raw: list[dict] = []
        rotation_rows: list[list[int]] = []

        def add(kind, head, bucket, labels, iso=-1, zname="", lname=""):
            """The class {(a, k) : a in the head, k in cosets[label of a]}
            of the gluing (i, iso) of step i, whose rows start at ``base``,
            named H^{Z} x_{L}^{R} K' (H x K' when L is trivial).  Its
            generators are the lifts of the head's rotation step and
            reflection, then R's generators."""
            n = head or 1
            # head points of the rotation step (none for D1) and of the
            # reflection (none for SO(2)); the O(2) side is ``_o2_gens``
            points = ([] if head == 1 else [1 % n]) + (
                [n] if kind != "SO2" else [])
            kgens = [cosets[labels[p], 0] for p in points] + r_gens
            labels = (base + labels).astype(np.int32)
            name = {"O2": "O(2)", "SO2": "SO(2)", "O2amalg": "O(2)"}.get(
                kind, f"D{head}")
            if lname:
                name += (f"^{{{zname}}}" if zname else "") + f" x_{{{lname}}}"
                name += f"^{{{rname}}}" if rname not in ("", "Z1") else ""
                name += f" {kp.name}"
            else:
                name += f" x {kp.name}"
            raw.append(dict(kind=KINDS.index(kind), head=head, kp_cid=kp.cid,
                            bucket=bucket, labels=labels, n_labels=len(labels),
                            rowid=self._on_grid(head, labels), kgens=kgens,
                            n_gens=len(kgens), name=name, glue_step=i,
                            glue_iso=iso))

        kmul = self.K._tables()[0]
        korder = _element_orders(kmul)
        for i, (kp, r, cosets, mul, isos) in enumerate(gluing_steps(ktable)):
            base = sum(map(len, blocks))
            blocks.append(np.zeros((len(cosets), self.K.order), dtype=bool))
            np.put_along_axis(blocks[-1], cosets, True, axis=1)
            rname = ktable.classes[ktable._cid[r]].name
            # R's generators: by decreasing element order, each one outside
            # the subgroup generated by those kept before it
            r_gens, span = [], np.arange(1)
            for g in sorted(cosets[0].tolist(), key=lambda g: -korder[g]):
                if g not in span:
                    span = np.flatnonzero(_extend(kmul, span, r_gens, g))
                    r_gens.append(g)
            quo = len(cosets)
            # the rows over rotations 0..r-1 of each D-headed gluing, which
            # repeat with period r: trivial quotient, D_q, and Z2 by parity
            rotation_rows += [[base]] if quo == 1 else [
                (base + px).tolist() for px, _ in isos]
            rotation_rows += [[base, base + 1]] if quo == 2 else []
            if quo == 1:
                add("O2", 0, 0, np.zeros(2, dtype=int))
                add("SO2", 0, 0, np.zeros(1, dtype=int))
            if quo == 2:
                add("O2amalg", 0, 0, np.arange(2), -1, "SO(2)", "Z2")
            for h in self.heads:
                k = np.arange(h)
                # kernel Z_d, quotient D_q (Z2 for q = 1): rotation k goes to
                # x^k, reflection k to y x^-k
                q = quo // 2
                if isos and h % q == 0:
                    d = h // q
                    for iso, (px, y) in enumerate(isos):
                        add("D", h, d,
                            np.concatenate([px[k % q], mul[y, px[-k % q]]]),
                            iso, f"Z{d}" if d > 1 else "",
                            f"D{q}" if q >= 2 else "Z2")
                # kernel D_{h/2}, quotient Z2: rotation and reflection k go
                # to the coset of parity k
                if h % 2 == 0 and quo == 2:
                    add("D", h, h // 2, np.tile(k % 2, 2), -1,
                        f"D{h // 2}", "Z2")
                if quo == 1:
                    add("D", h, h, np.zeros(2 * h, dtype=int))

        self.rows = np.concatenate(blocks)
        self.rotation_rows = {r: np.array([ids for ids in rotation_rows
                                           if len(ids) == r])
                              for r in sorted(set(map(len, rotation_rows)))}
        self._dedupe_and_register(raw)

    def _on_grid(self, head: int, labels: np.ndarray) -> np.ndarray:
        """The row ids of the class with ``labels`` on ``head`` over the 4n
        points of its grid D_{2n}, n = head or 1 (see the module notes)."""
        n = head or 1
        rowid = np.zeros((2, n, 2), dtype=np.int32)
        rowid[:len(labels) // n, :, :1 if head else None] = labels.reshape(
            -1, n, 1)
        return rowid.ravel()

    def _count(self, gens: np.ndarray, head: int,
               rowid: np.ndarray) -> np.ndarray:
        """#{g in D_P x K : g x g^-1 in H for each x in gens[:, i]} for each
        i, for H on ``head`` with ``rowid`` (or one H per i, with rowid
        (m, 2p)), counted on the grid D_p of the head: the D_P point (f, t)
        is (f, t p / P) there, and under SO(2) or O(2) any rotation t > 0
        is rotation 1 (see the module notes).  ``gens`` is a (2, m, n)
        stack of generating sets (see ``_pad``)."""
        p = 2 * (head or 1)
        if p not in self._models:
            self._models[p] = O2Model(p, self.K)
        f, t = np.divmod(gens[0], self.P)
        t = t // (self.P // p) if head else np.minimum(t, 1)
        n = self._models[p].count_conj_into(f * p + t, gens[1],
                                            (rowid, self.rows))
        return n if head else n * (self.P // 2)

    def _rowid(self, cid: int) -> np.ndarray:
        """Class ``cid`` on the grid of its head."""
        return self._on_grid(int(self.classes["head"][cid]),
                             self.labels_of(cid))

    def _dedupe_and_register(self, raw: list[dict]):
        self._fingerprint(raw)
        buckets: dict[tuple, list[int]] = {}
        for i, rec in enumerate(raw):
            key = (rec["kind"], rec["head"], rec["kp_cid"], rec["size"],
                   rec["bucket"], rec["fp"])
            buckets.setdefault(key, []).append(i)

        # Records in one bucket have the same size, so a conjugate of one
        # inside another is the whole record.  Each round keeps the first
        # record of every bucket and counts it into each record of its
        # bucket, every record on one head in one pass: into itself this
        # gives |N(U)|, and the records it misses are the next round's
        # buckets, in order.
        kind, head, ngens = (np.array([rec[f] for rec in raw])
                             for f in ("kind", "head", "n_gens"))
        pads = _pad(np.stack([_o2_gens(self.P, kind, head, ngens),
                              np.concatenate([rec["kgens"] for rec in raw])]),
                    ngens)
        kept: list[dict] = []
        pending = [group for _, group in sorted(buckets.items())]
        while pending:
            recs = np.concatenate(pending)
            first = np.repeat([g[0] for g in pending], list(map(len, pending)))
            n = np.empty(len(recs), dtype=np.int64)
            for h in sorted(set(head[recs].tolist())):
                at = np.flatnonzero(head[recs] == h)
                n[at] = self._count(
                    pads[:, first[at], :ngens[first[at]].max()], h,
                    np.stack([raw[i]["rowid"] for i in recs[at].tolist()]))
            n = np.split(n, np.cumsum(list(map(len, pending)))[:-1])
            for g, c in zip(pending, n):
                raw[g[0]]["n_model"] = int(c[0])
                kept.append(raw[g[0]])
            pending = [rest for g, c in zip(pending, n)
                       if (rest := [i for i, x in zip(g, c) if not x])]

        kept.sort(key=lambda r: (r["size"], r["kind"], r["head"], r["bucket"],
                                 r["kp_cid"], r["fp"]))
        # the amalgamated notation does not always pin the class (several
        # non-conjugate gluings can share it); disambiguate deterministically
        tally: dict[str, int] = {}
        for rec in kept:
            k = tally[rec["name"]] = tally.get(rec["name"], 0) + 1
            rec["name"] += f" ~{k}" if k > 1 else ""
            nw = rec["normalizer_weyl_order"] = rec["n_model"] // rec["size"]
            # reported convention: dihedral-headed classes whose O(2)-side
            # kernel is rotation-only get half the plain normalizer quotient
            # (the central coset is not counted)
            rot_kernel = not self.rows[rec["labels"][rec["head"]:], 0].any()
            rec["weyl_order"] = nw // 2 if rec["head"] and rot_kernel else nw
        names = [rec["name"] for rec in kept]
        cols = [_small([rec[f] for rec in kept]) for f in COLUMNS]
        self.classes = np.empty(len(kept), dtype=[
            (f, c.dtype) for f, c in zip(COLUMNS, cols)])
        for f, c in zip(COLUMNS, cols):
            self.classes[f] = c
        self.labels, self.kgens = (_small(np.concatenate(
            [rec[f] for rec in kept])) for f in ("labels", "kgens"))
        self.full_cid = names.index(
            f"O(2) x {self.ktable.classes[self.ktable.full_cid].name}")
        self._register("\n".join(names))

    def _fingerprint(self, raw: list[dict]):
        """Set each record's size, as on D_P, and fingerprint: how many of
        its elements on the grid of its head have each rotation order or
        reflection parity, and K-class, as ((reflection bit, order or
        parity, K-class), count) in key order; a conjugation invariant.
        One K-class histogram per row of the table, summed over each
        record's grid points by their bin, one head at a time."""
        cls_of = self.K.class_index_of_element()
        kcls = np.array([cls_of[g] for g in self.K.elements])
        hist = self.rows.astype(np.int32) @ (
            kcls[:, None] == np.arange(kcls.max() + 1)).astype(np.int32)
        for head in {rec["head"] for rec in raw}:
            recs = [rec for rec in raw if rec["head"] == head]
            # the bin of each grid point: rotations t by their order
            # p / gcd(p, t), then reflections (1, t) by the parity of t
            p, scale = 2 * (head or 1), 1 if head else self.P // 2
            t = np.arange(p)
            orders, rot_bin = np.unique(p // np.gcd(p, t), return_inverse=True)
            nbins = len(orders) + 2
            refl = np.repeat([0, 1], [len(orders), 2])
            value = np.concatenate([orders, [0, 1]])
            bin_of = np.concatenate([rot_bin, len(orders) + t % 2])
            rowids = np.stack([rec["rowid"] for rec in recs])
            r, a = np.nonzero(rowids)
            counts = np.zeros((len(recs) * nbins, hist.shape[1]),
                              dtype=np.int32)
            np.add.at(counts, r * nbins + bin_of[a], hist[rowids[r, a]])
            counts = counts.reshape(len(recs), nbins, -1)
            r, b, c = np.nonzero(counts)
            items = list(zip(zip(refl[b].tolist(), value[b].tolist(),
                                 c.tolist()), counts[r, b, c].tolist()))
            cut = np.searchsorted(r, np.arange(len(recs) + 1)).tolist()
            for i, size in enumerate(counts.sum(axis=(1, 2)).tolist()):
                recs[i]["fp"] = tuple(items[cut[i]:cut[i + 1]])
                recs[i]["size"] = size * scale

    # -- lattice queries -----------------------------------------------------

    def __len__(self):
        return len(self.classes)

    def n_count(self, l: int, h: int) -> int:
        """The number of conjugates of a class-h subgroup holding one of l."""
        return self.column(h).get(l, 0)

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
        lengths).  ``nk`` is the K table's (``SubgroupClassTable.nk``).  The
        class columns are size, D-headed, head, bucket and K-projection.
        The histogram of a D-headed class counts its elements by (reflection
        bit, rotation order, K-class) over its head: rotation k of D_h has
        order h / gcd(h, k), and reflections share one bin.  It sums the
        K-class counts of each point's row, one head at a time."""
        if self._cols is None:
            heads, n = self.heads, len(self)
            size, head, bucket, kp = (self.classes[f].astype(np.int64) for f
                                      in ("size", "head", "bucket", "kp_cid"))
            cols = np.stack([size, head > 0, np.maximum(head, 1),
                             np.maximum(bucket, 1), kp])
            # K-class of each element: its least conjugate
            _, kcls = np.unique(self.K._tables()[2].min(axis=0),
                                return_inverse=True)
            rowhist = self.rows @ np.eye(kcls.max() + 1)[kcls]
            hist = np.zeros((n, len(heads) + 1, rowhist.shape[1]),
                            dtype=np.int32)
            for h, at, labels in self.head_blocks("D"):
                k = np.arange(h)
                bins = np.r_[np.searchsorted(heads, h // np.gcd(h, k)),
                             np.full(h, len(heads))]
                hist[at] = np.einsum(
                    "bp,pmk->mbk", bins == np.arange(len(heads) + 1)[:, None],
                    rowhist[labels.T], optimize=True)
            ngens = self.classes["n_gens"].astype(np.int64)
            gens = np.stack([_o2_gens(self.P, self.classes["kind"], head,
                                      ngens), self.kgens.astype(np.intp)])
            self._cols = (self.ktable.nk, cols, hist.reshape(n, -1),
                          _pad(gens, ngens), ngens)
        return self._cols

    def _candidates(self, h: int) -> np.ndarray:
        """Mask of the l passing necessary tests for (l) <= (h): |l| divides
        |h|, K-projections are subconjugate, and under a D-headed h only
        D-headed l whose head and rotation kernel divide h's."""
        nk, (size, dihedral, head, bucket, kp), _, _, _ = self._index()
        ok = (size[h] % size == 0) & (nk[kp, kp[h]] > 0)
        if dihedral[h]:
            ok &= ((dihedral == 1) & (head[h] % head == 0)
                   & (bucket[h] % bucket == 0))
        return ok

    def _within_histogram(self, h: int, ls: np.ndarray) -> np.ndarray:
        """The D-headed l of ``ls`` whose element histogram is at most that
        of the D-headed class h in every bin.  Conjugation keeps the
        reflection bit, the rotation order and the K-class of an element,
        so a conjugate of l inside h needs no more."""
        hist = self._index()[2]
        return ls[(hist[ls] <= hist[h]).all(axis=1)]

    def leq(self, l: int, h: int) -> bool:
        return self.n_count(l, h) > 0

    def down_closure(self, h: int) -> tuple[int, ...]:
        """Classes subconjugate to class h."""
        return tuple(self.column(h))

    # -- folding -------------------------------------------------------------

    def fold_class(self, cid: int, nu: int) -> int:
        """Image of a class under the pullback along the nu-fold cover of O(2).

        It is the same gluing on D_{h nu}: element k of D_{h nu} covers
        element k mod h of D_h, whose label ``_build`` gives k at head
        h nu.  Two gluings of one (K', R) are conjugate when N(D_h) = D_{2h}
        and N_K(K') carry one to the other, and D_{2h} acts on D_h/Z_d = D_q
        as Inn(D_q) with y -> yx at every h, so the dedupe keeps the same
        gluings at every head.  O(2)- and SO(2)-headed classes are fixed.
        """
        if nu < 1:
            raise ValueError(f"fold index nu must be a positive integer, "
                             f"got {nu}")
        glue = ["glue_step", "glue_iso", "head"]
        *key, head = self.classes[glue][cid].item()
        if nu == 1 or not head:
            return cid
        if head * nu not in self.heads:
            raise ValueError(
                f"folded head D{head * nu} outside catalog heads {self.heads}")
        if self._folds is None:
            ds = np.flatnonzero(self.classes["head"])
            self._folds = dict(zip(self.classes[glue][ds].tolist(),
                                   ds.tolist()))
        return self._folds[(*key, head * nu)]


def _pad(gens: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The (2, m, max n) stack of the m generating sets of ``gens``, which
    holds n[i] generators (2, n[i]) for each i in turn, each padded to the
    longest by repeating its first generator, which changes no count."""
    j = np.arange(n.max())
    return gens[:, (np.cumsum(n) - n)[:, None]
                + np.where(j < n[:, None], j, 0)]


def _o2_gens(P: int, kind: np.ndarray, head: np.ndarray,
             n: np.ndarray) -> np.ndarray:
    """The O(2) side of the generating sets of classes of ``kind`` codes on
    ``head``, n generators each, in turn (see ``_build``): the rotation
    step P/h (1 under SO(2) and O(2); none for D1), the reflection P (none
    for SO(2)), then the identity under R's generators."""
    kind, head = np.repeat(kind, n), np.repeat(head.astype(np.int64), n)
    j, rot = np.arange(len(head)) - np.repeat(np.cumsum(n) - n, n), head != 1
    step = np.where(head > 0, P // np.maximum(head, 1), 1)
    return np.where(rot & (j == 0), step, np.where(
        (j == rot) & (kind != KINDS.index("SO2")), P, 0))


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
    ``make_ktable``, when given, returns a subgroup table of K already
    built, for use on a cache miss.
    """
    heads = sorted(set(heads))
    return cache(f"catalog|{K.name}|{heads}", lambda: ProductCatalog(
        K, heads, ktable=make_ktable() if make_ktable else None))
