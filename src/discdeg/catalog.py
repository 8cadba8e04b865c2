"""Conjugacy classes of closed subgroups of O(2) x K with finite Weyl group.

Every such subgroup is an amalgamated product  H ^Z x_L^R K'  glued from a
closed subgroup H <= O(2) and a subgroup K' <= K along a common finite
quotient L.  Every class, whatever its head (D_h, SO(2) or O(2)), is
represented by its element set on the grid model D_P x K (see o2model)
together with a membership mask and a small generating set, found once by
greedy closure when the catalog is built.

The catalog covers heads D_h for h in a divisor-closed set ``heads``,
plus all SO(2)- and O(2)-headed classes.  Within that scope it supplies
the complete lattice data the Burnside-ring recurrences need: Weyl group
orders, the counts n(L, H) of conjugates of H containing L, and the
nu-fold covering maps between classes.  All of them rest on one
primitive: a conjugate gLg^-1 lies in H exactly when the conjugates of
the generators of L do, so

    n(L, H) = #{g : g gens(L) g^-1 in H} / |N(H)|,
    |N(H)|  = #{g : g gens(H) g^-1 in H},

counted over g in D_P x K.  The grid normalizes every SO(2)- and
O(2)-headed class, so for those heads the count is the one over K alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .o2model import O2Model
from .permgroup import FiniteGroup, Perm, perm_order, pidentity, pmul
from .permgroup import SubgroupClassTable
from .naming import name_subgroup_classes


# ---------------------------------------------------------------------------
# product classes

@dataclass
class ProductClass:
    cid: int
    kind: str                   # "D", "SO2", "O2", "O2amalg"
    head: int                   # h for D-kind, 0 otherwise
    kp_cid: int                 # class id of the K-projection in the K table
    bucket: int                 # |U ^ (SO(2) x 1)|: d for D-kind kernels Z_d
    o2_idx: np.ndarray          # element data on the grid model
    k_idx: np.ndarray
    mask: np.ndarray            # (2P, nK) membership
    gens: np.ndarray            # (2, g): o2 and k indices of a generating set
    size: int                   # number of grid elements
    weyl_order: int             # reported Weyl order (coefficient normalization)
    name: str
    fingerprint: tuple
    r_k: frozenset[int] = field(default_factory=frozenset)  # ker(psi) as k-indices
    n_model: int = 0            # |N(U)| in the grid model
    normalizer_weyl_order: int = 0  # |N(U)/U|, the plain normalizer quotient


def _quotient_group(Kp: frozenset[Perm], R: frozenset[Perm], degree: int):
    """Cosets of R in K' with multiplication table; returns (cosets, mul, eid)."""
    cosets: list[frozenset[Perm]] = []
    seen: set[Perm] = set()
    for g in sorted(Kp):
        if g in seen:
            continue
        c = frozenset(pmul(g, r) for r in R)
        seen |= c
        cosets.append(c)
    index = {g: i for i, c in enumerate(cosets) for g in c}
    reps = [sorted(c)[0] for c in cosets]
    mul = [[index[pmul(a, b)] for b in reps] for a in reps]
    eid = index[pidentity(degree)]
    return cosets, mul, eid


def _coset_orders(mul, eid):
    n = len(mul)
    orders = []
    for i in range(n):
        o, j = 1, i
        while j != eid:
            j = mul[j][i]
            o += 1
        orders.append(o)
    return orders


def _dihedral_isos(mul, eid, q):
    """Isomorphisms from the dihedral-type group of order 2q onto the coset
    group, given as (x, y) = images of the rotation and reflection generators."""
    orders = _coset_orders(mul, eid)
    n = len(mul)
    if n != 2 * q:
        return []
    def power(i, k):
        j = eid
        for _ in range(k):
            j = mul[j][i]
        return j
    out = []
    for x in range(n):
        if orders[x] != q and not (q == 1 and x == eid):
            continue
        if q == 1 and x != eid:
            continue
        cyc = {power(x, k) for k in range(q)}
        for y in range(n):
            if orders[y] != 2 or y in cyc:
                continue
            if mul[mul[y][x]][y] != power(x, q - 1):   # y x y = x^{-1}
                continue
            out.append((x, y))
    return out


class ProductCatalog:
    """Catalog of finite-Weyl subgroup classes of O(2) x K on a grid model."""

    def __init__(self, K: FiniteGroup, heads: list[int],
                 ktable: SubgroupClassTable | None = None):
        heads = sorted(set(heads))
        for h in heads:
            for d in range(1, h + 1):
                if h % d == 0 and d not in heads:
                    raise ValueError("head set must be divisor-closed")
        self.heads = heads
        self.K = K
        self.ktable = ktable if ktable is not None else SubgroupClassTable(K)
        if not any(r.name for r in self.ktable.classes):
            name_subgroup_classes(self.ktable)
        P = 2 * math.lcm(*heads) if heads else 4
        self.model = O2Model(P, K)
        self.P = P
        self._kidx = K.index_of
        self._kcls_of_elem = K.class_index_of_element()
        self._eidx = K.index_of[pidentity(K.degree)]
        self._k_order = np.array([perm_order(g) for g in K.elements])
        self.classes: list[ProductClass] = []
        self._ncount: dict[tuple[int, int], int] = {}
        self._down: dict[int, tuple[int, ...]] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _fingerprint(self, o2_idx, k_idx):
        P = self.P
        items: dict[tuple, int] = {}
        for o2, k in zip(o2_idx.tolist(), k_idx.tolist()):
            kcls = self._kcls_of_elem[self.K.elements[k]]
            if o2 < P:
                key = (0, P // math.gcd(P, o2) if o2 else 1, kcls)
            else:
                key = (1, (o2 - P) % 2, kcls)
            items[key] = items.get(key, 0) + 1
        return tuple(sorted(items.items()))

    def _mask_of(self, o2_idx, k_idx):
        m = np.zeros((2 * self.P, self.model.nK), dtype=bool)
        m[o2_idx, k_idx] = True
        return m

    def _build(self):
        K, P, ktable = self.K, self.P, self.ktable
        raw: list[dict] = []

        for kp in ktable.classes:
            Kp = kp.representative
            kp_elems = sorted(self._kidx[g] for g in Kp)
            normals = ktable.normal_subgroups_of(Kp)

            # O(2)- and SO(2)-headed classes (K-determined)
            rots = np.arange(P)
            refl = P + np.arange(P)
            full = np.concatenate([rots, refl])
            for kind, o2part in (("O2", full), ("SO2", rots)):
                o2_idx = np.repeat(o2part, len(kp_elems))
                k_idx = np.tile(np.array(kp_elems), len(o2part))
                wk = kp.weyl_order
                raw.append(dict(kind=kind, head=0, kp_cid=kp.cid,
                                bucket=0, o2_idx=o2_idx, k_idx=k_idx,
                                r_k=frozenset(kp_elems),
                                weyl=wk if kind == "O2" else 2 * wk,
                                zname="", lname="", rname=""))
            for R in normals:
                if 2 * len(R) != len(Kp):
                    continue
                r_elems = {self._kidx[g] for g in R}
                o2s, ks = [], []
                for k in kp_elems:
                    part = rots if k in r_elems else refl
                    o2s.append(part)
                    ks.append(np.full(P, k))
                nk = self._normalizing(Kp, R)
                raw.append(dict(kind="O2amalg", head=0, kp_cid=kp.cid,
                                bucket=0, o2_idx=np.concatenate(o2s),
                                k_idx=np.concatenate(ks),
                                r_k=frozenset(r_elems),
                                weyl=2 * nk // len(Kp),
                                zname="SO(2)", lname="Z2",
                                rname=ktable.classes[ktable.cid_of(R)].name))

            # dihedral-headed classes
            for h in self.heads:
                g = P // h
                for R in normals:
                    quo = len(Kp) // len(R)
                    cosets, mul, eid = None, None, None
                    # kernel Z_d with quotient of dihedral type, order 2q
                    for d in [dd for dd in range(1, h + 1) if h % dd == 0]:
                        q = h // d
                        if quo != 2 * q:
                            continue
                        if cosets is None:
                            cosets, mul, eid = _quotient_group(Kp, R, K.degree)
                        for x, y in _dihedral_isos(mul, eid, q):
                            o2_idx, k_idx = self._amalg_elements(
                                h, q, cosets, mul, eid, x, y)
                            raw.append(dict(
                                kind="D", head=h, kp_cid=kp.cid, bucket=d,
                                o2_idx=o2_idx, k_idx=k_idx,
                                r_k=frozenset(self._kidx[e] for e in R),
                                weyl=None,
                                zname=f"Z{d}" if d > 1 else "",
                                lname=f"D{q}" if q >= 2 else "Z2",
                                rname=ktable.classes[ktable.cid_of(R)].name))
                    # kernel D_{h/2}, quotient Z2
                    if h % 2 == 0 and quo == 2:
                        cosets2, mul2, eid2 = _quotient_group(Kp, R, K.degree)
                        other = 1 - eid2
                        o2s, ks = [], []
                        for k in range(h):
                            for f, base in ((0, 0), (1, P)):
                                coset = cosets2[eid2 if k % 2 == 0 else other]
                                for e in coset:
                                    o2s.append(base + k * g)
                                    ks.append(self._kidx[e])
                        raw.append(dict(
                            kind="D", head=h, kp_cid=kp.cid, bucket=h // 2,
                            o2_idx=np.array(o2s), k_idx=np.array(ks),
                            r_k=frozenset(self._kidx[e] for e in R),
                            weyl=None, zname=f"D{h // 2}", lname="Z2",
                            rname=ktable.classes[ktable.cid_of(R)].name))
                    # full product D_h x K'
                    if len(R) == len(Kp):
                        o2part = np.concatenate(
                            [np.arange(h) * g, P + np.arange(h) * g])
                        o2_idx = np.repeat(o2part, len(kp_elems))
                        k_idx = np.tile(np.array(kp_elems), 2 * h)
                        raw.append(dict(kind="D", head=h, kp_cid=kp.cid,
                                        bucket=h, o2_idx=o2_idx, k_idx=k_idx,
                                        r_k=frozenset(kp_elems),
                                        weyl=None, zname="", lname="",
                                        rname=""))

        self._dedupe_and_register(raw)

    def _amalg_elements(self, h, q, cosets, mul, eid, x, y):
        """Element set of D_h ^{Z_d} x_{D_q} ^R K' for the iso (x, y)."""
        P, g = self.P, self.P // h
        def power(i, k):
            j = eid
            for _ in range(k):
                j = mul[j][i]
            return j
        xpow = [power(x, k) for k in range(q)]
        o2s, ks = [], []
        for k in range(h):
            # rotation (0, k*g) has label r_{k mod q} -> coset x^{k mod q}
            for e in cosets[xpow[k % q]]:
                o2s.append(k * g)
                ks.append(self._kidx[e])
            # reflection (1, k*g) has label s_{k mod q} -> coset y * x^{-k}
            c = mul[y][xpow[(-k) % q]]
            for e in cosets[c]:
                o2s.append(P + k * g)
                ks.append(self._kidx[e])
        return np.array(o2s), np.array(ks)

    def _normalizing(self, Kp: frozenset[Perm], R: frozenset[Perm]) -> int:
        from .permgroup import pconj
        return sum(1 for g in self.K.elements
                   if frozenset(pconj(g, p) for p in Kp) == Kp
                   and frozenset(pconj(g, p) for p in R) == R)

    def _dedupe_and_register(self, raw: list[dict]):
        buckets: dict[tuple, list[dict]] = {}
        for rec in raw:
            rec["size"] = len(rec["o2_idx"])
            rec["fp"] = self._fingerprint(rec["o2_idx"], rec["k_idx"])
            key = (rec["kind"], rec["head"], rec["kp_cid"], rec["size"],
                   rec["bucket"], rec["fp"])
            buckets.setdefault(key, []).append(rec)

        # records in one bucket have the same size, so a conjugate of a kept
        # representative inside a record is the whole record
        kept: list[dict] = []
        for key, group in sorted(buckets.items()):
            reps: list[dict] = []
            for rec in group:
                rec["mask"] = self._mask_of(rec["o2_idx"], rec["k_idx"])
                if not any(self.model.count_conj_into(*o["gens"], rec["mask"])
                           for o in reps):
                    rec["gens"] = self._generators(rec)
                    reps.append(rec)
            kept.extend(reps)

        kept.sort(key=lambda r: (r["size"], r["kind"], r["head"], r["bucket"],
                                 r["kp_cid"], r["fp"]))
        # the amalgamated notation does not always pin the class (several
        # non-conjugate gluings can share it); disambiguate deterministically
        tally: dict[str, int] = {}
        for rec in kept:
            base = self._format_name(rec)
            k = tally.get(base, 0) + 1
            tally[base] = k
            rec["unique_name"] = base if k == 1 else f"{base} ~{k}"
        for cid, rec in enumerate(kept):
            n_model = self.model.count_conj_into(*rec["gens"], rec["mask"])
            if rec["kind"] == "D":
                nw = n_model // rec["size"]
                # reported convention: classes whose O(2)-side kernel is
                # rotation-only get half the plain normalizer quotient (the
                # central coset is not counted)
                has_reflection = bool(rec["mask"][self.P:, self._eidx].any())
                weyl = nw if has_reflection else nw // 2
            else:
                nw = weyl = rec["weyl"]
            self.classes.append(ProductClass(
                cid=cid, kind=rec["kind"], head=rec["head"],
                kp_cid=rec["kp_cid"], bucket=rec["bucket"],
                o2_idx=rec["o2_idx"], k_idx=rec["k_idx"], mask=rec["mask"],
                gens=rec["gens"], size=rec["size"], weyl_order=weyl,
                name=rec["unique_name"], fingerprint=rec["fp"],
                r_k=rec["r_k"], n_model=n_model, normalizer_weyl_order=nw))
        self.by_name = {c.name: c.cid for c in self.classes}
        self.full_cid = self.by_name[f"O(2) x {self._kname(self._full_kp())}"]

    def _full_kp(self) -> int:
        return max(range(len(self.ktable.classes)),
                   key=lambda i: self.ktable.classes[i].order)

    def _kname(self, cid: int) -> str:
        return self.ktable.classes[cid].name

    def _generators(self, rec: dict) -> np.ndarray:
        """A few elements generating the record's subgroup, as a (2, g) array.

        Greedy: elements are tried in order of decreasing element order, and
        each one outside the closure so far becomes a generator.  The closure
        grows by right cosets of the previous closure C: right multiplication
        by a generator maps C r to C rs, so visiting cosets from C by every
        generator reaches all of <C, x>.
        """
        o2_mul, k_mul, P = self.model.o2_mul, self.model.k_mul, self.P
        o2_idx, k_idx = rec["o2_idx"], rec["k_idx"]
        t = np.arange(P)
        o2_order = np.concatenate([P // np.gcd(t, P), np.full(P, 2)])
        order = np.lcm(o2_order[o2_idx], self._k_order[k_idx])
        seen = np.zeros_like(rec["mask"])
        seen[0, self._eidx] = True
        sub_o2, sub_k = np.array([0]), np.array([self._eidx])
        gens: list[tuple[int, int]] = []
        for i in np.argsort(-order, kind="stable"):
            if len(sub_o2) == rec["size"]:
                break
            x = (int(o2_idx[i]), int(k_idx[i]))
            if seen[x]:
                continue
            gens.append(x)
            parts_o2, parts_k = [sub_o2], [sub_k]
            pending = [x]
            while pending:
                r = pending.pop()
                if seen[r]:
                    continue
                co2, ck = o2_mul[sub_o2, r[0]], k_mul[sub_k, r[1]]
                seen[co2, ck] = True
                parts_o2.append(co2)
                parts_k.append(ck)
                pending.extend((int(o2_mul[r[0], s0]), int(k_mul[r[1], s1]))
                               for s0, s1 in gens)
            sub_o2, sub_k = np.concatenate(parts_o2), np.concatenate(parts_k)
        if len(sub_o2) != rec["size"] or not rec["mask"][sub_o2, sub_k].all():
            raise AssertionError("generators do not close to the class")
        return np.array(gens, dtype=np.intp).reshape(-1, 2).T

    def _format_name(self, rec: dict) -> str:
        kname = self._kname(rec["kp_cid"])
        if rec["kind"] == "O2":
            return f"O(2) x {kname}"
        if rec["kind"] == "SO2":
            return f"SO(2) x {kname}"
        head = "O(2)" if rec["kind"] == "O2amalg" else f"D{rec['head']}"
        z = rec["zname"]
        l, r = rec["lname"], rec["rname"]
        if not l:                                    # full product
            return f"{head} x {kname}"
        s = head + (f"^{{{z}}}" if z else "") + " x_{" + l + "}"
        if r and r != "Z1":
            s += f"^{{{r}}}"
        return s + f" {kname}"

    # -- lattice queries -----------------------------------------------------

    def __len__(self):
        return len(self.classes)

    def n_count(self, l: int, h: int) -> int:
        """Number of conjugates of class-h subgroups containing a fixed
        class-l subgroup."""
        key = (l, h)
        if key not in self._ncount:
            cl, ch = self.classes[l], self.classes[h]
            self._ncount[key] = (
                self.model.count_conj_into(*cl.gens, ch.mask) // ch.n_model
                if self._maybe_leq(cl, ch) else 0)
        return self._ncount[key]

    def _maybe_leq(self, cl: ProductClass, ch: ProductClass) -> bool:
        if cl.cid == ch.cid:
            return True
        if ch.size % cl.size:
            return False
        if cl.kind == "D":
            if ch.kind == "D" and (ch.head % cl.head or ch.bucket % cl.bucket):
                return False
        elif ch.kind == "D":
            return False
        if not self.ktable.leq(cl.kp_cid, ch.kp_cid):
            return False
        return True

    def leq(self, l: int, h: int) -> bool:
        return self.n_count(l, h) > 0

    def down_closure(self, h: int) -> tuple[int, ...]:
        """Classes subconjugate to class h, computed once per class."""
        if h not in self._down:
            self._down[h] = tuple(l for l in range(len(self.classes))
                                  if self.n_count(l, h) > 0)
        return self._down[h]

    # -- folding -------------------------------------------------------------

    def fold_class(self, cid: int, nu: int) -> int:
        """Image of a class under the pullback along the nu-fold cover of O(2).

        The preimage of D_h is D_{h*nu} (kernels scale the same way);
        O(2)- and SO(2)-headed classes are fixed.
        """
        c = self.classes[cid]
        if nu == 1 or c.kind != "D":
            return cid
        if c.head * nu not in self.heads:
            raise ValueError(
                f"folded head D{c.head * nu} outside catalog heads {self.heads}")
        P = self.P
        mask = c.mask
        new = np.zeros_like(mask)
        t = np.arange(P)
        new[:P] = mask[(nu * t) % P]
        new[P:] = mask[P + (nu * t) % P]
        o2s, ks = np.nonzero(new)
        fp = self._fingerprint(o2s, ks)
        size = len(o2s)
        for cand in self.classes:
            if (cand.kind == "D" and cand.size == size and cand.fingerprint == fp
                    and cand.head == c.head * nu and cand.kp_cid == c.kp_cid
                    and self.model.count_conj_into(*cand.gens, new) > 0):
                return cand.cid
        raise AssertionError("folded class not found in catalog")


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
