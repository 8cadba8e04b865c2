"""Product-catalog structure: the 33 finite classes, lattice laws, folding."""
import hashlib
import io
import json
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CUBE_HEADS, class_gens, grid_rowid, grid_sizes,
                      kinds)
from discdeg import catalog, cli
from discdeg.catalog import ProductCatalog
from discdeg.elliptic import fold_family_name
from discdeg.o2model import O2Model
from discdeg.permgroup import (SubgroupClassTable, build_group, cyclic_group,
                               direct_product, pidentity, pinv, pmul,
                               symmetric_group)
from discdeg.reps import IrrDescriptor, RepContext

# the 33 subgroup class names of S4 x Z2, as published
S4Z2_NAMES = [
    "Z1", "Z2", "D1z", "D1", "Z2m",
    "Z1p", "Z3", "Z2p", "V4m", "D2",
    "Z4", "V4", "D2z", "Z4d", "D2d",
    "D1p", "Z3p", "D3", "D3z", "V4p",
    "D4d", "Z4p", "D4", "D2p", "D4z",
    "D4hd", "D3p", "A4", "D4p", "S4",
    "A4p", "S4m", "S4p",
]


def test_s4z2_has_33_named_classes(s4z2_table):
    names = [r.name for r in s4z2_table.classes]
    assert len(names) == 33
    assert sorted(names) == sorted(S4Z2_NAMES)
    assert len(set(names)) == 33


def test_catalog_shape(cube_pipeline):
    cat = cube_pipeline.catalog
    assert cat.P == 144
    assert sorted(cat.heads) == [1, 2, 3, 4, 6, 8, 9, 12, 18]
    # full class present and topmost
    assert cat.names[cat.full_cid] == "O(2) x S4p"
    for cid in range(len(cat)):
        assert cid in cat.column(cat.full_cid)


def test_catalog_weyl_positive_and_reported_convention(cube_pipeline):
    cat = cube_pipeline.catalog
    nws = (cat.classes["n_model"] // cat.classes["size"]).tolist()
    for cid, (kind, w, nw) in enumerate(zip(kinds(cat), cat.weyl_orders,
                                            nws)):
        assert w >= 1
        if kind == "D":
            assert nw in (w, 2 * w)
        assert cat.column(cid)[cid] == 1


def test_leq_is_partial_order_sample(cube_pipeline):
    import random
    cat = cube_pipeline.catalog
    rng = random.Random(3)
    cids = rng.sample(range(len(cat.classes)), 40)
    for a in cids:
        assert a in cat.column(a)
        for b in cids:
            if a in cat.column(b) and b in cat.column(a):
                assert a == b
    # transitivity along known chains
    for b in cids[:12]:
        below = tuple(cat.column(b))
        for a in below[:12]:
            for c in tuple(cat.column(a))[:12]:
                assert c in cat.column(b)


def test_ncount_consistency_with_leq(cube_pipeline):
    cat = cube_pipeline.catalog
    import random
    rng = random.Random(11)
    for _ in range(200):
        l = rng.randrange(len(cat.classes))
        h = rng.randrange(len(cat.classes))
        n = cat.column(h).get(l, 0)
        assert n >= 0
        assert (n > 0) == (l in tuple(cat.column(h)))


def test_fold_identity_is_trivial(cube_pipeline):
    cat = cube_pipeline.catalog
    for cid, kind in enumerate(kinds(cat)[:50]):
        if kind == "D":
            assert cat.fold_class(cid, 1) == cid


def test_fold_head_multiplies(cube_pipeline):
    cat = cube_pipeline.catalog
    head = cat.classes["head"].tolist()     # 0 unless D-headed
    size = cat.classes["size"].tolist()
    for cid, h in enumerate(head):
        if not h or h * 3 not in cat.heads:
            continue
        out = cat.fold_class(cid, 3)
        assert head[out] == h * 3
        # kernel grows by the fold factor
        assert size[out] == 3 * size[cid]


def test_fold_composes(cube_pipeline):
    cat = cube_pipeline.catalog
    done = 0
    for cid, h in enumerate(cat.classes["head"].tolist()):
        if not h or h * 6 not in cat.heads:
            continue
        via2 = cat.fold_class(cat.fold_class(cid, 2), 3)
        via3 = cat.fold_class(cat.fold_class(cid, 3), 2)
        assert via2 == via3 == cat.fold_class(cid, 6)
        done += 1
    assert done > 0


def test_fold_outside_heads_rejected(cube_pipeline):
    cat = cube_pipeline.catalog
    cid = cat.classes["head"].tolist().index(18)
    with pytest.raises(ValueError):
        cat.fold_class(cid, 2)    # head 36 is outside the catalog


def test_folds_match_golden(cube_pipeline):
    """Every fold of the cube catalog, against the frozen map: one line per
    D-headed class with a fold nu >= 2 inside the heads, in cid order."""
    cat = cube_pipeline.catalog
    got = []
    for cid, (name, head) in enumerate(zip(cat.names,
                                           cat.classes["head"].tolist())):
        for nu in range(1, max(cat.heads) + 1):
            if not head or nu == 1:
                assert cat.fold_class(cid, nu) == cid
            elif head * nu not in cat.heads:
                with pytest.raises(ValueError):
                    cat.fold_class(cid, nu)
            else:
                if not got or got[-1]["name"] != name:
                    got.append({"name": name, "folds": {}})
                got[-1]["folds"][str(nu)] = cat.names[cat.fold_class(cid, nu)]
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "folds_s4z2.jsonl")) as fh:
        assert got == [json.loads(line) for line in fh]


# every stored per-class value, digested over the classes in cid order, and
# what is derived from them: "glue" is (glue_step, glue_iso), "rowid" the
# class spread over the grid (its labels) and "gens" its generating set;
# sizes, |N(H)| and generators as on the grid D_P
DIGEST_FIELDS = ("name", "kind", "head", "kp_cid", "bucket", "size",
                 "weyl_order", "normalizer_weyl_order", "n_model", "glue",
                 "rowid", "gens")


def catalog_digests(cat) -> dict[str, str]:
    """One SHA-256 per class field, over all classes in cid order, and one
    over the catalog's rows; each hashes the compact JSON of the values,
    read off the catalog's columns."""
    def sha(values):
        text = json.dumps(values, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    cids = range(len(cat))
    values = {f: cat.classes[f].tolist() for f in DIGEST_FIELDS
              if f in cat.classes.dtype.names}
    values |= {"name": cat.names, "kind": kinds(cat),
               "weyl_order": cat.weyl_orders, "normalizer_weyl_order": (
                   cat.classes["n_model"] // cat.classes["size"]).tolist(),
               "size": grid_sizes(cat), "n_model": grid_sizes(cat, "n_model"),
               "glue": cat.classes[["glue_step", "glue_iso"]].tolist(),
               "rowid": [grid_rowid(cat, c).tolist() for c in cids],
               "gens": [class_gens(cat, c).tolist() for c in cids]}
    out = {f: sha(values[f]) for f in DIGEST_FIELDS}
    out["rows"] = sha(cat.rows.astype(int).tolist())
    return out


def _golden_catalog(group, heads, request):
    """The catalog of a golden digest entry, and the entry; the cube-heads
    S4*Z2 catalog is the session's, the others are built fresh."""
    heads_list = [int(h) for h in heads.split(",")]
    if group == "S4*Z2" and heads_list == CUBE_HEADS:
        cat = request.getfixturevalue("cube_pipeline").catalog
    else:
        cat = ProductCatalog(build_group(group), heads_list)
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "catalog_digests.json")) as fh:
        return cat, json.load(fh)[f"{group}|{heads}"]


GOLDEN_CATALOGS = pytest.mark.parametrize("group, heads", [
    ("S4*Z2", "1,2,3,4,6,8,9,12,18"), ("S3*Z2", "1,2,3,6"),
    ("S4*Z2", "1,2,4,8,16"), ("S2*Z2", "1,2,4")])


@GOLDEN_CATALOGS
def test_catalog_matches_golden_digests(group, heads, request):
    """Catalog identity: every stored field of every class, and the rows,
    as frozen in golden/catalog_digests.json."""
    cat, want = _golden_catalog(group, heads, request)
    assert catalog_digests(cat) == want


@GOLDEN_CATALOGS
def test_stored_catalog_matches_golden_digests(group, heads, request,
                                               tmp_path, monkeypatch):
    """A catalog stored through the cache and loaded back from its columns
    has the golden digests too."""
    cat, want = _golden_catalog(group, heads, request)
    loaded = _stored_and_loaded(cat, tmp_path, monkeypatch)
    assert loaded is not cat and catalog_digests(loaded) == want
    assert loaded.full_cid == cat.full_cid and loaded.by_name == cat.by_name


def _stored_and_loaded(cat, cache_dir, monkeypatch):
    """``cat`` stored through the catalog cache in ``cache_dir``, and the
    catalog that ``cached_catalog`` loads back from the file."""
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))

    def through(build):
        return lambda tag, _: cli._cached(tag, build)
    K, heads = cat.K, cat.heads
    assert catalog.cached_catalog(K, heads, through(lambda: cat)) is cat
    return catalog.cached_catalog(K, heads,
                                  through(lambda: pytest.fail("rebuilt")))


def test_lists_the_ring_reads_are_plain_and_survive_the_cache(
        cube_pipeline, tmp_path, monkeypatch):
    """What the benchmark and the ring read: a row of ``classes`` per class
    and P, and the lists ``names`` and ``weyl_orders`` of str and int
    (numpy integers would wrap at 2^63 in the exact marks); the same on a
    freshly built cube catalog and on one loaded back through the cache."""
    fresh = cube_pipeline.catalog
    loaded = _stored_and_loaded(fresh, tmp_path, monkeypatch)
    for cat in (fresh, loaded):
        assert len(cat.classes) == len(cat) == 1919 and cat.P == 144
        assert all(type(x) is str for x in cat.names)
        assert all(type(x) is int for x in cat.weyl_orders)
    assert loaded is not fresh
    for f in ("names", "weyl_orders"):
        assert getattr(loaded, f) == getattr(fresh, f), f


def _count_arrays(obj) -> int:
    """The number of numpy arrays pickled with ``obj``."""
    seen = []

    class Counter(pickle.Pickler):
        def reducer_override(self, x):
            if isinstance(x, np.ndarray):
                seen.append(x)
            return NotImplemented
    Counter(io.BytesIO()).dump(obj)
    return len(seen)


def test_stored_state_is_a_few_flat_columns(cube_pipeline, s4z2_table):
    """The stored cube-heads catalog holds as many arrays as one on fewer
    heads of the same K, whatever its class count, and pickles to at most
    130,000 bytes."""
    cat = cube_pipeline.catalog
    small = ProductCatalog(cat.K, [1, 2], ktable=s4z2_table)
    assert len(small) < len(cat) == 1919
    assert _count_arrays(cat.__getstate__()) == _count_arrays(
        small.__getstate__())
    assert len(pickle.dumps(cat)) <= 130_000


def test_stored_state_beside_the_classes_depends_on_k_only(cube_pipeline,
                                                           s4z2_table):
    """What a stored catalog keeps besides its per-class columns and heads
    (``rows``, the gluing tables, R's generators, the name tails and ``nk``)
    is the same for S4 x Z2 on the cube heads and on heads 1, 2, 3, 4, 6, 8,
    12, 16, 24, 48: the labels of a class come from its gluing."""
    cat = cube_pipeline.catalog
    other = ProductCatalog(cat.K, [1, 2, 3, 4, 6, 8, 12, 16, 24, 48],
                           ktable=s4z2_table)
    per_class = {"classes", "heads"}
    a, b = cat.__getstate__(), other.__getstate__()
    assert set(catalog.STORED) - per_class == {"rows", "gluings", "r_gens",
                                               "tails", "nk"}
    for k in set(catalog.STORED) - per_class:
        assert pickle.dumps(a[k]) == pickle.dumps(b[k]), k


def _not_plain(x) -> list:
    """The parts of ``x`` that are neither an ndarray (of no Python
    objects), a str or an int, nor a list or dict of those."""
    if type(x) is dict:
        return [p for kv in x.items() for v in kv for p in _not_plain(v)]
    if type(x) is list:
        return [p for v in x for p in _not_plain(v)]
    plain = type(x) in (str, int) or (type(x) is np.ndarray
                                      and not x.dtype.hasobject)
    return [] if plain else [x]


@GOLDEN_CATALOGS
def test_stored_state_is_the_catalogs_own_columns(group, heads, request,
                                                  tmp_path, monkeypatch):
    """The stored state holds only arrays, strings and ints, and lists and
    dicts of those: no group, no subgroup table and no frozenset, on a
    fresh catalog and on one loaded back.  The file names no class but
    numpy's and the catalog's, and the catalog ``cached_catalog`` loads
    is given the K its cache key names."""
    cat, _ = _golden_catalog(group, heads, request)
    loaded = _stored_and_loaded(cat, tmp_path, monkeypatch)
    assert loaded is not cat and loaded.K is cat.K
    for c in (cat, loaded):
        state = c.__getstate__()
        assert tuple(state) == catalog.STORED
        assert _not_plain(state) == []
    found = set()

    class Classes(pickle.Unpickler):
        def find_class(self, module, name):
            found.add((module.partition(".")[0], name))
            return super().find_class(module, name)
    [path] = tmp_path.iterdir()
    with open(path, "rb") as fh:
        Classes(fh).load()
    assert {m for m, _ in found} == {"numpy", "discdeg"}
    assert {n for m, n in found if m == "discdeg"} == {"ProductCatalog"}


def test_stored_layout_is_pinned_to_its_cache_format():
    """A stored catalog is read back only under the CACHE_FORMAT it was
    written with, so a change to its attributes or columns must come with
    a new format; this pins the three together."""
    assert (cli.CACHE_FORMAT, catalog.STORED, catalog.COLUMNS) == (
        15, ("heads", "rows", "gluings", "r_gens", "tails", "classes", "nk"),
        ("kind", "head", "kp_cid", "bucket", "size", "n_model", "glue_step",
         "glue_iso"))


@GOLDEN_CATALOGS
def test_class_ids_ascend_with_size(group, heads, request):
    """The ring walks classes by id as it would by size: ids ascend with
    size on D_P in every golden catalog and in the subgroup table of its
    K."""
    cat, _ = _golden_catalog(group, heads, request)
    sizes = grid_sizes(cat)
    assert sizes == sorted(sizes)
    orders = [r.order for r in SubgroupClassTable(cat.K).classes]
    assert orders == sorted(orders)


@pytest.mark.parametrize("gamma", ["D4", "A4"])
def test_subgroup_class_ids_ascend_with_order(gamma):
    """Class ids ascend with order in the subgroup tables of D4 x Z2 and
    A4 x Z2 too."""
    K = direct_product(build_group(gamma), cyclic_group(2))
    orders = [r.order for r in SubgroupClassTable(K).classes]
    assert orders == sorted(orders)


def test_divisor_closure_required():
    K = direct_product(symmetric_group(4), cyclic_group(2))
    with pytest.raises(ValueError):
        ProductCatalog(K, [1, 4])   # 2 missing


def test_small_catalog_matches_sub_catalog():
    """A catalog on fewer heads is a sub-poset of the bigger one (by names),
    also with no dihedral head at all."""
    K = direct_product(cyclic_group(2), cyclic_group(2))
    big = ProductCatalog(K, [1, 2, 3, 4, 6])
    for small in (ProductCatalog(K, []), ProductCatalog(K, [1, 2])):
        assert set(small.names) <= set(big.names)
        # lattice relations agree on the common part
        for a, a_name in enumerate(small.names):
            for b, b_name in enumerate(small.names):
                A, B = big.by_name[a_name], big.by_name[b_name]
                assert (a in small.column(b)) == (A in big.column(B))
                assert small.column(b).get(a, 0) == big.column(B).get(A, 0)


# -- the generator-based lattice queries against element-wise brute force -------

def _dp_mul(P, a, b):
    """Product in D_P of elements given as indices flip*P + t."""
    fa, ta = divmod(a, P)
    fb, tb = divmod(b, P)
    return (fa ^ fb) * P + (ta - tb if fa else ta + tb) % P


def _dp_inv(P, a):
    f, t = divmod(a, P)
    return a if f else (-t) % P


@pytest.mark.parametrize("heads", [[1, 2], [1, 3]])
def test_generators_and_counts_match_brute_force(heads):
    """Each class is the closure of its generators; n(L, H) is the number of
    distinct conjugates of H containing L and n_model = |N(H)|, all counted
    element by element in the grid model D_P x K."""
    K = direct_product(symmetric_group(3), cyclic_group(2))
    ktable = SubgroupClassTable(K)
    cat = ProductCatalog(K, heads, ktable=ktable)
    P = cat.P
    assert set(kinds(cat)) == {"D", "SO2", "O2", "O2amalg"}
    cids = range(len(cat))
    head, kp_cid = (cat.classes[f].tolist() for f in ("head", "kp_cid"))
    n_model, size = grid_sizes(cat, "n_model"), grid_sizes(cat)
    G = [(o2, k) for o2 in range(2 * P) for k in K.elements]

    def mul(x, y):
        return _dp_mul(P, x[0], y[0]), pmul(x[1], y[1])

    def conj(g, x):
        return mul(mul(g, x), (_dp_inv(P, g[0]), pinv(g[1])))

    assert not cat.rows[0].any()
    elems = [frozenset((int(o2), K.elements[k]) for o2, k in
                       zip(*np.nonzero(cat.rows[grid_rowid(cat, cid)])))
             for cid in cids]
    assert [len(E) for E in elems] == size
    conjugates = []
    for cid, E in enumerate(elems):
        gens = [(int(o2), K.elements[k])
                for o2, k in class_gens(cat, cid).T.tolist()]
        closure, frontier = {(0, pidentity(K.degree))}, [(0, pidentity(K.degree))]
        while frontier:
            frontier = [y for y in {mul(x, s) for x in frontier for s in gens}
                        if y not in closure]
            closure.update(frontier)
        assert closure == E, cat.names[cid]
        images = [frozenset(conj(g, x) for x in E) for g in G]
        assert n_model[cid] == sum(1 for im in images if im == E), cid
        conjugates.append(set(images))
    for l, L in enumerate(elems):
        for h, Hs in enumerate(conjugates):
            assert cat.column(h).get(l, 0) == sum(
                1 for H in Hs if L <= H), (l, h)
    for h, Hs in enumerate(conjugates):
        assert tuple(cat.column(h)) == tuple(
            l for l, L in enumerate(elems) if any(L <= H for H in Hs)), h
    # fold family names: the O(2)-side kernel, the grid points paired with
    # the identity of K, is Z_z (D_z with reflections), written Zzm or Dzm
    e = pidentity(K.degree)
    for cid, E in enumerate(elems):
        if not head[cid] or " x_" not in cat.names[cid]:
            continue
        kernel = [o2 for o2, k in E if k == e]
        z = sum(o2 < P for o2 in kernel)
        sym = "D" if any(o2 >= P for o2 in kernel) else "Z"
        want = f"D{head[cid]}m^{{{sym}{z if z > 1 else ''}m}} x_"
        assert fold_family_name(cat, cid).startswith(want), cat.names[cid]
    # folds: the pullback of the element set along t -> nu t, found among
    # the conjugates of every class
    for cid, E in enumerate(elems):
        over: dict[int, list] = {}
        for o2, k in E:
            over.setdefault(o2, []).append(k)
        for nu in range(1, max(heads) + 1):
            if not head[cid] or nu * head[cid] not in heads:
                continue
            S = frozenset((f * P + t, k) for f in (0, 1) for t in range(P)
                          for k in over.get(f * P + nu * t % P, ()))
            want = [i for i, Hs in enumerate(conjugates) if S in Hs]
            assert [cat.fold_class(cid, nu)] == want, (cat.names[cid], nu)
    # fixed-point dimensions: the character of W_m (x) U_j^sign averaged
    # element by element over each class
    ctx = RepContext(cat, symmetric_group(3))
    zoff = K.factors[-1][1]
    for m in range(4):
        w = [1.0 if m == 0 else 2 * math.cos(2 * math.pi * m * o2 / P)
             if o2 < P else 0.0 for o2 in range(2 * P)]
        for j in range(len(ctx.gamma_table.irreps)):
            for sign in (-1, 1):
                chi = [ctx.gamma_table.value(j, g[:3])
                       * (-1 if sign < 0 and g[zoff] != zoff else 1)
                       for g in K.elements]
                rep = IrrDescriptor(m, j, sign)
                for cid in cids:
                    d = sum(w[o2] * chi[k] for o2, k in zip(*np.nonzero(
                        cat.rows[grid_rowid(cat, cid)]))) / size[cid]
                    assert abs(d - round(d)) < 1e-9, (rep, cat.names[cid])
                    assert ctx.fixed_dims(rep)[cid] == round(d), (rep, cid)
    # Weyl orders of the O(2)- and SO(2)-headed classes, from K alone
    def normalizer(S):
        return {g for g in K.elements
                if {pmul(pmul(g, s), pinv(g)) for s in S} == S}
    for cid, (kind, w) in enumerate(zip(kinds(cat), cat.weyl_orders)):
        kp = ktable.classes[kp_cid[cid]]
        if kind == "O2":
            assert w == kp.weyl_order, cat.names[cid]
        elif kind == "SO2":
            assert w == 2 * kp.weyl_order, cat.names[cid]
        elif kind == "O2amalg":
            R = {K.elements[k] for k in
                 np.flatnonzero(cat.rows[grid_rowid(cat, cid)[0]])}
            nk = len(normalizer(set(kp.representative)) & normalizer(R))
            assert w == 2 * nk // kp.order, cat.names[cid]



@pytest.mark.parametrize("which", ["S4*Z2 cube heads", "S3*Z2 heads 1,2,3,6"])
def test_generators_close_to_each_class(which, request):
    """The generators of every class generate exactly the class: a frontier
    closure over the (2P, |K|) grid, by right multiplication."""
    if which.startswith("S4"):
        cat = request.getfixturevalue("cube_pipeline").catalog
    else:
        cat = ProductCatalog(
            direct_product(symmetric_group(3), cyclic_group(2)), [1, 2, 3, 6])
    K, P = cat.K, cat.P
    k_mul = np.array([[K.index_of[pmul(a, b)] for b in K.elements]
                      for a in K.elements])
    e = K.index_of[pidentity(K.degree)]
    for cid, name in enumerate(cat.names):
        seen = np.zeros(2 * P * K.order, dtype=bool)     # flat o2 * |K| + k
        seen[e] = True
        o2, k = np.array([0]), np.array([e])
        gens = class_gens(cat, cid)
        gens = list(zip(*np.divmod(gens[0], P), gens[1]))
        while len(o2):
            fa, ta = np.divmod(o2, P)
            flat = np.unique(np.concatenate([
                ((fa ^ fs) * P + np.where(fa, ta - ts, ta + ts) % P) * K.order
                + k_mul[k, s_k] for fs, ts, s_k in gens]))
            flat = flat[~seen[flat]]
            seen[flat] = True
            o2, k = np.divmod(flat, K.order)
        seen = seen.reshape(2 * P, K.order)
        assert np.array_equal(seen, cat.rows[grid_rowid(cat, cid)]), name

def test_stored_catalog_answers_queries_with_fresh_memos():
    """Memos are per process: a loaded catalog starts them empty, also when
    its stored state holds no memo attributes, and the stored state holds
    no grid model.  Each is given K, as ``cached_catalog`` does."""
    K = direct_product(symmetric_group(3), cyclic_group(2))
    cat = ProductCatalog(K, [1, 2])
    want = [tuple(cat.column(h)) for h in range(len(cat))]
    stored = pickle.dumps(cat)
    assert b"O2Model" not in stored
    loaded = pickle.loads(stored)
    assert loaded._ncount == {} and cat._ncount != {}
    assert loaded._models == {} and cat._models != {}
    assert loaded._cols is None and cat._cols is not None
    bare = ProductCatalog.__new__(ProductCatalog)
    bare.__setstate__(cat.__getstate__())
    for c in (loaded, bare):
        c.K = K
        assert [tuple(c.column(h)) for h in range(len(cat))] == want


@pytest.mark.parametrize("which", ["S4*Z2 cube heads", "S3*Z2 heads 1,2,3,6"])
def test_classes_are_stored_on_their_own_heads(which, request):
    """A class keeps one label per point of its head: 2h for D_h, 1 for
    SO(2), 2 for O(2); spread over the grid, D_h sits on grid points
    k P/h and nowhere else, and its rows are the labels.  The grid its
    counts run on, D_{2h} (D_2 for SO(2) and O(2)), is the subgrid of the
    points k P/2h."""
    if which.startswith("S4"):
        cat = request.getfixturevalue("cube_pipeline").catalog
    else:
        cat = ProductCatalog(
            direct_product(symmetric_group(3), cyclic_group(2)), [1, 2, 3, 6])
    P = cat.P
    for cid, (name, kind, head) in enumerate(zip(
            cat.names, kinds(cat), cat.classes["head"].tolist())):
        labels = cat.labels_of(cid)
        want = {"D": 2 * head, "SO2": 1, "O2": 2, "O2amalg": 2}[kind]
        assert labels.shape == (want,) and labels.all(), name
        rowid = grid_rowid(cat, cid)
        assert rowid.shape == (2 * P,)
        if kind == "D":
            on = np.zeros(2 * P, dtype=bool)
            on[np.r_[0:P:P // head, P:2 * P:P // head]] = True
            assert not rowid[~on].any(), name
            assert rowid[on].tolist() == labels.tolist(), name
        else:
            assert (rowid[:P] == labels[0]).all(), name
            assert (rowid[P:] == (labels[1] if kind != "SO2" else 0)).all()
        step = P // (2 * (head or 1))
        assert np.array_equal(cat._rowid(cid), rowid[::step]), name


@pytest.mark.parametrize("which", ["S4*Z2 cube heads", "S3*Z2 heads 1,2,3,6"])
def test_histogram_test_drops_only_zero_counts(which, request):
    """Under a D-headed h, a candidate l whose element histogram exceeds
    h's in some bin is never below h: each whole candidate column, counted
    in one pass without the histogram test, is zero at every pair the test
    drops, and its nonzero part is the column the catalog keeps."""
    if which.startswith("S4"):
        cat = request.getfixturevalue("cube_pipeline").catalog
    else:
        cat = ProductCatalog(
            direct_product(symmetric_group(3), cyclic_group(2)), [1, 2, 3, 6])
    pads, ngens = cat._index()[3:]
    dropped = 0
    for h, (head, n_model) in enumerate(
            cat.classes[["head", "n_model"]].tolist()):
        if head:
            ls = np.flatnonzero(cat._candidates(h))
            n = cat._count(pads[:, ls, :ngens[ls].max()], head,
                           cat._rowid(h)) // n_model
            drop = ~np.isin(ls, cat._within_histogram(h, ls))
            assert not n[drop].any(), cat.names[h]
            assert cat.column(h) == dict(zip(ls[n > 0].tolist(),
                                             n[n > 0].tolist())), cat.names[h]
            dropped += drop.sum()
    assert dropped > 0


@pytest.mark.parametrize("which", ["S4*Z2 cube heads", "S3*Z2 heads 1,2,3,6"])
def test_o2_columns_are_read_off_the_k_lattice(which, request):
    """Under h = O(2) x K' the column is read off the K lattice, as
    n_K(pi_K L, K'); it equals every candidate of h counted on the grid."""
    if which.startswith("S4"):
        cat = request.getfixturevalue("cube_pipeline").catalog
    else:
        cat = ProductCatalog(
            direct_product(symmetric_group(3), cyclic_group(2)), [1, 2, 3, 6])
    pads, ngens = cat._index()[3:]
    o2 = [h for h, kind in enumerate(kinds(cat)) if kind == "O2"]
    assert len(o2) == len(cat.nk)
    for h in o2:
        ls = np.flatnonzero(cat._candidates(h))
        n = cat._count(pads[:, ls, :ngens[ls].max()], 0,
                       cat._rowid(h)) // int(cat.classes["n_model"][h])
        assert cat.column(h) == dict(zip(ls[n > 0].tolist(),
                                         n[n > 0].tolist())), cat.names[h]


def test_local_grid_counts_match_the_catalog_grid():
    """Each count runs on the grid of H's head: on S3 x Z2 with heads
    1,2,3,6, every candidate pair's n(L, H) and every |N(H)| equal the
    counts over the catalog-wide grid D_P x K."""
    cat = ProductCatalog(
        direct_product(symmetric_group(3), cyclic_group(2)), [1, 2, 3, 6])
    ref = O2Model(cat.P, cat.K)
    for h, n_model in enumerate(grid_sizes(cat, "n_model")):
        table = (grid_rowid(cat, h), cat.rows)
        assert n_model == ref.count_conj_into(
            *class_gens(cat, h)[:, None], table)[0], cat.names[h]
        ls = np.flatnonzero(cat._candidates(h))
        # each generating set padded to the longest by repeating its last
        gens = [class_gens(cat, l) for l in ls]
        m = max(g.shape[1] for g in gens)
        want = ref.count_conj_into(*np.stack([np.pad(
            g, ((0, 0), (0, m - g.shape[1])), mode="edge") for g in gens],
            axis=1), table) // n_model
        assert [cat.column(h).get(l, 0) for l in ls] == want.tolist(), \
            cat.names[h]


def test_dedupe_rounds_decide_forced_buckets(monkeypatch):
    """With every fingerprint made equal, each bucket of S3 x Z2 (heads
    1,2,3,6) holds every record of one kind, head, K', size and kernel,
    non-conjugate ones too, and the counts take several rounds to split
    it; the classes are the same as with the fingerprints."""
    K = direct_product(symmetric_group(3), cyclic_group(2))
    calls = []

    def count(self, *args):
        calls.append(args[1])
        return count_once(self, *args)

    def rows(cat):
        return sorted(c + (w,) for c, w in zip(cat.classes[[
            "kind", "head", "kp_cid", "bucket", "size", "n_model"]].tolist(),
            cat.weyl_orders))

    count_once = ProductCatalog._count
    monkeypatch.setattr(ProductCatalog, "_count", count)
    cat = ProductCatalog(K, [1, 2, 3, 6])
    normal_calls = len(calls)
    monkeypatch.setattr(catalog, "_sparse_rank",
                        lambda counts: np.zeros(len(counts), dtype=np.intp))
    forced = ProductCatalog(K, [1, 2, 3, 6])
    assert len(calls) - normal_calls > normal_calls       # more rounds
    assert len(forced) == len(cat)
    assert rows(forced) == rows(cat)


def _per_head_dedupe(cat, ktable) -> dict:
    """The D-headed classes as a dedupe run on every head finds them: on
    each D_h, every gluing of each period q | h in step and isomorphism
    order, dropped when a conjugate of it lies in a gluing kept before it
    (of the same size, so the conjugate is that gluing), else kept with
    |N(U)| its count into itself on the grid D_{2h}.  By (head, step,
    isomorphism): kind, head, K', kernel, size, |N(U)| and Weyl order."""
    steps = catalog.gluing_steps(ktable)
    r_row = np.flatnonzero(cat.rows[:, 0])          # R's row of each step
    gluings = sorted(
        (i, j, r_row[i] + np.asarray(row))
        for i, (_, _, cosets, _, isos) in enumerate(steps)
        for j, row in list(enumerate(isos)) + (
            [(-1, np.tile(np.arange(len(cosets)), 2))]
            if len(cosets) <= 2 else []))
    first = np.argmax(cat.rows, axis=1)      # a coset's first element
    out = {}
    for h in cat.heads:
        model, kept = O2Model(2 * h, cat.K), []
        for i, j, row in gluings:
            q = len(row) // 2
            if h % q:
                continue
            labels = catalog.on_head(row[None], h)[0]
            rowid = np.zeros((2, h, 2), dtype=np.int32)
            rowid[:, :, 0] = labels.reshape(2, h)          # k at grid 2k
            r = np.flatnonzero(cat.rows[r_row[i]])
            lo2 = np.r_[2 % (2 * h), 2 * h, np.zeros(len(r), dtype=int)]
            lk = np.r_[first[labels[1 % h]], first[labels[h]], r]
            size, kp = 2 * h * len(r), steps[i][0].cid
            alike = [u for u in kept if u[:3] == (kp, size, q)]
            if alike and model.count_conj_into(
                    *(np.tile(g, (len(alike), 1)) for g in (lo2, lk)),
                    (np.array([u[3] for u in alike]), cat.rows)).any():
                continue
            kept.append((kp, size, q, rowid.ravel()))
            n = int(model.count_conj_into(lo2[None], lk[None],
                                          (kept[-1][3], cat.rows))[0])
            rot_kernel = not cat.rows[labels[h:], 0].any()
            out[h, i, j] = (0, h, kp, h // q, size, n,
                            n // size // (2 if rot_kernel else 1))
    return out


@pytest.mark.parametrize("group, heads", [
    (3, [1, 2, 3, 4, 6, 12]), (4, [1, 2, 3, 4, 6, 8, 12, 24])],
    ids=["S3*Z2", "S4*Z2"])
def test_per_period_dedupe_matches_a_per_head_dedupe(group, heads):
    """Each gluing deduped once, on the head of its period, and put on
    every head its period divides, gives class for class the D-headed
    classes a dedupe of every gluing on every head finds."""
    K = direct_product(symmetric_group(group), cyclic_group(2))
    ktable = SubgroupClassTable(K)
    cat = ProductCatalog(K, heads, ktable=ktable)
    cols = cat.classes[["kind", "head", "kp_cid", "bucket", "size",
                        "n_model", "glue_step", "glue_iso"]].tolist()
    got = {(h, i, j): (k, h, kp, b, s, n, w) for (k, h, kp, b, s, n, i, j), w
           in zip(cols, cat.weyl_orders) if h}
    assert got == _per_head_dedupe(cat, ktable)


def test_the_build_counts_on_period_heads_only(s4z2, s4z2_table,
                                               monkeypatch):
    """S4 x Z2 has gluings of the periods 1, 2, 3, 4 and 6 only, so its
    build on the cube heads counts on those heads (and on D_2 for the
    SO(2)- and O(2)-headed classes), never on 8, 9, 12 or 18."""
    heads, count_once = [], ProductCatalog._count

    def count(self, gens, head, rowid):
        heads.append(head)
        return count_once(self, gens, head, rowid)

    monkeypatch.setattr(ProductCatalog, "_count", count)
    ProductCatalog(s4z2, CUBE_HEADS, ktable=s4z2_table)
    assert set(heads) == {0, 1, 2, 3, 4, 6}


def _sparse_tuple(row) -> tuple:
    return tuple((j, c) for j, c in enumerate(row) if c)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(0), st.integers(1, 40)),
                         min_size=6, max_size=6), min_size=1, max_size=10),
       st.integers(0, 6))
def test_sparse_rank_orders_rows_as_their_sparse_tuples(rows, cut):
    """The class order's fingerprint key ranks rows of counts exactly as
    Python orders their tuples of nonzero (column, count) items: checked
    on random rows, an all-zero row, and each row cut after ``cut``
    columns, whose nonzero items are a prefix of the row's."""
    counts = np.array(rows + [[0] * 6] + [r[:cut] + [0] * (6 - cut)
                                          for r in rows])
    rank = catalog._sparse_rank(counts).tolist()
    tuples = [_sparse_tuple(r) for r in counts.tolist()]
    for a, ta in zip(rank, tuples):
        for b, tb in zip(rank, tuples):
            assert (a < b) == (ta < tb) and (a == b) == (ta == tb)
