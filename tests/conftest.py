"""Shared fixtures: the expensive product catalog is built once per test run.

``grid_rowid`` is the reference form of a catalog class for the
element-wise oracles: the class spread over the catalog-wide grid D_P.
``class_gens`` is a class's generating set and ``grid_sizes`` the sizes
or |N(H)| of all classes, both on D_P x K, and ``kinds`` the kind names
of all classes, read off the catalog's columns."""
import numpy as np
import pytest

from discdeg.bessel import ModeTable
from discdeg.burnside import BurnsideRing
from discdeg.catalog import KINDS, ProductCatalog
from discdeg.degrees import PipelineContext
from discdeg.elliptic import cube_problem, existence_report, isotypic_spectrum
from discdeg.permgroup import (SubgroupClassTable, cyclic_group,
                               direct_product, symmetric_group)
from discdeg.reps import RepContext

CUBE_HEADS = [1, 2, 3, 4, 6, 8, 9, 12, 18]


def grid_rowid(cat, cid: int) -> np.ndarray:
    """The row id over each of the 2P points of D_P of class ``cid``: point
    k of D_h at grid point k P/h, the labels of SO(2) and O(2) over every
    grid rotation or reflection."""
    head, labels = int(cat.classes["head"][cid]), cat.labels_of(cid)
    n = head or 1
    rowid = np.zeros((2, n, cat.P // n), dtype=np.int32)
    rowid[:len(labels) // n, :, :1 if head else None] = labels.reshape(
        -1, n, 1)
    return rowid.ravel()


def class_gens(cat, cid: int) -> np.ndarray:
    """The (2, g) generating set of class ``cid``: D_P and K indices.  The
    catalog names the rotation 2 pi / n by n (D_h's step by h, and SO(2)'s
    and O(2)'s by 2), a reflection by -1 and the identity by 0; on D_P
    the rotation is P/h steps, or 1 off D_h, and the reflection is P."""
    pads, ngens = cat._index()[3:]
    n, k = pads[:, cid, :ngens[cid]]
    rotation = cat.P // np.maximum(n, 1) if cat.classes["head"][cid] else 1
    return np.stack([np.where(n < 0, cat.P, np.where(n > 0, rotation, 0)), k])


def grid_sizes(cat, field: str = "size") -> list[int]:
    """Each class's size, or |N(H)| with ``field`` "n_model", on D_P x K,
    as Python ints: an SO(2)- or O(2)-headed class is the same over every
    rotation and reflection, so it has P/2 times its value on D_2."""
    return [v if h else v * (cat.P // 2) for v, h in zip(
        cat.classes[field].tolist(), cat.classes["head"].tolist())]


def kinds(cat) -> list[str]:
    """The kind of every class of a product catalog: "D", "SO2", "O2" or
    "O2amalg"."""
    return [KINDS[k] for k in cat.classes["kind"].tolist()]


@pytest.fixture(scope="session")
def s4z2():
    return direct_product(symmetric_group(4), cyclic_group(2))


@pytest.fixture(scope="session")
def s4z2_table(s4z2):
    from discdeg.naming import name_subgroup_classes
    table = SubgroupClassTable(s4z2)
    name_subgroup_classes(table)
    return table


@pytest.fixture(scope="session")
def cube_pipeline(s4z2, s4z2_table):
    cat = ProductCatalog(s4z2, CUBE_HEADS, ktable=s4z2_table)
    return PipelineContext(catalog=cat, ring=BurnsideRing(cat),
                           ctx=RepContext(cat, symmetric_group(4)))


@pytest.fixture(scope="session")
def cube41():
    return cube_problem(4, 1)


@pytest.fixture(scope="session")
def cube41_spectrum(cube41):
    return isotypic_spectrum(cube41)


@pytest.fixture(scope="session")
def cube41_modes():
    return ModeTable(7.0)


@pytest.fixture(scope="session")
def cube41_report(cube41, cube_pipeline):
    return existence_report(cube41, pipeline=cube_pipeline)
