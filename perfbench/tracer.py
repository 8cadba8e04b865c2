"""Span tracer for one ``discdeg`` process, installed from outside the package.

Run as ``python3 perfbench/tracer.py OUT_PREFIX ARGS...``.  It runs
``discdeg.cli.main(ARGS)`` with an import hook that, as each ``discdeg``
module finishes executing, replaces the module's public functions and the
public methods of its classes (plus the constructors that do work) with
timing wrappers.  Modules are imported when the command imports them, as
in an untraced run, and each import is itself a span.  When the process
ends it writes

* ``OUT_PREFIX.json``: the name table, per-module self times and counters;
* ``OUT_PREFIX.spans``: every span as packed arrays of name id, parent
  index, start and end (``array`` types i, i, d, d, one array after the
  other, each as long as the span count in the JSON file).

Nothing under ``src/`` is modified; the wrappers live only in this process.
A span's parent is the innermost span open when it started, so a module's
self time is its spans' time minus the part covered by child spans.
"""
from __future__ import annotations

import array
import dataclasses
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("cli", "elliptic", "permgroup", "naming", "characters", "bessel",
           "o2model", "catalog", "burnside", "reps", "degrees")
# Permutation primitives cost about a microsecond and run millions of times
# while subgroup tables are built; a span each would cost more than the
# work, so their time stays with the caller's span.
LEAVES = {"permgroup": {"pmul", "pinv", "pidentity", "pconj", "perm_order",
                        "cycle_type"}}

# span name -> counter name, for the calls the benchmark counts and times
COUNTED = {
    "o2model.O2Model.count_conj_into": "o2model.conj_into",
    "o2model.O2Model.conjugates_k_side": "o2model.k_side",
    "catalog.ProductCatalog.n_count": "catalog.n_count",
    "catalog.ProductCatalog.down_closure": "catalog.down_closure",
    "catalog.ProductCatalog.fold_class": "catalog.fold",
    "burnside.BurnsideRing.multiply": "burnside.products",
    "burnside.BurnsideRing.mark": "burnside.mark",
    "degrees.basic_degree": "degrees.basic_degree",
    "reps.RepContext.fixed_dim": "reps.fixed_dim",
    "reps.orbit_types": "reps.orbit_types",
    "permgroup.SubgroupClassTable.__init__": "permgroup.subgroup_table",
    "bessel.ModeTable.__init__": "bessel.mode_table",
    "bessel.bessel_zeros": "bessel.zero",
    "bessel.bessel_j": "bessel.j_eval",
    "cli.cache_load": "cli.cache_load",
    "cli.cache_store": "cli.cache_store",
}


class Tracer:
    """Spans of one process, kept in packed arrays until the process ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.ncount_pairs: set = set()
        self.ncount_nonzero: set = set()
        self.catalogs: list[tuple[int, int]] = []   # (classes, P) per build
        self.hooks = {"catalog.ProductCatalog.n_count": self._on_ncount,
                      "catalog.ProductCatalog.__init__": self._on_catalog}

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        sid = self.name_id.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        hook = self.hooks.get(name)
        clock = time.perf_counter
        stack, sids, parents = self.stack, self.sid, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            sids.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- hooks for counters that need arguments or results -----------------

    def _on_ncount(self, args, out):
        pair = (id(args[0]), args[1], args[2])
        self.ncount_pairs.add(pair)
        if out:
            self.ncount_nonzero.add(pair)

    def _on_catalog(self, args, out):
        cat = args[0]
        self.catalogs.append((len(cat.classes), cat.P))

    # -- installation ------------------------------------------------------

    def install_module(self, short: str, mod: types.ModuleType) -> None:
        """Wrap the public functions and class methods defined in ``mod``.

        Modules that import these names later (``from .x import f``) get
        the wrappers, because a module is wrapped as soon as it has run.
        """
        skip = LEAVES.get(short, set())
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or attr in skip:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                self._wrap_class(short, obj)
            elif callable(obj):
                setattr(mod, attr, self.wrap(f"{short}.{attr}", obj))
        if short == "cli":
            # the catalog cache reads and writes through pickle
            mod.pickle = types.SimpleNamespace(
                load=self.wrap("cli.cache_load", mod.pickle.load),
                dump=self.wrap("cli.cache_store", mod.pickle.dump))

    def _wrap_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue          # properties, static and class methods
            if attr == "__init__":
                # generated dataclass constructors only store fields
                if (dataclasses.is_dataclass(cls)
                        and not hasattr(cls, "__post_init__")):
                    continue
            elif attr.startswith("_"):
                continue
            setattr(cls, attr, self.wrap(f"{short}.{cls.__name__}.{attr}", obj))

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time per module, import time and the ``COUNTED`` counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        module_of = [nm.split(".", 1)[0] for nm in self.names]
        self_s = dict.fromkeys(MODULES + ("import",), 0.0)
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        counted = {self.name_id[k]: v for k, v in COUNTED.items()
                   if k in self.name_id}
        for i in range(n):
            sid = self.sid[i]
            dur = self.end[i] - self.start[i]
            self_s[module_of[sid]] += dur - child[i]
            key = counted.get(sid)
            if key is not None:
                calls[key] = calls.get(key, 0) + 1
                # inclusive time of outermost calls only
                p = self.parent[i]
                if p < 0 or self.sid[p] != sid:
                    incl[key] = incl.get(key, 0.0) + dur
        import_s = self_s.pop("import")
        return {
            "self_s": self_s, "import_s": import_s, "calls": calls,
            "incl_s": incl, "spans": n,
            "n_count_distinct": len(self.ncount_pairs),
            "n_count_nonzero": len(self.ncount_nonzero),
            "catalogs": self.catalogs,
        }

    def write(self, prefix: str, extra: dict) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.sid, self.parent, self.start, self.end):
                arr.tofile(fh)
        doc = {"names": self.names, **extra, **self.summary()}
        with open(prefix + ".json", "w") as fh:
            json.dump(doc, fh)


class WrapOnImport(importlib.abc.MetaPathFinder):
    """Import hook: time each ``discdeg`` module's import, then wrap it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith("discdeg."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        short = name.split(".", 1)[1]
        run = self.tracer.wrap(f"import.{short}", spec.loader.exec_module)

        def exec_module(module):
            run(module)
            if short in MODULES:
                self.tracer.install_module(short, module)

        spec.loader.exec_module = exec_module
        return spec


def main(argv: list[str]) -> int:
    prefix, args = argv[0], argv[1:]
    sys.path[0] = os.path.join(ROOT, "src")
    tracer = Tracer()
    sys.meta_path.insert(0, WrapOnImport(tracer))
    t0 = time.perf_counter()
    try:
        from discdeg.cli import main as discdeg_main
        return discdeg_main(args)
    finally:
        tracer.write(prefix, {"argv": args,
                              "run_s": time.perf_counter() - t0})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
