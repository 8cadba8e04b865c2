"""Command-line surface for the disc-degree pipeline.

Machine output is line-delimited JSON with a schema version field; text
output uses the amalgamated class names in descending class order.  Exit
status: 0 success or closed pipe, 2 validation error, 3 non-resonance refusal.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
from fractions import Fraction
from pickle import UnpicklingError   # perfbench/tracer.py swaps out `pickle`

SCHEMA = 1
CACHE_ENV = "DISCDEG_CACHE_DIR"
# format 15: a catalog stores gluings and counts, not names or Weyl orders
CACHE_FORMAT = 15


class Refusal(Exception):
    """Condition (D) / resonance violation (exit status 3)."""


def _emit(fmt, records, text_lines):
    if fmt == "json":
        for r in records:
            print(json.dumps({"schema": SCHEMA, **r}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _build_group(descriptor: str):
    from .permgroup import build_group
    return build_group(descriptor)


def _cached(tag: str, build):
    """Build-or-load an expensive object keyed by tag in the cache dir.

    The key holds ``CACHE_FORMAT``, so an object pickled in another layout
    is never loaded.  A new file is written aside and renamed into place,
    so no reader sees a partly written one.  A stored file that cannot be
    read back (truncated, empty, garbled, or not what its tag names) is an
    error naming the file, not a silent rebuild.
    """
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return build()
    key = hashlib.sha256(
        f"{tag}|v{SCHEMA}|format{CACHE_FORMAT}".encode()).hexdigest()
    path = os.path.join(cache_dir, key + ".pkl")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            try:
                obj = pickle.load(fh)
            except (EOFError, KeyError, UnpicklingError, ValueError) as e:
                raise ValueError(f"unreadable cache file {path}: {e}")
        if not _holds(kind := tag.partition("|")[0], obj):
            raise ValueError(f"unreadable cache file {path}: a "
                             f"{type(obj).__name__} under a {kind} key")
        return obj
    obj = build()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(obj, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return obj


def _holds(kind: str, obj) -> bool:
    """Whether ``obj`` is a catalog or a head list, as ``kind`` names."""
    from .catalog import ProductCatalog
    heads = isinstance(obj, list) and all(type(h) is int for h in obj)
    return {"catalog": isinstance(obj, ProductCatalog),
            "heads": heads}.get(kind, True)


def _parse_heads(s: str) -> list[int]:
    try:
        heads = sorted({int(t) for t in s.split(",") if t.strip()})
    except ValueError:
        raise ValueError(f"bad head list {s!r}; expected comma-separated integers")
    if not heads or heads[0] < 1:
        raise ValueError("head list must contain positive integers")
    return heads


# ---------------------------------------------------------------------------
# subcommands

def cmd_ccs(args) -> int:
    if args.heads is not None:
        from .catalog import KINDS, cached_catalog
        cat = cached_catalog(_build_group(args.group),
                             _parse_heads(args.heads), _cached)
        rows = list(enumerate(zip(cat.names, cat.weyl_orders,
                                  cat.classes["kind"].tolist())))
        recs = [{"record": "class", "cid": cid, "name": name, "weyl": w,
                 "kind": KINDS[kind]} for cid, (name, w, kind) in rows]
        text = [f"{cid:5d}  W={w:<4d} ({name})" for cid, (name, w, _) in rows]
    else:
        from .naming import name_subgroup_classes
        from .permgroup import SubgroupClassTable
        table = SubgroupClassTable(_build_group(args.group))
        name_subgroup_classes(table)
        recs = [{"record": "class", "cid": r.cid, "name": r.name,
                 "order": r.order, "weyl": r.weyl_order, "size": r.order}
                for r in table.classes]
        text = [f"{r.cid:3d}  |H|={r.order:<3d} W={r.weyl_order:<3d} ({r.name})"
                for r in table.classes]
    _emit(args.format, recs, text)
    return 0


def cmd_chartab(args) -> int:
    from .characters import character_table
    t = character_table(_build_group(args.group))
    recs = [{"record": "irrep", "index": i, "name": t.names[i],
             "values": list(row)} for i, row in enumerate(t.irreps)]
    width = max(len(n) for n in t.names)
    text = [f"{t.names[i]:<{width}}  " + "  ".join(f"{v:3d}" for v in row)
            for i, row in enumerate(t.irreps)]
    _emit(args.format, recs, text)
    return 0


def _context(args):
    """Catalog, ring and rep data for ``--group Gamma*Z2``, built as solve does."""
    from .degrees import build_context
    gamma_desc, _, z2 = args.group.rpartition("*")
    if not gamma_desc or z2.strip() != "Z2":
        raise ValueError("group must be a direct product Gamma*Z2")
    return build_context(_build_group(gamma_desc),
                         heads=_parse_heads(args.heads), cache=_cached)


def _element_records(el, record: str):
    return [{"record": record, "name": n, "coeff": v} for n, v in el.terms()]


def cmd_basic_degree(args) -> int:
    from .degrees import basic_degree
    from .reps import IrrDescriptor
    p = _context(args)
    el = basic_degree(p.ring, p.ctx, IrrDescriptor(args.m, args.j, args.sign))
    _emit(args.format, _element_records(el, "term"), [repr(el)])
    return 0


def cmd_burnside_mul(args) -> int:
    ring = _context(args).ring
    try:
        a = ring.generator(ring.lattice.by_name[args.left])
        b = ring.generator(ring.lattice.by_name[args.right])
    except KeyError as e:
        raise ValueError(f"unknown class name {e.args[0]!r}")
    try:
        el = a * b
    except AssertionError as e:
        raise Refusal(f"{e}: this product of two generators is not integral "
                      "under the catalog's Weyl-order convention")
    _emit(args.format, _element_records(el, "term"), [repr(el)])
    return 0


def cmd_fold(args) -> int:
    cat = _context(args).catalog
    try:
        cid = cat.by_name[args.name]
    except KeyError:
        raise ValueError(f"unknown class name {args.name!r}")
    name = cat.names[cat.fold_class(cid, args.nu)]
    _emit(args.format,
          [{"record": "fold", "name": args.name, "nu": args.nu,
            "result": name}],
          [name])
    return 0


def cmd_bessel_zeros(args) -> int:
    from .bessel import bessel_zeros
    zs = bessel_zeros(args.m, args.upper)
    _emit(args.format,
          [{"record": "zero", "m": args.m, "n": i + 1, "value": z}
           for i, z in enumerate(zs)],
          [f"{z:.10f}" for z in zs])
    return 0


def _require(ok: bool, shape: str):
    if not ok:
        raise ValueError(f"malformed problem file: {shape}")


def _require_keys(doc: dict, keys: tuple, what: str):
    for k in keys:
        _require(k in doc, f"{what} has no key {k!r}")


def _is_list_of(x, kind) -> bool:
    return isinstance(x, list) and all(isinstance(v, kind) for v in x)


def _number(v, what: str) -> Fraction:
    """``v`` as an exact rational, or a malformed-file error naming it."""
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed problem file: {what} {v!r} is not a "
                         "finite rational number") from None


def _load_problem(path: str):
    from dataclasses import fields
    from .elliptic import (CouplingProblem, GrowthMeta, _extend_action,
                           cube_problem)
    with open(path) as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "expected a JSON object")
    growth = doc.get("growth", {})
    known = [f.name for f in fields(GrowthMeta)]
    _require(isinstance(growth, dict) and set(growth) <= set(known)
             and all(isinstance(v, (int, float)) for v in growth.values()),
             f"growth must map some of {known} to numbers")
    growth = GrowthMeta(**growth)
    if "cube" in doc:
        _require(isinstance(doc["cube"], dict), "cube must be an object")
        _require_keys(doc["cube"], ("c", "d"), "cube")
        return cube_problem(_number(doc["cube"]["c"], "cube c"),
                            _number(doc["cube"]["d"], "cube d"), growth)
    _require_keys(doc, ("group", "action_generators", "matrix"),
                  "a problem without cube")
    _require(isinstance(doc["group"], str), "group must be a string")
    gamma = _build_group(doc["group"])
    _require(_is_list_of(doc["action_generators"], list)
             and all(_is_list_of(p, int) for p in doc["action_generators"]),
             "action_generators must be a list of lists of integers")
    gens = [tuple(p) for p in doc["action_generators"]]
    if gamma.name == "S2" and len(gens) == 2 and gens[0] == gens[1]:
        gens = gens[:1]     # S2 once listed its transposition twice
    if len(gens) != len(gamma.generators):
        raise ValueError("action_generators must match the group generators")
    action = _extend_action(gamma, gens)
    _require(_is_list_of(doc["matrix"], list), "matrix must be a list of rows")
    matrix = [[_number(v, "matrix entry") for v in row]
              for row in doc["matrix"]]
    return CouplingProblem(gamma=gamma, action=action, matrix=matrix,
                           growth=growth)


def _report_records(rep):
    recs = [{"record": "condition", "name": "D", "ok": rep.condition_D,
             "witness": list(map(str, rep.condition_D_witness or []))},
            {"record": "resonant", "modes": sorted(rep.resonant)}]
    for e in rep.spectrum:
        recs.append({"record": "eigenvalue", "irrep": e.j, "mu": str(e.mu),
                     "mult": e.mult, "dim": e.dim})
    recs.append({"record": "mode_counts",
                 "counts": {str(m): v for m, v in sorted(rep.mode_counts.items())}})
    for cc in rep.counters:
        recs.append({"record": "counter", "class": cc.name,
                     "m_of": {str(k): v for k, v in sorted(cc.m_of.items())},
                     "nu0": cc.nu0})
    if rep.degree is not None:
        recs += [{"record": "expansion", "name": n, "coeff": v}
                 for n, v in rep.degree.terms()]
    for f in rep.non_radial:
        recs.append({"record": "nonradial", "family": f.family_name,
                     "base": f.base_name, "nu0": f.nu0,
                     "coeff": f.witness_coeff})
    for _, name, co in rep.radial:
        recs.append({"record": "radial", "name": name, "coeff": co})
    return recs


def _report_text(rep):
    out = [f"condition (D): {'satisfied' if rep.condition_D else 'VIOLATED'}"]
    if rep.condition_D_witness:
        n, m, mu = rep.condition_D_witness
        out.append(f"  collision near s_{n}{m} at eigenvalue {mu}")
    for e in rep.spectrum:
        out.append(f"eigenvalue mu_{e.j} = {e.mu} (multiplicity {e.dim})")
    if rep.degree is not None:
        out.append(f"degree: {rep.degree!r}")
    out.append(f"non-radial families ({len(rep.non_radial)}):")
    for f in rep.non_radial:
        out.append(f"  ({f.family_name})   [nu0 = {f.nu0}, coeff {f.witness_coeff}]")
    out.append(f"radial types ({len(rep.radial)}):")
    for _, name, co in rep.radial:
        out.append(f"  ({name})   [coeff {co}]")
    return out


def cmd_solve(args) -> int:
    from .elliptic import existence_report
    problem = _load_problem(args.problem)
    rep = existence_report(problem, cache=_cached)
    _emit(args.format, _report_records(rep), _report_text(rep))
    if not rep.condition_D:
        raise Refusal("condition (D) violated: eigenvalue collides with a "
                      f"Bessel zero at (n, m, mu) = {rep.condition_D_witness}")
    return 0


def _expansion_multiset(path: str):
    terms = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("record") == "expansion":
                terms.append((r["name"], r["coeff"]))
    return sorted(terms)


def cmd_golden_check(args) -> int:
    got = _expansion_multiset(args.report)
    want = _expansion_multiset(args.expected)
    if got == want:
        print(f"OK: {len(got)} terms match")
        return 0
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    raise ValueError(f"expansion mismatch: missing {missing[:5]}, "
                     f"extra {extra[:5]}")


# ---------------------------------------------------------------------------

def _parser():
    p = argparse.ArgumentParser(
        prog="discdeg",
        description="Equivariant degree computations for disc boundary "
                    "value problems with O(2) x Gamma x Z2 symmetry.")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("ccs", help="conjugacy classes of subgroups")
    sp.add_argument("group")
    sp.add_argument("--heads", help="comma-separated dihedral heads; if set, "
                                    "list the O(2) x K product catalog")
    sp.set_defaults(fn=cmd_ccs)

    sp = sub.add_parser("chartab", help="character table")
    sp.add_argument("group")
    sp.set_defaults(fn=cmd_chartab)

    # the catalog options of the commands that work in one catalog
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--group", default="S4*Z2")
    catalog.add_argument("--heads", default="1,2,3,4,6,8,9,12,18")

    sp = sub.add_parser("basic-degree", parents=[catalog],
                        help="basic degree of an irreducible rep")
    sp.add_argument("m", type=int)
    sp.add_argument("j", type=int)
    sp.add_argument("sign", type=int, choices=(-1, 1))
    sp.set_defaults(fn=cmd_basic_degree)

    sp = sub.add_parser("burnside-mul", parents=[catalog],
                        help="product of two generators")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(fn=cmd_burnside_mul)

    sp = sub.add_parser("fold", parents=[catalog],
                        help="apply the folding map to a class")
    sp.add_argument("nu", type=int)
    sp.add_argument("name")
    sp.set_defaults(fn=cmd_fold)

    sp = sub.add_parser("bessel-zeros", help="zeros of J_m up to a bound")
    sp.add_argument("m", type=int)
    sp.add_argument("upper", type=float)
    sp.set_defaults(fn=cmd_bessel_zeros)

    sp = sub.add_parser("solve", help="full existence report for a problem file")
    sp.add_argument("problem")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("golden-check",
                        help="compare two JSON reports' expansions as multisets")
    sp.add_argument("report")
    sp.add_argument("expected")
    sp.set_defaults(fn=cmd_golden_check)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:   # the reader left (| head): end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Refusal as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
