"""Benchmark of the ``discdeg`` command: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cube41 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every operation is one fresh ``discdeg`` process started from this single
process, one at a time.  A run starts from an empty catalog cache: cold
passes over the workload's list build and store every catalog it needs
(``setup_s``), warm passes read them back (``warm_s``).  Cold passes repeat
until they have measured a quarter of ``--seconds``, warm passes until they
have measured the other three quarters; each runs at least once, and each
metric is the median over its passes.  The machine's speed drifts, so a fixed
calibration process (calibrate.py) is timed before the first pass and after
every pass, and each pass's wall time is scaled to the reference speed by
REF_CALIB_S over the median calibration time just before and after it.
Every output is checked (see checks.py).  With ``--trace 1`` the run makes
one traced cold pass, one untraced and one traced warm pass, and reports the
per-layer metrics of tracer.py instead.  The last line of standard output is
the result as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import checks
from tracer import MODULES
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
REQUIRED = ("src/discdeg/cli.py", "examples_local/cube.json",
            "examples_local/swap.json")
LAUNCH = os.path.join(HERE, "launch.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
# Wall time of calibrate.py that defines the reference speed.  It only sets
# the scale of setup_s and warm_s; README.md, "Machine speed", has its origin.
REF_CALIB_S = 0.75
# calibrate.py runs at each pass boundary
CALIB_RUNS = 2


@dataclass
class Outcome:
    rc: int
    out: bytes
    err: bytes
    wall: float
    maxrss_kb: int


class Runner:
    """Runs ops against one cache directory and keeps the run's tallies."""

    def __init__(self, ops, work: str):
        self.ops = ops
        self.work = work
        self.cache = os.path.join(work, "cache")
        self.reference: list[bytes | None] = [None] * len(ops)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.peak_kb = 0
        self.calib: list[float] = []
        self.calib_out: bytes | None = None
        self.last_calib: list[float] = []
        self.walls: dict = {}

    def clear_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        os.makedirs(self.cache)

    def cache_mib(self) -> float:
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, fs in os.walk(self.cache) for f in fs) / 2**20

    def _spawn(self, args: list[str]) -> Outcome:
        env = dict(os.environ, DISCDEG_CACHE_DIR=self.cache)
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable,
                                 [sys.executable, *args], env,
                                 file_actions=[
                                     (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                     (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Outcome(os.waitstatus_to_exitcode(status), stdout, stderr,
                       wall, usage.ru_maxrss)

    def run_pass(self, trace_dir: str | None = None) -> float:
        """One pass over the op list; returns the summed process wall time."""
        outcomes = []
        for i, op in enumerate(self.ops):
            entry = ([os.path.join(HERE, "tracer.py"),
                      os.path.join(trace_dir, f"op{i:02d}")]
                     if trace_dir else [LAUNCH])
            outcomes.append(self._spawn(entry + op.argv))
        self.judge(outcomes)
        return sum(o.wall for o in outcomes)

    def calibrate(self) -> list[float]:
        """Time CALIB_RUNS runs of the fixed calibration process.

        The first run of all is a warm-up and is not kept: it reads slower
        than the rest in every run.
        """
        group = []
        for _ in range(CALIB_RUNS + (self.calib_out is None)):
            o = self._spawn([CALIBRATE])
            if o.rc != 0 or o.out != (self.calib_out or o.out):
                raise RuntimeError(f"calibrate.py misbehaved: exit {o.rc}, "
                                   f"{o.out!r}, {o.err[-300:]!r}")
            if self.calib_out is not None:
                group.append(o.wall)
            self.calib_out = o.out
        self.calib += group
        self.last_calib = group
        return group

    def timed_pass(self) -> tuple[float, float]:
        """One untraced pass: its wall time, and that time at the reference
        speed, gauged by the calibration runs just before and after it."""
        before = self.last_calib or self.calibrate()
        wall = self.run_pass()
        after = self.calibrate()
        return wall, wall * REF_CALIB_S / statistics.median(before + after)

    def judge(self, outcomes: list[Outcome]) -> None:
        for i, (op, o) in enumerate(zip(self.ops, outcomes)):
            self.attempted += 1
            self.peak_kb = max(self.peak_kb, o.maxrss_kb)
            if o.rc != op.expect_rc:
                self.failed += 1
                continue
            try:
                op.check(o.out, o.err)
                if op.mirror is not None:
                    other = outcomes[op.mirror]
                    if other.rc == 0 and (checks.terms_of(o.out)
                                          != checks.terms_of(other.out)):
                        raise checks.CheckFailed("A*B differs from B*A")
                if self.reference[i] is None:
                    self.reference[i] = o.out
                elif o.out != self.reference[i]:
                    raise checks.CheckFailed("output differs from the first pass")
            except (checks.CheckFailed, ValueError, KeyError, TypeError,
                    IndexError, AttributeError) as e:
                self.errors.append(f"{op.label}: {type(e).__name__}: {e}")


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Cold and warm passes with tracing off: the end-to-end metrics."""
    cold, warm = [], []           # (wall, scaled) of each pass
    while not cold or sum(w for w, _ in cold) < seconds / 4:
        runner.clear_cache()
        cold.append(runner.timed_pass())
    while not warm or sum(w for w, _ in warm) < seconds * 3 / 4:
        warm.append(runner.timed_pass())
    runner.walls = {"cold_s": [w for w, _ in cold],
                    "warm_s": [w for w, _ in warm],
                    "calibrate_s": runner.calib}
    return {
        "setup_s": (statistics.median(s for _, s in cold), "s"),
        "warm_s": (statistics.median(s for _, s in warm), "s"),
        "peak_rss_mb": (runner.peak_kb / 1024, "MiB"),
        "cache_mb": (runner.cache_mib(), "MiB"),
    }


def _pass_layers(trace_dir: str) -> dict:
    """Sum the per-process trace summaries of one pass into layer metrics."""
    docs = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                docs.append(json.load(fh))
    calls: dict = {}
    incl: dict = {}
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    for d in docs:
        for m, v in d["self_s"].items():
            out[f"{m}.self_s"] += v
        for k, v in d["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in d["incl_s"].items():
            incl[k] = incl.get(k, 0.0) + v
    cats = [c for d in docs for c in d["catalogs"]]
    out.update({
        "o2model.conj_into_calls": calls.get("o2model.conj_into", 0),
        "o2model.conj_into_s": incl.get("o2model.conj_into", 0.0),
        "o2model.k_side_calls": calls.get("o2model.k_side", 0),
        "o2model.k_side_s": incl.get("o2model.k_side", 0.0),
        "catalog.builds": len(cats),
        "catalog.classes": sum(n for n, _ in cats),
        "catalog.grid_period": max((p for _, p in cats), default=0),
        "catalog.n_count_calls": calls.get("catalog.n_count", 0),
        "catalog.n_count_distinct": sum(d["n_count_distinct"] for d in docs),
        "catalog.n_count_nonzero": sum(d["n_count_nonzero"] for d in docs),
        "catalog.down_closure_calls": calls.get("catalog.down_closure", 0),
        "catalog.fold_calls": calls.get("catalog.fold", 0),
        "burnside.products": calls.get("burnside.products", 0),
        "burnside.mark_calls": calls.get("burnside.mark", 0),
        "degrees.basic_degree_calls": calls.get("degrees.basic_degree", 0),
        "reps.fixed_dim_calls": calls.get("reps.fixed_dim", 0),
        "reps.orbit_types_calls": calls.get("reps.orbit_types", 0),
        "permgroup.subgroup_tables": calls.get("permgroup.subgroup_table", 0),
        "permgroup.subgroup_table_s": incl.get("permgroup.subgroup_table", 0.0),
        "bessel.mode_tables": calls.get("bessel.mode_table", 0),
        "bessel.zero_calls": calls.get("bessel.zero", 0),
        "bessel.j_evals": calls.get("bessel.j_eval", 0),
        "cli.import_s": sum(d["import_s"] for d in docs),
        "cli.cache_hits": calls.get("cli.cache_load", 0),
        "cli.cache_misses": calls.get("cli.cache_store", 0),
        "cli.cache_load_s": incl.get("cli.cache_load", 0.0),
        "cli.cache_store_s": incl.get("cli.cache_store", 0.0),
    })
    return out


def run_traced(runner: Runner, trace_root: str) -> dict:
    """Traced cold pass, untraced and traced warm pass: per-layer metrics."""
    dirs = {p: os.path.join(trace_root, p) for p in ("cold", "warm")}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    runner.clear_cache()
    runner.run_pass(dirs["cold"])
    plain = runner.run_pass()
    traced = runner.run_pass(dirs["warm"])
    layers = _pass_layers(dirs["cold"])
    layers.update({f"warm.{k}": v
                   for k, v in _pass_layers(dirs["warm"]).items()})
    layers["trace.overhead_s"] = traced - plain
    with open(trace_root + ".json", "w") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    return {k: (v, _unit(k)) for k, v in layers.items()}


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = os.path.join(WORK, "runs", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(WORKLOADS[name](seed, ROOT, work), work)
        if trace:
            metrics = run_traced(runner, os.path.join(WORK, "traces", tag))
        else:
            metrics = run_untraced(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in runner.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, **result,
                   "unscaled_walls": runner.walls}, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a discdeg checkout, missing {missing}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for k, m in result["metrics"].items():
            print(f"  {k:32s} {m['value']:14.4f} {m['unit']}")
        if args.workload == "all":
            print(json.dumps({"workload": name, **result}))
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
