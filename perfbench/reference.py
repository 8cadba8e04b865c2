"""Reference figures that are too costly for a benchmark run, measured once.

    python3 perfbench/reference.py

Prints (and writes to ``.perfbench/reference.json``): cube(5,1) solved cold
and warm, the outcome of cube(6,1), the wall time of the Tier-1 test suite,
the ``src/`` line count, and the machine, Python, numpy and scipy versions.
Takes about ten minutes on a 2-core machine.
"""
from __future__ import annotations

import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy
import scipy

import checks
from run import HERE, ROOT, WORK


def _solve(path: str, cache: str) -> dict:
    env = dict(os.environ, DISCDEG_CACHE_DIR=cache)
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, os.path.join(HERE, "launch.py"),
                        "--format", "json", "solve", path],
                       cwd=ROOT, env=env, capture_output=True)
    rec = {"wall_s": round(time.perf_counter() - t0, 2), "exit": p.returncode,
           "stderr": p.stderr.decode().strip()[-300:]}
    if p.returncode == 0:
        recs = checks.records(p.stdout)
        rec["terms"] = sum(r["record"] == "expansion" for r in recs)
        rec["families"] = sum(r["record"] == "nonradial" for r in recs)
        rec["radial"] = sum(r["record"] == "radial" for r in recs)
    return rec


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    work = os.path.join(WORK, "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out: dict = {}
    for c in (5, 6):
        path = os.path.join(work, f"cube{c}1.json")
        with open(path, "w") as fh:
            json.dump({"cube": {"c": c, "d": 1}}, fh)
        cache = os.path.join(work, f"cache{c}")
        out[f"cube{c}1_cold"] = _solve(path, cache)
        if out[f"cube{c}1_cold"]["exit"] == 0:
            out[f"cube{c}1_warm"] = _solve(path, cache)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-m", "pytest", "-q",
                        "--continue-on-collection-errors", "-p",
                        "no:cacheprovider"],
                       cwd=ROOT, env=env, capture_output=True, text=True)
    out["tier1"] = {"wall_s": round(time.perf_counter() - t0, 1),
                    "exit": p.returncode,
                    "summary": (p.stdout.strip().splitlines() or [""])[-1]}
    out["src_lines"] = sum(
        sum(1 for _ in open(f))
        for f in glob.glob(os.path.join(ROOT, "src", "discdeg", "*.py")))
    out["machine"] = {"cpu": _cpu_model(), "cores": os.cpu_count(),
                      "system": platform.platform(),
                      "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__}
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(WORK, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
