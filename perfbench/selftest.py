"""Quick self-test of the benchmark harness, on ``examples_local/swap.json`` only.

    python3 perfbench/selftest.py

It shows that the output checks accept the program's report and reject
corrupted copies of it, and that ``BENCHMARK.json`` names exactly the
metrics an untraced and a traced run print.  Exits 0 when all hold.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
from workloads import SWAP, Op, solve_op


def _corruptions(out: bytes) -> dict[str, bytes]:
    lines = out.decode().splitlines()

    def edit(pred, fn):
        i = next(i for i, l in enumerate(lines) if pred(json.loads(l)))
        copy = list(lines)
        new = fn(json.loads(copy[i]))
        if new is None:
            del copy[i]
        else:
            copy[i] = json.dumps(new, sort_keys=True)
        return ("\n".join(copy) + "\n").encode()

    is_ = lambda kind: (lambda r: r["record"] == kind)
    return {
        "changed eigenvalue": edit(is_("eigenvalue"),
                                   lambda r: {**r, "mu": "19/4"}),
        "dropped family": edit(is_("nonradial"), lambda r: None),
        "wrong mode count": edit(
            is_("mode_counts"),
            lambda r: {**r, "counts": {**r["counts"], "1": 2}}),
        "condition flipped": edit(is_("condition"),
                                  lambda r: {**r, "ok": False}),
        "zero coefficient": edit(is_("expansion"),
                                 lambda r: {**r, "coeff": 0}),
    }


def main() -> int:
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(run.ROOT, SWAP)) as fh:
        op = solve_op(SWAP, json.load(fh))
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = run.Runner([op], work)
        e2e = run.run_untraced(runner, 0.0)
        layers = run.run_traced(runner, os.path.join(work, "trace"))
        out = runner.reference[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if runner.errors or runner.failed or out is None:
        problems.append(f"swap.json run not clean: {runner.errors}")
    else:
        for what, bad in _corruptions(out).items():
            try:
                op.check(bad, b"")
                problems.append(f"check accepted a report with a {what}")
            except checks.CheckFailed:
                pass
        # a warm report that differs from the cold one is rejected too
        runner.reference[0] = out.replace(b'"7/2"', b'"7/3"')
        runner.judge([run.Outcome(0, out, b"", 0.0, 0)])
        if not runner.errors:
            problems.append("a warm report differing from the cold one passed")
    refused = Op(["chartab", "D4"], checks.check_refused, expect_rc=2)
    try:
        refused.check(b"", b"Traceback (most recent call last):\n")
        problems.append("a traceback passed as a refusal")
    except checks.CheckFailed:
        pass

    for key, printed in (("end_to_end", e2e), ("per_layer", layers)):
        named = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: u for k, (_, u) in printed.items()}
        if named != got:
            problems.append(f"{key}: BENCHMARK.json names "
                            f"{sorted(set(named) ^ set(got))} differently "
                            f"from the run, or units differ")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest ok" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
