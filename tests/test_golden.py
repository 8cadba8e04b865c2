"""Byte-stable reports: fresh command output against frozen files.

The files under ``golden/`` are the `solve` reports of
``examples_local/cube.json`` (JSON and text), ``examples_local/swap.json``
and ``examples_local/cube61.json`` (JSON), the `ccs` class lists of the
S4xZ2 cube catalog and of S3xZ2 on heads 1,2,3,6 (cid, name, kind and
Weyl order of every class, in cid order), and the `ccs` subgroup classes
of S5xZ2 (cid, name, order, Weyl order and size).  The cube(6,1) report
was written with every count on the catalog-wide grid D_P, P = 1,440.
Each is compared byte for byte twice: from an empty catalog cache, which
builds and stores the catalog, and again from the stored one.
``golden/folds_s4z2.jsonl``, every fold of the cube catalog, is checked
in-process by test_catalog.py.
"""
import os

import pytest

from discdeg import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _solve(fmt, problem, golden):
    return pytest.param(["--format", fmt, "solve",
                         os.path.join(ROOT, "examples_local", problem)],
                        golden, 2, id=f"{fmt}-{problem}-{golden}")


def _ccs(group, heads, golden):
    return pytest.param(["--format", "json", "ccs", group, "--heads", heads],
                        golden, 1, id=f"ccs-{group}-{golden}")


# `solve` stores the head list and the catalog, `ccs --heads` only the
# catalog, and `ccs` of a plain group nothing
@pytest.mark.parametrize("argv, golden, n_files", [
    _solve("json", "cube.json", "cube.jsonl"),
    _solve("text", "cube.json", "cube.txt"),
    _solve("json", "swap.json", "swap.jsonl"),
    _solve("json", "cube61.json", "cube61.jsonl"),
    _ccs("S4*Z2", "1,2,3,4,6,8,9,12,18", "ccs_s4z2.jsonl"),
    _ccs("S3*Z2", "1,2,3,6", "ccs_s3z2.jsonl"),
    pytest.param(["--format", "json", "ccs", "S5*Z2"], "ccs_s5z2.jsonl", 0,
                 id="ccs-S5*Z2-ccs_s5z2.jsonl"),
])
def test_solve_report_matches_golden_cold_and_warm(argv, golden, n_files,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    with open(os.path.join(GOLDEN, golden)) as fh:
        want = fh.read()
    for cache in ("cold", "warm"):
        assert cli.main(argv) == 0, cache
        assert capsys.readouterr().out == want, cache
    assert len(os.listdir(tmp_path)) == n_files
