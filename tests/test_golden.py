"""Byte-stable reports: fresh `solve` output against frozen files.

The files under ``golden/`` are the reports of ``examples_local/cube.json``
(JSON and text) and ``examples_local/swap.json`` (JSON).  Each is compared
byte for byte twice: from an empty catalog cache, which builds and stores
the catalog, and again from the stored one.
"""
import os

import pytest

from discdeg import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("fmt, problem, golden", [
    ("json", "cube.json", "cube.jsonl"),
    ("text", "cube.json", "cube.txt"),
    ("json", "swap.json", "swap.jsonl"),
])
def test_solve_report_matches_golden_cold_and_warm(fmt, problem, golden,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    with open(os.path.join(GOLDEN, golden)) as fh:
        want = fh.read()
    argv = ["--format", fmt, "solve",
            os.path.join(ROOT, "examples_local", problem)]
    for cache in ("cold", "warm"):
        assert cli.main(argv) == 0, cache
        assert capsys.readouterr().out == want, cache
    assert len(os.listdir(tmp_path)) == 2       # the head list and the catalog
