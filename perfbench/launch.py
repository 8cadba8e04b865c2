"""Run ``discdeg`` from this checkout's sources, as its console script does.

    python3 perfbench/launch.py [discdeg arguments]
"""
import os
import sys

sys.path[0] = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

from discdeg.cli import main  # noqa: E402

sys.exit(main())
