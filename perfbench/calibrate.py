"""A fixed unit of work that gauges the machine's current speed.

    python3 perfbench/calibrate.py

It does what a ``discdeg`` call does, in fixed amounts and with code that
never changes: interpreter start-up, the numpy and scipy imports, tuple,
set and dict work on small integers, Fraction arithmetic, and a pickle
round trip of a nested structure like a catalog.  run.py times it as a
fresh process next to the program's passes and scales the program's times
by it (see README.md, "Machine speed").  It prints one checksum, so the
work cannot silently change.
"""
import pickle
import sys
from fractions import Fraction

import numpy
import scipy.optimize  # noqa: F401  (imported for its cost, as discdeg does)
import scipy.special


def main() -> int:
    # set and dict work on tuples of small integers, as in the lattice code
    table: dict = {}
    seen = set()
    acc = 0
    for i in range(80_000):
        key = (i % 97, (i * 7) % 144, i & 15)
        if key in seen:
            acc += table[key]
        else:
            seen.add(key)
        table[key] = table.get(key, 0) + (i & 255)
    # exact rational sums, as in the eigenvalue and degree code
    total = Fraction(0)
    for k in range(1, 1_000):
        total += Fraction(k % 13 + 1, k % 11 + 2)
    # a catalog-like structure through pickle, as in a cache read
    rows = [(i, frozenset(range(i % 23)), (i % 144, i % 9)) for i in range(15_000)]
    back = pickle.loads(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
    # a little numpy and Bessel work
    zeros = scipy.special.jn_zeros(3, 20)
    grid = numpy.linspace(0.0, 20.0, 20_001)
    vals = scipy.special.jv(2, grid)
    print(acc % 1_000_003, len(table), total.numerator % 1_000_003,
          len(back), round(float(zeros.sum()), 6),
          round(float(numpy.abs(vals).sum()), 3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
