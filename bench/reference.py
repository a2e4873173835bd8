"""A fixed piece of Python work that gauges how fast the machine runs Python right now.

On a shared virtual machine the speed of one core drifts by 10-30% over
tens of seconds with the load of other tenants, so a rate in plain
seconds moves as much from run to run as a real change would.  The
benchmark runs this kernel between commands and counts command time in
reference seconds: a reference second is the time the kernel takes
NOMINAL_RUNS times over, gauged next to the commands it scales.

The kernel mixes the two kinds of work the program does: bytecode over
small ints, tuples and dicts, as in the graph code and the coloring
search, and Fraction arithmetic with string formatting, as in the exact
linear algebra and the output.  Each kind alone tracked some workloads
and not others.
"""

import gc
import time
from fractions import Fraction

NOMINAL_RUNS = 50   # kernel runs per reference second


def kernel():
    table = {}
    acc = 0
    for i in range(30_000):
        t = (i * 2654435761 + acc) % 1000003
        table[t & 511] = (t, acc)
        acc = (acc * 31 + t) % 998244353
    total = Fraction(0)
    rows = []
    for i in range(1, 1250):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        row = (i, i * 3 % 11, -1 if i & 1 else 1)
        table[row[1]] = row
        rows.append(f"{row[0]} {row[1]} {row[2]}")
    return acc, total, len(rows)


def reference_second(runs=1):
    """The length of one reference second now, in seconds, from `runs` kernel runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(runs):
            kernel()
        return (time.perf_counter() - start) / runs * NOMINAL_RUNS
    finally:
        if enabled:
            gc.enable()
