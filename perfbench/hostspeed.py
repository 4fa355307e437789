"""Host-speed reference used to normalize the benchmark's times.

On the shared 2-CPU host this benchmark was written on, the same Python code
runs at speeds up to 1.7x apart for stretches of ten seconds to minutes,
with almost no stolen time: the virtual CPU itself runs slower.  A timing
gate of a few tens of percent means nothing against that, so instance times
are normalized: each rotation's time is scaled by NOMINAL_S / R, where R is
the mean time of a fixed reference loop run right before and after it.

The reference uses only the standard library, so no change to costlab can
move it.  It mixes the operations costlab spends its time in: exact
``Fraction`` sums over dyadic denominators, dict stores and growing tuple
copies.
"""

from __future__ import annotations

import time
from fractions import Fraction

# reference_work() takes about this long on the host the benchmark was written on
NOMINAL_S = 0.006


def reference_work() -> tuple:
    acc = Fraction(0)
    table = {}
    row = ()
    for i in range(1, 1200):
        acc += Fraction(i % 7 + 1, 1 << (i % 48))
        table[i] = acc.denominator.bit_length()
        row += (i,)
    return acc, len(table), len(row)


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scales(refs: list[float]) -> list[float]:
    """Scale of the interval between refs[q] and refs[q + 1], for each q."""
    return [2 * NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
