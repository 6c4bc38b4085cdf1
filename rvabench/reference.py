"""A fixed reference job that gauges the machine's current speed::

    python3 rvabench/reference.py

It imports no ``rvacheck`` code, so no change to the program moves it.
It does the kinds of work a CLI job does, at a fixed size: interpreter
start and the numpy import, parsing a text table into lists, a
breadth-first search over it, dictionary grouping and a numpy sort.  The
benchmark runs it between the jobs of every timed pass and scales each
timing by how long it took (see ``run.py``).  It prints a checksum, which
the benchmark compares with ``CHECKSUM`` to make sure the job ran in full.
"""

from __future__ import annotations

import random

import numpy as np

ROWS = 20000
CHECKSUM = "18760 14159 7799 1"


def work():
    """The reference work; returns its checksum."""
    rng = random.Random(7)
    text = "\n".join(f"{rng.randrange(ROWS)} {rng.randrange(ROWS)} {rng.randrange(ROWS)}"
                     for _ in range(ROWS))
    table = [[int(x) for x in line.split()] for line in text.splitlines()]
    seen, order = {0}, [0]
    for state in order:
        for succ in table[state]:
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
    array = np.array(table) % 30
    distinct = len(np.unique(array[np.lexsort(array.T[::-1])], axis=0))
    groups = {}
    for i, row in enumerate(table):
        groups.setdefault((row[0] % 97, row[1] % 89), []).append(i)
    return f"{len(order)} {distinct} {len(groups)} {max(len(g) for g in groups.values()) // 10}"


if __name__ == "__main__":
    print(work())
