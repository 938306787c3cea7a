"""Fixed reference work that measures how fast the machine runs right now.

    python3 perfbench/calibrate.py

run.py times this program next to every pass and set-up probe and scales
their wall times by REF_S / (its wall time), so that a timing reads the
same whatever speed a shared host gives the benchmark at that moment.  It
does the kinds of work the foliadex CLI does: start an interpreter, import
the standard modules the CLI uses, do exact rational arithmetic, build
dicts and lists, and encode and decode JSON.  It imports nothing from the
repository, so no change to the program can move it.

Do not change the work it does: every timing ever recorded is scaled by
it, and a changed reference would move them all.  It prints one checksum,
which run.py checks, so that a run that skipped the work cannot pass.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import csv  # noqa: F401
import dataclasses  # noqa: F401
import itertools  # noqa: F401
import json
from fractions import Fraction

ROUNDS = 4
TERMS = 1500


def work() -> int:
    checksum = 0
    for round_ in range(ROUNDS):
        total = Fraction(0)
        table = {}
        for i in range(1, TERMS):
            total += Fraction(i % 97 + 1, i % 13 + 2 + round_)
            table[str(i)] = [i, i * i % 1009, str(total.denominator % 1000)]
        decoded = json.loads(json.dumps(table))
        checksum = (checksum * 31 + len(decoded) + total.numerator % 1000003) % 1000000007
    return checksum


if __name__ == "__main__":
    print(work())
