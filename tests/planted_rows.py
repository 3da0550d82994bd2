"""Witness rows with faults planted in them, for the induction driver's tests.

Hypothesis 3 reads each level's rows from `wildprove.smooth_pair_rows`;
`planting` wraps that search, `smooth_pair_rows(qs, u)`, so it returns
the row of one prime changed.
"""

import numpy as np

from wildsemi.wildprove import WitnessRows

COLUMNS = ("q", "s1", "s2", "n")


def plant(rows, q, **changes):
    """rows with the row of q changed: s1, s2 and n as ints."""
    i = int(np.flatnonzero(rows.q == q)[0])
    columns = {name: getattr(rows, name).copy() for name in COLUMNS}
    for name, value in changes.items():
        columns[name][i] = value
    return WitnessRows(**columns)


def planting(search, q, **changes):
    """A stand-in for smooth_pair_rows that plants changes into the row of q, when q is searched."""

    def planted(qs, u):
        rows = search(qs, u)
        return plant(rows, q, **changes) if q in rows.q else rows

    return planted


UNRESOLVED = {"s1": 0, "s2": 0, "n": 0}  # a row the search found no pair for
