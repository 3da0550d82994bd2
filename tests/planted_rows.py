"""Witness rows with faults planted in them, for the induction driver's tests.

The driver reads each level's rows from `wildprove.smooth_pair_rows` and
keeps them through `WildContext.keep_rows`; these helpers change or drop
rows at those two calls.
"""

import numpy as np

from wildsemi.wildprove import WitnessRows

COLUMNS = ("q", "s1", "s2", "n")


def _rebuild(rows, keep, changes):
    """rows restricted to the indices in keep, with changes[i] (a dict of columns) applied to row i."""
    table = [{name: int(getattr(rows, name)[i]) for name in COLUMNS} | changes.get(i, {}) for i in keep]
    return WitnessRows(**{name: np.array([row[name] for row in table], dtype=np.int64) for name in COLUMNS})


def plant(rows, q, **changes):
    """rows with the row of q changed: s1, s2 and n as ints."""
    i = int(np.flatnonzero(rows.q == q)[0])
    return _rebuild(rows, range(rows.q.size), {i: changes})


def drop(rows, qs):
    """rows without the rows of the primes in qs."""
    return _rebuild(rows, [i for i, q in enumerate(rows.q.tolist()) if q not in qs], {})


def planting(search, q, **changes):
    """A stand-in for smooth_pair_rows that plants changes into the row of q, when q is searched."""

    def planted(qs, flags):
        rows = search(qs, flags)
        return plant(rows, q, **changes) if q in rows.q else rows

    return planted


UNRESOLVED = {"s1": 0, "s2": 0, "n": 0}  # a row the search found no pair for
