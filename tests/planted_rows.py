"""Witness rows with faults planted in them, for the induction driver's tests.

The driver reads each level's rows from `wildprove.smooth_pair_rows` and
keeps them through `WildContext.keep_rows`; these helpers change or drop
rows at those two calls.
"""

import numpy as np

from wildsemi.wildprove import WitnessRows


def _rebuild(rows, keep, changes):
    """rows restricted to the indices in keep, with changes[i] (a dict of columns) applied to row i."""
    columns = {name: [] for name in ("q", "s1", "s2", "n", "primes")}
    for i in keep:
        row = {name: int(getattr(rows, name)[i]) for name in ("q", "s1", "s2", "n")}
        row["primes"] = rows.primes[rows.offsets[i] : rows.offsets[i + 1]].tolist()
        row.update(changes.get(i, {}))
        for name, value in row.items():
            columns[name].append(value)
    factors = columns.pop("primes")
    return WitnessRows(
        **{name: np.array(values, dtype=np.int64) for name, values in columns.items()},
        offsets=np.cumsum([0] + [len(f) for f in factors]),
        primes=np.array([p for f in factors for p in f], dtype=np.int64),
    )


def plant(rows, q, **changes):
    """rows with the row of q changed: s1, s2 and n as ints, primes as the factor list (with repeats)."""
    i = int(np.flatnonzero(rows.q == q)[0])
    return _rebuild(rows, range(rows.q.size), {i: changes})


def drop(rows, qs):
    """rows without the rows of the primes in qs."""
    return _rebuild(rows, [i for i, q in enumerate(rows.q.tolist()) if q not in qs], {})


def planting(search, q, **changes):
    """A stand-in for smooth_pair_rows that plants changes into the row of q, when q is searched."""

    def planted(qs, unit_gpf):
        rows = search(qs, unit_gpf)
        return plant(rows, q, **changes) if q in rows.q else rows

    return planted


UNRESOLVED = {"s1": 0, "s2": 0, "n": 0, "primes": []}  # a row the search found no pair for
