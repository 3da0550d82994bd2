"""Primes by the plain sieve of Eratosthenes over every integer.

The tests compare the package's unit sieve, prime counts and smoothness
reads against this table, so no sieve in the package is checked against
itself.
"""

import math

import numpy as np


def eratosthenes(limit):
    """flags[n] is True exactly for the primes n <= limit."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_up_to(limit):
    """The primes up to limit, ascending, as Python ints."""
    return np.flatnonzero(eratosthenes(limit)).tolist()
