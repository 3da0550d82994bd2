"""The decreasing-path search over symbolic_apply, kept as a reference.

residue.find_decreasing_steps tests its candidates on integer walk
states.  This is the search as it stood before that: every candidate is
a full token list, walked from the class root by symbolic_apply and
judged by worst_ratio.  The tests check that both searches return the
same steps.

_t_steps is the walk-state T step as it stood before residue._t_steps
jumped up to eight steps per table lookup: one bit at a time.  The
tests check that both give the same state.
"""

import itertools
from typing import Optional, Sequence

from wildsemi.residue import T_STEP, ResidueClass, SearchLimits, symbolic_apply, worst_ratio

_State = tuple[int, int, int, int, int]


def _t_steps(state: _State, count: int) -> _State:
    """`count` T steps on a walk state; the caller keeps count <= r."""
    a, b, t, u, r = state
    for _ in range(count):
        if u & 1:
            a *= 3
            b = 3 * b + (1 << t)
            u = (3 * u + 1) >> 1
        else:
            u >>= 1
        t += 1
        r -= 1
        u &= (1 << r) - 1
    return a, b, t, u, r


def find_decreasing_steps(
    cls: ResidueClass, products: Sequence[int], limits: SearchLimits
) -> Optional[tuple[str, ...]]:
    """First step sequence (by the search order) with worst ratio < 1.

    Order: fewer multiplications first, then smaller multiplier
    products, then earlier insertion positions.  Exactly j T steps;
    multiplications may sit before any of them.
    """
    j = cls.j
    base_steps = [T_STEP] * j

    def ratio_below_one(steps: list[str]) -> bool:
        amap = symbolic_apply(cls, steps)
        return worst_ratio(cls, amap) < 1

    if ratio_below_one(base_steps):
        return tuple(base_steps)
    if limits.max_muls >= 1:
        for m in products:
            tok = f"x{m}"
            for pos in range(j):
                steps = base_steps[:pos] + [tok] + base_steps[pos:]
                if ratio_below_one(steps):
                    return tuple(steps)
    if limits.max_muls >= 2:
        pairs = sorted(
            itertools.combinations_with_replacement(products, 2),
            key=lambda pq: (pq[0] * pq[1], pq),
        )
        for m1, m2 in pairs:
            for p1, p2 in itertools.combinations(range(j), 2):
                steps = list(base_steps)
                # insert deeper position first so indices stay valid
                steps.insert(p2, f"x{m2}")
                steps.insert(p1, f"x{m1}")
                if ratio_below_one(steps):
                    return tuple(steps)
            # both multipliers at distinct spots only; a shared spot is
            # the single product m1*m2, already tried if under the cap
    return None
