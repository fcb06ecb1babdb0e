"""Sharp dimension oracle for the power-sum vanishing conditions.

Every construction's self-orthogonality reduces to conditions of the form

    s + t1 + t2*q  is not 0 (mod M)   for all 0 <= t1, t2 <= k - 1,

one condition (M, s) per constituent subgroup.  ``first_violation`` returns
the smallest bound B at which a condition first fails, i.e. the sharp upper
limit on the number of rows:  k rows are admissible iff k <= B.
It costs O(log^2 M) integer operations, so q up to 2^63 is answered at
once.
"""

from __future__ import annotations


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n, a, b >= 0 and m >= 1,
    by the Euclid-like reduction: O(log m) steps."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y = a * n + b
        if y < m:
            return total
        n, b = divmod(y, m)
        m, a = a, m


def _hits(M: int, a: int, c: int, B: int) -> bool:
    """Whether (c + a*t) mod M <= B for some 0 <= t <= B, where 0 <= B < M.

    x mod M <= B iff floor(x/M) - floor((x - B - 1)/M) = 1, so the number
    of such t is a difference of two floor sums.
    """
    n = B + 1
    count = (_floor_sum(n, M, a, c) + n
             - _floor_sum(n, M, a, c - B - 1 + M))
    return count > 0


def first_violation(M: int, s: int, q: int) -> int:
    """Smallest B = max(t1, t2) over solutions of s + t1 + t2*q = 0 (mod M).

    A bound B is reached iff some t2 <= B has partner t1 = (-s - t2*q) mod M
    <= B.  That predicate is monotone in B and holds at B = (-s) mod M
    (t2 = 0), so a binary search over O(log M) floor-sum queries finds the
    smallest B.
    """
    if M < 1:
        raise ValueError("modulus must be positive")
    c, a = (-s) % M, (-q) % M
    lo, hi = 0, c
    while lo < hi:
        mid = (lo + hi) // 2
        if _hits(M, a, c, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def max_dim(conditions: tuple[tuple[int, int], ...], q: int) -> int:
    """Sharp dimension bound: the minimum first violation over all conditions."""
    return min(first_violation(M, s, q) for M, s in conditions)
