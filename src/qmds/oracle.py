"""Sharp dimension oracle for the power-sum vanishing conditions.

Every construction's self-orthogonality reduces to conditions of the form

    s + t1 + t2*q  is not 0 (mod M)   for all 0 <= t1, t2 <= k - 1,

one condition (M, s) per constituent subgroup.  ``first_violation`` returns
the smallest bound B at which a condition first fails, i.e. the sharp upper
limit on the number of rows:  k rows are admissible iff k <= B.

Each t2 = t has least partner t1 = f(t) = (c - b*t) mod M, with
c = (-s) mod M and b = q mod M, so B = min over t >= 0 of max(t, f(t)).
A t is never better than the last record low of f at or before it, so only
the records count.  From a record (t, f) the next is (t + d, f - r), where
(d, r) is the first running minimum r = b*d mod M, d >= 1, with r <= f;
the same step repeats floor(f/r) times, so each run of records is one
arithmetic progression whose best point is found in closed form.  The
running minima come from a Stern-Brocot descent towards b/M, and f at
least halves from one run to the next, so one walk costs O(log M) integer
operations and q up to 2^63 is answered at once.
"""

from __future__ import annotations


def first_violation(M: int, s: int, q: int) -> int:
    """Smallest B = max(t1, t2) over solutions of s + t1 + t2*q = 0 (mod M),
    by one walk over the record lows of f(t2) = (-s - t2*q) mod M."""
    if M < 1:
        raise ValueError("modulus must be positive")
    c, b = (-s) % M, q % M
    best = c  # t2 = 0, t1 = c
    if b == 0:
        return best
    # lower bound (dL, rL = b*dL mod M) and upper bound (dU, sU = -b*dU mod M)
    # of the descent; every lower bound it passes is a running minimum
    dL, rL, dU, sU = 1, b, 0, M
    t, f = 0, c
    while f and t < best:
        while rL > f:  # descend to the first running minimum r <= f
            if rL > sU:
                i = min(-((f - rL) // sU), (rL - 1) // sU)
                dL, rL = dL + i * dU, rL - i * sU
            elif rL < sU:
                i = (sU - 1) // rL
                dU, sU = dU + i * dL, sU - i * rL
            else:  # the next step's residue is 0: no later record
                return best
        runs = f // rL
        # max(t + i*dL, f - i*rL) is least where the two cross.  i <= runs,
        # and i >= 0: a run that ended with t > f crossed on the way and
        # left best <= t, which ended the walk
        i = (f - t) // (dL + rL)
        for j in (i, min(i + 1, runs)):
            best = min(best, max(t + j * dL, f - j * rL))
        t, f = t + runs * dL, f - runs * rL
    return best


def max_dim(conditions: tuple[tuple[int, int], ...], q: int) -> int:
    """Sharp dimension bound: the minimum first violation over all conditions."""
    return min(first_violation(M, s, q) for M, s in conditions)
