"""Power sums over multiplicative subgroups of GF(q^2)*.

For a divisor m of N = q^2 - 1 let M_m = {theta^(jm)} be the subgroup of
order N/m.  The basic quantity is S(m, t) = sum of u^t over u in M_m, which
is zero unless (N/m) | t and otherwise equals (N/m) mod p (nonzero, since
N is coprime to p).  Everything self-orthogonality-related reduces to
evaluating such sums.  Only the closed form lives here; the tests check it
against direct accumulation over the subgroup, one scalar field addition at
a time.
"""

from __future__ import annotations

from .errors import BadDivisor
from .field import Elt, Field


def _check_divisor(field: Field, m: int) -> int:
    if m < 1 or field.N % m != 0:
        raise BadDivisor(f"m = {m} does not divide {field.N}")
    return field.N // m


def subgroup_power_sum_closed(field: Field, m: int, t: int) -> Elt:
    """S(m, t) via the closed form: zero unless (N/m) | t, else (N/m) mod p."""
    order = _check_divisor(field, m)
    if t % order != 0:
        return None
    return field.embed_int(order % field.p)


def power_sum_vanishes(field: Field, m: int, t: int) -> bool:
    """True iff S(m, t) = 0, i.e. iff N/m does not divide t.

    The boundary case (N/m) | t never vanishes: the sum is then (N/m) mod p
    and N/m is coprime to p.
    """
    order = _check_divisor(field, m)
    return t % order != 0
