"""Weighted evaluation sets: unions of multiplicative subgroups.

An evaluation set is a list of distinct nonzero points of GF(q^2) together
with a nonzero GF(q)-weight per point.  Points and weights are carried by
exponent, as read-only int64 numpy arrays from construction to the Gram
check; the builders keep the points sorted ascending, which fixes the column
order of every generator matrix built from the set.

Subgroups are indexed by divisors m of N = q^2 - 1 (the subgroup of order
N/m, i.e. the exponents ``arange(0, N, m)``).  Three kinds of unions appear,
each marked on one boolean mask over the N exponents:

  * parity-filtered unions in characteristic two (overlap points cancel,
    so only points counted an odd number of times are kept, all with
    weight 1);
  * weighted unions in odd characteristic, where each constituent carries a
    weight of the form theta^beta * x^alpha and overlap points receive the
    sum of their constituents' weights, added as packed vectors over the
    points e with e % m == 0;
  * the mixed union, whose even-part weight is shifted by a subfield
    element H picked by ``find_h_shift_exponent`` so that no shared
    point's combined weight vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (HypothesisViolated, NoValidH, NotChar2, NotCoprime,
                     WeightSumVanishes)
from .field import Field


@dataclass(frozen=True, eq=False)
class EvalSet:
    """Distinct evaluation points with nonzero subfield weights.

    points and weights are read-only int64 arrays of exponents; sequences
    are converted on construction.
    """

    field: Field
    points: np.ndarray
    weights: np.ndarray
    label: str

    def __post_init__(self):
        for name in ("points", "weights"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        pts = self.points
        if not (pts[1:] > pts[:-1]).all():  # the builders' points ascend
            pts = np.sort(pts)
            if (pts[1:] == pts[:-1]).any():
                raise HypothesisViolated("evaluation points must be distinct")
        if np.any(self.weights % (self.field.q + 1)):
            raise HypothesisViolated("weight outside the subfield")

    def __len__(self) -> int:
        return len(self.points)


def _check_divisor(field: Field, m: int) -> None:
    if m < 1 or field.N % m != 0:
        raise HypothesisViolated(f"m = {m} does not divide {field.N}")


def _union_points(field: Field, ms, parity: bool) -> np.ndarray:
    """Ascending exponents of the points in some subgroup m in ``ms``, or,
    with ``parity``, in an odd number of them.  Marking one N-entry mask
    costs less than sorting or hashing the subgroups' exponents."""
    mask = np.zeros(field.N, dtype=bool)
    for m in ms:
        _check_divisor(field, m)
        if parity:
            mask[::m] ^= True
        else:
            mask[::m] = True
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def subgroup_set(field: Field, m: int) -> EvalSet:
    """The order-N/m subgroup with unit weights."""
    _check_divisor(field, m)
    pts = np.arange(0, field.N, m, dtype=np.int64)
    return EvalSet(field, pts, np.zeros_like(pts), f"subgroup(m={m})")


def union_size(N: int, ms: tuple[int, ...], parity: bool = False) -> int:
    """Size of the union of the subgroups, or, with ``parity``, of the
    points in an odd number of them, by inclusion-exclusion: a point in j
    of the subgroups counts sum_i C(j, i)(-1)^(i-1) = 1 time, or
    sum_i C(j, i)(-2)^(i-1) = j mod 2 times."""
    total = 0
    k = len(ms)
    for mask in range(1, 1 << k):
        chosen = [ms[i] for i in range(k) if mask >> i & 1]
        sign = (-2 if parity else -1) ** (bin(mask).count("1") - 1)
        total += sign * (N // math.lcm(*chosen))
    return total


def parity_union_char2(field: Field, ms: tuple[int, ...]) -> EvalSet:
    """Char-2 union keeping points that lie in an odd number of subgroups."""
    if field.p != 2:
        raise NotChar2("parity-filtered union needs characteristic 2")
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if math.gcd(ms[i], ms[j]) != 1:
                raise NotCoprime(f"gcd({ms[i]}, {ms[j]}) != 1")
    pts = _union_points(field, ms, parity=True)
    return EvalSet(field, pts, np.zeros_like(pts),
                   f"parity_union(ms={','.join(map(str, ms))})")


def weighted_union(field: Field, parts: tuple[tuple[int, int, int], ...],
                   label: str) -> EvalSet:
    """Full union where part (m, alpha, beta) weights its subgroup by
    theta^beta * x^alpha; overlap points get the sum of their parts' weights.
    The sums are taken on packed vectors, so the field needs its exp/log
    tables (at most 2^22 elements).

    Raises WeightSumVanishes at the smallest point whose combined weight is
    zero.
    """
    N = field.N
    pts = _union_points(field, [m for m, _, _ in parts], parity=False)
    exp0, log = field.exp0, field.tables[1]
    packed = np.zeros(len(pts), dtype=np.int64)
    for m, alpha, beta in parts:
        hit = pts % m == 0
        packed[hit] = field.np_packed_add(
            packed[hit], exp0[(beta % N + alpha % N * pts[hit]) % N])
    weights = log[packed]
    vanish = np.flatnonzero(weights < 0)
    if vanish.size:
        raise WeightSumVanishes(f"combined weight vanishes at point exponent "
                           f"{pts[vanish[0]]} ({label})")
    return EvalSet(field, pts, weights, label)


# --------------------------------------------------------------------------
# the subfield shift H for the mixed union
# --------------------------------------------------------------------------

def shared_weight_obstructions(q: int, m1: int, m2: int) -> tuple[int, int]:
    """The exponents H must avoid, as the coset r + gZ (mod N); returns
    (r, g) with g | N.

    On a shared point x the combined weight is x^(q+1) + H x^((q+1)/2) =
    a(a + H) with a = x^((q+1)/2), so exactly the values H = -a are
    forbidden.  The shared points are the exponents e in lcm(m1, m2)Z mod
    N, and -a = theta^(N/2 + e(q+1)/2), so the forbidden exponents form the
    subgroup generated by lcm(m1, m2)(q+1)/2, shifted by N/2.
    """
    N = q * q - 1
    g = math.gcd(N, math.lcm(m1, m2) * (q + 1) // 2)
    return N // 2 % g, g


def find_h_shift_exponent(q: int, m1: int, m2: int) -> int:
    """Smallest-exponent nonzero subfield element H whose shift keeps every
    shared point's combined weight nonzero."""
    if q % 2 == 0:
        raise HypothesisViolated("mixed union needs odd q")
    if m1 % 2 != 1 or (q + 1) % m1 != 0:
        raise HypothesisViolated(f"m1 = {m1} must be an odd divisor of q + 1")
    if m2 % 2 != 0 or (q - 1) % m2 != 0:
        raise HypothesisViolated(f"m2 = {m2} must be an even divisor of q - 1")
    r, g = shared_weight_obstructions(q, m1, m2)
    # if t = 0 and t = 1 are both forbidden, then r = 0 and g | q + 1, so
    # every t(q + 1) lies in the coset: no later t need be tried
    for t in range(2):
        cand = t * (q + 1)
        if cand % g != r:
            return cand
    raise NoValidH(f"every subfield shift fails for (q={q}, m1={m1}, m2={m2})")


def mixed_union(field: Field, m1: int, m2: int) -> tuple[EvalSet, int]:
    """Union of the odd-part subgroup (weight x^(q+1)) and the even-part
    subgroup (weight H x^((q+1)/2)); returns the set and the exponent of H."""
    H = find_h_shift_exponent(field.q, m1, m2)
    q = field.q
    es = weighted_union(
        field,
        ((m1, q + 1, 0), (m2, (q + 1) // 2, H)),
        f"mixed_union(m1={m1}, m2={m2})")
    return es, H
