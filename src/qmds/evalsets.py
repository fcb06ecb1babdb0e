"""Weighted evaluation sets: unions of multiplicative subgroups.

An evaluation set is a list of distinct nonzero points of GF(q^2) together
with a nonzero GF(q)-weight per point.  Points and weights are carried by
exponent, as read-only int64 numpy arrays from construction to the Gram
check; the points ascend, which fixes the column order of every generator
matrix built from the set.

Subgroups are indexed by divisors m of N = q^2 - 1 (the subgroup of order
N/m, i.e. the exponents ``arange(0, N, m)``).  One function,
``weighted_union``, builds every set from a list of parts (m, alpha, beta):
a part weights each point x of subgroup m by theta^beta * x^alpha, and a
point held by several parts gets the sum of their weights.  In
characteristic two the parts share one weight and a point whose sum
vanishes is left out, so unit-weight parts give the parity union (the
points in an odd number of subgroups); in odd characteristic a vanishing
sum is an error.  The mixed union weights its even part by a subfield
element H, picked by ``find_h_shift_exponent`` so that no shared point's
sum vanishes.

Every set is its part list: ``EvalSet`` takes the points and the parts,
and the Gram check reads its entries off the parts.  The builder derives
only the points, and ``EvalSet`` checks them against the parts by exponent
arithmetic alone: the count, that some part holds each point, and that no
sum vanishes.  j parts of one weight vanish exactly when p | j, and two
nonzero terms theta^a + theta^b exactly when a - b = N/2 mod N.  The
weights themselves are computed on first read, which only the generator
matrix does, from the counts the check kept: every weight lies in GF(q),
so a shared point's sum is one lookup in GF(q)'s Zech table.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import HypothesisViolated, NoValidH, NotChar2, WeightSumVanishes
from .field import Field, mulmod


class EvalSet:
    """Distinct evaluation points with nonzero subfield weights, the
    weighted union of ``parts``.

    points and weights are read-only int64 arrays of exponents; a sequence
    of points is converted on construction.  ``parts`` is the list of parts
    (m, alpha, beta) the set is the union of, alpha and beta reduced mod N.
    Construction checks the points against the parts (``_vanishing``):
    their count, that some part holds each, and that no sum vanishes.  The
    weights are the union's (``_union_weights``), computed on first read
    from the counts that check kept.  The Gram check reads every entry off
    the parts, so no certificate computes a weight; only the matrix does.
    """

    def __init__(self, field: Field, points, label: str,
                 parts: tuple[tuple[int, int, int], ...]):
        f, N = field, field.N
        self.field, self.label = field, label
        self.points = pts = _read_only(points)
        if not (pts[1:] > pts[:-1]).all():  # the builders' points ascend
            pts = np.sort(pts)
            if (pts[1:] == pts[:-1]).any():
                raise HypothesisViolated("evaluation points must be distinct")
        if len(pts) and (pts[0] < 0 or pts[-1] >= N):
            raise HypothesisViolated("point exponent outside [0, N)")
        self.parts = parts = tuple((int(m), int(alpha) % N, int(beta) % N)
                                   for m, alpha, beta in parts)
        self._classes = _classes(f, parts)
        self._counts = _multiplicities(f, self.points, self._classes)
        vanish = _vanishing(f, self.points, self._classes, self._counts)
        if len(vanish):
            held = functools.reduce(np.logical_or,
                                    (j[vanish] != 0 for j in self._counts))
            # a characteristic-2 union drops its vanishing points
            if f.p == 2 or not held.all():
                raise HypothesisViolated("the points are not the union "
                                         "of the parts")
            raise WeightSumVanishes(
                f"combined weight vanishes at point exponent "
                f"{self.points[vanish].min()} ({self.label})")

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The union's weights, computed on first read."""
        return _read_only(_union_weights(self.field, self.points,
                                         self._classes, self._counts))

    def __len__(self) -> int:
        return len(self.points)


def _read_only(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _classes(field: Field, parts) -> dict[tuple[int, int], list[int]]:
    """The divisors m of the parts of each weight (alpha, beta), alpha and
    beta reduced mod N.  Raise HypothesisViolated unless every m divides N,
    every part's weight lies in GF(q), which (q+1) | beta and
    (q+1) | alpha*m decide, and a characteristic-2 union has one weight: a
    sum of several may vanish anywhere, and the parity union drops such
    points, so no count would foresee them."""
    N, q = field.N, field.q
    if not parts:
        raise HypothesisViolated("a union needs at least one part")
    for m, _, _ in parts:
        if m < 1 or N % m != 0:
            raise HypothesisViolated(f"m = {m} does not divide {N}")
    classes: dict[tuple[int, int], list[int]] = {}
    for m, alpha, beta in parts:
        alpha, beta = alpha % N, beta % N
        if beta % (q + 1) or alpha * m % (q + 1):
            raise HypothesisViolated("weight outside the subfield")
        classes.setdefault((alpha, beta), []).append(m)
    if field.p == 2 and len(classes) > 1:
        raise HypothesisViolated("a characteristic-2 union needs parts of "
                                 "one weight")
    return classes


def _multiplicities(field: Field, E: np.ndarray,
                    classes: dict[tuple[int, int], list[int]]) -> list:
    """For each weight class, the int8 count j of its parts holding each
    point of E, one pass per part.  Raise HypothesisViolated unless E has
    as many points as the union holds (``union_size``, the parity form for
    a characteristic-2 union)."""
    ms = tuple(m for group in classes.values() for m in group)
    size = union_size(field.N, ms, field.p == 2)
    if len(E) != size:
        raise HypothesisViolated(f"{len(E)} points where the parts hold "
                                 f"{size}")
    # m | e exactly when e // m * m == e; numpy divides an array by a
    # scalar two to three times faster than it takes the remainder
    return [functools.reduce(np.add, ((E // m * m == E).view(np.int8)
                                      for m in group))
            for group in classes.values()]


def _vanishing(field: Field, E: np.ndarray,
               classes: dict[tuple[int, int], list[int]],
               counts: list) -> np.ndarray:
    """The indices of the points of E that no part holds or whose weights
    add up to zero, given the ``_multiplicities`` counts of each class.
    For one or two weight classes it takes exponent arithmetic alone: no
    weight is computed and no table read.  Three or more, which no route
    builds, take the points where ``_union_weights`` is -1.

    j parts of one weight theta^c add up to j*theta^c, zero exactly when
    p | j.  When two classes both add a nonzero j*theta^c, the sum
    theta^a + theta^b, a = c_1 + log j_1 and b = c_2 + log j_2 with the
    logs of GF(p) from ``Field.prime_logs``, vanishes exactly when
    theta^(a-b) = -1, that is a - b = N/2 mod N (odd p; a
    characteristic-2 set has one class)."""
    if len(classes) > 2:
        return np.flatnonzero(_union_weights(field, E, classes, counts) < 0)
    N, p = field.N, field.p
    # j mod p for each class; a class of fewer than p parts has j < p
    js = [j % p if len(group) >= p else j
          for j, group in zip(counts, classes.values())]
    zero = ~functools.reduce(np.logical_or, (j != 0 for j in js))
    if len(js) == 2:
        both = np.flatnonzero((js[0] != 0) & (js[1] != 0))
        (a1, b1), (a2, b2) = classes
        logs = field.prime_logs
        diff = (mulmod(a1 - a2, E[both], N) + b1 - b2 + logs[js[0][both]]
                - logs[js[1][both]]) % N
        zero[both[diff == N // 2]] = True
    return np.flatnonzero(zero)


def _union_weights(field: Field, E: np.ndarray,
                   classes: dict[tuple[int, int], list[int]],
                   counts: list) -> np.ndarray:
    """The weight exponent of each point of E in the union of the parts,
    -1 where the weights of the parts that hold it add up to zero (or no
    part holds it), given the ``_multiplicities`` counts of each class.
    It takes a few passes over the points per class and builds no N-entry
    array.

    j parts of one weight (alpha, beta) holding the point e add up to
    theta^(beta + alpha*e + log(j mod p)), with the logs of GF(p) from
    ``Field.prime_logs``; j = 0 and j = 0 mod p have none.  Parts of
    different weights (a mixed union's shared points) are added in GF(q):
    theta^a + theta^b = theta^(b + (q+1)*Z[(a - b)/(q+1)]), with Z
    ``Field.subfield_zech``."""
    N, p, q = field.N, field.p, field.q
    want = None
    for j, ((alpha, beta), group) in zip(counts, classes.items()):
        # one part: log 1 = 0 where it holds the point, and -1 elsewhere
        w = j - 1 if len(group) == 1 else field.prime_logs[
            j % p if len(group) >= p else j]
        if alpha or beta:  # unit weights are 0 wherever they are held
            w = np.where(w < 0, -1, (mulmod(alpha, E, N) + beta + w) % N)
        if want is None:
            want = w
            continue
        shared = np.flatnonzero((want >= 0) & (w >= 0))
        a, b = want[shared], w[shared]
        want = np.maximum(want, w)
        z = field.subfield_zech[(a - b) % N // (q + 1)]
        want[shared] = np.where(z < 0, -1, (b + (q + 1) * z) % N)
    return want


def _union_points(N: int, ms, parity: bool = False) -> np.ndarray:
    """Ascending exponents of the points in some subgroup m in ``ms`` or,
    with ``parity``, in an odd number of them.  Marking one N-entry mask
    costs less than sorting or hashing the subgroups' exponents."""
    if len(ms) == 1:
        return np.arange(0, N, ms[0], dtype=np.int64)
    mask = np.zeros(N, dtype=bool)
    for m in ms:
        if parity:
            mask[::m] ^= True
        else:
            mask[::m] = True
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def subgroup_set(field: Field, m: int) -> EvalSet:
    """The order-N/m subgroup with unit weights."""
    return weighted_union(field, ((m, 0, 0),), f"subgroup(m={m})")


def union_size(N: int, ms: tuple[int, ...], parity: bool = False) -> int:
    """Size of the union of the subgroups, or, with ``parity``, of the
    points in an odd number of them, by inclusion-exclusion: a point in j
    of the subgroups counts sum_i C(j, i)(-1)^(i-1) = 1 time, or
    sum_i C(j, i)(-2)^(i-1) = j mod 2 times."""
    return sum((-2 if parity else -1) ** (r - 1) * (N // math.lcm(*chosen))
               for r in range(1, len(ms) + 1)
               for chosen in itertools.combinations(ms, r))


def parity_union_char2(field: Field, ms: tuple[int, ...]) -> EvalSet:
    """Char-2 union keeping points that lie in an odd number of subgroups."""
    if field.p != 2:
        raise NotChar2("parity-filtered union needs characteristic 2")
    return weighted_union(field, tuple((m, 0, 0) for m in ms),
                          f"parity_union(ms={','.join(map(str, ms))})")


def weighted_union(field: Field, parts: tuple[tuple[int, int, int], ...],
                   label: str) -> EvalSet:
    """Union where part (m, alpha, beta) weights its subgroup by
    theta^beta * x^alpha; a point held by several parts gets the sum of
    their weights.  The builder derives only the points, and ``EvalSet``
    checks them against the parts, whose weights it computes when read.

    In characteristic 2 a point whose combined weight is zero is left out:
    the parts, of one weight, give the points held an odd number of times,
    and parts of several weights raise HypothesisViolated.  In odd
    characteristic WeightSumVanishes is raised at the smallest such point.
    """
    _classes(field, parts)  # check the parts before marking their points
    return EvalSet(field, _union_points(field.N, [m for m, _, _ in parts],
                                        field.p == 2), label, parts)


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


def mixed_union(field: Field, m1: int, m2: int, H: int) -> EvalSet:
    """Union of the odd-part subgroup (weight x^(q+1)) and the even-part
    subgroup (weight theta^H x^((q+1)/2))."""
    q = field.q
    return weighted_union(field, ((m1, q + 1, 0), (m2, (q + 1) // 2, H)),
                          f"mixed_union(m1={m1}, m2={m2})")
