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
characteristic two a point whose sum vanishes is left out, so unit-weight
parts give the parity union (the points in an odd number of subgroups); in
odd characteristic a vanishing sum is an error.  The mixed union weights
its even part by a subfield element H, picked by ``find_h_shift_exponent``
so that no shared point's sum vanishes.  A set records the parts it was
built from, and ``EvalSet`` checks on construction that its arrays are
exactly their union, so that the Gram check may read its entries off the
parts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, NoValidH, NotChar2, WeightSumVanishes
from .field import Field, mulmod


@dataclass(frozen=True, eq=False)
class EvalSet:
    """Distinct evaluation points with nonzero subfield weights.

    points and weights are read-only int64 arrays of exponents; sequences
    are converted on construction.  ``parts``, when given, is the list of
    parts (m, alpha, beta) the set is the weighted union of, alpha and beta
    reduced mod N, and the arrays are checked on construction to be
    exactly that union (``_check_parts``); the Gram check then reads every
    entry off the parts.
    """

    field: Field
    points: np.ndarray
    weights: np.ndarray
    label: str
    parts: tuple[tuple[int, int, int], ...] | None = None

    def __post_init__(self):
        for name in ("points", "weights"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        pts, N = self.points, self.field.N
        if len(pts) != len(self.weights):
            raise HypothesisViolated("one weight per point is needed")
        if not (pts[1:] > pts[:-1]).all():  # the builders' points ascend
            pts = np.sort(pts)
            if (pts[1:] == pts[:-1]).any():
                raise HypothesisViolated("evaluation points must be distinct")
        if len(pts) and (pts[0] < 0 or pts[-1] >= N):
            raise HypothesisViolated("point exponent outside [0, N)")
        if self.parts is not None:
            parts = tuple((int(m), int(alpha) % N, int(beta) % N)
                          for m, alpha, beta in self.parts)
            object.__setattr__(self, "parts", parts)
            _check_parts(self.field, self.points, self.weights, parts)
        # unit weights (all zero) need no pass of %
        elif self.weights.any() and (self.weights % (self.field.q + 1)).any():
            raise HypothesisViolated("weight outside the subfield")

    def __len__(self) -> int:
        return len(self.points)


def _check_parts(field: Field, E: np.ndarray, W: np.ndarray,
                 parts: tuple[tuple[int, int, int], ...]) -> None:
    """Raise HypothesisViolated unless the distinct points E, with weights
    W, are exactly the union of ``parts`` that ``weighted_union`` builds.
    It takes a few passes over the points per part and builds no N-entry
    array.

    Each part's weight must lie in GF(q), which (q+1) | beta and
    (q+1) | alpha*m decide.  There must be as many points as the union
    holds (``union_size``, the parity form in characteristic 2), and each
    weight must be beta + alpha*e + log(j mod p) for the parts of one
    weight, j of which hold the point; j = 0, a point outside every part,
    and j = 0 mod p have no log and are refused.  Together these leave
    exactly the union's points.  Where parts of different weights meet (a
    mixed union's shared points) the weight must be the log of the packed
    sum of theirs, read from the field's tables.  In characteristic 2 such
    a sum may vanish and drop its point, which no count foresees, so a
    union of several weights there has no parts to check."""
    N, p, q = field.N, field.p, field.q
    if not parts:
        raise HypothesisViolated("a union needs at least one part")
    classes: dict[tuple[int, int], list[int]] = {}
    for m, alpha, beta in parts:
        if m < 1 or N % m != 0:
            raise HypothesisViolated(f"m = {m} does not divide {N}")
        if beta % (q + 1) or alpha * m % (q + 1):
            raise HypothesisViolated("weight outside the subfield")
        classes.setdefault((alpha, beta), []).append(m)
    if p == 2 and len(classes) > 1:
        raise HypothesisViolated("a characteristic-2 union of several "
                                 "weights has no checkable parts")
    size = union_size(N, tuple(m for m, _, _ in parts), p == 2)
    if len(E) != size:
        raise HypothesisViolated(f"{len(E)} points where the parts hold "
                                 f"{size}")
    # per weight, the points where its parts' sum is nonzero, and that
    # sum's exponent (valid on those points only)
    owns, exps = [], []
    for (alpha, beta), ms in classes.items():
        held = [E % m == 0 for m in ms]
        log_j = 0
        if len(ms) == 1:
            owns.append(held[0])
        else:
            j = sum(h.view(np.int8) for h in held)
            log_j = field.prime_logs[j % p if len(ms) >= p else j]
            owns.append(log_j >= 0)
        exps.append((beta + mulmod(alpha, E, N) + log_j) % N
                    if alpha or beta or len(ms) > 1 else 0)
    owned, want = owns[0], exps[0]
    if len(classes) > 1:
        at = np.stack([np.where(o, e, -1) for o, e in zip(owns, exps)])
        want = at.max(axis=0)
        shared = np.flatnonzero((at >= 0).sum(axis=0) > 1)
        # exp0[-1] is the zero vector, and a vanishing sum's log is -1
        want[shared] = field.tables[1][functools.reduce(
            field.np_packed_add, field.exp0[at[:, shared]])]
        owned = want >= 0
    if not owned.all() or (W != want).any():
        raise HypothesisViolated("the points and weights are not the union "
                                 "of the parts")


def _union_points(field: Field, ms) -> np.ndarray:
    """Ascending exponents of the points in some subgroup m in ``ms``.
    Marking one N-entry mask costs less than sorting or hashing the
    subgroups' exponents."""
    mask = np.zeros(field.N, dtype=bool)
    for m in ms:
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
    their weights.  j parts of one weight add up to j * theta^(beta +
    alpha*e), with log j read from ``Field.prime_logs``, so only the points
    held by parts of different weights are summed as packed vectors; those
    sums need the field's exp/log tables (at most 2^22 elements).

    In characteristic 2 a point whose combined weight is zero is left out.
    In odd characteristic WeightSumVanishes is raised at the smallest such
    point.  The set records its parts, except a characteristic-2 union of
    several weights, whose dropped points no count foresees (no route
    builds one).
    """
    N, p = field.N, field.p
    groups: dict[tuple[int, int], list[int]] = {}
    for m, alpha, beta in parts:
        if m < 1 or N % m != 0:
            raise HypothesisViolated(f"m = {m} does not divide {N}")
        groups.setdefault((alpha % N, beta % N), []).append(m)
    rows = []  # per weight: its points and the exponent of its sum on each
    for (alpha, beta), ms in groups.items():
        if len(ms) == 1:
            pts = np.arange(0, N, ms[0], dtype=np.int64)
        else:
            count = np.zeros(N, dtype=np.min_scalar_type(len(ms)))
            for m in ms:
                count[::m] += 1
            if p == 2:  # j * w is w for odd j and 0 for even j
                count &= 1
                count = count.view(bool)  # which flatnonzero reads faster
            pts = np.flatnonzero(count).astype(np.int64, copy=False)
        # zeros are mapped lazily, so unit weights cost no pass of writes
        exps = np.zeros(len(pts), dtype=np.int64)
        if alpha or beta:
            exps = (beta + mulmod(alpha, pts, N)) % N
        if len(ms) > 1 and p != 2:
            log_j = field.prime_logs[np.arange(len(ms) + 1) % p][count[pts]]
            exps = np.where(log_j < 0, -1, (exps + log_j) % N)
        rows.append((pts, exps))
    if len(rows) == 1:
        (pts, weights), = rows
    else:  # every weight's exponent at every point, -1 off its points
        pts = _union_points(field, [m for m, _, _ in parts])
        at = np.full((len(rows), len(pts)), -1, dtype=np.int64)
        for row, (held, exps) in zip(at, rows):
            row[np.searchsorted(pts, held)] = exps
        weights = at.max(axis=0)
        shared = np.flatnonzero((at >= 0).sum(axis=0) > 1)
        # exp0[-1] is the zero vector
        weights[shared] = field.tables[1][functools.reduce(
            field.np_packed_add, field.exp0[at[:, shared]])]
    # one part's weight never vanishes
    vanish = np.flatnonzero(weights < 0) if len(parts) > 1 else ()
    if len(vanish):
        if p != 2:
            raise WeightSumVanishes(
                f"combined weight vanishes at point exponent "
                f"{pts[vanish[0]]} ({label})")
        pts, weights = np.delete(pts, vanish), np.delete(weights, vanish)
    return EvalSet(field, pts, weights, label,
                   None if p == 2 and len(rows) > 1 else parts)


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
