"""The seven construction routes and their certificates.

Every code here evaluates the rows x^(shift + l), l = 0..k-1, on a weighted
union of multiplicative subgroups of GF(q^2)*; N is q^2 - 1 throughout.
Each route is described once, by a ``Route`` record in ``ROUTES``.  It gives
one part (m, alpha, beta) per divisor parameter m: the subgroup of order
N/m, each point x weighted by theta^beta * x^alpha, alpha = 0, (q+1)/2 or
q+1, and beta = 0 except on mixed_union's even part, where it is the
subfield shift H.  The length, the oracle's conditions (N/m, alpha +
shift*(q+1)) and the evaluation set, built by ``evalsets.weighted_union``,
all read this list.  The record adds the parity q must have, the rule
joining two divisors, the published distance bound and, for c1_ext, a
border column that admits one more row.  Sweeps try every divisor choice
the parameters and the rule allow.

Construction identifiers (the ``construction`` field of every certificate):

  c1                subgroup of order N/m, odd m | q+1, rows x^(1..k)
  c1_ext            c1 plus a border column; one extra admissible row
  char2_union       parity-filtered union of two odd subgroups, q even
  odd_union         full union of two odd subgroups, q odd, unit weights
  half_power        one even subgroup of q-1 side, weight x^((q+1)/2)
  half_power_union  union of even subgroups, weights c_x * x^((q+1)/2)
  mixed_union       odd (q+1)-side subgroup + even (q-1)-side subgroup,
                    weights x^(q+1) and H*x^((q+1)/2)

``build`` validates the arithmetic hypotheses, consults the sharp dimension
oracle, optionally runs the matrix-level Gram check (FULL_MATRIX versus
CONDITION_ONLY), and returns a Certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dfield
from typing import Callable

from . import evalsets, oracle
from .codes import (CodeArtifact, eval_code, extend_c1, gram_zero,
                    matrix_to_strings)
from .errors import (BadDivisor, CapacityExceeded, DimensionExceedsOracle,
                     HypothesisViolated, NotChar2, NotCoprime, NotPrime,
                     NoValidH, UsageError)
from .field import TABLE_LIMIT, field_for_q
from .numtheory import divisors, is_prime_power
from .verify import QuantumParams, quantum_params

# matrix-level verification is attempted when q^2 <= 2^22, which bounds the
# set's n <= N, and the work n + sum_i k^2 m_i/(2N) is at most this: the
# parts check passes over the n points and the Gram check visits about
# k^2/(2 M_i) entries per part, M_i = N/m_i.  Neither reads a field table.
# Only ``verify_artifact`` builds the k x n matrix, and it refuses more than
# ``verify.MATRIX_ENTRY_LIMIT`` entries.
MATRIX_ENTRY_BUDGET = 100_000_000
# a FULL_MATRIX certificate's JSON carries its matrix up to this many entries
MATRIX_JSON_ENTRY_CAP = 100_000


def _require(cond: bool, msg: str,
             exc: type[HypothesisViolated] = HypothesisViolated) -> None:
    if not cond:
        raise exc(msg)


def _q_parts(q: int) -> tuple[int, int]:
    pp = is_prime_power(q)
    if pp is None:
        raise NotPrime(f"q must be a prime power, got {q}")
    return pp


# --------------------------------------------------------------------------
# route records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Divisor:
    """A divisor parameter: an odd divisor of q + 1 (>= 3) when ``odd``,
    else an even divisor of q - 1 (>= ``least``).  Its part weights the
    subgroup by x^(half*(q+1)/2), times theta^H if ``shifted``.  A ``many``
    parameter is a tuple of two or more distinct such divisors, sorted on
    validation."""

    name: str
    odd: bool
    half: int = 0
    least: int = 3
    many: bool = False
    shifted: bool = False


@dataclass(frozen=True)
class Route:
    """One construction route; see the module docstring."""

    divisors: tuple[Divisor, ...]
    # published distance bound, from q and the divisors in part order
    formula: Callable[[int, tuple[int, ...]], int]
    shift: int = 0          # rows are x^(shift + l)
    border: bool = False    # c1_ext's border column, one more row
    # q must be even (True), odd (False) or either (None); in characteristic
    # 2 a union's unit weights cancel on shared points, which are left out
    char2: bool | None = None
    # (q, two distinct divisors of one kind) -> the hypothesis they violate,
    # or None; sweeps try each ascending pair it admits
    rule: Callable[[int, tuple], HypothesisViolated | None] | None = None

    def choices(self, params: dict) -> tuple[tuple[Divisor, int], ...]:
        """(parameter, m) for each part, in parameter order."""
        return tuple((d, m) for d in self.divisors for m in (
            params[d.name] if d.many else (params[d.name],)))

    def ms(self, params: dict) -> tuple[int, ...]:
        return tuple(m for _, m in self.choices(params))

    def parts(self, q: int, params: dict,
              H: int = 0) -> tuple[tuple[int, int, int], ...]:
        """(m, alpha, beta) for each part, in parameter order: alpha =
        half*(q+1)/2, and beta = H on a shifted part, else 0."""
        return tuple((m, d.half * (q + 1) // 2, H if d.shifted else 0)
                     for d, m in self.choices(params))

    def params_of(self, ms: tuple[int, ...]) -> dict:
        if self.divisors[0].many:
            return {self.divisors[0].name: ms}
        return {d.name: m for d, m in zip(self.divisors, ms)}


def _odd_bound(q: int, ms: tuple[int, ...]) -> int:
    """(kk+1)(q-1)/(2kk+1) + 1, with 2kk + 1 the last (largest) divisor."""
    kk = (ms[-1] - 1) // 2
    return (kk + 1) * (q - 1) // (2 * kk + 1) + 1


def _half_power_bound(q: int, ms: tuple[int, ...]) -> int:
    return (q + 1) // 2 + min((q - 1) // m for m in ms)


def _two_sided_bound(q: int, ms: tuple[int, ...]) -> int:
    m1, m2 = ms
    return (q - 1) // 2 + min((q + 1) // (2 * m1), (q - 1) // m2 + 1)


def _coprime_pair(q: int, ms: tuple[int, ...]) -> HypothesisViolated | None:
    m1, m2 = ms
    if m1 >= m2:
        return HypothesisViolated(f"need m1 < m2, got {m1} >= {m2}")
    if math.gcd(m1, m2) != 1:
        return NotCoprime(f"gcd({m1}, {m2}) != 1")
    return None


def _lcm_pair(q: int, ms: tuple[int, ...]) -> HypothesisViolated | None:
    """Two divisors must have lcm q - 1; three or more are not restricted."""
    if len(ms) == 2 and math.lcm(*ms) != q - 1:
        return HypothesisViolated(
            f"lcm{ms} = {math.lcm(*ms)} must equal q - 1 = {q - 1}")
    return None


_ODD = Divisor("m", odd=True)
_ODD_PAIR = (Divisor("m1", odd=True), Divisor("m2", odd=True))

ROUTES = {
    "c1": Route((_ODD,), _odd_bound, shift=1),
    "c1_ext": Route((_ODD,), _odd_bound, shift=1, border=True),
    "char2_union": Route(_ODD_PAIR, _odd_bound, shift=1, char2=True,
                         rule=_coprime_pair),
    "odd_union": Route(_ODD_PAIR, _odd_bound, shift=1, char2=False,
                       rule=_coprime_pair),
    "half_power": Route((Divisor("m", odd=False, half=1, least=6),),
                        _half_power_bound, char2=False),
    "half_power_union": Route(
        (Divisor("ms", odd=False, half=1, least=6, many=True),),
        _half_power_bound, char2=False, rule=_lcm_pair),
    "mixed_union": Route(
        (Divisor("m1", odd=True, half=2),
         Divisor("m2", odd=False, half=1, least=2, shifted=True)),
        _two_sided_bound, char2=False),
}

CONSTRUCTION_IDS = tuple(ROUTES)


def _route(construction: str) -> Route:
    if construction not in ROUTES:
        raise UsageError(f"unknown construction {construction!r}; "
                         f"choose from {', '.join(CONSTRUCTION_IDS)}")
    return ROUTES[construction]


def _check_divisor(q: int, m: int, d: Divisor) -> None:
    name = "m" if d.many else d.name
    side, sign = (q + 1, "+") if d.odd else (q - 1, "-")
    _require(m % 2 == d.odd and m >= d.least,
             f"{name} = {m} must be {'odd' if d.odd else 'even'} "
             f"and >= {d.least}")
    _require(side % m == 0, f"{name} = {m} must divide q {sign} 1 = {side}",
             BadDivisor)


def validate(construction: str, q: int, params: dict) -> dict:
    """Check hypotheses and return canonicalized parameters."""
    route = _route(construction)
    p, _h = _q_parts(q)
    if route.char2 is not None:
        _require((p == 2) == route.char2,
                 f"q = {q} must be {'even' if route.char2 else 'odd'}",
                 NotChar2 if route.char2 else HypothesisViolated)
    out = dict(params)
    for d in route.divisors:
        if d.many:
            ms = out[d.name] = tuple(sorted(out[d.name]))
            _require(len(ms) >= 2 and len(set(ms)) == len(ms),
                     "need at least two distinct divisors")
    for d, m in route.choices(out):
        _check_divisor(q, m, d)
    broken = route.rule and route.rule(q, route.ms(out))
    if broken:
        raise broken
    return out


def code_length(construction: str, q: int, params: dict) -> int:
    """Length of the evaluation set (plus border for c1_ext)."""
    route = _route(construction)
    return (evalsets.union_size(q * q - 1, route.ms(params), route.char2)
            + route.border)


def conditions_for(construction: str, q: int, params: dict
                   ) -> tuple[tuple[int, int], ...]:
    """The (modulus, offset) vanishing conditions behind the oracle."""
    route = _route(construction)
    return tuple(((q * q - 1) // m, alpha + route.shift * (q + 1))
                 for m, alpha, _ in route.parts(q, params))


def params_json(params: dict) -> dict:
    """Parameters as JSON: sorted by name, tuples of divisors as lists."""
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in sorted(params.items())}


def max_dim_oracle(construction: str, q: int, params: dict) -> int:
    """Sharp dimension bound for the underlying (unextended) row family."""
    params = validate(construction, q, params)
    return oracle.max_dim(conditions_for(construction, q, params), q)


def formula_d_max(construction: str, q: int, params: dict) -> int:
    """The published closed-form distance bound for the construction."""
    route = _route(construction)
    return route.formula(q, route.ms(params))


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """What was built and how far it was verified.

    verified_level is FULL_MATRIX when the matrix-level Gram check ran (and
    passed) and CONDITION_ONLY when only the arithmetic conditions plus the
    dimension oracle back the claim.  ``discrepancies`` carries informational
    notes (for example when the oracle beats the published formula).
    ``H`` is mixed_union's subfield shift exponent (None on other routes).
    """

    construction: str
    q: int
    params: dict
    n: int
    k: int
    max_k_oracle: int
    formula_d_max: int
    conditions: tuple[tuple[int, int], ...]
    verified_level: str
    quantum: QuantumParams
    discrepancies: tuple[str, ...] = dfield(default=())
    H: int | None = None
    artifact: CodeArtifact | None = None

    @property
    def extras(self) -> dict:
        return {} if self.H is None else {"H": self.H}

    def to_json(self) -> dict:
        out = {
            "construction": self.construction,
            "q": self.q,
            "params": params_json(self.params),
            "n": self.n,
            "k": self.k,
            "max_k_oracle": self.max_k_oracle,
            "formula_d_max": self.formula_d_max,
            "conditions": [list(c) for c in self.conditions],
            "verified_level": self.verified_level,
            "quantum": list(self.quantum.triple()),
            "discrepancies": list(self.discrepancies),
        }
        for key, val in sorted(self.extras.items()):
            out[key] = val
        if (self.artifact is not None
                and self.k * self.n <= MATRIX_JSON_ENTRY_CAP):
            out["matrix"] = matrix_to_strings(self.artifact.matrix())
        return out


def build(construction: str, q: int, k: int | None = None, *,
          want_matrix: str = "auto", **params) -> Certificate:
    """Construct a certificate; ``want_matrix`` is auto | never | require."""
    if want_matrix not in ("auto", "never", "require"):
        raise UsageError(f"want_matrix must be auto|never|require, "
                         f"got {want_matrix!r}")
    return _certify(construction, q, k, want_matrix,
                    validate(construction, q, params))


def _certify(construction: str, q: int, k: int | None, want_matrix: str,
             params: dict) -> Certificate:
    """``build`` after validation."""
    route = ROUTES[construction]
    conditions = conditions_for(construction, q, params)
    max_k = oracle.max_dim(conditions, q)
    n = code_length(construction, q, params)
    # a border row needs k >= 2 and adds one to the oracle's bound
    least, k_cap = 1 + route.border, min(max_k + route.border, n)
    bound = f"oracle {max_k}" + ("+1 border row" if route.border else "")
    if k is None:
        if k_cap < least:
            raise DimensionExceedsOracle(
                f"no admissible k for {construction} (q={q}, params="
                f"{params}): the range {least}..{k_cap} is empty ({bound})")
        k = k_cap
    if k < least:
        raise UsageError(f"k = {k} is too small for {construction}")
    if k > k_cap:
        raise DimensionExceedsOracle(
            f"k = {k} exceeds the proven range {k_cap} for {construction} "
            f"({bound})")
    fd = formula_d_max(construction, q, params)
    published = fd - 1 + route.border
    discrepancies = []
    if k_cap > published:
        discrepancies.append(
            f"oracle admits k = {k_cap}, published bound only k = {published}")
    artifact = None
    level = "CONDITION_ONLY"
    H = None
    if any(d.shifted for d in route.divisors):
        # H is pure exponent arithmetic; report it even without a matrix
        H = evalsets.find_h_shift_exponent(q, *route.ms(params))
    feasible = False
    if want_matrix != "never":
        parts, N = route.parts(q, params, H or 0), q * q - 1
        feasible = q * q <= TABLE_LIMIT and (
            n + sum(k * k * m // (2 * N) for m, _, _ in parts)
            <= MATRIX_ENTRY_BUDGET)
        if want_matrix == "require" and not feasible:
            raise CapacityExceeded(
                f"matrix-level verification infeasible for q^2 = {N + 1}, "
                f"k = {k}, n = {n}")
    if feasible:
        f = field_for_q(q)
        # looked up at call time, so that wrappers bound on it are seen
        es = evalsets.weighted_union(f, parts, f"{construction} {params}")
        if route.border:
            artifact = extend_c1(f, params["m"], k, es)
        else:
            artifact = eval_code(f, es, k, route.shift)
        ok, witness = gram_zero(artifact)
        if not ok:
            raise HypothesisViolated(
                f"Gram entry {witness} is nonzero for {construction} "
                f"(q={q}, params={params}, k={k}); hypotheses unsound")
        level = "FULL_MATRIX"
    return Certificate(
        construction=construction, q=q, params=params, n=n, k=k,
        max_k_oracle=max_k, formula_d_max=fd, conditions=conditions,
        verified_level=level,
        quantum=quantum_params(n, k, q),
        discrepancies=tuple(discrepancies),
        H=H,
        artifact=artifact,
    )


# --------------------------------------------------------------------------
# parameter mappers for the derived families
# --------------------------------------------------------------------------

def adjacent_pair(q: int, m: int) -> dict:
    """Mixed pair (m, m - 1): odd m | q+1 with m - 1 | q - 1."""
    _check_divisor(q, m, _ODD)
    _require((q - 1) % (m - 1) == 0,
             f"m - 1 = {m - 1} must divide q - 1 = {q - 1}", BadDivisor)
    return {"m1": m, "m2": m - 1}


def half_split_pair(q: int) -> dict:
    """Mixed pair ((q+1)/2, (q-1)/2); needs q = 1 (mod 4)."""
    _require(q % 4 == 1, f"q = {q} must be 1 mod 4")
    return {"m1": (q + 1) // 2, "m2": (q - 1) // 2}


def quarter_split_pair(q: int, kk: int) -> dict:
    """Mixed pair (4kk + 1, 2(2kk + 1)); the union has length N/(2kk + 1)."""
    _require(kk >= 1, f"kk must be >= 1, got {kk}")
    return {"m1": 4 * kk + 1, "m2": 2 * (2 * kk + 1)}


def searched_pair(q: int, m_even: int, m_odd: int) -> dict:
    """Mixed pair from a compatible even/odd divisor pair; the union has
    length N/m with m = m_even*m_odd/(m_even + m_odd - 1)."""
    s = m_even + m_odd - 1
    _require((m_even * m_odd) % s == 0,
             f"{m_even} + {m_odd} - 1 must divide {m_even * m_odd}")
    return {"m1": m_odd, "m2": m_even}


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def sweep(construction: str, q: int) -> tuple[Certificate, ...]:
    """All certificates (condition-only) for valid divisor choices at q, in
    ascending divisor order; a choice whose oracle admits no k, or (for
    mixed_union) no shift, is left out."""
    route = _route(construction)
    _q_parts(q)

    def pool(d: Divisor) -> list[int]:
        return [m for m in divisors(q + 1 if d.odd else q - 1)
                if m % 2 == d.odd and m >= d.least]

    if route.rule is None:
        choices = itertools.product(*map(pool, route.divisors))
    else:  # two distinct divisors of one kind, ascending
        pairs = itertools.combinations(pool(route.divisors[0]), 2)
        choices = (ms for ms in pairs if route.rule(q, ms) is None)
    out = []
    for ms in choices:
        params = validate(construction, q, route.params_of(ms))
        try:
            out.append(_certify(construction, q, None, "never", params))
        except (DimensionExceedsOracle, NoValidH):
            continue  # no admissible k, or no admissible shift for the pair
    return tuple(out)
