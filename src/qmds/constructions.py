"""The eight construction routes and their certificates.

Construction identifiers (the ``construction`` field of every certificate):

  c1                subgroup of order N/m, odd m | q+1, rows x^(1..k)
  c1_ext            c1 plus a border column; one extra admissible row
  char2_union       parity-filtered union of two odd subgroups, q even
  odd_union         full union of two odd subgroups, q odd, weights 1/2
  half_power        one even subgroup of q-1 side, weight x^((q+1)/2)
  half_power_union  union of even subgroups, weights c_x * x^((q+1)/2)
  mixed_union       odd (q+1)-side subgroup + even (q-1)-side subgroup,
                    weights x^(q+1) and H*x^((q+1)/2)

Each factory validates the arithmetic hypotheses, consults the sharp
dimension oracle, optionally runs the matrix-level Gram check (FULL_MATRIX
versus CONDITION_ONLY), and returns a Certificate.  N is q^2 - 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

from . import evalsets, oracle
from .codes import CodeArtifact, eval_code, extend_c1, gram_zero
from .errors import (BadDivisor, CapacityExceeded, DimensionExceedsOracle,
                     HypothesisViolated, NotChar2, NotCoprime, NotPrime,
                     NoValidH, UsageError, ZeroWeightAtSharedPoint)
from .field import TABLE_LIMIT, Field, field_for_q
from .numtheory import divisors, is_prime_power
from .verify import QuantumParams, quantum_params

CONSTRUCTION_IDS = ("c1", "c1_ext", "char2_union", "odd_union",
                    "half_power", "half_power_union", "mixed_union")

# matrix-level verification is attempted when the field fits in table mode
# and the matrix has at most this many entries
MATRIX_ENTRY_BUDGET = 100_000_000


def _require(cond: bool, msg: str,
             exc: type[HypothesisViolated] = HypothesisViolated) -> None:
    if not cond:
        raise exc(msg)


def _q_parts(q: int) -> tuple[int, int]:
    pp = is_prime_power(q)
    if pp is None:
        raise NotPrime(f"q must be a prime power, got {q}")
    return pp


def _odd_divisor_of_q_plus_1(q: int, m: int, name: str = "m") -> None:
    _require(m % 2 == 1 and m >= 3, f"{name} = {m} must be odd and >= 3")
    _require((q + 1) % m == 0, f"{name} = {m} must divide q + 1 = {q + 1}",
             BadDivisor)


def _even_divisor_of_q_minus_1(q: int, m: int, least: int, name: str = "m") -> None:
    _require(m % 2 == 0 and m >= least, f"{name} = {m} must be even and >= {least}")
    _require((q - 1) % m == 0, f"{name} = {m} must divide q - 1 = {q - 1}",
             BadDivisor)


# --------------------------------------------------------------------------
# per-construction parameter handling
# --------------------------------------------------------------------------

def _validate(construction: str, q: int, params: dict) -> dict:
    """Check hypotheses and return canonicalized parameters."""
    p, _h = _q_parts(q)
    out = dict(params)
    if construction in ("c1", "c1_ext"):
        _odd_divisor_of_q_plus_1(q, out["m"])
    elif construction == "char2_union":
        _require(p == 2, f"q = {q} must be even", NotChar2)
        m1, m2 = out["m1"], out["m2"]
        _odd_divisor_of_q_plus_1(q, m1, "m1")
        _odd_divisor_of_q_plus_1(q, m2, "m2")
        _require(m1 < m2, f"need m1 < m2, got {m1} >= {m2}")
        _require(math.gcd(m1, m2) == 1, f"gcd({m1}, {m2}) != 1", NotCoprime)
    elif construction == "odd_union":
        _require(p != 2, f"q = {q} must be odd")
        m1, m2 = out["m1"], out["m2"]
        _odd_divisor_of_q_plus_1(q, m1, "m1")
        _odd_divisor_of_q_plus_1(q, m2, "m2")
        _require(m1 < m2, f"need m1 < m2, got {m1} >= {m2}")
        _require(math.gcd(m1, m2) == 1, f"gcd({m1}, {m2}) != 1", NotCoprime)
    elif construction == "half_power":
        _require(p != 2, f"q = {q} must be odd")
        _even_divisor_of_q_minus_1(q, out["m"], 6)
    elif construction == "half_power_union":
        _require(p != 2, f"q = {q} must be odd")
        ms = tuple(sorted(out["ms"]))
        _require(len(ms) >= 2 and len(set(ms)) == len(ms),
                 "need at least two distinct divisors")
        for m in ms:
            _even_divisor_of_q_minus_1(q, m, 6)
        if len(ms) == 2:
            _require(math.lcm(*ms) == q - 1,
                     f"lcm{ms} = {math.lcm(*ms)} must equal q - 1 = {q - 1}")
        out["ms"] = ms
    elif construction == "mixed_union":
        _require(p != 2, f"q = {q} must be odd")
        m1, m2 = out["m1"], out["m2"]
        _odd_divisor_of_q_plus_1(q, m1, "m1")
        _even_divisor_of_q_minus_1(q, m2, 2, "m2")
    else:
        raise UsageError(f"unknown construction {construction!r}")
    return out


def code_length(construction: str, q: int, params: dict) -> int:
    """Length of the evaluation set (plus border for c1_ext)."""
    N = q * q - 1
    if construction == "c1":
        return N // params["m"]
    if construction == "c1_ext":
        return N // params["m"] + 1
    if construction == "char2_union":
        return evalsets.parity_union_size(N, (params["m1"], params["m2"]))
    if construction in ("odd_union", "mixed_union"):
        return evalsets.union_size(N, (params["m1"], params["m2"]))
    if construction == "half_power":
        return N // params["m"]
    if construction == "half_power_union":
        return evalsets.union_size(N, tuple(params["ms"]))
    raise UsageError(f"unknown construction {construction!r}")


def conditions_for(construction: str, q: int, params: dict
                   ) -> tuple[tuple[int, int], ...]:
    """The (modulus, offset) vanishing conditions behind the oracle."""
    N = q * q - 1
    half = (q + 1) // 2
    if construction in ("c1", "c1_ext"):
        return ((N // params["m"], q + 1),)
    if construction in ("char2_union", "odd_union"):
        return ((N // params["m1"], q + 1), (N // params["m2"], q + 1))
    if construction == "half_power":
        return ((N // params["m"], half),)
    if construction == "half_power_union":
        return tuple((N // m, half) for m in params["ms"])
    if construction == "mixed_union":
        return ((N // params["m1"], q + 1), (N // params["m2"], half))
    raise UsageError(f"unknown construction {construction!r}")


def max_dim_oracle(construction: str, q: int, params: dict) -> int:
    """Sharp dimension bound for the underlying (unextended) row family."""
    params = _validate(construction, q, params)
    return oracle.max_dim(conditions_for(construction, q, params), q)


def formula_d_max(construction: str, q: int, params: dict) -> int:
    """The published closed-form distance bound for the construction."""
    if construction in ("c1", "c1_ext", "char2_union", "odd_union"):
        m_big = params.get("m", params.get("m2"))
        kk = (m_big - 1) // 2
        return (kk + 1) * (q - 1) // (2 * kk + 1) + 1
    if construction == "half_power":
        return (q + 1) // 2 + (q - 1) // params["m"]
    if construction == "half_power_union":
        return (q + 1) // 2 + min((q - 1) // m for m in params["ms"])
    if construction == "mixed_union":
        m1, m2 = params["m1"], params["m2"]
        return (q - 1) // 2 + min((q + 1) // (2 * m1), (q - 1) // m2 + 1)
    raise UsageError(f"unknown construction {construction!r}")


def _build_evalset(construction: str, f: Field, params: dict
                   ) -> tuple[evalsets.EvalSet, dict]:
    """Materialize the weighted evaluation set; returns (set, extras)."""
    q = f.q
    if construction in ("c1", "c1_ext"):
        return evalsets.subgroup_set(f, params["m"]), {}
    if construction == "char2_union":
        return evalsets.parity_union_char2(f, (params["m1"], params["m2"])), {}
    if construction == "odd_union":
        es = evalsets.weighted_union(
            f, ((params["m1"], 0, 0), (params["m2"], 0, 0)),
            f"odd_union(m1={params['m1']}, m2={params['m2']})",
            vanish_error=ZeroWeightAtSharedPoint)
        return es, {}
    if construction == "half_power":
        es = evalsets.weighted_union(
            f, ((params["m"], (q + 1) // 2, 0),),
            f"half_power(m={params['m']})")
        return es, {}
    if construction == "half_power_union":
        parts = tuple((m, (q + 1) // 2, 0) for m in params["ms"])
        label = "half_power_union(ms=" + ",".join(map(str, params["ms"])) + ")"
        return evalsets.weighted_union(f, parts, label), {}
    if construction == "mixed_union":
        es, H = evalsets.mixed_union(f, params["m1"], params["m2"])
        return es, {"H": H}
    raise UsageError(f"unknown construction {construction!r}")


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
    """

    construction: str
    q: int
    p: int
    h: int
    params: dict
    n: int
    k: int
    max_k_oracle: int
    formula_d_max: int
    conditions: tuple[tuple[int, int], ...]
    verified_level: str
    quantum: QuantumParams
    discrepancies: tuple[str, ...] = dfield(default=())
    extras: dict = dfield(default_factory=dict)
    artifact: CodeArtifact | None = None

    def to_json(self, include_matrix: bool | None = None,
                matrix_entry_cap: int = 100_000) -> dict:
        from .codes import matrix_to_strings
        out = {
            "construction": self.construction,
            "q": self.q,
            "params": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in sorted(self.params.items())},
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
        want = include_matrix
        if want is None:
            want = (self.verified_level == "FULL_MATRIX"
                    and self.k * self.n <= matrix_entry_cap)
        if want and self.artifact is not None:
            out["matrix"] = matrix_to_strings(self.artifact.matrix())
        return out


def _can_do_full(f_q2: int, k: int, n: int) -> bool:
    return f_q2 <= TABLE_LIMIT and k * n <= MATRIX_ENTRY_BUDGET


def build(construction: str, q: int, k: int | None = None, *,
          want_matrix: str = "auto", **params) -> Certificate:
    """Construct a certificate; ``want_matrix`` is auto | never | require."""
    if construction not in CONSTRUCTION_IDS:
        raise UsageError(f"unknown construction {construction!r}; "
                         f"choose from {', '.join(CONSTRUCTION_IDS)}")
    if want_matrix not in ("auto", "never", "require"):
        raise UsageError(f"want_matrix must be auto|never|require, "
                         f"got {want_matrix!r}")
    params = _validate(construction, q, params)
    return _certify(construction, q, k, want_matrix, params,
                    max_dim_oracle(construction, q, params))


def _k_range(construction: str, q: int, params: dict,
             base_max: int) -> tuple[int, int]:
    """Least and greatest admissible k: the border row of c1_ext needs
    k >= 2 and adds one to the oracle's bound; k never exceeds n."""
    ext = 1 if construction == "c1_ext" else 0
    return 1 + ext, min(base_max + ext, code_length(construction, q, params))


def _certify(construction: str, q: int, k: int | None, want_matrix: str,
             params: dict, base_max: int) -> Certificate:
    """``build`` after validation, given the oracle's bound ``base_max``."""
    p, h = _q_parts(q)
    n = code_length(construction, q, params)
    least, k_cap = _k_range(construction, q, params, base_max)
    oracle = f"oracle {base_max}" + (
        "+1 border row" if construction == "c1_ext" else "")
    if k is None:
        if k_cap < least:
            raise DimensionExceedsOracle(
                f"no admissible k for {construction} (q={q}, params="
                f"{params}): the range {least}..{k_cap} is empty ({oracle})")
        k = k_cap
    if k < least:
        raise UsageError(f"k = {k} is too small for {construction}")
    if k > k_cap:
        raise DimensionExceedsOracle(
            f"k = {k} exceeds the proven range {k_cap} for {construction} "
            f"({oracle})")
    fd = formula_d_max(construction, q, params)
    discrepancies = []
    if k_cap > fd - 1 + (1 if construction == "c1_ext" else 0):
        discrepancies.append(
            f"oracle admits k = {k_cap}, published bound only k = "
            f"{fd - 1 + (1 if construction == 'c1_ext' else 0)}")
    q2 = q * q
    extras: dict = {}
    artifact = None
    level = "CONDITION_ONLY"
    feasible = _can_do_full(q2, k, n)
    if want_matrix == "require" and not feasible:
        raise CapacityExceeded(
            f"matrix-level verification infeasible for q^2 = {q2}, "
            f"k*n = {k * n}")
    if want_matrix in ("auto", "require") and feasible:
        f = field_for_q(q)
        es, extras = _build_evalset(construction, f, params)
        if construction == "c1_ext":
            artifact = extend_c1(f, params["m"], k)
        else:
            shift = 1 if construction in ("c1", "char2_union", "odd_union") else 0
            artifact = eval_code(f, es, k, shift, label=construction)
        ok, witness = gram_zero(artifact)
        if not ok:
            raise HypothesisViolated(
                f"Gram entry {witness} is nonzero for {construction} "
                f"(q={q}, params={params}, k={k}); hypotheses unsound")
        level = "FULL_MATRIX"
        if "H" in extras:
            extras["H"] = int(extras["H"])
    elif construction == "mixed_union":
        # H is pure exponent arithmetic; report it even without a matrix
        extras["H"] = evalsets.find_h_shift_exponent(q, params["m1"],
                                                     params["m2"])
    return Certificate(
        construction=construction, q=q, p=p, h=h, params=params, n=n, k=k,
        max_k_oracle=base_max, formula_d_max=fd,
        conditions=conditions_for(construction, q, params),
        verified_level=level,
        quantum=quantum_params(n, k, q),
        discrepancies=tuple(discrepancies),
        extras=extras,
        artifact=artifact,
    )


# convenience wrappers with explicit parameter names ------------------------

def construct_c1(q: int, m: int, k: int | None = None, **kw) -> Certificate:
    return build("c1", q, k, m=m, **kw)


def construct_c1_extended(q: int, m: int, k: int | None = None, **kw) -> Certificate:
    return build("c1_ext", q, k, m=m, **kw)


def construct_char2_union(q: int, m1: int, m2: int, k: int | None = None,
                          **kw) -> Certificate:
    return build("char2_union", q, k, m1=m1, m2=m2, **kw)


def construct_odd_union(q: int, m1: int, m2: int, k: int | None = None,
                        **kw) -> Certificate:
    return build("odd_union", q, k, m1=m1, m2=m2, **kw)


def construct_half_power(q: int, m: int, k: int | None = None, **kw) -> Certificate:
    return build("half_power", q, k, m=m, **kw)


def construct_half_power_union(q: int, ms: tuple[int, ...],
                               k: int | None = None, **kw) -> Certificate:
    return build("half_power_union", q, k, ms=tuple(ms), **kw)


def construct_mixed_union(q: int, m1: int, m2: int, k: int | None = None,
                          **kw) -> Certificate:
    return build("mixed_union", q, k, m1=m1, m2=m2, **kw)


# --------------------------------------------------------------------------
# parameter mappers for the derived families
# --------------------------------------------------------------------------

def adjacent_pair(q: int, m: int) -> dict:
    """Mixed pair (m, m - 1): odd m | q+1 with m - 1 | q - 1."""
    _odd_divisor_of_q_plus_1(q, m)
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


def doubled_pair_divisors(q: int, a: int, b: int) -> tuple[int, int]:
    """Even divisors (2a, 2b) for odd coprime a < b with q = 2ab + 1."""
    _require(a % 2 == 1 and b % 2 == 1 and a < b,
             f"need odd a < b, got ({a}, {b})")
    _require(math.gcd(a, b) == 1, f"gcd({a}, {b}) != 1", NotCoprime)
    _require(q == 2 * a * b + 1, f"q = {q} must equal 2ab + 1 = {2 * a * b + 1}")
    return (2 * a, 2 * b)


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def sweep(construction: str, q: int) -> tuple[Certificate, ...]:
    """All certificates (condition-only) for valid divisor choices at q, in
    ascending divisor order; a choice whose oracle admits no k is left
    out."""
    if construction not in CONSTRUCTION_IDS:
        raise UsageError(f"unknown construction {construction!r}")
    _q_parts(q)
    odd_ms = [m for m in divisors(q + 1) if m % 2 == 1 and m >= 3]
    even_ms = [m for m in divisors(q - 1) if m % 2 == 0]
    out = []

    def add(**params) -> None:
        """Certify one choice, unless the oracle admits no k for it."""
        params = _validate(construction, q, params)
        base_max = max_dim_oracle(construction, q, params)
        least, k_cap = _k_range(construction, q, params, base_max)
        if k_cap >= least:
            out.append(_certify(construction, q, None, "never", params,
                                base_max))

    if construction in ("c1", "c1_ext"):
        for m in odd_ms:
            add(m=m)
    elif construction in ("char2_union", "odd_union"):
        for i, m1 in enumerate(odd_ms):
            for m2 in odd_ms[i + 1:]:
                if math.gcd(m1, m2) == 1:
                    add(m1=m1, m2=m2)
    elif construction == "half_power":
        for m in even_ms:
            if m >= 6:
                add(m=m)
    elif construction == "half_power_union":
        ms = [m for m in even_ms if m >= 6]
        for i, m1 in enumerate(ms):
            for m2 in ms[i + 1:]:
                if math.lcm(m1, m2) == q - 1:
                    add(ms=(m1, m2))
    else:  # mixed_union
        for m1 in odd_ms:
            for m2 in even_ms:
                try:
                    add(m1=m1, m2=m2)
                except NoValidH:
                    continue  # no admissible shift for this pair
    return tuple(out)
