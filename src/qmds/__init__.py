"""Hermitian self-orthogonal MDS codes over GF(q^2), their quantum MDS
parameters, and an audit of the bundled reference tables."""

from .audit import AuditReport, audit_tables
from .codes import CodeArtifact, eval_code, extend_c1, gram_zero
from .constructions import (Certificate, adjacent_pair, build, conditions_for,
                            formula_d_max, half_split_pair, max_dim_oracle,
                            quarter_split_pair, searched_pair, sweep)
from .errors import QmdsError
from .evalsets import (EvalSet, find_h_shift_exponent, mixed_union,
                       parity_union_char2, subgroup_set, weighted_union)
from .field import ZERO, Field, build_field, field_for_q
from .numtheory import (dirichlet_search, factorize, is_prime, is_prime_power,
                        pair_search, quadratic_family_search)
from .oracle import first_violation, max_dim
from .verify import (QuantumParams, check_mds_enumeration, check_mds_rank,
                     quantum_params, verify_artifact)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "audit_tables",
    "CodeArtifact", "eval_code", "extend_c1", "gram_zero",
    "Certificate", "adjacent_pair", "build", "conditions_for",
    "formula_d_max", "half_split_pair", "max_dim_oracle",
    "quarter_split_pair", "searched_pair", "sweep",
    "QmdsError",
    "EvalSet", "find_h_shift_exponent", "mixed_union",
    "parity_union_char2", "subgroup_set", "weighted_union",
    "ZERO", "Field", "build_field", "field_for_q",
    "dirichlet_search", "factorize", "is_prime", "is_prime_power",
    "pair_search", "quadratic_family_search",
    "first_violation", "max_dim",
    "QuantumParams", "check_mds_enumeration", "check_mds_rank",
    "quantum_params", "verify_artifact",
]
