"""Checkers: compare qmds outputs with the values in ``arith``.

Every checker returns a list of problems (empty when the output is right).
Operations hand them compact summaries taken right after the call, so that
no certificate, field or matrix outlives its pass.  ``self_test`` feeds each
checker a deliberately wrong value and reports any checker that accepts it.
"""

from __future__ import annotations

import json
import math

import arith

# Limits the program documents: matrix-level checks need a table-mode field
# (at most 2^22 elements) and at most 10^8 generator-matrix entries; the
# verify command's default budgets are 2 * 10^6 maximal minors and 2 * 10^7
# enumerated codewords.
TABLE_LIMIT = 1 << 22
MATRIX_ENTRY_BUDGET = 100_000_000
MINORS_BUDGET = 2_000_000
ENUM_BUDGET = 20_000_000
# construct embeds the matrix when it has at most this many entries
MATRIX_EMBED_CAP = 100_000


def _diff(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

def cert_summary(cert) -> dict:
    """The fields of a qmds Certificate that the checks read."""
    art = cert.artifact
    return {
        "construction": cert.construction, "q": cert.q,
        "params": {k: (tuple(v) if isinstance(v, (list, tuple)) else v)
                   for k, v in cert.params.items()},
        "n": cert.n, "k": cert.k, "max_k": cert.max_k_oracle,
        "quantum": tuple(cert.quantum.triple()),
        "level": cert.verified_level, "H": cert.extras.get("H"),
        "artifact_nk": None if art is None else (art.n, art.k),
    }


def expected_cert(kind: str, q: int, params: dict, k: int | None,
                  level: str) -> dict:
    """What a certificate for these inputs must say.  c1_ext is c1 plus one
    border column, which admits one row more than c1's bound."""
    base = "c1" if kind == "c1_ext" else kind
    border = int(kind == "c1_ext")
    n = arith.code_length(base, q, params) + border
    bound = arith.sharp_bound(arith.conditions(base, q, params), q)
    k_cap = min(bound + border, n)
    k_used = k_cap if k is None else k
    return {
        "k_cap": k_cap, "construction": kind, "q": q,
        "params": {key: (tuple(v) if isinstance(v, (list, tuple)) else v)
                   for key, v in params.items()},
        "n": n, "k": k_used, "max_k": bound,
        "quantum": arith.quantum_triple(n, k_used), "level": level,
        "artifact_nk": (n, k_used) if level == "FULL_MATRIX" else None,
    }


def check_cert(got: dict, want: dict) -> list[str]:
    problems: list[str] = []
    for key, val in want.items():
        if key != "k_cap":
            _diff(problems, key, got.get(key), val)
    if got.get("k", 0) > want["k_cap"]:
        problems.append(f"k = {got['k']} is above the proven range "
                        f"{want['k_cap']}")
    if want["construction"] == "mixed_union":
        p = want["params"]
        H = got.get("H")
        if not arith.h_is_valid(want["q"], p["m1"], p["m2"], H):
            problems.append(f"H = {H!r} is not the first admissible shift")
    return problems


# --------------------------------------------------------------------------
# sweeps, oracle values, audits
# --------------------------------------------------------------------------

def check_sweep(certs: list[dict], kind: str, q: int) -> list[str]:
    names = ("m",) if kind == "c1" else ("m1", "m2")
    want_keys = (sorted((m,) for m in arith.c1_divisors(q)) if kind == "c1"
                 else sorted(arith.mixed_pairs(q)))
    keys = [tuple(c["params"][name] for name in names) for c in certs]
    problems: list[str] = []
    _diff(problems, f"{kind} sweep parameter set at q={q}", sorted(keys),
          want_keys)
    if problems:
        return problems
    for key, got in zip(keys, certs):
        want = expected_cert(kind, q, dict(zip(names, key)), None,
                             "CONDITION_ONLY")
        problems += [f"{key}: {p}" for p in check_cert(got, want)]
    return problems


def check_oracle_value(got: int, kind: str, q: int, params: dict) -> list[str]:
    problems: list[str] = []
    _diff(problems, f"oracle {kind} q={q} {params}", got,
          arith.sharp_bound(arith.conditions(kind, q, params), q))
    return problems


def audit_row_instance(table: int, row: dict):
    """(construction, q, params) of a bundled table row, from its columns."""
    if table == 1:
        return "c1_ext", row["q"], {"m": row["m"]}
    if table == 2:
        q = 2 ** row["h"]
        return "char2_union", q, {"m1": row["m1"], "m2": row["m2"]}
    if table == 3:
        return "odd_union", row["q"], {"m1": row["m1"], "m2": row["m2"]}
    if table in (4, 5):
        parts = [row[key] for key in ("a", "b", "c") if key in row]
        return "half_power_union", row["q"], {"ms": tuple(2 * a for a in parts)}
    if "m" in row:
        m1, m2 = row["m"], row["m"] - 1
    elif "kk" in row:
        m1, m2 = 4 * row["kk"] + 1, 2 * (2 * row["kk"] + 1)
    else:
        m1, m2 = row["m_odd"], row["m_even"]
    return "mixed_union", row["q"], {"m1": m1, "m2": m2}


def expected_audit_rows(tables_data: dict, table_ids, full: bool) -> list:
    """(table, row, verdict_is_hypothesis_fail, level, n) for each row."""
    out = []
    for t in sorted(table_ids):
        if t == 9:
            continue
        for row in tables_data[t]:
            kind, q, params = audit_row_instance(t, row)
            if arith.prime_power(q) is None:
                out.append((t, row["row"], True, "NONE", None))
                continue
            want = expected_cert(kind, q, params, None, "")
            n, k = want["n"], want["k"]
            fits = q * q <= TABLE_LIMIT and k * n <= MATRIX_ENTRY_BUDGET
            out.append((t, row["row"], False,
                        "FULL_MATRIX" if full and fits else "CONDITION_ONLY", n))
    return out


def audit_summary(report) -> dict:
    return {
        "rows": [(r.table, r.row, r.verdict == "HYPOTHESIS_FAIL", r.level,
                  r.recomputed.get("n")) for r in report.rows],
        "families": len(report.families),
    }


def check_audit(got: dict, want_rows: list, want_families: int) -> list[str]:
    problems: list[str] = []
    _diff(problems, "audit row count", len(got["rows"]), len(want_rows))
    _diff(problems, "audit family count", got["families"], want_families)
    for g, w in zip(got["rows"], want_rows):
        _diff(problems, f"audit row T{w[0]} r{w[1]} (id, fail, level, n)", g, w)
    return problems


# --------------------------------------------------------------------------
# CLI outputs
# --------------------------------------------------------------------------

def _load(rc: int, text: str, problems: list[str]):
    _diff(problems, "exit code", rc, 0)
    try:
        return json.loads(text)
    except ValueError:
        problems.append("output is not JSON")
        return None


def check_field_cli(rc: int, text: str, q: int) -> list[str]:
    problems: list[str] = []
    obj = _load(rc, text, problems)
    if obj is None:
        return problems
    p, h = arith.prime_power(q)
    _diff(problems, "field (p, h)", (obj.get("p"), obj.get("h")), (p, h))
    modulus = obj.get("modulus") or []
    _diff(problems, "modulus degree", len(modulus) - 1, 2 * h)
    if not arith.modulus_is_primitive(p, modulus):
        problems.append(f"modulus {modulus} is not monic irreducible with x "
                        "primitive")
    return problems


def check_verify_cli(rc: int, text: str, q: int, m: int, k: int) -> list[str]:
    problems: list[str] = []
    obj = _load(rc, text, problems)
    if obj is None:
        return problems
    n = arith.code_length("c1", q, {"m": m})
    minors = math.comb(n, k) <= MINORS_BUDGET
    enum = (q * q) ** k <= ENUM_BUDGET
    want = {
        "n": n, "k": k, "self_orthogonal": True, "gram_witness": None,
        "expected_weight": n - k + 1,
        "routes_agree": True if minors and enum else None,
        "quantum": list(arith.quantum_triple(n, k)),
    }
    if minors:
        want["minors"] = {"is_mds": True, "checked": math.comb(n, k),
                          "witness": None}
    if enum:
        want["min_weight"] = n - k + 1
    for key, val in want.items():
        _diff(problems, key, obj.get(key), val)
    for key, ran in (("minors", minors), ("min_weight", enum)):
        if not ran and not str(obj.get(key)).startswith("skipped"):
            problems.append(f"{key} ran although its budget forbids it")
    return problems


def check_construct_cli(rc: int, text: str, kind: str, q: int,
                        params: dict) -> list[str]:
    """Certificate with its matrix, when small enough to embed.  For the
    unit-weight constructions c1 and char2_union (shift 1) row l, column j
    is the exponent (1 + l) * e_j mod N, where e_j runs over the evaluation
    points in ascending order; for c1_ext only the matrix shape is
    checked."""
    problems: list[str] = []
    obj = _load(rc, text, problems)
    if obj is None:
        return problems
    want = expected_cert(kind, q, params, None, "FULL_MATRIX")
    got = {"n": obj.get("n"), "k": obj.get("k"),
           "max_k": obj.get("max_k_oracle"),
           "quantum": tuple(obj.get("quantum") or ()),
           "level": obj.get("verified_level")}
    for key, val in got.items():
        _diff(problems, key, val, want[key])
    matrix = obj.get("matrix") or []
    N = q * q - 1
    if want["k"] * want["n"] > MATRIX_EMBED_CAP:
        _diff(problems, "matrix embedded above the size cap", matrix, [])
        return problems
    if kind == "c1_ext":
        _diff(problems, "matrix shape", [len(r.split()) for r in matrix],
              [want["n"]] * want["k"])
        return problems
    if kind == "c1":
        points = range(0, N, params["m"])
    else:  # points in exactly one of the two subgroups
        points = sorted(set(range(0, N, params["m1"]))
                        ^ set(range(0, N, params["m2"])))
    rows = [" ".join(str((1 + l) * e % N) for e in points)
            for l in range(want["k"])]
    if matrix != rows:
        problems.append("embedded matrix differs from x^(1+l) on the "
                        "evaluation points")
    return problems


def check_oracle_cli(rc: int, text: str, kind: str, q: int,
                     params: dict) -> list[str]:
    problems: list[str] = []
    obj = _load(rc, text, problems)
    if obj is None:
        return problems
    _diff(problems, "conditions", obj.get("conditions"),
          [list(c) for c in arith.conditions(kind, q, params)])
    return problems + check_oracle_value(obj.get("max_k"), kind, q, params)


def expected_pairs(limit: int, witness_limit: int) -> list[dict]:
    """Compatible even/odd pairs: m1 even, m2 odd, coprime, m1 + m2 - 1
    dividing m1*m2 with quotient m sharing a factor with each; witnesses
    are the first two primes w <= witness_limit with m1 | w-1, m2 | w+1."""
    out = []
    for m1 in range(2, limit + 1, 2):
        for m2 in range(3, limit + 1, 2):
            s = m1 + m2 - 1
            if math.gcd(m1, m2) != 1 or (m1 * m2) % s:
                continue
            m = m1 * m2 // s
            if math.gcd(m1, m) == 1 or math.gcd(m2, m) == 1:
                continue
            l0 = next(l for l in range(m2) if (l * m1 + 2) % m2 == 0)
            wits = []
            w = l0 * m1 + 1
            while w <= witness_limit and len(wits) < 2:
                if w > 2 and arith.is_prime(w):
                    wits.append(w)
                w += m1 * m2
            out.append({"m1": m1, "m2": m2, "m": m, "l0": l0,
                        "k0": (l0 * m1 + 2) // m2, "witnesses": wits})
    return out


def check_pairs_cli(rc: int, text: str, limit: int,
                    witness_limit: int) -> list[str]:
    problems: list[str] = []
    obj = _load(rc, text, problems)
    if obj is None:
        return problems
    want = expected_pairs(limit, witness_limit)
    _diff(problems, "pair record count", len(obj), len(want))
    bad = [(g, w) for g, w in zip(obj, want) if g != w]
    if bad:
        _diff(problems, "first differing pair record", *bad[0])
    return problems


# --------------------------------------------------------------------------
# self-test
# --------------------------------------------------------------------------

def self_test() -> list[str]:
    """Each checker must reject a deliberately wrong value."""
    failures = []
    kind, q, params = "odd_union", 29, {"m1": 3, "m2": 5}
    want = expected_cert(kind, q, params, None, "FULL_MATRIX")
    right = dict(want)
    if check_cert(right, want):
        failures.append("certificate checker rejects a right certificate")
    wrong_n = dict(want, n=want["n"] + 1)
    if not check_cert(wrong_n, want):
        failures.append("certificate checker accepts n off by one")
    k_up = want["max_k"] + 1
    wrong_k = dict(want, k=k_up, quantum=arith.quantum_triple(want["n"], k_up))
    if not check_cert(wrong_k, expected_cert(kind, q, params, k_up,
                                             "FULL_MATRIX")):
        failures.append("certificate checker accepts k above the bound")
    q, m1, m2 = 13, 7, 6
    H = arith.expected_h(q, m1, m2)
    inside = (q * q - 1) // 2  # N/2 is a subfield exponent on the coset
    if not arith.h_is_valid(q, m1, m2, H) or arith.h_is_valid(q, m1, m2, inside):
        failures.append("H checker accepts an H inside the coset")
    # GF(9) = GF(3)[x]/(x^2 + x + 2); x^2 + 2 = (x - 1)(x + 1) is reducible
    if not arith.modulus_is_primitive(3, [2, 1, 1]) or \
            arith.modulus_is_primitive(3, [2, 0, 1]):
        failures.append("modulus checker accepts a reducible modulus")
    if not check_oracle_value(want["max_k"] + 1, kind, 29, params):
        failures.append("oracle checker accepts k above the bound")
    return failures
