"""The four workloads: their operations, seeded inputs and checks.

An operation is one call into a public qmds entry point.  Its ``call`` looks
the entry point up on the module at call time, so that the tracer's
wrappers are seen; its ``summarize`` keeps what the checks need; its
``check`` compares that summary with ``arith``.  Table rows are the same for
every seed; the seed draws the other instances from the admissible
parameters of the same constructions and the same size band, selected by a
cost model so that every seed gives a pass of about the same length.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import arith
import checks
from qmds import audit, cli, codes, constructions, tables

@dataclass
class Op:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object], list]
    # (construction, q, params) of a small instance to run the known-bad
    # control at k + 1 on
    control: tuple | None = None
    cli_bytes: list = field(default_factory=list)


# --------------------------------------------------------------------------
# operation builders
# --------------------------------------------------------------------------

def certificate(name: str, kind: str, q: int, params: dict,
                k: int | None = None, control: bool = False) -> Op:
    """constructions.build at matrix level; full dimension unless k given."""
    def call():
        return constructions.build(kind, q, k, want_matrix="require", **params)

    def check(summary):
        return checks.check_cert(summary, checks.expected_cert(
            kind, q, params, k, "FULL_MATRIX"))
    return Op(name, call, checks.cert_summary, check,
              (kind, q, params) if control else None)


def cli_op(name: str, argv: list[str], check_text,
           control: tuple | None = None) -> Op:
    """qmds.cli.main with standard output captured."""
    op = Op(name, None, None, None, control)

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def summarize(out):
        op.cli_bytes.append(len(out[1].encode()))
        return out
    op.call, op.summarize = call, summarize
    op.check = lambda out: check_text(*out)
    return op


def sweep_op(name: str, kind: str, q: int) -> Op:
    return Op(name, lambda: constructions.sweep(kind, q),
              lambda certs: [checks.cert_summary(c) for c in certs],
              lambda got: checks.check_sweep(got, kind, q))


def oracle_op(name: str, kind: str, q: int, params: dict) -> Op:
    return Op(name, lambda: constructions.max_dim_oracle(kind, q, params),
              lambda v: v,
              lambda v: checks.check_oracle_value(v, kind, q, params))


def audit_op(name: str, table_ids: tuple, full: bool) -> Op:
    n_families = len(tables.TABLE9) if 9 in table_ids else 0
    return Op(name, lambda: audit.audit_tables(table_ids, full=full),
              checks.audit_summary,
              lambda got: checks.check_audit(
                  got, checks.expected_audit_rows(tables.ALL_TABLES,
                                                  table_ids, full),
                  n_families))


def known_bad_control(kind: str, q: int, params: dict) -> list[str]:
    """gram_zero at k + 1 must fail with a witness pair containing row k:
    rows 0..k-1 are pairwise orthogonal, so the first bad pair uses row k."""
    try:
        cert = constructions.build(kind, q, want_matrix="require", **params)
        art = cert.artifact
        bad = codes.eval_code(art.field, art.evalset, art.k + 1, art.shift)
        ok, witness = codes.gram_zero(bad)
    except Exception as exc:  # reported, so the run still prints its result
        return [f"control {kind} q={q} {params} raised "
                f"{type(exc).__name__}: {exc}"]
    if ok or witness is None or art.k not in witness:
        return [f"control {kind} q={q} {params} at k+1 = {art.k + 1}: "
                f"gram_zero gave ({ok}, {witness})"]
    return []


# --------------------------------------------------------------------------
# seeded instance selection
# --------------------------------------------------------------------------

def gram_cost(kind: str, q: int, params: dict) -> float:
    """Relative cost of a passing Gram check: k(k+1)/2 row pairs, each a
    pass over n points with fixed index work plus one gather per plane
    (2h planes for odd p), fitted on this program's vectorized path."""
    h = arith.prime_power(q)[1]
    k = arith.full_dimension(kind, q, params)
    n = arith.code_length(kind, q, params)
    return k * (k + 1) / 2 * n * (6 + 2 * h)


def odd_gram_candidates(q: int) -> list[tuple]:
    """Every admissible instance at odd q of the gram-odd constructions."""
    odd = arith.c1_divisors(q)
    even = [m for m in arith.divisors(q - 1) if m % 2 == 0 and m >= 6]
    out = []
    for i, a in enumerate(odd):
        out += [("odd_union", q, {"m1": a, "m2": b})
                for b in odd[i + 1:] if math.gcd(a, b) == 1]
    for i, a in enumerate(even):
        out += [("half_power_union", q, {"ms": (a, b)})
                for b in even[i + 1:] if math.lcm(a, b) == q - 1]
    return out + [("mixed_union", q, {"m1": a, "m2": b})
                  for a, b in arith.mixed_pairs(q)]


def _scan_from(rng: random.Random, lo: int, hi: int, accept) -> int:
    """First accepted integer at or after a seeded start, wrapping at hi."""
    start = rng.randrange(lo, hi)
    for x in list(range(start, hi)) + list(range(lo, start)):
        if accept(x):
            return x
    raise ValueError(f"no admissible instance in [{lo}, {hi})")


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def _row(table, row: int) -> dict:
    return next(r for r in table if r["row"] == row)


def _table_cert(t: int, row: int, control: bool = False) -> Op:
    data = _row(tables.ALL_TABLES[t], row)
    kind, q, params = checks.audit_row_instance(t, data)
    return certificate(f"T{t}r{row} {kind} q={q}", kind, q, params,
                       control=control)


def gram_odd(rng: random.Random) -> list[Op]:
    # four tiny rows, one median row (T3r4) and four large certificates, so
    # the median operation is a fixed row far from its neighbours
    ops = [_table_cert(t, r, control=True)
           for t, r in ((3, 1), (3, 2), (6, 1), (6, 5), (3, 4))]
    ops += [_table_cert(5, 1), _table_cert(7, 1)]
    # seeded instances over the same two fields (q = 169 and 211), built
    # after those rows, so the seed changes neither field work nor memory
    band = [c for q in (169, 211) for c in odd_gram_candidates(q)
            if 1.25e8 <= gram_cost(*c) <= 1.85e8]
    for kind, q, params in rng.sample(band, 2):
        ops.append(certificate(f"seeded {kind} q={q} {params}", kind, q,
                               params))
    return ops


def gram_char2(rng: random.Random) -> list[Op]:
    # char2_union admits no pair beyond Table 2 in this size band, so the
    # seed adds no instance here.  The CLI call on row 3 makes the count odd
    # and puts two operations of row 3's size in the middle.
    ops = [_table_cert(2, r, control=(r < 4)) for r in (1, 2, 3, 4)]
    kind, q, params = checks.audit_row_instance(2, _row(tables.TABLE2, 3))
    ops.insert(3, cli_op(
        f"qmds construct T2r3 q={q}",
        ["construct", "--construction", kind, "--q", str(q),
         "--m1", str(params["m1"]), "--m2", str(params["m2"])],
        lambda rc, text: checks.check_construct_cli(rc, text, kind, q,
                                                    params)))
    return ops


def conditions(rng: random.Random) -> list[Op]:
    # four small oracle calls, the pair search as the median operation, four
    # large ones
    ops = []
    for t, r in ((7, 4), (7, 5), (8, 1), (8, 4)):
        row = _row(tables.ALL_TABLES[t], r)
        kind, q, params = checks.audit_row_instance(t, row)
        argv = ["oracle", "--construction", kind, "--q", str(q),
                "--m1", str(params["m1"]), "--m2", str(params["m2"])]
        ops.append(cli_op(f"qmds oracle T{t}r{r}", argv,
                          lambda rc, text, kind=kind, q=q, params=params:
                          checks.check_oracle_cli(rc, text, kind, q, params)))
    limit, wlimit = 400, 1_000_000
    ops.append(cli_op("qmds search --pairs",
                      ["search", "--pairs", "--limit", str(limit),
                       "--witness-limit", str(wlimit)],
                      lambda rc, text: checks.check_pairs_cli(rc, text, limit,
                                                              wlimit)))
    ops.append(audit_op("audit tables 7,8 condition-only", (7, 8), False))
    q_c1 = _scan_from(rng, 1_000_001, 1_050_000,
                      lambda q: arith.prime_power(q)
                      and len(arith.c1_divisors(q)) == 3)
    ops.append(sweep_op(f"sweep c1 q={q_c1}", "c1", q_c1))
    q_mixed = _scan_from(rng, 3001, 12_000,
                         lambda q: q % 2 and arith.prime_power(q)
                         and 3.4e6 <= arith.mixed_sweep_work(q) <= 3.6e6)
    ops.append(sweep_op(f"sweep mixed_union q={q_mixed}", "mixed_union",
                        q_mixed))
    q_or = _scan_from(rng, 5_000_000, 5_050_000,
                      lambda q: (q + 1) % 3 == 0 and arith.is_prime(q))
    ops.append(oracle_op(f"max_dim_oracle c1 q={q_or} m=3", "c1", q_or,
                         {"m": 3}))
    return ops


def small_jobs(rng: random.Random) -> list[Op]:
    ops = []
    # ten operations: the median falls between the audit and the next
    # larger operation, so no single operation's time sets it
    small_qs = rng.sample([q for q in range(17, 32) if arith.is_prime(q)
                           and arith.c1_divisors(q)], 3)
    for q in small_qs:
        params = {"m": rng.choice(arith.c1_divisors(q))}
        ops.append(cli_op(f"qmds construct c1 q={q} m={params['m']}",
                          ["construct", "--construction", "c1", "--q", str(q),
                           "--m", str(params["m"])],
                          lambda rc, text, q=q, params=params:
                          checks.check_construct_cli(rc, text, "c1", q,
                                                     params),
                          control=("c1", q, params)))
    kind, q, params = checks.audit_row_instance(1, _row(tables.TABLE1, 1))
    ops.append(cli_op("qmds construct c1_ext T1r1",
                      ["construct", "--construction", kind, "--q", str(q),
                       "--m", str(params["m"])],
                      lambda rc, text, kind=kind, q=q, params=params:
                      checks.check_construct_cli(rc, text, kind, q, params)))
    ops.append(audit_op("audit tables 1,3,4,6,9", (1, 3, 4, 6, 9), True))
    for q in rng.sample([q for q in range(550, 580)
                         if (q + 1) % 3 == 0 and arith.is_prime(q)], 2):
        ops.append(certificate(f"low-dimension c1 q={q} m=3 k=4", "c1", q,
                               {"m": 3}, k=4))
    for q, m, k in ((11, 3, 4), (9, 5, 3)):
        ops.append(cli_op(f"qmds verify c1 q={q} m={m} k={k}",
                          ["verify", "--construction", "c1", "--q", str(q),
                           "--m", str(m), "--k", str(k)],
                          lambda rc, text, q=q, m=m, k=k:
                          checks.check_verify_cli(rc, text, q, m, k)))
    # the field op comes first: its 1.9 M-element table stays cached for the
    # rest of the pass, so every pass runs the others on the same heap
    ops.insert(0, cli_op("qmds field --q 1369", ["field", "--q", "1369"],
                         lambda rc, text: checks.check_field_cli(rc, text,
                                                                 1369)))
    return ops


_BUILDERS = {"gram-odd": gram_odd, "gram-char2": gram_char2,
             "conditions": conditions, "small-jobs": small_jobs}


def make_ops(workload: str, seed: int) -> list[Op]:
    return _BUILDERS[workload](random.Random(seed))
