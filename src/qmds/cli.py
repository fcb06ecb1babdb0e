"""Command-line interface.

Subcommands: field, construct, verify, oracle, sweep, audit, search.
Exit codes: 0 success, 1 an arithmetic hypothesis failed (including audits
that uncover a HYPOTHESIS_FAIL row), 2 usage error.  JSON output is
byte-deterministic: keys are sorted and nothing time- or path-dependent is
emitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import audit as audit_mod
from . import constructions, numtheory, oracle
from .errors import (HypothesisViolated, NotPrime, QmdsError, UsageError)
from .field import build_field, field_for_q
from .verify import (ENUM_BUDGET_DEFAULT, MINORS_BUDGET_DEFAULT,
                     BudgetExceeded, verify_artifact)


def _flags(d: constructions.Divisor) -> tuple[str, ...]:
    """A parameter's flag is its name; a tuple of divisors is given as
    --m1, --m2 and an optional --m3."""
    return ("m1", "m2", "m3") if d.many else (d.name,)


def _collect_params(args) -> dict:
    cid = args.construction
    divisors = constructions.ROUTES[cid].divisors
    params: dict = {}
    for d in divisors:
        flags = _flags(d)
        for f in flags[:2]:  # --m3 is the one optional flag
            if getattr(args, f) is None:
                raise UsageError(f"--{f} is required for construction {cid}")
        given = tuple(getattr(args, f) for f in flags
                      if getattr(args, f) is not None)
        params[d.name] = given if d.many else given[0]
    if args.m3 is not None and not any(d.many for d in divisors):
        raise UsageError(f"--m3 is not accepted by construction {cid}")
    return params


def _add_construction_flags(sp, divisors: bool = True) -> None:
    sp.add_argument("--construction", required=True,
                    choices=constructions.CONSTRUCTION_IDS)
    sp.add_argument("--q", type=int, required=True)
    if divisors:
        for flag in dict.fromkeys(f for route in constructions.ROUTES.values()
                                  for d in route.divisors for f in _flags(d)):
            sp.add_argument(f"--{flag}", type=int)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="qmds",
        description="Hermitian self-orthogonal MDS codes over GF(q^2) and "
                    "the quantum MDS parameters they induce.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="canonical field presentation")
    for flag in ("--q", "--p", "--h"):
        sp.add_argument(flag, type=int)

    sp = sub.add_parser("construct", help="build a certificate")
    _add_construction_flags(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--matrix", choices=("auto", "always", "never"),
                    default="auto")

    sp = sub.add_parser("verify", help="Gram check plus both MDS routes")
    _add_construction_flags(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--budget-minors", type=int, default=MINORS_BUDGET_DEFAULT)
    sp.add_argument("--budget-enum", type=int, default=ENUM_BUDGET_DEFAULT)

    _add_construction_flags(
        sub.add_parser("oracle", help="dimension oracle and conditions"))
    _add_construction_flags(
        sub.add_parser("sweep", help="all divisor choices at one q"),
        divisors=False)

    sp = sub.add_parser("audit", help="recompute the bundled tables")
    sp.add_argument("--tables", help="comma-separated table ids, e.g. 1,3,9")
    sp.add_argument("--condition-only", action="store_true",
                    help="skip matrix-level verification")

    sp = sub.add_parser("search", help="parameter searches")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pairs", action="store_true",
                      help="compatible even/odd divisor pairs")
    mode.add_argument("--primes", action="store_true",
                      help="primes in the progression of a given pair")
    mode.add_argument("--family", action="store_true",
                      help="the quadratic family q = 16k^2 - 12k + 1")
    sp.add_argument("--m1", type=int)
    sp.add_argument("--m2", type=int)
    sp.add_argument("--limit", type=int, default=200)
    sp.add_argument("--witness-limit", type=int)
    sp.add_argument("--k-limit", type=int, default=32)
    for sp in sub.choices.values():  # every subcommand, last in its help
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out")
    return p


# --------------------------------------------------------------------------
# subcommand bodies: each returns (exit code, JSON object, text)
# --------------------------------------------------------------------------

def _lines(obj: dict) -> str:
    return "".join(f"{k}: {v}\n" for k, v in obj.items())


def _cmd_field(args):
    if args.q is not None:
        if args.p is not None or args.h is not None:
            raise UsageError("give either --q or --p/--h, not both")
        f = field_for_q(args.q)
    elif args.p is not None and args.h is not None:
        f = build_field(args.p, args.h)
    else:
        raise UsageError("need --q or both --p and --h")
    return 0, f.to_json(), (f"GF({f.p}^{2 * f.h}), subfield GF({f.q}), "
                            f"modulus coefficients {list(f.modulus)}, "
                            f"theta = x\n")


def _certificate(args, want_matrix: str):
    return constructions.build(args.construction, args.q, args.k,
                               want_matrix=want_matrix,
                               **_collect_params(args))


def _cmd_construct(args):
    cert = _certificate(args, {"auto": "auto", "always": "require",
                               "never": "never"}[args.matrix])
    q = cert.quantum
    # the JSON renders the matrix, which the text leaves out
    obj = cert.to_json() if args.format == "json" else None
    return 0, obj, (
        f"{cert.construction} q={cert.q} params={cert.params} "
        f"n={cert.n} k={cert.k} max_k={cert.max_k_oracle} "
        f"quantum=[[{q.n},{q.k},{q.d}]]_{q.q} {cert.verified_level}\n")


def _cmd_verify(args):
    cert = _certificate(args, "require")
    report = verify_artifact(cert.artifact, args.budget_minors,
                             args.budget_enum)
    obj = {
        "construction": cert.construction,
        "q": cert.q,
        "params": constructions.params_json(cert.params),
        "n": cert.n, "k": cert.k,
        "self_orthogonal": report.self_orthogonal,
        "gram_witness": list(report.gram_witness) if report.gram_witness else None,
        "minors": ({"is_mds": report.minors.is_mds,
                    "checked": report.minors.minors_checked,
                    "witness": list(report.minors.witness)
                    if report.minors.witness else None}
                   if report.minors else f"skipped: {report.minors_skipped}"),
        "min_weight": (report.min_weight if report.min_weight is not None
                       else f"skipped: {report.enum_skipped}"),
        "expected_weight": report.mds_expected_weight,
        "routes_agree": report.routes_agree,
        "quantum": list(report.quantum.triple()),
    }
    return 0 if report.all_passed else 1, obj, _lines(obj)


def _cmd_oracle(args):
    params = constructions.validate(args.construction, args.q,
                                    _collect_params(args))
    conds = constructions.conditions_for(args.construction, args.q, params)
    max_k = oracle.max_dim(conds, args.q)
    fd = constructions.formula_d_max(args.construction, args.q, params)
    obj = {
        "construction": args.construction, "q": args.q,
        "params": constructions.params_json(params),
        "conditions": [list(c) for c in conds],
        "max_k": max_k,
        "formula_d_max": fd,
        "formula_within_oracle": fd - 1 <= max_k,
    }
    return 0, obj, _lines(obj)


def _cmd_sweep(args):
    certs = constructions.sweep(args.construction, args.q)
    lines = [f"{c.construction} q={c.q} params={c.params} n={c.n} "
             f"max_k={c.max_k_oracle}\n" for c in certs]
    return (0, [c.to_json() for c in certs],
            "".join(lines) or "no admissible parameters\n")


def _cmd_audit(args):
    table_ids = None
    if args.tables:
        try:
            table_ids = tuple(int(t) for t in args.tables.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --tables value {args.tables!r}") from exc
    report = audit_mod.audit_tables(table_ids, full=not args.condition_only)
    lines = []
    for r in report.rows:
        lines.append(f"T{r.table} r{r.row} [{r.construction}] "
                     f"{r.verdict} ({r.level})\n")
        for note in r.notes:
            lines.append(f"    {note}\n")
    for f in report.families:
        lines.append(f"summary r{f.row} [{f.family}] {f.status}\n")
        for note in f.notes:
            lines.append(f"    {note}\n")
    s = report.summary()
    lines.append(", ".join(f"{k}={v}" for k, v in s.items()) + "\n")
    rc = 1 if report.has_hypothesis_fail else 0
    return rc, report.to_json(), "".join(lines)


def _cmd_search(args):
    if args.pairs:
        recs = numtheory.pair_search(args.limit, args.witness_limit)
        obj = [{"m1": r.m1, "m2": r.m2, "m": r.m, "l0": r.l0, "k0": r.k0,
                "witnesses": list(r.witnesses)} for r in recs]
        text = "".join(
            f"m1={r.m1} m2={r.m2} m={r.m} l0={r.l0} k0={r.k0} "
            f"witnesses={list(r.witnesses)}\n" for r in recs)
    elif args.primes:
        if args.m1 is None or args.m2 is None:
            raise UsageError("--primes needs --m1 (even) and --m2 (odd)")
        primes = numtheory.dirichlet_search(args.m1, args.m2, args.limit)
        obj = {"m1": args.m1, "m2": args.m2, "limit": args.limit,
               "primes": list(primes)}
        text = f"primes: {list(primes)}\n"
    else:
        recs = numtheory.quadratic_family_search(args.k_limit)
        obj = [{"k": r.k, "q": r.q, "p": r.p, "e": r.e, "m_even": r.m_even,
                "m_odd": r.m_odd, "m": r.m, "n": r.n,
                "d_claimed": r.d_claimed, "d_derived": r.d_derived,
                "m_splits_q_minus_1": r.m_splits_q_minus_1,
                "m_splits_q_plus_1": r.m_splits_q_plus_1} for r in recs]
        text = "".join(
            f"k={r.k} q={r.q} n={r.n} d_claimed={r.d_claimed} "
            f"d_derived={r.d_derived}\n" for r in recs)
    return 0, obj, text or "no results\n"


_COMMANDS = {
    "field": _cmd_field,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "audit": _cmd_audit,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        rc, obj, text = _COMMANDS[args.command](args)
    except (UsageError, NotPrime) as exc:
        sys.stderr.write(f"usage error: {type(exc).__name__}: {exc}\n")
        return 2
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 2
    except (HypothesisViolated, QmdsError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    if args.format == "json":
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return rc


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
