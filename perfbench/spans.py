"""Spans around the entry points of each qmds layer, from outside.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent) and, for some, a count taken from the
arguments or the result.  A module that did ``from .codes import gram_zero``
holds its own reference, so the wrapper is bound in every qmds module whose
namespace holds the original object; methods are replaced on their class.
``uninstall`` puts every original back.  Spans stay in memory until the
run writes them out.

Element arithmetic (Field.add, Field.mul, ...) and the per-minor
elimination are not wrapped: they are called millions of times, so their
time counts in the layer that called them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from qmds import (audit, cli, codes, constructions, evalsets, field, numtheory,
                  oracle, verify)


def _gram_count(c, args, out):
    art = args[0]
    ok, witness = out
    k, n = art.k, art.n
    if ok:
        entries = k * (k + 1) // 2
    else:  # entries scanned up to the witness, row by row of the triangle
        l1, l2 = witness
        entries = sum(k - i for i in range(l1)) + (l2 - l1) + 1
    c["codes.gram_calls"] += 1
    c["codes.gram_entries"] += entries
    c["codes.gram_terms"] += entries * n


def _field_count(c, args, out):
    c["field.builds"] += 1
    c["field.elements"] += args[0].q2


def _points(c, args, out):
    c["evalsets.points"] += len(out)


def _counter(name):
    def count(c, args, out):
        c[name] += 1
    return count


def _minors(c, args, out):
    c["verify.minors_checked"] += out.minors_checked


def _codewords(c, args, out):
    c["verify.codewords"] += args[0].q2 ** len(args[1])


def _rows(c, args, out):
    c["audit.rows"] += len(out.rows)


# (owner, attribute, span name, count hook)
TARGETS = [
    (field.Field, "__init__", "field.build", _field_count),
    (field, "field_for_q", "field.build", None),
    (field, "canonical_modulus", "field.modulus", None),
    (evalsets, "subgroup_set", "evalsets.build", _points),
    (evalsets, "parity_union_char2", "evalsets.build", _points),
    (evalsets, "weighted_union", "evalsets.build", _points),
    (evalsets, "mixed_union", "evalsets.build", None),
    (evalsets, "find_h_shift_exponent", "evalsets.h_search",
     _counter("evalsets.h_calls")),
    (evalsets, "shared_weight_obstructions", "evalsets.h_search", None),
    (codes, "eval_code", "codes.artifact", None),
    (codes, "extend_c1", "codes.artifact", None),
    (codes.CodeArtifact, "matrix", "codes.artifact", None),
    (codes, "gram_zero", "codes.gram", _gram_count),
    (oracle, "max_dim", "oracle.max_dim", _counter("oracle.calls")),
    (verify, "verify_artifact", "verify.other", None),
    (verify, "check_mds_rank", "verify.minors", _minors),
    (verify, "check_mds_enumeration", "verify.enum", _codewords),
    (constructions, "build", "constructions.build",
     _counter("constructions.certificates")),
    (constructions, "max_dim_oracle", "constructions.build", None),
    (constructions, "sweep", "constructions.sweep", None),
    (audit, "audit_tables", "audit", _rows),
    (cli, "main", "cli", None),
] + [(numtheory, name, "numtheory", _counter("numtheory.calls"))
     for name in ("is_prime", "is_prime_power", "factorize", "prime_factors",
                  "divisors", "progression_base", "dirichlet_search",
                  "pair_search", "quadratic_family_search")]

# per-layer self-time metrics: metric -> span names whose self time it sums
SELF_TIME = {
    "field.build_s": ("field.build", "field.modulus"),
    "field.modulus_s": ("field.modulus",),
    "evalsets.build_s": ("evalsets.build",),
    "evalsets.h_search_s": ("evalsets.h_search",),
    "codes.artifact_s": ("codes.artifact",),
    "codes.gram_s": ("codes.gram",),
    "oracle.max_dim_s": ("oracle.max_dim",),
    "verify.minors_s": ("verify.minors",),
    "verify.enum_s": ("verify.enum",),
    "verify.other_s": ("verify.other",),
    "constructions.build_self_s": ("constructions.build",),
    "constructions.sweep_self_s": ("constructions.sweep",),
    "numtheory.s": ("numtheory",),
    "audit.self_s": ("audit",),
    "cli.self_s": ("cli",),
}

COUNTS = {name: "count" for name in (
    "field.builds", "field.elements", "evalsets.points", "evalsets.h_calls",
    "codes.gram_calls", "codes.gram_entries", "codes.gram_terms",
    "oracle.calls", "verify.minors_checked", "verify.codewords",
    "constructions.certificates", "numtheory.calls", "audit.rows")}
COUNTS["cli.bytes_out"] = "bytes"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qmds" or key.startswith("qmds.")]
        for owner, attr, name, count in TARGETS:
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, count)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first_span:]."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent in spans[first_span:]:
            if parent >= first_span:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first_span, len(spans)):
            name, start, end, _ = spans[i]
            out[name] += end - start - child[i]
        return out
