"""Spans around the public functions of each ``spherecp`` module.

The tracer wraps functions from outside the program.  A wrapper replaces
the module attribute and every name another ``spherecp`` module imported
from it, so a call made from inside the package is seen too and spans
nest.  Each span records its name, start, end, parent span and the
operation it belongs to; spans stay in memory (flat arrays) until
:meth:`Tracer.dump` writes them out.  Self time is a span's duration minus
the durations of its direct children.

A target the program no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

# metric prefix -> (module, attribute path inside the module)
TARGETS = {
    "bundles.validate": ("bundles", "validate"),
    "bundles.k_class": ("bundles", "k_class"),
    "ktheory.tensor_endo_matrix": ("ktheory", "tensor_endo_matrix"),
    "ktheory.delta1_class": ("ktheory", "delta1_class"),
    "pimsner.pimsner_matrix": ("pimsner", "pimsner_matrix"),
    "pimsner.k_groups": ("pimsner", "k_groups"),
    "pimsner.k_groups_trivial": ("pimsner", "k_groups_trivial"),
    "fgab.parse_matrix": ("fgab", "parse_matrix"),
    "fgab.smith_normal_form": ("fgab", "smith_normal_form"),
    "fgab.cokernel": ("fgab", "cokernel"),
    "fgab.kernel": ("fgab", "kernel"),
    "fgab.to_text": ("fgab", "IntMatrix.to_text"),
    "classify.classify_report": ("classify", "classify_report"),
    "classify.report_to_dict": ("classify", "report_to_dict"),
    "classify.graded_stably_isomorphic": ("classify", "graded_stably_isomorphic"),
    "classify.k_distinguishable": ("classify", "k_distinguishable"),
    "classify.delta1_equal": ("classify", "delta1_equal"),
    "cuntz_words.parse_expression": ("cuntz_words", "parse_expression"),
    "cuntz_words.mul": ("cuntz_words", "CuntzElement.__mul__"),
    "cuntz_words.star": ("cuntz_words", "CuntzElement.star"),
    "cuntz_words.expand": ("cuntz_words", "CuntzElement.expand"),
    "cuntz_words.equals": ("cuntz_words", "CuntzElement.equals"),
    "cli.main": ("cli", "main"),
    "cli.build_parser": ("cli", "build_parser"),
    "cli.render_structured": ("cli", "render_structured"),
}

# counters kept beside the spans: name -> how a run folds them (max or sum)
COUNTERS = {
    "fgab.snf.transform_bits_max": max,
    "fgab.snf.diagonal_bits_max": max,
    "cuntz_words.expand.terms": sum,
}


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _snf_counts(result) -> dict:
    return {
        "fgab.snf.transform_bits_max": max(_max_bits(result.U.entries), _max_bits(result.V.entries)),
        "fgab.snf.diagonal_bits_max": max((x.bit_length() for x in result.diagonal), default=0),
    }


def _expand_counts(result) -> dict:
    return {"cuntz_words.expand.terms": len(result.terms())}


POST = {"fgab.smith_normal_form": _snf_counts, "cuntz_words.expand": _expand_counts}


class Tracer:
    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.current_op = -1
        self.counters = {k: 0 for k in COUNTERS}
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def _wrap(self, nid: int, fn, post):
        start, end, parent, name, op, stack = (
            self.start, self.end, self.parent, self.name, self.op, self.stack)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                for key, value in post(result).items():
                    counters[key] = COUNTERS[key]((counters[key], value))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "spherecp" or k.startswith("spherecp."))]
        for nid, metric in enumerate(self.names):
            mod_name, path = TARGETS[metric]
            owner = sys.modules.get(f"spherecp.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(nid, orig, POST.get(metric))
            if outer:  # a method: patch the class once
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[float]]:
        """Calls and total self seconds per target, derived from the spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            selfs[k] += self.end[i] - self.start[i] - child[i]
        return calls, selfs

    def dump(self, path) -> None:
        """Write one JSON array per span: name, start, end, parent, operation."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                span = (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i])
                fh.write(json.dumps(span) + "\n")
