"""Span tracer for the benchmark's traced run.

``install`` replaces each function that a library module offers the others
with a wrapper that records a span (name, start, end, parent) and the
layer's work counts.  ``csst``, ``pir``, ``cyclotomic`` and ``cartesian``
bind functions by name at import (``from evalcode.linear_code import
low_weight_search``), so the wrapper is put in place at every module binding
of the original, not only in the defining module.  The ``FieldSpec`` array
ops are wrapped on the class.

Spans are kept in memory, four int64 per span, and turned into per-layer
metrics at exit: a span's self time is its duration minus the part its child
spans cover.  Layers are named after the modules; ``_gfmat`` is reported as
``gfmat`` because a metric name starts with a letter.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> functions offered to the other modules (calls and self time each)
TRACED = {
    "galois": ("add_arr", "sub_arr", "neg_arr", "mul_arr", "scale_arr", "inv_arr", "frobenius_arr"),
    "gfmat": ("rref_gf2", "rref_gfq", "nullspace", "matmul", "schur_rows", "in_row_space"),
    "cartesian": ("evaluate", "minkowski_schur", "delta_dual", "footprint_bound", "footprint_witness"),
    "cyclotomic": ("closure", "subfield_code", "schur_subfield", "dual_bch_bound", "consecutive_union"),
    "linear_code": (
        "dual", "schur", "contains", "subfield_subcode", "shorten",
        "exhaustive_min_weight", "low_weight_search", "syndrome_split_search",
        "cyclic_min_weight_upto", "find_weight_witness", "_isd_witness", "min_distance",
    ),
    "csst": ("jaffine_csst", "wrm_csst", "hyperbolic_dual_certificate"),
    "pir": ("verify_transitive", "transitivity_premises"),
}

# (name, unit, better) for the counts and ratios measured at the same boundaries
COUNTERS = [
    ("galois.elements", "count", "lower"),
    ("gfmat.rref.cells", "count", "lower"),
    ("gfmat.rref.rank_ratio", "ratio", "higher"),
    ("gfmat.schur_rows.kept_ratio", "ratio", "higher"),
    ("cartesian.minkowski_schur.pairs", "count", "lower"),
    ("linear_code.dual.cached", "count", "higher"),
    ("linear_code.schur.rank_ratio", "ratio", "higher"),
    ("linear_code.exhaustive_min_weight.words", "count", "lower"),
    ("linear_code.witness.hit_ratio", "ratio", "higher"),
]

# table builds and cyclic48 rows, timed inclusively around the benchmark's
# own calls
TABLE_SPANS = [
    "csst.table.VII", "csst.table.jcss-t", "pir.table.I", "pir.table.IV",
    "pir.table.berman49", "pir.table.rm_comparison", "pir.table.cyclic48",
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, fns in TRACED.items():
        for fn in fns:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_s", "s", "lower"))
    out += COUNTERS
    out += [(f"{name}.s", "s", "lower") for name in TABLE_SPANS]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name id, start ns, end ns, parent span index
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans) >> 2
        spans.extend((nid, 0, 0, stack[-1] if stack else -1))
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[4 * idx + 2] = time.perf_counter_ns()
            spans[4 * idx + 1] = start
            stack.pop()

    def span(self, name: str, fn):
        """fn() under a span of the given name (the benchmark's own table calls)."""
        return self.call(self.name_id(name), fn, (), {})

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics from the recorded spans and counts."""
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        names, start, end, parent = table.T
        dur = (end - start).astype(np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(table))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - covered, minlength=k) / 1e9
        incl_s = np.bincount(names, weights=dur, minlength=k) / 1e9

        def of(arr, name):
            i = self._ids.get(name)
            return arr[i] if i is not None else 0

        c = self.counts
        dual_id, null_id = self._ids.get("linear_code.dual"), self._ids.get("gfmat.nullspace")
        dual_cached = 0
        if dual_id is not None:
            fresh = np.zeros(len(table), dtype=bool)
            if null_id is not None:
                fresh[parent[child & (names == null_id)]] = True
            dual_cached = int(np.count_nonzero((names == dual_id) & ~fresh))
        witness_calls = of(calls, "linear_code.find_weight_witness") + of(calls, "linear_code._isd_witness")
        values = {
            "galois.elements": c["galois.elements"],
            "gfmat.rref.cells": c["rref.cells"],
            "gfmat.rref.rank_ratio": _ratio(c["rref.rank"], c["rref.rows"]),
            "gfmat.schur_rows.kept_ratio": _ratio(c["schur_rows.kept"], c["schur_rows.formed"]),
            "cartesian.minkowski_schur.pairs": c["minkowski_schur.pairs"],
            "linear_code.dual.cached": dual_cached,
            "linear_code.schur.rank_ratio": _ratio(c["schur.rank"], c["schur.formed"]),
            "linear_code.exhaustive_min_weight.words": c["exhaustive.words"],
            "linear_code.witness.hit_ratio": _ratio(c["witness.hits"], witness_calls),
        }
        for module, fns in TRACED.items():
            for fn in fns:
                values[f"{module}.{fn}.calls"] = int(of(calls, f"{module}.{fn}"))
                values[f"{module}.{fn}.self_s"] = float(of(self_s, f"{module}.{fn}"))
        for name in TABLE_SPANS:
            values[f"{name}.s"] = float(of(incl_s, name))
        return {
            name: {"value": int(values[name]) if unit == "count" else float(values[name]), "unit": unit}
            for name, unit, _ in per_layer_spec()
        }


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _products_formed(A, B) -> int:
    """Rows that ``schur_rows`` forms before deduplication."""
    if A is B or (A.shape == B.shape and np.array_equal(A, B)):
        return A.shape[0] * (A.shape[0] + 1) // 2
    return A.shape[0] * B.shape[0]


def install(tracer: Tracer, *also) -> int:
    """Wrap every traced function at every binding in the library and in the
    modules ``also``; returns the number of bindings replaced."""
    from evalcode import _gfmat, cartesian, csst, cyclotomic, linear_code, pir
    from evalcode.galois import FieldSpec

    c = tracer.counts
    modules = [m for name, m in sys.modules.items() if name == "evalcode" or name.startswith("evalcode.")]
    modules += also
    replaced = 0

    def rebind(orig, wrapper):
        nonlocal replaced
        hits = 0
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {orig.__qualname__} found")
        replaced += hits

    def wrap(module, fn_name, post=None):
        orig = getattr(module, fn_name)
        nid = tracer.name_id(f"{module.__name__.split('.')[-1].lstrip('_')}.{fn_name}")

        def wrapper(*args, **kwargs):
            out = tracer.call(nid, orig, args, kwargs)
            if post is not None:
                post(args, out)
            return out

        rebind(orig, wrapper)

    # galois: the FieldSpec array ops, with the entries they produce
    for op in TRACED["galois"]:
        orig = getattr(FieldSpec, op)
        nid = tracer.name_id(f"galois.{op}")

        def method(self, *args, _orig=orig, _nid=nid, **kwargs):
            out = tracer.call(_nid, _orig, (self, *args), kwargs)
            c["galois.elements"] += np.size(out)
            return out

        setattr(FieldSpec, op, method)

    # _gfmat: rref split by q == 2, with cells, rank in and rows in
    rref = _gfmat.rref
    gf2, gfq = tracer.name_id("gfmat.rref_gf2"), tracer.name_id("gfmat.rref_gfq")

    def rref_wrapper(M, spec):
        out = tracer.call(gf2 if spec.q == 2 else gfq, rref, (M, spec), {})
        rows, cols = np.atleast_2d(np.asarray(M)).shape
        c["rref.cells"] += rows * cols
        c["rref.rows"] += rows
        c["rref.rank"] += len(out[1])
        return out

    rebind(rref, rref_wrapper)

    def schur_rows_post(args, out):
        c["schur_rows.formed"] += _products_formed(np.asarray(args[0]), np.asarray(args[1]))
        c["schur_rows.kept"] += out.shape[0]

    for fn in ("nullspace", "matmul", "in_row_space"):
        wrap(_gfmat, fn)
    wrap(_gfmat, "schur_rows", post=schur_rows_post)

    def pairs_post(args, out):
        c["minkowski_schur.pairs"] += len(args[1]) * len(args[2])

    for fn in TRACED["cartesian"]:
        wrap(cartesian, fn, post=pairs_post if fn == "minkowski_schur" else None)
    for fn in TRACED["cyclotomic"]:
        wrap(cyclotomic, fn)

    def schur_post(args, out):
        C, D = args[0], args[1]
        if C.k and D.k:
            c["schur.formed"] += _products_formed(C.gen, D.gen)
        c["schur.rank"] += out.k

    def words_post(args, out):
        C = args[0]
        c["exhaustive.words"] += C.spec.q**C.k - 1

    def witness_post(args, out):
        c["witness.hits"] += out is not None

    posts = {
        "schur": schur_post,
        "exhaustive_min_weight": words_post,
        "find_weight_witness": witness_post,
        "_isd_witness": witness_post,
    }
    for fn in TRACED["linear_code"]:
        wrap(linear_code, fn, post=posts.get(fn))
    for fn in TRACED["csst"]:
        wrap(csst, fn)
    for fn in TRACED["pir"]:
        wrap(pir, fn)
    return replaced
