"""The names the benchmark binds to must exist in the library, and behave.

``benchmarks/spans.py`` wraps the functions listed in its ``TRACED`` table by
name, and ``benchmarks/workloads.py`` reads a few private names of ``csst``
and ``pir``.  A rename that misses them, or a change to what they return,
would otherwise fail only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from evalcode import _gfmat, cartesian, csst, cyclotomic, linear_code, pir
from evalcode.galois import FieldSpec

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SPANS = BENCHMARKS / "spans.py"

# TRACED's module keys; the ``_gfmat`` layer is reported as ``gfmat``
OWNERS = {
    "galois": FieldSpec,
    "gfmat": _gfmat,
    "cartesian": cartesian,
    "cyclotomic": cyclotomic,
    "linear_code": linear_code,
    "csst": csst,
    "pir": pir,
}


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("evalcode_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_functions_exist():
    traced = _traced()
    assert set(traced) == set(OWNERS)
    for layer, names in traced.items():
        for name in names:
            # spans.py splits _gfmat.rref into rref_gf2 and rref_gfq by field
            attr = "rref" if layer == "gfmat" and name.startswith("rref_") else name
            assert callable(getattr(OWNERS[layer], attr, None)), f"{layer}.{name}"


def test_private_names_the_workloads_read():
    # the row lists are patched in place, the cyclic48 maps read by key
    assert isinstance(csst._VII_ROWS, list) and isinstance(csst._JCSST_ROWS, list)
    assert isinstance(pir._CYC48_STRATEGY, dict) and isinstance(pir._CYC48_BOLD_REPS, dict)
    assert callable(pir._certify_distance)


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # workloads.py imports gfref
    path = BENCHMARKS / "workloads.py"
    spec = importlib.util.spec_from_file_location("evalcode_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_uncapped_cyclic48_ops_pass_their_checks(monkeypatch):
    # b1 (search), b2 (bch) and b15 (bch) go through pir._certify_distance
    ops = [op for op in _workloads(monkeypatch).Certify(0).ops if op.label.endswith(", exact)")]
    assert [op.label.split()[1] for op in ops] == ["b1", "b2", "b15"]
    for op in ops:
        assert op.check(op.run()) == [], op.label


def test_certify_table_ops_pass_their_checks(monkeypatch):
    # the jcss-t rows, IV and berman49, each built afresh: the uncached
    # builders keep the cached full tables of other tests out of reach and
    # the three-row jcss-t table out of the cache
    ops = [op for op in _workloads(monkeypatch).Certify(0).ops if ".table(" in op.label]
    assert [op.span for op in ops] == ["csst.table.jcss-t", "pir.table.IV", "pir.table.berman49"]
    for module in (csst, pir):
        monkeypatch.setattr(module, "table", module.table.__wrapped__)
    for op in ops:
        assert op.check(op.run()) == [], op.label
