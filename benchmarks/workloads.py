"""The benchmark's three workloads.

A workload turns a seed into passes of operations.  Each operation is a call
into the library (timed) plus a check of its output (not timed).  The checks
are made by the benchmark itself: against the values printed in the paper,
against relations between cells, and with the reference arithmetic of
``gfref``.  None of them compares against a stored copy of the program's
own output.

- ``oracles``: seeded random instances of the paper's three identities.
- ``tables``: tables whose distances come from structure.
- ``certify``: tables and rows whose distances come from search.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from evalcode import csst, pir
from evalcode._report import check_report
from evalcode.cartesian import (
    DefiningSet,
    JAffineFamily,
    delta_dual,
    dual_is_exact,
    evaluate,
    field_from_order,
    minkowski_schur,
)
from evalcode.cyclotomic import closure, subfield_code
from evalcode.linear_code import (
    SearchBudget,
    cyclic_min_weight_upto,
    dual,
    low_weight_search,
    schur,
    subfield_subcode,
    syndrome_split_search,
)
from gfref import RefField


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` lists what is wrong with its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    span: str | None = None  # traced runs time table builds under this name


class _RefFields:
    """Reference arithmetic per library field, built on first use."""

    def __init__(self):
        self._by_spec = {}

    def __call__(self, spec) -> RefField:
        ref = self._by_spec.get(id(spec))
        if ref is None:
            ref = self._by_spec[id(spec)] = RefField(spec.p, spec.r, spec.modulus)
        return ref


# ---------------------------------------------------------------------------
# oracles

# (q, N, J): every ground-field order of the test pools, one to three
# variables, unit-only and zero-keeping coordinates, lengths up to 343.
ORACLE_POOL = [
    (4, (4,), ()),
    (4, (4, 4), ()),
    (4, (4, 4, 4), ()),
    (4, (4, 4), (2,)),
    (8, (8, 8), ()),
    (8, (8, 8), (1, 2)),
    (8, (8, 2, 8), ()),
    (16, (16,), (1,)),
    (16, (6, 4), ()),
    (16, (16, 4, 2), ()),
    (16, (16, 16), ()),
    (49, (7, 7), ()),
    (49, (5, 4), (1,)),
    (49, (49, 7), ()),
    (49, (7, 7, 7), ()),
    (64, (10,), ()),
    (64, (10, 22), ()),
    (64, (64, 4), ()),
]

# (q, N, J, subfield order): lengths up to 255, subfield degree a proper
# divisor of the extension degree.
SUBFIELD_POOL = [
    (4, (4, 4, 4), (), 2),
    (8, (8, 8), (1, 2), 2),
    (16, (16,), (1,), 2),
    (16, (16,), (1,), 4),
    (16, (16, 4), (), 2),
    (16, (6, 4), (), 4),
    (49, (7, 7), (), 7),
    (49, (49,), (1,), 7),
    (64, (8, 8), (), 2),
    (64, (8, 8), (), 8),
    (64, (64,), (1,), 2),
    (64, (64,), (1,), 4),
    (64, (64,), (1,), 8),
    (256, (256,), (1,), 2),
    (256, (256,), (1,), 16),
]

# dual instances whose G·H^T = 0 is recomputed with the reference arithmetic,
# per pass
ORTHOGONALITY_SAMPLE = 2


def _family(q, N, J):
    return JAffineFamily(field_from_order(q), N, J)


def _random_set(rng, family, box, size):
    return DefiningSet(family, rng.sample(box, min(size, len(box))))


class Oracles:
    """A pass: a product, a dual and a subfield instance per pool entry.

    The seed starts one stream of draws, and each pass draws the exponents of
    its defining sets afresh from it.  What an instance costs depends on its
    set: over GF(49) at n = 343 one dual instance took 333 ms with one draw
    and 503 ms with another.  A run's median pass then covers a dozen draws
    of every instance, where one draw repeated would make the figure a
    property of the seed.  Set sizes (one to six exponents, one or two
    closure seeds) are fixed by the instance's place in the pass: the cost
    of an instance grows with its set size, and a seed should not change how
    much work a pass is.
    """

    field_orders = (2, 4, 7, 8, 16, 49, 64, 256)
    # the first pass fills the library's lazy tables (grid coordinates,
    # Frobenius maps) and runs about half again as long as the next ones
    warmup_passes = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.families = [_family(*t) for t in ORACLE_POOL]
        # The dual identity is exact when every zero-keeping coordinate has
        # p | N_j and the set lies in the sub-box E'.
        self.exact = [
            f
            for f in self.families
            if all(f.N[j] % f.spec.p == 0 for j in range(f.m) if (j + 1) not in f.J)
        ]
        self.subfield = []  # (family, subfield order, subfield degree)
        for q, N, J, qp in SUBFIELD_POOL:
            f = _family(q, N, J)
            s = 1
            while f.spec.p**s != qp:
                s += 1
            self.subfield.append((f, qp, s))
        self.ref = _RefFields()

    def next_pass(self) -> list[Op]:
        rng = self.rng
        sampled = set(rng.sample(range(len(self.exact)), ORTHOGONALITY_SAMPLE))
        ops = []
        for i, f in enumerate(self.families):
            d1 = _random_set(rng, f, f.box(), 1 + i % 6)
            d2 = _random_set(rng, f, f.box(), 1 + (i + 3) % 6)
            ops.append(_schur_op(f, d1, d2))
        for i, f in enumerate(self.exact):
            d = _random_set(rng, f, f.e_prime_box(), 1 + i % 6)
            ops.append(_dual_op(f, d, self.ref if i in sampled else None))
        for i, (f, qp, s) in enumerate(self.subfield):
            ops.append(_subfield_op(f, qp, s, rng.sample(f.box(), 1 + i % 2)))
        return ops


def _schur_op(f, d1, d2):
    def run():
        lhs = evaluate(f, minkowski_schur(f, d1, d2))
        rhs = schur(evaluate(f, d1), evaluate(f, d2))
        return lhs, rhs

    def check(out):
        lhs, rhs = out
        return [] if lhs == rhs else [f"C(Δ1+Δ2) != C(Δ1)*C(Δ2): {lhs} vs {rhs}"]

    return Op(f"schur {f} {d1.elems} {d2.elems}", run, check)


def _dual_op(f, d, ref):
    def run():
        dd = delta_dual(f, d)
        C = evaluate(f, d)
        return dual_is_exact(f, d, dd), C, dual(C), evaluate(f, dd)

    def check(out):
        exact, C, D, E = out
        problems = []
        if not exact:
            problems.append("dual set not reported exact inside E'")
        if D != E:
            problems.append(f"dual(C(Δ)) != C(Δ^⊥): {D} vs {E}")
        if C.k + D.k != C.n:
            problems.append(f"k + k^⊥ = {C.k} + {D.k} != n = {C.n}")
        if ref is not None and not ref(C.spec).orthogonal(C.gen, D.gen):
            problems.append("G·H^T != 0 in the reference arithmetic")
        return problems

    return Op(f"dual {f} {d.elems}", run, check)


def _subfield_op(f, qp, s, seeds):
    def run():
        delta = closure(f, qp, DefiningSet(f, seeds))
        return delta, subfield_code(f, qp, delta), subfield_subcode(evaluate(f, delta), s)

    def check(out):
        delta, C, S = out
        problems = []
        if C.k != len(delta):
            problems.append(f"dim subfield_code = {C.k} != |Δ| = {len(delta)}")
        if C != S:
            problems.append(f"subfield_code(Δ) != subfield_subcode(C(Δ)): {C} vs {S}")
        return problems

    return Op(f"subfield {f} GF({qp}) {seeds}", run, check)


# ---------------------------------------------------------------------------
# tables

# rows per table, as printed in the paper
TABLE_ROWS = {"VII": 4, "jcss-t": 8, "I": 10, "IV": 8, "berman49": 3, "rm_comparison": 4}

# The module list of stored rows each builder reads, for the tables a pass
# builds only in part; a row's first field names it.
ROW_LISTS = {"VII": (csst, "_VII_ROWS"), "jcss-t": (csst, "_JCSST_ROWS")}


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_table(kind: str, rows, is_pir: bool, expected_rows: int) -> list[str]:
    """Every cell equals its printed value or annotated correction, every
    distance cell is an exact integer, and PIR rows have privacy d(D^⊥) - 1
    and rate (n - k(C⋆D))/n, read from the cells."""
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{kind}: {len(rows)} rows, expected {expected_rows}")
    ok, lines = check_report(rows)
    if not ok:
        problems.append(f"{kind}: check_report is not clean: {lines}")
    for row in rows:
        where = f"{kind} {row.label} {row.style}".rstrip()
        for name, cell in row.cells.items():
            expected = cell.printed if cell.correction is None else cell.correction
            if None not in (cell.printed, cell.computed) and cell.computed != expected:
                problems.append(f"{where} [{name}]: {cell.computed!r} != {expected!r}")
            if (name == "d" or name.startswith("d_")) and not _is_int(cell.computed):
                problems.append(f"{where} [{name}]: distance {cell.computed!r} is not exact")
        if is_pir:
            problems += _pir_row_problems(where, row.cells)
    return problems


def _pir_row_problems(where, c) -> list[str]:
    n = c["k_D"].computed + c["k_Dperp"].computed
    num, den = (int(x) for x in c["rate"].computed.split("/"))
    k_cd = c["k_CD"].computed if "k_CD" in c else n - c["k_CDperp"].computed
    problems = []
    if den != n or num != n - k_cd or num != c["k_CDperp"].computed:
        problems.append(f"{where}: rate {num}/{den} != (n - k(C⋆D))/n = {n - k_cd}/{n}")
    d_dual = c["d_Dperp"].computed
    if _is_int(d_dual) and c["privacy"].computed != d_dual - 1:
        problems.append(f"{where}: privacy {c['privacy'].computed} != d(D^⊥) - 1 = {d_dual - 1}")
    return problems


@contextmanager
def _only_rows(kind: str, keep: tuple):
    """The builder of `kind` reads only the stored rows named in `keep`."""
    module, attr = ROW_LISTS[kind]
    stored = getattr(module, attr)
    picked = [row for row in stored if row[0] in keep]
    if len(picked) != len(keep):
        raise LookupError(f"{kind}: stored rows {keep} not all found in {module.__name__}.{attr}")
    setattr(module, attr, picked)
    try:
        yield
    finally:
        setattr(module, attr, stored)


def _table_op(module, kind, rows=None):
    """Build one table through ``module.table``; with `rows`, only those of
    its stored rows, by the builder's own code."""
    is_pir = module is pir
    name = module.__name__.split(".")[-1]
    expected = TABLE_ROWS[kind] if rows is None else len(rows)

    def run():
        if rows is None:
            return module.table(kind)
        with _only_rows(kind, rows):
            return module.table(kind)

    label = f"{name}.table({kind})" + ("" if rows is None else f" rows {rows}")

    def check(out):
        return check_table(kind, out, is_pir, expected)

    return Op(label, run, check, span=f"{name}.table.{kind}")


class _TableWorkload:
    """A pass builds each listed table once, in a fixed order.

    The tables are the paper's, so their inputs do not depend on the seed.
    ``csst.table`` and ``pir.table`` cache their results, so every pass
    starts from empty caches and builds from scratch.
    """

    tables: tuple = ()
    warmup_passes = 0

    def __init__(self, seed: int):
        self.ops = [_table_op(*t) for t in self.tables]

    def next_pass(self) -> list[Op]:
        csst.table.cache_clear()
        pir.table.cache_clear()
        return self.ops


class Tables(_TableWorkload):
    # VII's m = 10 row alone takes about 17 s, so a pass builds the rows up
    # to m = 9 and a run can take the median of several passes.
    field_orders = (2, 7, 128, 256)
    tables = ((csst, "VII", (7, 8, 9)), (pir, "I"), (pir, "rm_comparison"))


# ---------------------------------------------------------------------------
# certify

# Bold rows of the length-48 cyclic PIR table over GF(7): (row, d(D^⊥) as
# printed, level cap).  The whole table takes about three minutes, longer
# than a run may, so a pass certifies a few rows, each by the engine the
# table chooses for it (``pir._CYC48_STRATEGY``).  Uncapped rows go through
# the table's own ``pir._certify_distance``.  The costliest searches are
# capped below the printed distance: a capped row must exclude every weight
# up to its cap and find no word there.
CYCLIC48_ROWS = [(1, 4, None), (2, 5, None), (15, 34, None), (4, 8, 5), (13, 24, 16)]


def _capped_search(Dd, strategy: str, cap: int, budget):
    """(excluded, word) from the table's engine for the row, stopped at `cap`."""
    if strategy == "window":
        res = cyclic_min_weight_upto(Dd, cap)
        return res.lower - 1, res.witness
    search = {"search": low_weight_search, "split": syndrome_split_search}[strategy]
    return search(Dd, cap, budget)


def _cyclic48_op(family, ref, key, printed, cap):
    strategy = pir._CYC48_STRATEGY.get(key, "bch")

    def run():
        budget = SearchBudget()
        delta = closure(family, 7, DefiningSet(family, [(e,) for e in pir._CYC48_BOLD_REPS[key]]))
        D = subfield_code(family, 7, delta)
        Dd = dual(D)
        if cap is not None:
            return D, *_capped_search(Dd, strategy, cap, budget)
        res = pir._certify_distance(
            Dd, printed, strategy, budget, family=family, qprime=7, delta=delta
        )
        return D, res.lower - 1 if res.exact else None, res.witness

    def check(out):
        D, excluded, word = out
        problems = []
        if cap is not None:
            if excluded != cap or word is not None:
                problems.append(
                    f"b{key}: excluded {excluded}, word {word is not None}; "
                    f"expected weights <= {cap} excluded, no word (d(D^⊥) = {printed})"
                )
            return problems
        if excluded != printed - 1:
            problems.append(f"b{key}: bracket is not exactly the printed d(D^⊥) = {printed}")
        if word is None:
            problems.append(f"b{key}: no witness of weight {printed}")
        elif int(np.count_nonzero(word)) != printed or not ref(D.spec).orthogonal(
            D.gen, word[None, :]
        ):
            problems.append(f"b{key}: witness is not a weight-{printed} word of D^⊥")
        return problems

    where = f"cap {cap}" if cap is not None else "exact"
    return Op(f"cyclic48 b{key} ({strategy}, {where})", run, check, span="pir.table.cyclic48")


class Certify(_TableWorkload):
    # jcss-t's 448, 512 and 576 rows take 10-17 s each, so a pass builds the
    # cheapest row of each route: the binary support search (192), the
    # hyperbolic certificate with a witness (256), and the information-set
    # witness search at n = 1024 (1024a).
    field_orders = (2, 7, 8, 49, 64, 128, 256, 512)
    tables = ((csst, "jcss-t", ("192", "256", "1024a")), (pir, "IV"), (pir, "berman49"))

    def __init__(self, seed: int):
        super().__init__(seed)
        cyclic = JAffineFamily(field_from_order(49), (49,), (1,))
        ref = _RefFields()
        self.ops += [_cyclic48_op(cyclic, ref, *row) for row in CYCLIC48_ROWS]


WORKLOADS = {"oracles": Oracles, "tables": Tables, "certify": Certify}
