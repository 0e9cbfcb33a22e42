"""Command-line front end: build codes from spec files, emit tables, verify pairs.

A code-spec file is JSON with the following shape (unknown keys are rejected)::

    {
      "ambient": {"p": 2, "r": 4},          # the field GF(p^r): p prime, r >= 1
      "family": {"m": 2, "N": [16, 4], "J": []},
      "subfield": 1,                        # optional: take the GF(p^s) subcode
      "delta": [[0, 0], [1, 0]]             # explicit exponent vectors, or:
      "delta": {"generator": "rm", "degree": 1}
      "delta": {"generator": "wrm", "degree": 5, "weights": [1, 2, 2, 2, 2, 2, 2]}
      "delta": {"generator": "hyperbolic", "threshold": 3}
      "delta": {"generator": "cosets", "seeds": [[0, 0], [1, 0]]}
    }

The ``rm``/``wrm``/``hyperbolic`` generators require the full-grid family
(every N_j = q, no restricted coordinates); ``cosets`` closes the seed
exponents under multiplication by the subfield order and therefore requires a
``subfield`` degree.  The environment variable EVALCODE_BUDGET_STEPS caps all
distance searches.
"""

from __future__ import annotations

import argparse
import json
import sys

from evalcode import csst, pir
from evalcode._report import check_report, to_csv, to_markdown
from evalcode.cartesian import (
    DefiningSet,
    JAffineFamily,
    delta_hyperbolic,
    delta_rm,
    delta_wrm,
    evaluate,
    field_from_order,
    footprint_distance,
    is_decreasing,
    minkowski_schur,
)
from evalcode.csst import is_csst_pair, jaffine_csst, wrm_csst
from evalcode.cyclotomic import closure, is_coset_closed, schur_subfield, subfield_code
from evalcode.galois import _prime_factors
from evalcode.linear_code import (
    DistanceResult,
    LinearCode,
    SearchBudget,
    min_distance,
    schur,
)
from evalcode.pir import PROVED, TRANSITIVITY_MAX_N, UNVERIFIED, grade_transitivity

_TABLE_KINDS = {
    "I": pir.table,
    "II": pir.table,
    "IV": pir.table,
    "VII": csst.table,
    "berman49": pir.table,
    "cyclic48": pir.table,
    "jcss-t": csst.table,
    "rm_comparison": pir.table,
}

_POINT_CAP = 1 << 20


class SpecError(ValueError):
    """Spec-file parse or validation failure, anchored to the file."""


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SpecError(f"{where}: unknown keys {unknown} (allowed: {sorted(allowed)})")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecError(f"{where}: missing required key {key!r}")
    return obj[key]


def _int(obj: dict, key: str, where: str) -> int:
    val = _require(obj, key, where)
    if type(val) is not int:  # a bool, float or string is not an integer
        raise SpecError(f"{where}.{key}: expected an integer, got {val!r}")
    return val


def _int_list(val, where: str) -> list[int]:
    if not isinstance(val, list) or not all(type(x) is int for x in val):
        raise SpecError(f"{where}: expected a list of integers")
    return val


class CodeSpec:
    """Parsed and validated spec file: family, defining set, subfield degree."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise SpecError(f"{path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise SpecError(f"{path}: top level must be an object")
        _reject_unknown(raw, {"ambient", "family", "subfield", "delta"}, path)

        ambient = _require(raw, "ambient", path)
        _reject_unknown(ambient, {"p", "r"}, f"{path}: ambient")
        self.p = _int(ambient, "p", f"{path}: ambient")
        self.r = _int(ambient, "r", f"{path}: ambient")
        if _prime_factors(self.p) != [self.p]:
            raise SpecError(f"{path}: ambient.p: {self.p} is not a prime")
        if self.r < 1:
            raise SpecError(f"{path}: ambient.r: need r >= 1, got {self.r}")
        self.q = self.p**self.r

        fam = _require(raw, "family", path)
        _reject_unknown(fam, {"m", "N", "J"}, f"{path}: family")
        self.m = _int(fam, "m", f"{path}: family")
        self.N = tuple(_int_list(_require(fam, "N", f"{path}: family"), f"{path}: family.N"))
        self.J = tuple(_int_list(fam.get("J", []), f"{path}: family.J"))
        if len(self.N) != self.m:
            raise SpecError(f"{path}: family: m = {self.m} but N has {len(self.N)} entries")

        self.subfield_degree = raw.get("subfield")
        if self.subfield_degree is not None:
            s = self.subfield_degree
            if not isinstance(s, int) or s < 1 or self.r % s != 0:
                raise SpecError(
                    f"{path}: subfield: degree must be a positive divisor of r = {self.r}"
                )
        self.raw_delta = _require(raw, "delta", path)

    @property
    def qprime(self) -> int | None:
        if self.subfield_degree is None:
            return None
        return self.p**self.subfield_degree

    def family_key(self) -> tuple:
        return (self.p, self.r, self.N, self.J)

    def build_family(self) -> JAffineFamily:
        try:
            family = JAffineFamily(field_from_order(self.q), self.N, self.J)
        except ValueError as exc:
            raise SpecError(f"{self.path}: family: {exc}") from None
        if family.n_points > _POINT_CAP:
            raise SpecError(
                f"{self.path}: family has {family.n_points} evaluation points; "
                f"the command-line cap is {_POINT_CAP}"
            )
        return family

    def build_delta(self, family: JAffineFamily) -> DefiningSet:
        raw, where = self.raw_delta, f"{self.path}: delta"
        if isinstance(raw, list):
            elems = [tuple(_int_list(e, where)) for e in raw]
            try:
                return DefiningSet(family, elems)
            except (ValueError, IndexError) as exc:
                raise SpecError(f"{where}: {exc}") from None
        if not isinstance(raw, dict):
            raise SpecError(f"{where}: expected a list of vectors or a generator object")
        gen = _require(raw, "generator", where)
        if gen in ("rm", "wrm", "hyperbolic"):
            if set(self.J) or any(nj != self.q for nj in self.N):
                raise SpecError(
                    f"{where}: generator {gen!r} needs the full grid "
                    f"(every N_j = q = {self.q}, empty J)"
                )
        if gen == "rm":
            _reject_unknown(raw, {"generator", "degree"}, where)
            made = delta_rm(self.q, self.m, _int(raw, "degree", where))
        elif gen == "wrm":
            _reject_unknown(raw, {"generator", "degree", "weights"}, where)
            weights = _int_list(_require(raw, "weights", where), f"{where}.weights")
            made = delta_wrm(self.q, self.m, _int(raw, "degree", where), weights)
        elif gen == "hyperbolic":
            _reject_unknown(raw, {"generator", "threshold"}, where)
            made = delta_hyperbolic(self.q, self.m, _int(raw, "threshold", where))
        elif gen == "cosets":
            _reject_unknown(raw, {"generator", "seeds"}, where)
            if self.qprime is None:
                raise SpecError(f"{where}: generator 'cosets' requires a subfield degree")
            seeds = [tuple(_int_list(e, where)) for e in _require(raw, "seeds", where)]
            try:
                return closure(family, self.qprime, DefiningSet(family, seeds))
            except (ValueError, IndexError) as exc:
                raise SpecError(f"{where}: {exc}") from None
        else:
            raise SpecError(
                f"{where}: unknown generator {gen!r} "
                "(expected rm, wrm, hyperbolic, or cosets)"
            )
        return DefiningSet.from_mask(family, made.mask)

    def build_code(self, family: JAffineFamily, delta: DefiningSet) -> LinearCode:
        if _is_evaluation_code(family, self.qprime):
            return evaluate(family, delta)
        if not is_coset_closed(family, self.qprime, delta):
            missing = len(closure(family, self.qprime, delta)) - len(delta)
            raise SpecError(
                f"{self.path}: delta: not closed under multiplication by "
                f"q' = {self.qprime}; the closure adds {missing} exponents"
            )
        return subfield_code(family, self.qprime, delta)


def _is_evaluation_code(family: JAffineFamily, qprime: int | None) -> bool:
    """Whether the code of a defining set over GF(qprime) is C_delta itself:
    no subfield, or the subfield is the whole field."""
    return qprime is None or qprime == family.spec.q


def _distance_summary(
    C: LinearCode,
    family: JAffineFamily,
    delta: DefiningSet | None,
    qprime: int | None,
    budget: SearchBudget,
) -> DistanceResult | None:
    if C.k == 0:
        return None
    if delta is not None and _is_evaluation_code(family, qprime) and is_decreasing(delta):
        d = footprint_distance(family, delta)
        return DistanceResult(d, d, how="footprint bound with matching witness")
    return min_distance(C, budget)


def _summary_lines(
    C: LinearCode,
    family: JAffineFamily,
    delta: DefiningSet | None,
    qprime: int | None,
    budget: SearchBudget,
) -> list[str]:
    """Head, n, k and distance lines, then the defining set's properties
    unless delta is None."""
    res = _distance_summary(C, family, delta, qprime, budget)
    if res is None:
        head = f"[{C.n},0,-]"
        dist = "distance: n/a (zero code)"
    elif res.exact:
        head = f"[{C.n},{C.k},{res.lower}]"
        dist = f"distance: {res.lower} (exact; {res.how})"
    else:
        head = f"[{C.n},{C.k},d>={res.lower}]"
        dist = f"distance: in [{res.lower}, {res.upper}] ({res.how})"
    lines = [head, f"n: {C.n}", f"k: {C.k}", dist]
    if delta is None:
        return lines
    closure_base = qprime if qprime is not None else family.spec.p
    return lines + [
        f"decreasing: {'yes' if is_decreasing(delta) else 'no'}",
        (
            f"coset-closed over GF({closure_base}): "
            f"{'yes' if is_coset_closed(family, closure_base, delta) else 'no'}"
        ),
    ]


def cmd_build(args) -> int:
    spec = CodeSpec(args.spec)
    family = spec.build_family()
    delta = spec.build_delta(family)
    C = spec.build_code(family, delta)
    for line in _summary_lines(C, family, delta, spec.qprime, SearchBudget()):
        print(line)
    return 0


def cmd_table(args) -> int:
    rows = _TABLE_KINDS[args.kind](args.kind)
    rendered = to_csv(rows) if args.format == "csv" else to_markdown(rows)
    sys.stdout.write(rendered)
    if not args.check:
        return 0
    ok, lines = check_report(rows)
    for line in lines:
        print(line, file=sys.stderr)
    print("check: " + ("ok" if ok else "MISMATCH"), file=sys.stderr)
    return 0 if ok else 1


def _load_pair(path1: str, path2: str):
    s1, s2 = CodeSpec(path1), CodeSpec(path2)
    if s1.family_key() != s2.family_key():
        raise SpecError(
            f"{path2}: family differs from {path1}; both codes must share "
            "one evaluation-point family"
        )
    family = s1.build_family()
    d1 = s1.build_delta(family)
    d2 = s2.build_delta(family)
    C1 = s1.build_code(family, d1)
    C2 = s2.build_code(family, d2)
    if C1.spec is not C2.spec:
        raise SpecError(f"{path2}: subfield degree differs from {path1}")
    return s1, s2, family, d1, d2, C1, C2


def _csst_structure_route(s1, s2, family, d1, d2):
    """Try the combinatorial sufficient conditions; None when none applies."""
    if s1.qprime is not None and s1.qprime == s2.qprime:
        if is_coset_closed(family, s1.qprime, d1) and is_coset_closed(family, s1.qprime, d2):
            ok, detail = jaffine_csst(family, s1.qprime, d1, d2)
            if ok:
                return "grid-subfield-closure", detail
    g1, g2 = s1.raw_delta, s2.raw_delta
    if (
        isinstance(g1, dict)
        and isinstance(g2, dict)
        and g1.get("generator") == "wrm"
        and g2.get("generator") == "rm"
        and s1.qprime is None
        and s2.qprime is None
    ):
        try:
            params = wrm_csst(
                s1.m, int(g1["degree"]), tuple(g1["weights"]), int(g2["degree"]),
                check_pair=False,
            )
        except ValueError:
            return None
        return "weighted-degree-nesting", dict(params.certificate)
    return None


def cmd_verify_csst(args) -> int:
    s1, s2, family, d1, d2, C1, C2 = _load_pair(args.c1, args.c2)
    verified, conditions = is_csst_pair(C1, C2)
    route = _csst_structure_route(s1, s2, family, d1, d2)
    cert = {
        "kind": "csst",
        "verified": verified,
        "n": C1.n,
        "k": C1.k - C2.k,
        "conditions": conditions,
        "route": route[0] if route else "matrix-oracle",
        "route_detail": route[1] if route else None,
    }
    if not verified:
        cert["first_violation"] = (
            "c2_in_c1" if not conditions["c2_in_c1"] else "c2_in_dual_schur_square"
        )
    print(json.dumps(cert, indent=2, sort_keys=True, default=str))
    return 0 if verified else 1


def cmd_verify_pir_transitive(args) -> int:
    spec = CodeSpec(args.spec)
    family = spec.build_family()
    delta = spec.build_delta(family)
    status = grade_transitivity(
        family, delta, lambda: spec.build_code(family, delta), spec.qprime
    )
    # the code is built and its orbit checked only when the premises fail
    # and the length permits
    searched = status != PROVED and family.n_points <= TRANSITIVITY_MAX_N
    cert = {
        "kind": "pir-transitive",
        "n": family.n_points,
        "status": status,
        "orbit_checked": status != UNVERIFIED if searched else None,
    }
    print(json.dumps(cert, indent=2, sort_keys=True))
    return 0 if status != UNVERIFIED else 1


def cmd_schur(args) -> int:
    s1, s2, family, d1, d2, C1, C2 = _load_pair(args.c1, args.c2)
    CD = schur(C1, C2)
    if _is_evaluation_code(family, s1.qprime) and _is_evaluation_code(family, s2.qprime):
        delta = minkowski_schur(family, d1, d2)
        name, predicted = "minkowski dimension", len(delta)
    else:
        predicted = len(schur_subfield(family, s1.qprime, d1, d2))
        delta, name = None, "grid dimension prediction"
    for line in _summary_lines(CD, family, delta, s1.qprime, SearchBudget()):
        print(line)
    print(f"{name}: {predicted} (agrees: {'yes' if CD.k == predicted else 'no'})")
    return 0


def cmd_subfield(args) -> int:
    spec = CodeSpec(args.spec)
    if args.degree is not None:
        if args.degree < 1 or spec.r % args.degree != 0:
            raise SpecError(
                f"--degree must be a positive divisor of r = {spec.r}"
            )
        spec.subfield_degree = args.degree
    if spec.subfield_degree is None:
        raise SpecError(
            f"{args.spec}: no subfield degree (set \"subfield\" or pass --degree)"
        )
    family = spec.build_family()
    delta = spec.build_delta(family)
    C = spec.build_code(family, delta)
    for line in _summary_lines(C, family, delta, spec.qprime, SearchBudget()):
        print(line)
    print(f"dimension equals defining-set size: {'yes' if C.k == len(delta) else 'no'}")
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="evalcode",
        description="Evaluation-code constructions, benchmark tables, certificates.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a code from a spec file and summarize it")
    p.add_argument("spec")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("table", help="rebuild a stored benchmark table")
    p.add_argument("kind", choices=sorted(_TABLE_KINDS))
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--check", action="store_true",
                   help="compare against stored values; nonzero exit on mismatch")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="emit a machine-readable certificate")
    vsub = p.add_subparsers(dest="verify_kind", required=True)
    v = vsub.add_parser("csst", help="check a CSS-T pair (two spec files)")
    v.add_argument("c1")
    v.add_argument("c2")
    v.set_defaults(func=cmd_verify_csst)
    v = vsub.add_parser("pir-transitive", help="check transitivity of a code's group")
    v.add_argument("spec")
    v.set_defaults(func=cmd_verify_pir_transitive)

    p = sub.add_parser("schur", help="componentwise product of two codes")
    p.add_argument("c1")
    p.add_argument("c2")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("subfield", help="subfield subcode of a spec-file code")
    p.add_argument("spec")
    p.add_argument("--degree", type=int, default=None,
                   help="subfield degree (overrides the spec file)")
    p.set_defaults(func=cmd_subfield)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
