"""Command-line interface tests: spec parsing, summaries, tables, certificates."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evalcode
from evalcode.cli import _distance_summary, main
from evalcode.galois import make_field
from evalcode.linear_code import LinearCode, SearchBudget

FULL_BINARY_7 = {
    "ambient": {"p": 2, "r": 1},
    "family": {"m": 7, "N": [2] * 7, "J": []},
}
WRM_SPEC = {**FULL_BINARY_7, "delta": {"generator": "wrm", "degree": 5,
                                       "weights": [1, 2, 2, 2, 2, 2, 2]}}
RM_SPEC = {**FULL_BINARY_7, "delta": {"generator": "rm", "degree": 1}}
REP_SPEC = {
    "ambient": {"p": 2, "r": 4},
    "family": {"m": 2, "N": [16, 4], "J": []},
    "delta": [[0, 0]],
}
COSET_SPEC = {
    "ambient": {"p": 2, "r": 4},
    "family": {"m": 1, "N": [16], "J": [1]},
    "subfield": 1,
    "delta": {"generator": "cosets", "seeds": [[0], [1]]},
}


def spec_file(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- build


def test_build_weighted_code_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "build", spec_file(tmp_path, WRM_SPEC))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[128,44,16]"
    assert "n: 128" in lines and "k: 44" in lines
    assert any(line.startswith("distance: 16 (exact") for line in lines)
    assert "decreasing: yes" in lines
    assert "coset-closed over GF(2): yes" in lines


def test_readme_spec_examples_build(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    specs = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(specs) >= 2
    for i, spec in enumerate(specs):
        code, _, err = run(capsys, "build", spec_file(tmp_path, json.loads(spec), f"{i}.json"))
        assert code == 0, (spec, err)


def test_build_repetition_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "build", spec_file(tmp_path, REP_SPEC))
    assert code == 0
    assert out.splitlines()[0] == "[64,1,64]"


@pytest.mark.parametrize(
    "k, n, seed, bracket, how",
    [
        # 2^22 words: more than the build summary used to enumerate, few enough
        # for min_distance, which finds d = 4 where a weight-3 search left [4, 40]
        (22, 40, 1, (4, 4), "exhaustive enumeration"),
        (28, 40, 1, (3, 3), "low-weight support search"),
        (30, 60, 0, (7, 60), "support exclusion"),
    ],
)
def test_build_distance_is_min_distance(k, n, seed, bracket, how):
    C = LinearCode(make_field(2, 1), np.random.default_rng(seed).integers(0, 2, size=(k, n)))
    res = _distance_summary(C, None, None, None, SearchBudget())
    assert C.k == k and (res.lower, res.upper) == bracket and res.how == how


def test_build_reports_divisibility_failure(tmp_path, capsys):
    bad = {**REP_SPEC, "family": {"m": 2, "N": [16, 7], "J": []}}
    code, _, err = run(capsys, "build", spec_file(tmp_path, bad))
    assert code == 2
    assert "divide" in err and "spec.json" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "build", spec_file(tmp_path, {**REP_SPEC, "extra": 1}))
    assert code == 2 and "extra" in err
    bad_gen = {**FULL_BINARY_7, "delta": {"generator": "rm", "degree": 1, "foo": 2}}
    code, _, err = run(capsys, "build", spec_file(tmp_path, bad_gen))
    assert code == 2 and "foo" in err


def test_missing_key_and_syntax_errors_are_anchored(tmp_path, capsys):
    code, _, err = run(capsys, "build", spec_file(tmp_path, {"ambient": {"p": 2, "r": 1}}))
    assert code == 2 and "family" in err
    path = tmp_path / "broken.json"
    path.write_text('{"ambient": {,}')
    code, _, err = run(capsys, "build", str(path))
    assert code == 2
    assert "broken.json:1:" in err  # line:column anchor


@pytest.mark.parametrize(
    "ambient, key",
    [({"p": 4, "r": 2}, "ambient.p"), ({"p": 4, "r": 1}, "ambient.p"),
     ({"p": 2.9, "r": 1}, "ambient.p"), ({"p": 2, "r": "4"}, "ambient.r"),
     ({"p": True, "r": 1}, "ambient.p")],
)
def test_ambient_needs_integer_prime_and_degree(tmp_path, capsys, ambient, key):
    path = spec_file(tmp_path, {**COSET_SPEC, "ambient": ambient})
    for argv in (("build", path), ("subfield", path, "--degree", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert path in err and key in err


def test_generator_parameters_and_lists_must_be_integers(tmp_path, capsys):
    bad = {**FULL_BINARY_7, "delta": {"generator": "rm", "degree": 1.5}}
    code, _, err = run(capsys, "build", spec_file(tmp_path, bad))
    assert code == 2 and "delta.degree" in err
    bad = {**COSET_SPEC, "family": {"m": 1, "N": [16], "J": [True]}}  # not coordinate 1
    code, _, err = run(capsys, "build", spec_file(tmp_path, bad))
    assert code == 2 and "family.J" in err


def test_delta_out_of_range_rejected(tmp_path, capsys):
    bad = {**REP_SPEC, "delta": [[99, 0]]}
    code, _, err = run(capsys, "build", spec_file(tmp_path, bad))
    assert code == 2 and "delta" in err


def test_generator_needs_full_grid(tmp_path, capsys):
    bad = {
        "ambient": {"p": 2, "r": 4},
        "family": {"m": 1, "N": [16], "J": [1]},
        "delta": {"generator": "rm", "degree": 1},
    }
    code, _, err = run(capsys, "build", spec_file(tmp_path, bad))
    assert code == 2 and "full grid" in err


def test_family_point_cap(tmp_path, capsys):
    huge = {
        "ambient": {"p": 2, "r": 7},
        "family": {"m": 7, "N": [128] * 7, "J": []},
        "delta": [[0] * 7],
    }
    code, _, err = run(capsys, "build", spec_file(tmp_path, huge))
    assert code == 2 and "cap" in err


# ---------------------------------------------------------------- table


def test_table_csv_shape_and_rates(capsys):
    code, out, _ = run(capsys, "table", "I", "--format", "csv")
    assert code == 0
    assert "\r\n" in out
    lines = out.replace("\r\n", "\n").strip().split("\n")
    assert lines[0].startswith("row,style,")
    assert len(lines) == 1 + 10  # header + the ten stored scheme rows
    assert lines[1].endswith("34/49")


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "berman49", "--format", "csv")
    _, second, _ = run(capsys, "table", "berman49", "--format", "csv")
    assert first == second


def test_table_markdown_and_check(capsys):
    code, out, err = run(capsys, "table", "berman49", "--check")
    assert code == 0
    assert out.startswith("| row | style |")
    assert "check: ok" in err


def test_table_unknown_kind_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["table", "XIV"])


# ---------------------------------------------------------------- verify


def test_verify_csst_pair_and_swap(tmp_path, capsys):
    c1 = spec_file(tmp_path, WRM_SPEC, "c1.json")
    c2 = spec_file(tmp_path, RM_SPEC, "c2.json")
    code, out, _ = run(capsys, "verify", "csst", c1, c2)
    assert code == 0
    cert = json.loads(out)
    assert cert["verified"] is True
    assert cert["route"] == "weighted-degree-nesting"
    assert cert["conditions"]["c2_in_c1"] is True
    assert (cert["n"], cert["k"]) == (128, 36)

    code, out, _ = run(capsys, "verify", "csst", c2, c1)
    assert code == 1
    cert = json.loads(out)
    assert cert["verified"] is False
    assert cert["first_violation"] == "c2_in_c1"


def test_verify_csst_requires_shared_family(tmp_path, capsys):
    c1 = spec_file(tmp_path, WRM_SPEC, "c1.json")
    c2 = spec_file(tmp_path, REP_SPEC, "c2.json")
    code, _, err = run(capsys, "verify", "csst", c1, c2)
    assert code == 2 and "family" in err


@pytest.mark.parametrize("command", [("verify", "csst"), ("schur",)])
def test_pair_commands_require_one_subfield_degree(tmp_path, capsys, command):
    c1 = spec_file(tmp_path, COSET_SPEC, "c1.json")
    c2 = spec_file(tmp_path, {**COSET_SPEC, "subfield": 2}, "c2.json")
    code, out, err = run(capsys, *command, c1, c2)
    assert (code, out) == (2, "")
    assert err == f"error: {c2}: subfield degree differs from {c1}\n"


def test_verify_pir_transitive_structure_route(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "pir-transitive", spec_file(tmp_path, REP_SPEC))
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "proved-by-structure"


def test_verify_pir_transitive_unverified_exit(tmp_path, capsys):
    lopsided = {
        "ambient": {"p": 2, "r": 4},
        "family": {"m": 1, "N": [6], "J": []},  # 6 is not a power of 2
        "delta": [[0], [2]],
    }
    code, out, _ = run(capsys, "verify", "pir-transitive", spec_file(tmp_path, lopsided))
    cert = json.loads(out)
    assert (code, cert["status"]) == (1, "unverified")


@pytest.mark.parametrize(
    "spec, status, orbit_checked, exit_code",
    [
        # premises proved: the code, not coset-closed over GF(2), is never built
        ({**COSET_SPEC, "family": {"m": 1, "N": [16], "J": []}, "delta": [[0], [1]]},
         "proved-by-structure", None, 0),
        # premises fail: the search verifies cyclic48's storage code
        ({"ambient": {"p": 7, "r": 2}, "family": {"m": 1, "N": [49], "J": [1]},
          "subfield": 1, "delta": {"generator": "cosets", "seeds": [[24], [25]]}},
         "verified-by-permutations", True, 0),
        ({"ambient": {"p": 2, "r": 4}, "family": {"m": 1, "N": [6], "J": []},
          "delta": [[0], [2]]},
         "unverified", False, 1),
        # past the length cap nothing is searched
        ({"ambient": {"p": 2, "r": 11}, "family": {"m": 1, "N": [2048], "J": [1]},
          "delta": [[0], [3]]},
         "unverified", None, 1),
    ],
)
def test_verify_pir_transitive_certificate(tmp_path, capsys, spec, status, orbit_checked, exit_code):
    code, out, err = run(capsys, "verify", "pir-transitive", spec_file(tmp_path, spec))
    cert = json.loads(out)
    assert (code, cert["status"], cert["orbit_checked"]) == (exit_code, status, orbit_checked), err


# ---------------------------------------------------------------- schur/subfield


def test_schur_reports_grid_dimension(tmp_path, capsys):
    c1 = spec_file(tmp_path, REP_SPEC, "c1.json")
    c2 = spec_file(tmp_path, REP_SPEC, "c2.json")
    code, out, _ = run(capsys, "schur", c1, c2)
    assert code == 0
    assert out.splitlines()[0] == "[64,1,64]"
    assert "minkowski dimension: 1 (agrees: yes)" in out


def test_schur_of_whole_field_subfield_codes_is_the_evaluation_product(tmp_path, capsys):
    # subfield degree r names C_delta itself, alone or beside a spec without one
    plain = spec_file(tmp_path, RM_SPEC, "plain.json")
    whole = spec_file(tmp_path, {**RM_SPEC, "subfield": 1}, "whole.json")
    _, expect, _ = run(capsys, "schur", plain, plain)
    assert expect.splitlines()[0] == "[128,29,32]"
    for pair in ((whole, whole), (plain, whole), (whole, plain)):
        code, out, _ = run(capsys, "schur", *pair)
        assert (code, out) == (0, expect), pair


def test_subfield_command_with_degree_flag(tmp_path, capsys):
    spec = {k: v for k, v in COSET_SPEC.items() if k != "subfield"}
    spec["delta"] = [[0], [1], [2], [4], [8]]
    code, out, _ = run(capsys, "subfield", spec_file(tmp_path, spec), "--degree", "1")
    assert code == 0
    assert "[15,5," in out.splitlines()[0]
    assert "dimension equals defining-set size: yes" in out


def test_subfield_of_the_whole_field_summarizes_like_build(tmp_path, capsys):
    # with q' = q the subfield code is C_delta itself, so its distance comes
    # from the same footprint certificate
    path = spec_file(tmp_path, WRM_SPEC)
    _, built, _ = run(capsys, "build", path)
    code, out, _ = run(capsys, "subfield", path, "--degree", "1")
    assert code == 0
    assert out.splitlines()[:4] == built.splitlines()[:4]
    assert out.splitlines()[0] == "[128,44,16]"
    assert "distance: 16 (exact; footprint bound with matching witness)" in out.splitlines()


def test_subfield_requires_degree(tmp_path, capsys):
    spec = {k: v for k, v in COSET_SPEC.items() if k != "subfield"}
    spec["delta"] = [[0]]
    code, _, err = run(capsys, "subfield", spec_file(tmp_path, spec))
    assert code == 2 and "degree" in err


def test_subfield_rejects_unclosed_delta(tmp_path, capsys):
    spec = dict(COSET_SPEC)
    spec["delta"] = [[0], [1]]  # misses 2, 4, 8 from the class of 1
    code, _, err = run(capsys, "subfield", spec_file(tmp_path, spec))
    assert code == 2 and "closure adds 3" in err


def test_cosets_generator_requires_subfield(tmp_path, capsys):
    spec = {k: v for k, v in COSET_SPEC.items() if k != "subfield"}
    code, _, err = run(capsys, "build", spec_file(tmp_path, spec))
    assert code == 2 and "subfield" in err


# ---------------------------------------------------------------- environment


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("EVALCODE_BUDGET_STEPS", "123")
    assert SearchBudget().steps == 123
    monkeypatch.setenv("EVALCODE_BUDGET_STEPS", "not-a-number")
    assert SearchBudget().steps == 10**9


def test_console_script_runs():
    # the subprocess imports the same evalcode as this test, installed or not
    src = str(Path(evalcode.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "evalcode.cli", "table", "berman49", "--format", "csv"],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("row,style,")
