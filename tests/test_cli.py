"""Command-line interface: JSON output, schemas, exit codes."""

import contextlib
import copy
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from galforms import classify, cohomology, fields, groups
from galforms.cli import run


def invoke(capsys, *argv):
    """Run the CLI; the output document must validate against its schema."""
    code = run(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out)
    validate_result(doc)
    return code, doc


# --- root-datum commands --------------------------------------------------

def test_dual(capsys):
    code, doc = invoke(capsys, "dual", "--type", "A2", "--isogeny", "sc")
    assert code == 0
    assert doc["schema"] == "galforms/root-datum/v1"
    assert doc["rank"] == 2
    assert len(doc["roots"]) == 6


def test_pi1(capsys):
    code, doc = invoke(capsys, "pi1", "--type", "A2", "--isogeny", "adjoint")
    assert code == 0
    assert doc["schema"] == "galforms/abelian-group/v1"
    assert doc["invariant_factors"] == [3]
    assert doc["free_rank"] == 0


@pytest.mark.parametrize("argv, code, want", [
    (["pi1", "--type", "T0"], 0, {"invariant_factors": [], "free_rank": 0}),
    (["pi1", "--type", "T8"], 0, {"invariant_factors": [], "free_rank": 8}),
    (["inner-invariant", "--type", "T0", "-d", "-1"], 0, {"pi1": {"invariant_factors": [], "free_rank": 0}}),
    (["pi1", "--type", "T9"], 1, {"error": "rank > 8 not supported"}),
    (["dual", "--type", "T-1"], 1, {"error": "T_n needs n >= 0"}),
], ids=["pi1 T0", "pi1 T8", "inner-invariant T0", "pi1 T9", "dual T-1"])
def test_torus_ranks(capsys, argv, code, want):
    """pi_1 of the rank-0 torus is 0, and a torus rank is capped at 8 like
    a Cartan rank and is never negative."""
    got, doc = invoke(capsys, *argv)
    assert got == code
    assert {key: doc[key] for key in want} == want


def test_outer(capsys):
    code, doc = invoke(capsys, "outer", "--type", "D4")
    assert code == 0
    assert doc["order"] == 6
    assert len(doc["simple_permutations"]) == 6


def test_classify_quasisplit(capsys):
    code, doc = invoke(
        capsys, "classify-quasisplit", "--gamma", "C2", "--type", "A2"
    )
    assert code == 0
    assert doc["count"] == 2
    assert doc["classes"][0]["rho"] == [0, 0]
    code, doc = invoke(capsys, "classify-quasisplit", "--gamma", "S3", "--out", "S3")
    assert code == 0
    assert doc["count"] == 3


def test_coinvariants(capsys):
    code, doc = invoke(
        capsys,
        "coinvariants",
        "--type", "A2",
        "--isogeny", "adjoint",
        "--rho", "0,1",
        "--height", "2",
    )
    assert code == 0
    assert doc["coinvariants"] == {"free_rank": 1, "invariant_factors": []}
    assert doc["fixed_rank"] == 1
    assert [[0, 1], [1, 0]] in doc["orbits"]


# --- cohomology commands --------------------------------------------------

def test_h1_job_stdin(capsys, monkeypatch, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"gamma": "C2", "coefficients": "C4"}))
    code, doc = invoke(capsys, "h1", "--job", str(job))
    assert code == 0
    assert doc["schema"] == "galforms/h1/v1"
    assert doc["count"] == 2


def test_h1_of_c12_on_s3_is_within_budget(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"gamma": "C12", "coefficients": "S3"}))
    code, doc = invoke(capsys, "h1", "--job", str(job))
    assert code == 0
    assert doc["count"] == 3


def test_h1_with_action(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "gamma": "C2",
                "coefficients": "C3",
                "action": [[0, 1, 2], [0, 2, 1]],
            }
        )
    )
    code, doc = invoke(capsys, "h1", "--job", str(job))
    assert code == 0
    assert doc["count"] == 1


def test_h2_job(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"gamma": "C4", "moduli": [2]}))
    code, doc = invoke(capsys, "h2", "--job", str(job))
    assert code == 0
    assert doc["invariant_factors"] == [2]
    # one generator representative per invariant factor
    assert len(doc["representatives"]) == 1


GOLDEN_H2 = json.loads((Path(__file__).parent / "data" / "h2_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_H2, ids=[c["name"] for c in GOLDEN_H2])
def test_h2_golden_stdout(capsys, tmp_path, case):
    """The representatives are pinned byte for byte: golden stdout of
    `galforms h2 --job`, recorded before h2_bar went integer-only."""
    job = tmp_path / "job.json"
    job.write_text(json.dumps(case["job"]))
    assert run(["h2", "--job", str(job)]) == 0
    assert capsys.readouterr().out == json.dumps(case["stdout"], indent=2, sort_keys=True) + "\n"
    validate_result(case["stdout"])


GOLDEN_H1 = json.loads((Path(__file__).parent / "data" / "h1_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_H1, ids=[c["name"] for c in GOLDEN_H1])
def test_h1_golden_stdout(capsys, tmp_path, case):
    """Golden stdout of `galforms h1 --job`, recorded while 1-cocycles were
    found by trying every map."""
    job = tmp_path / "job.json"
    job.write_text(json.dumps(case["job"]))
    assert run(["h1", "--job", str(job)]) == 0
    assert capsys.readouterr().out == json.dumps(case["stdout"], indent=2, sort_keys=True) + "\n"
    validate_result(case["stdout"])


def test_boundary_job(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "gamma": "C2",
                "z": "C2",
                "b": "C4",
                "c": "C2",
                "inclusion": [0, 2],
                "projection": [0, 1, 0, 1],
                "cocycle": [0, 1],
            }
        )
    )
    code, doc = invoke(capsys, "boundary", "--job", str(job))
    assert code == 0
    assert doc["schema"] == "galforms/boundary/v1"
    table = {(a, b): v for a, b, v in doc["table"]}
    assert table[(1, 1)] == 1  # the nontrivial class: lift^2 = the central element


# --- arithmetic commands --------------------------------------------------

def test_hilbert(capsys):
    code, doc = invoke(capsys, "hilbert", "-a", "-1", "-b", "-1", "-p", "2")
    assert code == 0 and doc["symbol"] == -1
    code, doc = invoke(capsys, "hilbert", "-a", "-1", "-b", "-1", "-p", "inf")
    assert code == 0 and doc["symbol"] == -1
    code, doc = invoke(capsys, "hilbert", "-a", "2", "-b", "3", "-p", "5")
    assert code == 0 and doc["symbol"] == 1


def test_brauer_class(capsys):
    code, doc = invoke(capsys, "brauer-class", "-d", "-1", "-c", "-1")
    assert code == 0
    assert doc["ramified"] == [2, "inf"]
    assert doc["trivial"] is False


def test_crossed_product_quadratic(capsys):
    code, doc = invoke(capsys, "crossed-product", "-d", "-1", "-c", "-1")
    assert code == 0
    assert doc["dimension"] == 4
    assert doc["central_simple"] is True
    assert doc["split"] is False
    code, doc = invoke(capsys, "crossed-product", "-d", "2", "-c", "2")
    assert code == 0
    assert doc["split"] is True
    assert "zero_divisor" in doc


def test_crossed_product_job_and_cocycle_roundtrip(capsys, tmp_path):
    code, doc = invoke(capsys, "crossed-product", "-d", "-1", "-c", "3")
    assert code == 0
    # feed the emitted cocycle table back in as a job document
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps({"field": doc["field"], "cocycle": doc["cocycle"]})
    )
    code2, doc2 = invoke(capsys, "crossed-product", "--job", str(job))
    assert code2 == 0
    assert doc2["cocycle"] == doc["cocycle"]
    assert doc2["split"] == doc["split"]


def test_crossed_product_cyclotomic_job(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps({"field": {"kind": "cyclotomic", "n": 3}, "cocycle": "trivial"})
    )
    code, doc = invoke(capsys, "crossed-product", "--job", str(job))
    assert code == 0
    assert doc["dimension"] == 4
    assert doc["split"] is None or doc["split"] is True


GOLDEN_CROSSED = json.loads((Path(__file__).parent / "data" / "crossed_golden.json").read_text())
SCHEMAS = Path(__file__).parents[1] / "schemas"
RESULT_DEFINITIONS = {
    "galforms/root-datum/v1": "rootDatum",
    "galforms/outer/v1": "outer",
    "galforms/abelian-group/v1": "abelianGroup",
    "galforms/quasisplit/v1": "quasisplit",
    "galforms/coinvariants/v1": "coinvariants",
    "galforms/crossed-product/v1": "crossedProduct",
    "galforms/descend/v1": "descend",
    "galforms/h1/v1": "h1",
    "galforms/h2/v1": "h2",
    "galforms/boundary/v1": "boundary",
    "galforms/hilbert/v1": "hilbert",
    "galforms/brauer-class/v1": "brauerClass",
    "galforms/inner-invariant/v1": "innerInvariant",
    "galforms/error/v1": "error",
}


JOB_DEFINITIONS = {
    "h1": "h1Job",
    "h2": "h2Job",
    "boundary": "boundaryJob",
    "crossed-product": "crossedProductJob",
    "descend": "descendJob",
}
SCHEMA_URIS = {"results": "galforms/results", "jobs": "galforms/jobs",
               "common": "galforms/common.schema.json"}


@functools.lru_cache(maxsize=None)
def schema_validator(ref):
    """A draft-07 validator for ref, with the three files of schemas/ in
    its registry."""
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    registry = Registry().with_resources(
        (uri, Resource.from_contents(json.loads((SCHEMAS / f"{name}.schema.json").read_text())))
        for name, uri in SCHEMA_URIS.items()
    )
    return Draft7Validator({"$ref": ref}, registry=registry)


def validate_result(doc):
    """Validate an output document against its definition in
    schemas/results.schema.json."""
    schema_validator(f"galforms/results#/definitions/{RESULT_DEFINITIONS[doc['schema']]}").validate(doc)


def job_validator(command):
    """The validator of the job documents of command, from
    schemas/jobs.schema.json."""
    return schema_validator(f"galforms/jobs#/definitions/{JOB_DEFINITIONS[command]}")


@pytest.mark.parametrize("case", GOLDEN_CROSSED, ids=[c["name"] for c in GOLDEN_CROSSED])
def test_crossed_golden_stdout(capsys, tmp_path, case):
    """Golden stdout of `crossed-product` and `descend`, recorded before
    the structure checks read the table of basis products."""
    argv = list(case["argv"])
    if case["job"] is not None:
        job = tmp_path / "job.json"
        job.write_text(json.dumps(case["job"]))
        argv += ["--job", str(job)]
    assert run(argv) == case["exit"]
    out = capsys.readouterr().out
    assert out == case["stdout"]
    validate_result(json.loads(out))


GOLDEN_LIE = json.loads((Path(__file__).parent / "data" / "lie_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_LIE, ids=[c["name"] for c in GOLDEN_LIE])
def test_lie_golden_stdout(capsys, case):
    """Golden stdout of `dual`, `outer`, `pi1`, `classify-quasisplit` and
    `coinvariants`, recorded before root data were built from the
    coordinates of the reflection closure and Hom(Gamma, Out) from
    generator images."""
    assert run(case["argv"]) == case["exit"]
    out = capsys.readouterr().out
    assert out == json.dumps(case["stdout"], indent=2, sort_keys=True) + "\n"
    validate_result(case["stdout"])


def test_schema_validation_rejects_a_wrong_document():
    from jsonschema import ValidationError

    doc = json.loads(GOLDEN_CROSSED[0]["stdout"])
    doc["center_dimension"] = 0
    with pytest.raises(ValidationError):
        validate_result(doc)
    doc = json.loads(GOLDEN_CROSSED[0]["stdout"])
    doc["field"]["kind"] = "p-adic"
    with pytest.raises(ValidationError):
        validate_result(doc)
    outer = next(c["stdout"] for c in GOLDEN_LIE if c["argv"][0] == "outer")
    with pytest.raises(ValidationError):
        validate_result(dict(outer, order=0))


def test_crossed_product_rejects_a_non_cocycle(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "field": {"kind": "quadratic", "d": -1},
        "cocycle": [[0, 0, ["1/1", "0/1"]], [0, 1, ["1/1", "0/1"]],
                    [1, 0, ["2/1", "0/1"]], [1, 1, ["-1/1", "0/1"]]],
    }))
    code, doc = invoke(capsys, "crossed-product", "--job", str(job))
    assert code == 1
    assert doc["kind"] == "domain-error"
    assert doc["error"] == "not a 2-cocycle: associativity fails at triple (1, 0, 0)"
    validate_result(doc)


ONE_4, ZERO_4 = ["1", "0", "0", "0"], ["0", "0", "0", "0"]
ZERO_COCYCLES = [
    ("Q(zeta5), zeta(a, b) = 0 off the identity", {"kind": "cyclotomic", "n": 5},
     [[a, b, ONE_4 if 0 in (a, b) else ZERO_4] for a in range(4) for b in range(4)]),
    ("Q(i), c = 0", {"kind": "quadratic", "d": -1},
     [[0, 0, ["1", "0"]], [0, 1, ["1", "0"]], [1, 0, ["1", "0"]], [1, 1, ["0", "0"]]]),
]


@pytest.mark.parametrize("field, table", [c[1:] for c in ZERO_COCYCLES],
                         ids=[c[0] for c in ZERO_COCYCLES])
def test_crossed_product_refuses_a_zero_cocycle_value(capsys, tmp_path, field, table):
    """A zero table passes the associativity test but defines no crossed
    product; it is refused before that test, at its first zero pair."""
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": field, "cocycle": table}))
    code, doc = invoke(capsys, "crossed-product", "--job", str(job))
    assert code == 1
    assert doc == {"schema": "galforms/error/v1", "kind": "domain-error",
                   "error": "cocycle value must be nonzero at pair (1, 1)"}

def test_descend_valid(capsys, tmp_path):
    job = tmp_path / "job.json"
    # 1x1 matrices: rows of field-element coordinate arrays
    job.write_text(
        json.dumps(
            {
                "field": {"kind": "quadratic", "d": -1},
                "cocycle": "trivial",
                "matrices": [[[["1", "0"]]], [[["0", "1"]]]],
            }
        )
    )
    code, doc = invoke(capsys, "descend", "--job", str(job))
    assert code == 0
    assert doc["valid"] is True
    assert doc["module_dimension"] == 2
    assert doc["fixed_dimension"] == 1


def test_descend_invalid_reports_witness(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "field": {"kind": "quadratic", "d": -1},
                "cocycle": {"c": "-1"},
                "matrices": [[[["1", "0"]]], [[["1", "0"]]]],
            }
        )
    )
    code, doc = invoke(capsys, "descend", "--job", str(job))
    assert code == 0
    assert doc["valid"] is False
    assert "twisted composition fails at pair (1, 1)" in doc["violation"]


ONE = ["1", "0"]
DESCEND_EDGE_CASES = [
    ("dim 0, trivial cocycle",
     {"field": {"kind": "quadratic", "d": -1}, "cocycle": "trivial", "matrices": [[], []]},
     0, {"schema": "galforms/descend/v1", "valid": True, "violation": None,
         "module_dimension": 0, "fixed_space": [], "fixed_dimension": 0}),
    ("dim 0, zeta(s, s) = i is no cocycle",
     {"field": {"kind": "quadratic", "d": -1},
      "cocycle": [[0, 0, ONE], [0, 1, ONE], [1, 0, ONE], [1, 1, ["0", "1"]]],
      "matrices": [[], []]},
     1, {"schema": "galforms/error/v1", "kind": "domain-error",
         "error": "not a 2-cocycle: associativity fails at triple (1, 1, 1)"}),
    ("dim 0, zeta(s, s) = 0",
     {"field": {"kind": "quadratic", "d": -1},
      "cocycle": [[0, 0, ONE], [0, 1, ONE], [1, 0, ONE], [1, 1, ["0", "0"]]],
      "matrices": [[], []]},
     1, {"schema": "galforms/error/v1", "kind": "domain-error",
         "error": "cocycle value must be nonzero at pair (1, 1)"}),
    ("dim 1, zeta(s, s) = sqrt 5",
     {"field": {"kind": "quadratic", "d": 5},
      "cocycle": [[0, 0, ONE], [0, 1, ONE], [1, 0, ONE], [1, 1, ["0", "1"]]],
      "matrices": [[[ONE]], [[ONE]]]},
     0, {"schema": "galforms/descend/v1", "valid": False,
         "violation": "twisted composition fails at pair (1, 1)"}),
]


@pytest.mark.parametrize("job, exit_code, want", [c[1:] for c in DESCEND_EDGE_CASES],
                         ids=[c[0] for c in DESCEND_EDGE_CASES])
def test_descend_edge_cases(capsys, tmp_path, job, exit_code, want):
    """Empty data and a non-cocycle twist: the zero module is valid, the
    crossed product refuses a table that is no cocycle or has a zero
    value, and a datum over an irrational zeta fails the composition law
    at its witness pair."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, doc = invoke(capsys, "descend", "--job", str(path))
    assert code == exit_code
    assert doc == want


def test_inner_invariant(capsys):
    code, doc = invoke(
        capsys,
        "inner-invariant",
        "--type", "A1",
        "--isogeny", "adjoint",
        "-d", "-1",
        "--assign", "-1",
    )
    assert code == 0
    assert doc["pi1"]["invariant_factors"] == [2]
    nontrivial = next(c for c in doc["components"] if c["element"] == [1])
    assert nontrivial["trivial"] is False
    assert nontrivial["split_algebra"] is False


# --- exit codes and robustness --------------------------------------------

def test_domain_error_exit_1(capsys):
    code, doc = invoke(capsys, "crossed-product", "-d", "4", "-c", "1")
    assert code == 1
    assert doc["schema"] == "galforms/error/v1"
    assert doc["kind"] == "domain-error"
    code, doc = invoke(
        capsys,
        "inner-invariant", "--type", "A2", "--isogeny", "adjoint",
        "-d", "-1", "--assign", "-1",
    )
    assert code == 1
    assert "order violation" in doc["error"]


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = invoke(capsys, "h1", "--job", str(bad))
    assert code == 2
    assert doc["kind"] == "malformed-input"
    code, doc = invoke(capsys, "classify-quasisplit", "--gamma", "Q8")
    assert code == 2


@pytest.mark.parametrize(
    "key, value",
    [("inclusion", "ab"), ("inclusion", [0, 4]), ("projection", [0, 1, 0, -1]),
     ("cocycle", [0, "1"]), ("cocycle", [0, True])],
)
def test_boundary_rejects_malformed_fields(capsys, tmp_path, key, value):
    doc = {"gamma": "C2", "z": "C2", "b": "C4", "c": "C2", "inclusion": [0, 2],
           "projection": [0, 1, 0, 1], "cocycle": [0, 1]}
    doc[key] = value
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    code, out = invoke(capsys, "boundary", "--job", str(job))
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert out["error"].startswith(key)


@pytest.mark.parametrize("action", [[5, 6], [[0, 1, 2], [0, 2, "1"]], [[0, 1, 2], [False, 2, True]]])
def test_h1_rejects_action_entries_that_are_not_lists_of_ints(capsys, tmp_path, action):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"gamma": "C2", "coefficients": "C3", "action": action}))
    code, out = invoke(capsys, "h1", "--job", str(job))
    assert code == 2
    assert out["kind"] == "malformed-input"


@pytest.mark.parametrize("key, value", [
    ("moduli", [True]), ("moduli", [2, False]), ("moduli", [2.0]), ("moduli", ["2"]),
    ("action", [[[1]], [[-1.7]]]), ("action", [[[1]], [["-1"]]]), ("action", [[[1]], [[True]]]),
    ("action", [[[1]], [-1]]), ("action", [[[1]], [[None]]]),
])
def test_h2_fields_must_be_json_integers(capsys, tmp_path, key, value):
    """moduli and action entries are JSON integers: a bool, a float or a
    string is malformed input, not a coerced number."""
    doc = {"gamma": "C2", "moduli": [3], "action": [[[1]], [[-1]]]}
    doc[key] = value
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    code, out = invoke(capsys, "h2", "--job", str(job))
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert key in out["error"]


@pytest.mark.parametrize("pair", [[0, True], [True, 0], [0, 1.0]])
def test_crossed_product_rejects_group_indices_that_are_not_integers(capsys, tmp_path, pair):
    one = ["1/1", "0/1"]
    table = [[0, 0, one], [0, 1, one], [1, 0, one], [1, 1, ["-1/1", "0/1"]]]
    table[1] = pair + [one]
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": {"kind": "quadratic", "d": -1}, "cocycle": table}))
    code, out = invoke(capsys, "crossed-product", "--job", str(job))
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert "group element pair" in out["error"]


@pytest.mark.parametrize(
    "label, rho, reason",
    [("A2", "1,1", "identity"), ("A2", "0,1,1", "unequal sizes"),
     ("D4", "0,1,2", "not closed"), ("A2", "0,5", "does not land in the outer")],
)
def test_coinvariants_rejects_rho_that_is_no_homomorphism(capsys, label, rho, reason):
    code, out = invoke(
        capsys, "coinvariants", "--type", label, "--isogeny", "adjoint",
        "--rho", rho, "--height", "1",
    )
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert reason in out["error"]


NOT_PLAIN_DECIMALS = [("rho", rho) for rho in (" 0,+1", "0,1_0", "0,+1", "0, 1", "0,1\n", "0,\u0661", "0,")]
NOT_PLAIN_DECIMALS += [("place", place) for place in ("1_1", "+2", " 2", "2\n", "\u0662", "0x2", "")]
NOT_PLAIN_DECIMALS += [("d", "+2"), ("d", "1_1"), ("height", " 1_0"), ("c", "1.5"), ("c", "1_0")]


@pytest.mark.parametrize("flag, text", NOT_PLAIN_DECIMALS,
                         ids=[f"{flag} {text!r}" for flag, text in NOT_PLAIN_DECIMALS])
def test_integers_are_plain_decimals(capsys, flag, text):
    """--rho entries, --place, -d and --height are -?[0-9]+, and -c is a
    rational -?[0-9]+(/[0-9]+)?: int() and Fraction() would also read
    '1_1' as 11 and take signs, spaces, non-ASCII digits and decimals."""
    argv = {
        "rho": ["coinvariants", "--type", "A2", "--isogeny", "adjoint", "--rho", text],
        "place": ["hilbert", "-a", "-1", "-b", "-1", "-p", text],
        "d": ["crossed-product", "-d", text, "-c", "3"],
        "height": ["coinvariants", "--type", "A2", "--isogeny", "adjoint", "--rho", "0,1",
                   "--height", text],
        "c": ["crossed-product", "-d", "-1", "-c", text],
    }[flag]
    error = {
        "d": f"argument -d: invalid int value: {text!r}",
        "height": f"argument --height: invalid int value: {text!r}",
        "c": f"bad rational {text!r}",
    }.get(flag, f"bad {flag} {text!r}")
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out == {"schema": "galforms/error/v1", "kind": "malformed-input", "error": error}


def test_plain_decimals_are_still_read(capsys):
    code, out = invoke(capsys, "hilbert", "-a", "-1", "-b", "-1", "-p", "11")
    assert (code, out["symbol"]) == (0, 1)
    code, out = invoke(capsys, "coinvariants", "--type", "A2", "--isogeny", "adjoint",
                       "--rho", "0,1", "--height", "1")
    assert code == 0


BOUNDARY_JOB = {"gamma": "C2", "z": "C2", "b": "C4", "c": "C2", "inclusion": [0, 2],
                "projection": [0, 1, 0, 1], "cocycle": [0, 1]}
SCHEMA_CASES = [
    ("h1 trivial action", ["h1"], {"gamma": "C2", "coefficients": "C4"}, 0),
    ("h1 C2 inverting C3", ["h1"],
     {"gamma": "C2", "coefficients": "C3", "action": [[0, 1, 2], [0, 2, 1]]}, 0),
    ("h2 C2xC2 on Z/2", ["h2"], {"gamma": "C2xC2", "moduli": [2]}, 0),
    ("h2 C4 on Z/4 x Z/2", ["h2"], {"gamma": "C4", "moduli": [4, 2]}, 0),
    ("boundary", ["boundary"], BOUNDARY_JOB, 0),
    ("hilbert at 2", ["hilbert", "-a", "-1", "-b", "-1", "-p", "2"], None, 0),
    ("hilbert at inf", ["hilbert", "-a", "3/2", "-b", "-5", "-p", "inf"], None, 0),
    ("brauer-class ramified", ["brauer-class", "-d", "-1", "-c", "-1"], None, 0),
    ("brauer-class trivial", ["brauer-class", "-d", "2", "-c", "7"], None, 0),
    ("inner-invariant A1 adjoint", ["inner-invariant", "--type", "A1", "--isogeny", "adjoint",
                                    "-d", "-1", "--assign", "-1"], None, 0),
    ("inner-invariant A3 sc", ["inner-invariant", "--type", "A3", "-d", "5"], None, 0),
    ("error domain", ["brauer-class", "-d", "3", "-c", "0"], None, 1),
    ("error malformed job", ["h2"], {"gamma": "C2", "moduli": []}, 2),
    ("error malformed field", ["descend"], {"field": {"kind": "quadratic", "d": 2.5},
                                            "cocycle": "trivial", "matrices": []}, 2),
]


@pytest.mark.parametrize("argv, job, code", [c[1:] for c in SCHEMA_CASES],
                         ids=[c[0] for c in SCHEMA_CASES])
def test_outputs_validate_against_schema(capsys, tmp_path, argv, job, code):
    argv = list(argv)
    if job is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        argv += ["--job", str(path)]
    got, doc = invoke(capsys, *argv)
    assert got == code
    assert doc["schema"] == "galforms/error/v1" if code else doc["schema"] != "galforms/error/v1"


@pytest.mark.parametrize("key, value", [
    ("d", 2.5), ("d", True), ("d", "x"), ("d", "-1"), ("d", None),
    ("n", 5.0), ("n", False), ("n", "8"), ("n", [5]),
])
def test_field_parameters_must_be_json_integers(capsys, tmp_path, key, value):
    """field.d and field.n are JSON integers (common.schema.json): a float,
    a bool or a string is malformed input, not a different field."""
    kind = "quadratic" if key == "d" else "cyclotomic"
    field = {"kind": kind, key: value}
    one = ["1/1", "0/1"]
    jobs = [
        ["descend", {"field": field, "cocycle": "trivial", "matrices": [[[one]], [[one]]]}],
        ["crossed-product", {"field": field, "cocycle": "trivial"}],
    ]
    for command, doc in jobs:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        code, out = invoke(capsys, command, "--job", str(path))
        assert code == 2
        assert out["kind"] == "malformed-input"
        assert f"field.{key}" in out["error"]


def test_descend_rejects_a_row_that_is_no_list(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "field": {"kind": "quadratic", "d": -1},
        "cocycle": "trivial",
        "matrices": [[["1"]], ["1"]],
    }))
    code, out = invoke(capsys, "descend", "--job", str(job))
    assert code == 2
    assert out["kind"] == "malformed-input"
    assert out["error"] == "matrices must be lists of rows"


def test_argparse_errors_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "galforms", "no-such-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "galforms"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe early (`galforms ... | head`) gets
    exit 1 and no traceback on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "galforms", "outer", "--type", "D4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_no_global_seed_flag(capsys):
    """No subroutine is randomized, so there is no --seed to pass."""
    code, out = invoke(capsys, "--seed", "1", "pi1", "--type", "A1")
    assert code == 2
    assert out["kind"] == "malformed-input"


@pytest.mark.parametrize("argv", [
    ["crossed-product", "-d", "abc", "-c", "1"],
    ["coinvariants", "--type", "A2", "--rho", "0,1", "--height", "x"],
    ["dual", "--type", "A2", "--isogeny", "foo"],
    ["dual"],
    ["inner-invariant", "--type", "A3", "-d", "x", "--assign", "-1"],
    ["classify-quasisplit", "--gamma", "C2", "--type", "A2", "--isogeny", "foo"],
    ["no-such-command"],
    [],
])
def test_usage_errors_print_malformed_input(capsys, argv):
    """Usage errors print an error/v1 document and exit 2, with nothing on
    stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    validate_result(doc)
    assert code == 2
    assert doc["kind"] == "malformed-input"
    assert captured.err == ""


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dual", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: galforms dual")


def test_output_is_deterministic():
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "galforms", "outer", "--type", "D4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    # keys are sorted for stable diffs
    doc = json.loads(runs[0])
    assert list(doc) == sorted(doc)


@pytest.mark.parametrize("spec", ["S9", "C1000", "C30xC30", "S6xC2", "S100000"])
def test_group_order_cap(monkeypatch, spec):
    """The order is read from the spec; a group above the cap is refused
    before any multiplication table is built."""
    from galforms import cli

    def refuse(*args):
        raise AssertionError("group built")

    for name in ("cyclic", "symmetric", "direct_product"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(ValueError, match=f"cap of {cli.GROUP_ORDER_CAP}"):
        cli.parse_group(spec)


def test_group_order_cap_exit_code(capsys):
    code, doc = invoke(capsys, "classify-quasisplit", "--gamma", "S9", "--type", "D4")
    assert code == 1
    assert doc["kind"] == "domain-error"
    assert "cap of 720" in doc["error"]


@pytest.mark.parametrize("spec, order", [("S6", 720), ("C720", 720), ("C6xS3", 36)])
def test_groups_at_the_cap_are_built(spec, order):
    from galforms.cli import parse_group

    assert parse_group(spec).order == order


def test_imports_only_the_standard_library():
    """galforms has no runtime dependencies: importing the library and its
    CLI in an isolated interpreter loads only standard-library modules."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import galforms, galforms.cli; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(m for m in new if m != 'galforms' and m not in sys.stdlib_module_names))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(src)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("spec", ["S0", "C0", "C720xS0"])
def test_group_spec_needs_positive_n(monkeypatch, capsys, spec):
    """n < 1 is refused for both kinds of factor before any table is
    built, as a domain error."""
    from galforms import cli

    def refuse(*args):
        raise AssertionError("group built")

    for name in ("cyclic", "symmetric", "direct_product"):
        monkeypatch.setattr(cli, name, refuse)
    code, doc = invoke(capsys, "classify-quasisplit", "--gamma", spec, "--type", "A2")
    assert code == 1
    assert doc["kind"] == "domain-error"
    assert "needs n >= 1" in doc["error"]


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["classify-quasisplit", "--gamma", "x".join(["C2"] * 9), "--out", "S6"],
         groups.ENUMERATION_BUDGET),
        (["coinvariants", "--type", "E8", "--rho", "0", "--height", "40"],
         classify.COWEIGHT_BOX_BUDGET),
    ],
    ids=["homomorphisms", "coweight-box"],
)
def test_enumeration_budgets_exit_1(capsys, argv, budget):
    """Inputs that would enumerate for hours are refused at once, with an
    error that names the budget."""
    code, doc = invoke(capsys, *argv)
    assert code == 1
    assert doc["kind"] == "domain-error"
    assert f"budget of {budget}" in doc["error"]


def test_default_height_is_within_the_coweight_budget(capsys, monkeypatch):
    """`coinvariants` without --height passes the box count for E8 and
    reaches the lattice work."""

    def reached(*args):
        raise ValueError("lattice work reached")

    monkeypatch.setattr(classify, "coinvariants", reached)
    code, doc = invoke(capsys, "coinvariants", "--type", "E8", "--rho", "0")
    assert code == 1
    assert doc["error"] == "lattice work reached"


def test_negative_height_exit_2(capsys):
    code, doc = invoke(capsys, "coinvariants", "--type", "A2", "--rho", "0", "--height", "-1")
    assert code == 2
    assert doc["kind"] == "malformed-input"


@pytest.mark.parametrize("argv, error", [
    (["--type", "Z9", "--rho", "x"], "bad rho 'x'"),
    (["--type", "E9", "--rho", "0,1", "--height", "-1"], "height must be non-negative, got -1"),
])
def test_coinvariants_reads_rho_and_height_before_the_datum(capsys, argv, error):
    """--rho and --height are read before the root datum is built, so a
    malformed flag wins over an unsupported type."""
    code, doc = invoke(capsys, "coinvariants", *argv)
    assert (code, doc["kind"], doc["error"]) == (2, "malformed-input", error)


def test_lie_golden_cold_then_warm(capsys):
    """With the root-datum memo emptied, every lie golden case gives the
    same bytes on its first run in the process and on its second."""
    from galforms.root_datum import _cartan_datum

    expected = [json.dumps(case["stdout"], indent=2, sort_keys=True) + "\n" for case in GOLDEN_LIE]
    _cartan_datum.cache_clear()
    passes = []
    for _ in range(2):
        outs = []
        for case in GOLDEN_LIE:
            assert run(case["argv"]) == case["exit"]
            outs.append(capsys.readouterr().out)
        passes.append(outs)
    assert passes[0] == expected
    assert passes[1] == expected
    assert _cartan_datum.cache_info().hits >= len(GOLDEN_LIE)


@pytest.mark.parametrize("spec", ["S-3", "C+2", " C2", "C2 ", "c2", "C\u0662", "C2\tx C2", "C2xx"])
def test_group_specs_follow_the_schema(monkeypatch, capsys, tmp_path, spec):
    """A group spec is [CS][0-9]+, joined by x with spaces around it or
    not, as common.schema.json states.  int() would read 'C+2' as C2,
    strip() would drop the spaces, and 'S-3' was read as n = -3; each
    exits 2, as a flag and as a job field, before any group is built."""
    from galforms import cli

    def refuse(*args):
        raise AssertionError("group built")

    for name in ("cyclic", "symmetric", "direct_product"):
        monkeypatch.setattr(cli, name, refuse)
    code, doc = invoke(capsys, "classify-quasisplit", "--gamma", spec, "--out", "C2")
    assert (code, doc["kind"]) == (2, "malformed-input")
    assert doc["error"].startswith("bad group spec")
    job = {"gamma": spec, "coefficients": "C2"}
    assert not job_validator("h1").is_valid(job)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert invoke(capsys, "h1", "--job", str(path)) == (2, doc)


# --- the job schema states the syntax the CLI reads -------------------------

README = (Path(__file__).parents[1] / "README.md").read_text()
README_JOBS = [(command, json.loads(text))
               for command, text in re.findall(r"An? `([a-z0-9-]+)` job:\n\n```json\n(.*?)```", README, re.S)]
GOLDEN_JOBS = [("h1", case["job"]) for case in GOLDEN_H1] + [("h2", case["job"]) for case in GOLDEN_H2]
GOLDEN_JOBS += [(case["argv"][0], case["job"]) for case in GOLDEN_CROSSED if case["job"] is not None]


def test_golden_and_readme_jobs_validate(capsys, tmp_path):
    """Every job document of the goldens and of README validates against
    jobs.schema.json, and the README examples run."""
    assert len(README_JOBS) >= 4
    assert {command for command, _ in README_JOBS} == set(JOB_DEFINITIONS)
    for command, job in GOLDEN_JOBS + README_JOBS:
        job_validator(command).validate(job)
    for command, job in README_JOBS:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        assert invoke(capsys, command, "--job", str(path))[0] == 0, (command, job)


QI = {"kind": "quadratic", "d": -1}
QI_TABLE = [[0, 0, ["1", "0"]], [0, 1, ["1", "0"]], [1, 0, ["1", "0"]], [1, 1, ["-1", "0"]]]
REJECTED_JOBS = [
    ("c 1e3", "crossed-product", {"field": QI, "cocycle": {"c": "1e3"}}, "bad rational '1e3'"),
    ("c 1.5", "crossed-product", {"field": QI, "cocycle": {"c": 1.5}}, "bad rational 1.5"),
    ("c ' 3'", "crossed-product", {"field": QI, "cocycle": {"c": " 3"}}, "bad rational ' 3'"),
    ("c +3", "crossed-product", {"field": QI, "cocycle": {"c": "+3"}}, "bad rational '+3'"),
    ("c 1_0", "crossed-product", {"field": QI, "cocycle": {"c": "1_0"}}, "bad rational '1_0'"),
    ("c 3/-4", "crossed-product", {"field": QI, "cocycle": {"c": "3/-4"}}, "bad rational '3/-4'"),
    ("c true", "crossed-product", {"field": QI, "cocycle": {"c": True}}, "bad rational True"),
    ("coordinate 1.5", "descend", {"field": QI, "matrices": [[[["1.5", "0"]]], [[["1", "0"]]]]},
     "bad rational '1.5'"),
    ("scalar 0.5", "descend", {"field": QI, "matrices": [[[0.5]], [[1]]]}, "bad field element 0.5"),
    ("field.n on Q(i)", "crossed-product", {"field": dict(QI, n="x"), "cocycle": QI_TABLE},
     "field.n must be an integer"),
    ("field.d on Q", "crossed-product", {"field": {"kind": "rationals", "d": "2"}}, "field.d must be"),
    ("field without d", "crossed-product", {"field": {"kind": "quadratic"}}, "quadratic field needs 'd'"),
    ("gamma C+2", "h2", {"gamma": "C+2", "moduli": [2]}, "bad group spec 'C+2'"),
    ("coefficients 2", "h1", {"coefficients": 2}, "bad group spec '2'"),
    ("moduli 1_0", "h2", {"moduli": ["1_0"]}, "moduli"),
    ("pair index -1", "crossed-product", {"field": QI, "cocycle": [[-1, 0, 1]] + QI_TABLE[1:]},
     "bad group element pair (-1, 0)"),
    ("inclusion -1", "boundary", dict(BOUNDARY_JOB, inclusion=[-1, 2]), "inclusion"),
    # every field is read before anything is built, so a malformed field
    # wins over a domain error in another one
    ("C0, then coefficients C+2", "h1", {"gamma": "C0", "coefficients": "C+2"}, "bad group spec 'C+2'"),
    ("S9, then moduli [true]", "h2", {"gamma": "S9", "moduli": [True]}, "moduli"),
    ("inclusion of the wrong size, then cocycle ' 3'", "boundary",
     dict(BOUNDARY_JOB, inclusion=[0, 0, 2], cocycle=" 3"), "cocycle must be a list"),
    ("z = S9, then cocycle [0, true]", "boundary",
     dict(BOUNDARY_JOB, z="S9", cocycle=[0, True]), "cocycle must be a list"),
    ("d = 4, then c 1e3", "descend",
     {"field": {"kind": "quadratic", "d": 4}, "cocycle": {"c": "1e3"}, "matrices": []}, "bad rational"),
    ("Q(zeta_17), then value x", "crossed-product",
     {"field": {"kind": "cyclotomic", "n": 17}, "cocycle": [[0, 0, "x"]]}, "bad rational 'x'"),
    ("c = 0, then matrix entry x", "descend",
     {"field": QI, "cocycle": {"c": "0"}, "matrices": [[["x"]], [["1"]]]}, "bad rational 'x'"),
]


@pytest.mark.parametrize("command, job, error", [c[1:] for c in REJECTED_JOBS],
                         ids=[c[0] for c in REJECTED_JOBS])
def test_a_job_the_schema_rejects_exits_2(capsys, tmp_path, command, job, error):
    assert not job_validator(command).is_valid(job)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = invoke(capsys, command, "--job", str(path))
    assert (code, out["kind"]) == (2, "malformed-input")
    assert out["error"].startswith(error)


def test_a_repeated_cocycle_pair_exits_2(capsys, tmp_path):
    """The schema cannot say that each pair appears once; the CLI refuses
    a second value for a pair instead of keeping the last one."""
    job = {"field": QI, "cocycle": QI_TABLE + [[1, 1, ["1", "0"]]]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = invoke(capsys, "crossed-product", "--job", str(path))
    assert code == 2
    assert out == {"schema": "galforms/error/v1", "kind": "malformed-input",
                   "error": "cocycle table repeats pair (1, 1)"}


def test_scalar_field_elements_and_a_null_cocycle(capsys, tmp_path):
    """Two forms the CLI has always read: a rational as a field element,
    and "cocycle": null for the trivial cocycle."""
    outputs = []
    for cocycle in (None, "trivial", [[a, b, 1] for a in range(2) for b in range(2)],
                    [[a, b, ["1", "0/5"]] for a in range(2) for b in range(2)]):
        job = {"field": QI, "cocycle": cocycle}
        job_validator("crossed-product").validate(job)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out = invoke(capsys, "crossed-product", "--job", str(path))
        assert code == 0
        outputs.append(out)
    assert all(out == outputs[0] for out in outputs)


# A small valid job per command and form; each runs in milliseconds.
FUZZ_JOBS = [
    ("h1", {"gamma": "C2", "coefficients": "C3", "action": [[0, 1, 2], [0, 2, 1]]}),
    ("h2", {"gamma": "C2", "moduli": [3], "action": [[[1]], [[-1]]]}),
    ("h2", {"gamma": "C2xC2", "moduli": [2, 4], "action": "trivial"}),
    ("boundary", BOUNDARY_JOB),
    ("crossed-product", {"field": QI, "cocycle": [[0, 0, "1"], [0, 1, 1], [1, 0, ["1", "0/1"]],
                                                  [1, 1, ["-3/2", "0"]]]}),
    ("crossed-product", {"field": {"kind": "cyclotomic", "n": 3}, "cocycle": None}),
    ("descend", {"field": QI, "cocycle": {"c": "-1"}, "matrices": [[[["1", "0"]]], [[["1", "0"]]]]}),
    ("descend", {"field": {"kind": "quadratic", "d": 2}, "cocycle": "trivial",
                 "matrices": [[["1"]], [[["0", "1"]]]]}),
]
SUBSTITUTES = [True, False, 1.5, "1_0", " 3", "C+2", 0, "S9"]


def _paths(doc, path=()):
    """The path to every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated_jobs(draw):
    """A job of FUZZ_JOBS with one or two values swapped for a bool, a
    float, a lenient string, 0 or a group above the order cap, dropped,
    or repeated in their list (which repeats a cocycle pair)."""
    command, job = draw(st.sampled_from(FUZZ_JOBS))
    job = copy.deepcopy(job)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(job))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], job)
        how = draw(st.sampled_from(["swap", "drop", "repeat"]))
        if how == "drop":
            del parent[path[-1]]
        elif how == "repeat" and isinstance(parent, list):
            parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(SUBSTITUTES)))
    return command, job


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(mutated_jobs())
def test_mutated_jobs_exit_2_where_the_schema_rejects_them(case):
    """Every mutated job exits 0, 1 or 2 with exactly one JSON document
    that validates against results.schema.json; one the job schema
    rejects exits 2."""
    command, job = case
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(job))), contextlib.redirect_stdout(out):
        code = run([command, "--job", "-"])
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    validate_result(doc)
    if not job_validator(command).is_valid(job):
        assert code == 2, (job, doc)


# --- caps ---------------------------------------------------------------------

def test_h2_bar_complex_cap(monkeypatch, capsys, tmp_path):
    """S5 on Z/2 needs 120^3 rows of d2; it is refused before any row is
    built, with an error that names the cap."""

    def refuse(*args):
        raise AssertionError("bar complex built")

    monkeypatch.setattr(cohomology, "_bar_rows", refuse)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"gamma": "S5", "moduli": [2]}))
    code, doc = invoke(capsys, "h2", "--job", str(path))
    assert (code, doc["kind"]) == (1, "domain-error")
    assert f"above the cap of {cohomology.BAR_ROW_CAP}" in doc["error"]
    assert 24**3 <= cohomology.BAR_ROW_CAP < 120**3


@pytest.mark.parametrize("n", [17, 19, 1000003, 10**30 + 7])
def test_cyclotomic_degree_cap(monkeypatch, capsys, tmp_path, n):
    """Q(zeta_n) of degree above the cap is refused before the field is
    built, and an n past 2 cap^2 (phi(n) >= sqrt(n/2)) before it is
    factored."""
    from galforms import cli

    def refuse(*args):
        raise AssertionError("field built or n factored")

    monkeypatch.setattr(cli, "cyclotomic_field", refuse)
    if n > 2 * cli.CYCLOTOMIC_DEGREE_CAP**2:
        monkeypatch.setattr(cli, "euler_phi", refuse)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"kind": "cyclotomic", "n": n}, "cocycle": "trivial"}))
    code, doc = invoke(capsys, "crossed-product", "--job", str(path))
    assert (code, doc["kind"]) == (1, "domain-error")
    assert doc["error"] == f"Q(zeta_{n}) has degree above the cap of {cli.CYCLOTOMIC_DEGREE_CAP}"


ABOVE_THE_CAP = (10**9 + 7) * (10**9 + 9)


@pytest.mark.parametrize("command", ["crossed-product", "brauer-class"])
def test_quadratic_parameter_cap(capsys, command):
    """A d above the trial-division cap, here (10^9 + 7)(10^9 + 9), is
    refused before it is divided by trial, which took over a minute."""
    start = time.perf_counter()
    code, doc = invoke(capsys, command, "-d", str(ABOVE_THE_CAP), "-c", "3")
    assert time.perf_counter() - start < 1
    assert (code, doc["kind"]) == (1, "domain-error")
    assert doc["error"] == f"{ABOVE_THE_CAP} is above the trial-division cap of {fields.TRIAL_DIVISION_CAP}"


@pytest.mark.parametrize("argv", [
    ["brauer-class", "-d", "-1", "-c", str(ABOVE_THE_CAP)],
    ["crossed-product", "-d", "-1", "-c", str(ABOVE_THE_CAP)],
    ["inner-invariant", "--type", "A1", "--isogeny", "adjoint", "-d", "-1", "--assign", str(ABOVE_THE_CAP)],
    ["hilbert", "-a", "2", "-b", "3", "-p", str(ABOVE_THE_CAP)],
], ids=["brauer-class", "crossed-product", "inner-invariant", "hilbert"])
def test_trial_division_cap_on_c_and_places(capsys, argv):
    """A c, or a place, above the cap is refused at once: the places of
    (d, c) come from factoring c, which ran for minutes."""
    start = time.perf_counter()
    code, doc = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, doc["kind"]) == (1, "domain-error")
    assert doc["error"] == f"{ABOVE_THE_CAP} is above the trial-division cap of {fields.TRIAL_DIVISION_CAP}"


@pytest.mark.parametrize("place", ["4", "9", "1", "0", str(999979 * 999983)])
def test_hilbert_place_must_be_a_prime(capsys, place):
    start = time.perf_counter()
    code, doc = invoke(capsys, "hilbert", "-a", "2", "-b", "3", "-p", place)
    assert time.perf_counter() - start < 1
    assert (code, doc["kind"]) == (1, "domain-error")
    assert doc["error"] == f"place {place} is not a prime"


@pytest.mark.parametrize("n", [13, 21, 26, 28, 36, 42])
def test_cyclotomic_fields_at_the_cap_are_built(n):
    from galforms.cli import CYCLOTOMIC_DEGREE_CAP, parse_field, read_field

    assert parse_field(read_field({"kind": "cyclotomic", "n": n})).degree == CYCLOTOMIC_DEGREE_CAP


@pytest.mark.parametrize("d, c, ramified", [("3/2", "5", [2, 3]), ("7/2", "-1", [2, 7])])
def test_brauer_class_of_a_rational_d(capsys, d, c, ramified):
    """-d is a rational: (3/2, 5) is (6, 5), not (1, 5)."""
    code, doc = invoke(capsys, "brauer-class", "-d", d, "-c", c)
    assert code == 0
    assert doc["ramified"] == ramified
    assert doc["trivial"] is False
