"""Command-line interface: JSON output, schemas, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from galforms import classify, groups
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


def validate_result(doc):
    """Validate an output document against its definition in
    schemas/results.schema.json."""
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    results = json.loads((SCHEMAS / "results.schema.json").read_text())
    common = Resource.from_contents(json.loads((SCHEMAS / "common.schema.json").read_text()))
    registry = Registry().with_resources([
        ("galforms/results", Resource.from_contents(results)),
        ("galforms/common.schema.json", common),
    ])
    ref = f"galforms/results#/definitions/{RESULT_DEFINITIONS[doc['schema']]}"
    Draft7Validator({"$ref": ref}, registry=registry).validate(doc)


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
    crossed product refuses a table that is no cocycle, and a datum over
    an irrational zeta fails the composition law at its witness pair."""
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


@pytest.mark.parametrize("spec", ["S-3", "S0", "C0", "C720xS0"])
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
