"""The theorems the library trusts, checked on everything the tests build.

conftest.py records every descent datum that validate_datum sees, every
inner-form invariant and every coboundary isomorphism; these tests run
after all the others and check on each what the library does not
re-check per call:

- a valid datum on V != 0 is a right module over A_zeta of k-dimension
  dim * [K:k] (the module equivalence; `descend` prints that number
  without building the module);
- the fixed space of a valid untwisted datum is fixed, has k-dimension
  dim and K-spans V (Speiser's lemma; `fixed_space` returns the kernel
  of the S_a - I as it is);
- mu sends each element to the class of its presenting pair and to the
  class of its crossed product, and is a homomorphism (bilinearity of
  the quaternion class (d, c) in c; `inner-invariant` prints
  `split_algebra` from mu);
- a coboundary isomorphism is unital and multiplicative.

The descend goldens are replayed here, so their data are checked whatever
the selection; the invariants and isomorphisms come from the other test
modules, so run alone these tests find none and fail."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from galforms import qlinalg
from galforms.cli import run
from galforms.crossed import cocycle_sum_class_check
from galforms.descent import fixed_space, to_module, validate_datum
from galforms.fields import brauer_class_quaternion

GOLDEN_CROSSED = json.loads((Path(__file__).parent / "data" / "crossed_golden.json").read_text())


@pytest.fixture(scope="module")
def valid_data(built, tmp_path_factory):
    """Every valid datum the tests validated, the descend goldens' included."""
    job = tmp_path_factory.mktemp("goldens") / "job.json"
    for case in GOLDEN_CROSSED:
        if case["argv"] == ["descend"]:
            job.write_text(json.dumps(case["job"]))
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["descend", "--job", str(job)]) == case["exit"]
    data = [datum for datum in list(built["data"].values()) if validate_datum(datum)[0]]
    assert data
    return data


def test_every_valid_datum_is_a_module_of_dimension_dim_times_degree(valid_data):
    """On V = 0 there is nothing to compose, so zeta need not be a
    cocycle there; `descend` checks it (test_cli's edge cases)."""
    nonzero = [datum for datum in valid_data if datum.dim]
    assert nonzero
    for datum in nonzero:
        module = to_module(datum)  # the AModule constructor checks the axioms
        assert module.dim == datum.dim * datum.field.degree


def test_every_untwisted_fixed_space_is_a_k_form(valid_data):
    untwisted = [
        datum for datum in valid_data
        if all(x == datum.field.one() for x in datum.cocycle.values.values())
    ]
    assert untwisted
    for datum in untwisted:
        field, deg = datum.field, datum.field.degree
        basis = fixed_space(datum)
        assert len(basis) == datum.dim
        span = []
        for vec in basis:
            kvec = [field.element(vec[j: j + deg]) for j in range(0, len(vec), deg)]
            assert all(datum.apply(a, kvec) == kvec for a in datum.action.group.elements())
            span += [[c for x in kvec for c in (power * x).coords] for power in field.power_basis()]
        assert qlinalg.rank(span) == datum.dim * deg


def test_every_inner_invariant_is_the_homomorphism_of_its_classes(built):
    invariants = list(built["invariants"].values())
    assert invariants
    for inv in invariants:
        factors = inv.pi1.invariant_factors
        for x in inv.elements():
            algebra = inv.algebras[x]
            assert algebra.presenting_pair() == (inv.field_param, inv.parameters[x])
            assert inv.mu[x] == brauer_class_quaternion(inv.field_param, inv.parameters[x])
            assert algebra.is_split_quaternion() == inv.mu[x].is_trivial()
            for y in inv.elements():
                s = tuple((a + b) % n for a, b, n in zip(x, y, factors))
                assert inv.mu[x] + inv.mu[y] == inv.mu[s], (x, y)
                assert cocycle_sum_class_check(
                    algebra.cocycle, inv.algebras[y].cocycle, inv.algebras[s].cocycle
                ), (x, y)


def test_every_coboundary_isomorphism_is_multiplicative(built):
    isomorphisms = list(built["isomorphisms"].values())
    assert isomorphisms
    for iso in isomorphisms:
        source, target = iso.source, iso.target
        assert iso.apply(source.one()) == target.one()
        basis = source.k_basis()
        for x in basis:
            for y in basis:
                assert iso.apply(source.multiply(x, y)) == target.multiply(iso.apply(x), iso.apply(y))
