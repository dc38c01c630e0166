"""The theorems the library trusts, checked on everything the tests build.

conftest.py records every enumeration of maps out of a group, every
descent datum that validate_datum sees, every inner-form invariant and
every coboundary isomorphism; these tests run after all the others and
check on each what the library does not re-check per call:

- each map `groups._maps` returns is a homomorphism, or for an action a
  1-cocycle, on the full table, and the maps come out in strictly
  ascending order (`_extend` checks the Cayley edges only, and
  `classify-quasisplit` and `h1` print the maps in the order they come);
- given conjugators, `_maps` returns the least member of each class of
  maps under conjugation, one per class (orderly generation;
  `classify_quasisplit` builds no orbit);
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
the selection; the maps, invariants and isomorphisms come from the other
test modules, so run alone these tests find none and fail."""

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
from oracles import algebra_one, datum_apply, maps_by_product
from random_data import presented_algebra

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


def test_every_enumerated_map_is_a_cocycle_and_the_maps_ascend(built):
    """f(1) = 1 and f(ab) = f(a) a(f(b)), a acting trivially when there is
    no action: a homomorphism or a 1-cocycle."""
    calls = list(built["maps"].values())
    assert any(len(args) == 2 for args, _, _ in calls) and any(len(args) == 3 for args, _, _ in calls)
    for args, _, maps in calls:
        g, h = args[:2]
        acts = args[2] if len(args) == 3 else [range(h.order)] * g.order
        assert all(f < f_next for f, f_next in zip(maps, maps[1:])), args
        for f in maps:
            assert f[g.identity] == h.identity
            for a in g.elements():
                row, act = h.table[f[a]], acts[a]
                assert all(f[g.table[a][b]] == row[act[f[b]]] for b in g.elements()), (args, f)


def test_every_class_enumeration_gives_the_least_member_of_each_class(built):
    """Each representative is least among its conjugates, and the orbits
    of the representatives partition every map g -> h: their union is
    the product enumeration and their sizes sum to its length."""
    calls = [(args, kwargs, reps) for args, kwargs, reps in built["maps"].values() if kwargs.get("conjugators")]
    assert calls
    for (g, h), kwargs, reps in calls:
        orbits = [{tuple(h.conjugate(c, x) for x in f) for c in kwargs["conjugators"]} for f in reps]
        assert all(f == min(orbit) for f, orbit in zip(reps, orbits)), (g, h)
        maps = maps_by_product(g, h)
        assert set().union(*orbits) == set(maps), (g, h)
        assert sum(map(len, orbits)) == len(maps), (g, h)


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
            assert all(datum_apply(datum, a, kvec) == kvec for a in datum.action.group.elements())
            span += [[c for x in kvec for c in (power * x).coords] for power in field.power_basis()]
        assert qlinalg.rank(span) == datum.dim * deg


def test_every_inner_invariant_is_the_homomorphism_of_its_classes(built):
    invariants = list(built["invariants"].values())
    assert invariants
    for inv in invariants:
        factors = inv.pi1.invariant_factors
        algebras = {x: presented_algebra(inv, x) for x in inv.elements()}
        for x, algebra in algebras.items():
            assert algebra.presenting_pair() == (inv.field_param, inv.parameters[x])
            assert inv.mu[x] == brauer_class_quaternion(inv.field_param, inv.parameters[x])
            assert algebra.is_split_quaternion() == inv.mu[x].is_trivial()
            for y in inv.elements():
                s = tuple((a + b) % n for a, b, n in zip(x, y, factors))
                assert inv.mu[x] + inv.mu[y] == inv.mu[s], (x, y)
                assert cocycle_sum_class_check(
                    algebra.cocycle, algebras[y].cocycle, algebras[s].cocycle
                ), (x, y)


def test_every_coboundary_isomorphism_is_multiplicative(built):
    isomorphisms = list(built["isomorphisms"].values())
    assert isomorphisms
    for iso in isomorphisms:
        source, target = iso.source, iso.target
        assert iso.apply(algebra_one(source)) == algebra_one(target)
        basis = source.k_basis()
        for x in basis:
            for y in basis:
                assert iso.apply(source.multiply(x, y)) == target.multiply(iso.apply(x), iso.apply(y))
