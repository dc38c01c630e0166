"""Quasi-split classification, cocharacter coinvariants, and the
inner-form invariant."""

from fractions import Fraction
from itertools import product

import pytest

from galforms.classify import (
    build_inner_invariant,
    classify_quasisplit,
    quasisplit_cocharacter_data,
)
from galforms.cli import parse_group
from galforms.exact_linalg import coinvariants, fixed_sublattice
from galforms.fields import BrauerClass
from galforms.groups import cyclic, direct_product, generators, homomorphisms, symmetric
from galforms.root_datum import BasedRootDatum, build_root_datum, outer_automorphisms
from oracles import classes_by_orbits, coweight_orbits
from random_data import MOVE, SO8, presented_algebra, rebased


def out_of(label, isogeny="adjoint"):
    brd = build_root_datum(label, isogeny)
    group, elements = outer_automorphisms(brd)
    return brd, group, elements


# --- quasi-split classification -------------------------------------------

def orbit_count_oracle(gamma, out):
    """Count Hom(Gamma, Out)/conjugation by brute force."""
    homs = set(homomorphisms(gamma, out))
    count = 0
    while homs:
        h = next(iter(homs))
        orbit = {
            tuple(out.conjugate(c, x) for x in h) for c in out.elements()
        }
        homs -= orbit
        count += 1
    return count


def test_classification_counts():
    _, out_a2, _ = out_of("A2")
    _, out_d4, _ = out_of("D4")
    assert len(classify_quasisplit(cyclic(2), out_a2)) == 2
    assert len(classify_quasisplit(cyclic(3), out_d4)) == 2
    assert len(classify_quasisplit(symmetric(3), out_d4)) == 3


@pytest.mark.parametrize("gamma_spec", ["C2", "C2xC2", "C2xC2xC2", "C2xC2xC2xC2", "C2xC2xC2xC2xC2",
                                        "C3", "C3xC3", "C3xC3xC3", "C4", "S3", "S4"])
def test_classification_is_the_orbit_classification(gamma_spec):
    """Orderly generation gives the representatives, ids and order that
    orbit sets over every homomorphism give, against the Out of A3, D4
    and E6 and against S3 and S4.  C2^5 -> S4 is left out: the product
    enumeration under the orbit sets would extend 24^5 = 7,962,624 tuples."""
    gamma = parse_group(gamma_spec)
    for out in [out_of(label)[1] for label in ("A3", "D4", "E6")] + [symmetric(3), symmetric(4)]:
        if out.order ** len(generators(gamma)) <= 24**4:
            assert classify_quasisplit(gamma, out) == classes_by_orbits(gamma, out), (gamma_spec, out)


def test_classification_matches_oracle():
    gammas = [cyclic(2), cyclic(3), cyclic(4), symmetric(3)]
    outs = [out_of("A2")[1], out_of("D4")[1], out_of("A1")[1]]
    for gamma in gammas:
        for out in outs:
            forms = classify_quasisplit(gamma, out)
            assert len(forms) == orbit_count_oracle(gamma, out)
            # canonical representatives: least in orbit, sorted, and
            # genuinely homomorphisms
            reps = [f.rho for f in forms]
            assert reps == sorted(reps)
            for i, f in enumerate(forms):
                assert f.class_id == i
                for a in gamma.elements():
                    for b in gamma.elements():
                        ab = gamma.table[a][b]
                        assert f.rho[ab] == out.table[f.rho[a]][f.rho[b]]
                orbit = {
                    tuple(out.conjugate(c, x) for x in f.rho)
                    for c in out.elements()
                }
                assert f.rho == min(orbit)


# --- cocharacter coinvariants ---------------------------------------------

def test_a2_flip_coinvariants():
    brd, out, _ = out_of("A2")
    trivial, flip = classify_quasisplit(cyclic(2), out)
    data = quasisplit_cocharacter_data(brd, flip)
    assert data.coinvariants.free_rank == 1
    assert data.coinvariants.invariant_factors == ()
    assert data.fixed_rank == 1
    assert data.moved_rank == 1
    # fundamental coweights are swapped: one orbit of size two
    assert ((0, 1), (1, 0)) in data.orbits
    # the projection identifies them
    assert data.projection.apply([1, 0]) == data.projection.apply([0, 1])
    split = quasisplit_cocharacter_data(brd, trivial)
    assert split.coinvariants.free_rank == 2
    assert all(len(orb) == 1 for orb in split.orbits)


def test_d4_triality_coinvariants():
    brd, out, _ = out_of("D4")
    forms = classify_quasisplit(cyclic(3), out)
    twisted = next(f for f in forms if any(f.rho))
    data = quasisplit_cocharacter_data(brd, twisted, height=2)
    assert data.coinvariants.free_rank == 2
    assert data.coinvariants.invariant_factors == ()
    assert data.fixed_rank == 2
    assert data.moved_rank == 2
    # triality fuses three of the four fundamental coweights
    sizes = sorted(len(orb) for orb in data.orbits if any(sum(w) == 1 for w in orb))
    assert sizes == [1, 3]


def test_rank_additivity_every_form():
    for label, gamma in (("D4", symmetric(3)), ("A3", cyclic(2)), ("E6", cyclic(2))):
        brd, out, _ = out_of(label)
        for form in classify_quasisplit(gamma, out):
            data = quasisplit_cocharacter_data(brd, form, height=1)
            assert data.fixed_rank + data.moved_rank == brd.datum.rank
            # orbits partition the dominant box
            seen = set()
            for orb in data.orbits:
                assert not (set(orb) & seen)
                seen |= set(orb)


CARTAN_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
def test_fixed_rank_is_the_rank_of_the_fixed_sublattice(isogeny):
    """fixed_rank is read from the coinvariants' free rank; the fixed
    sublattice, computed by its own kernel, is the oracle."""
    gammas = [cyclic(2), cyclic(3), direct_product(cyclic(2), cyclic(2)), symmetric(3)]
    for label in CARTAN_TYPES:
        brd, out, elements = out_of(label, isogeny)
        for gamma in gammas:
            for rho in homomorphisms(gamma, out):
                data = quasisplit_cocharacter_data(brd, rho, height=0)
                rank, _basis = fixed_sublattice(
                    brd.datum.rank, [elements[x].cochar_matrix for x in rho]
                )
                assert data.fixed_rank == rank, (label, rho)
                assert data.moved_rank == brd.datum.rank - rank, (label, rho)


# The (type, isogeny) pairs of the `lie` workload in perfbench/workloads.py.
LIE_POOL = [
    ("D4", "simply_connected"), ("D4", "adjoint"), ("E6", "simply_connected"),
    ("E7", "adjoint"), ("E8", "simply_connected"), ("D8", "adjoint"),
    ("D8", "simply_connected"), ("A5", "adjoint"), ("A6", "simply_connected"),
    ("B6", "simply_connected"), ("C5", "adjoint"), ("D5", "adjoint"),
    ("D6", "simply_connected"), ("A1", "adjoint"), ("A2", "simply_connected"),
    ("A3", "adjoint"), ("B3", "simply_connected"), ("C4", "adjoint"),
    ("F4", "simply_connected"), ("G2", "adjoint"),
]


@pytest.mark.parametrize("label, isogeny", LIE_POOL)
def test_orbits_and_coinvariants_match_the_search_over_gamma(label, isogeny):
    """Orbits read off the image of rho, and coinvariants of one matrix per
    image element, match a search closing each orbit under the matrix of
    every Gamma element and the coinvariants of all those matrices."""
    brd, out, elements = out_of(label, isogeny)
    rank = brd.datum.rank
    for gamma in (cyclic(2), cyclic(3), symmetric(3), direct_product(cyclic(2), cyclic(2))):
        for form in classify_quasisplit(gamma, out):
            matrices = [elements[x].cochar_matrix for x in form.rho]
            group, _ = coinvariants(rank, matrices)
            for height in range(3):
                data = quasisplit_cocharacter_data(brd, form, height)
                assert data.orbits == coweight_orbits(brd, matrices, height), (form, height)
                assert data.coinvariants == group, form


def test_orbits_under_a_matrix_that_is_no_permutation():
    """On the lattice of SO(8), the nontrivial element of Out moves a
    basis vector to a combination of several; its orbits are still those
    the search that applies its matrix finds."""
    brd = rebased(build_root_datum("D4", "simply_connected"), SO8)
    _, elements = outer_automorphisms(brd)
    matrices = [e.cochar_matrix for e in elements]
    assert any(x not in (0, 1) for row in matrices[1]._data for x in row)
    for height in range(5):
        data = quasisplit_cocharacter_data(brd, (0, 1), height)
        assert data.orbits == coweight_orbits(brd, matrices, height), height
    assert sum(len(orbit) > 1 for orbit in data.orbits) == 2


def test_a_box_the_outer_action_moves_is_refused_by_name():
    """Out(D4) preserves the dominant cone in any coordinates, but on the
    lattice basis MOVE it does not map the box [0, height]^4 to itself:
    the refusal names the box and a dominant coweight that the action
    takes to a dominant one outside it.  Height 0, the origin alone, is
    still answered."""
    brd = rebased(build_root_datum("D4", "adjoint"), MOVE)
    assert quasisplit_cocharacter_data(brd, (0, 2), 0).orbits == (((0, 0, 0, 0),),)
    w, image = (1, 0, 1, 1), (3, -2, 4, 3)
    assert outer_automorphisms(brd)[1][2].cochar_matrix.apply(w) == image
    assert brd.is_dominant_coweight(w) and brd.is_dominant_coweight(image)
    for height in (1, 2):
        with pytest.raises(ValueError) as refusal:
            quasisplit_cocharacter_data(brd, (0, 2), height)
        assert str(refusal.value) == (
            f"the coweight box [0, {height}]^4 is not stable under the outer action: "
            f"it moves {w} to {image}"
        )


# Largest box the dominant-coweight tests scan, to keep them at desk
# scale: every type has heights 0 to 2 inside it, and rank 6 and below
# have 0 to 4.
TEST_BOX = 5**6


@pytest.mark.parametrize("label", CARTAN_TYPES)
def test_dominant_coweights_are_the_box_scan(label):
    """The dominant coweights kept on the datum at each height are the
    points of the box [0, height]^rank that is_dominant_coweight accepts,
    in box order, whatever heights were asked for before."""
    for isogeny in ("simply_connected", "adjoint"):
        brd = build_root_datum(label, isogeny)
        rank = brd.datum.rank
        heights = [h for h in range(5) if (h + 1) ** rank <= TEST_BOX]
        for height in heights:
            quasisplit_cocharacter_data(brd, (0,), height)
        for height in heights:
            scan = [w for w in product(range(height + 1), repeat=rank) if brd.is_dominant_coweight(w)]
            assert list(vars(brd)["_dominant"][height]) == scan, (isogeny, height)


def test_dominant_coweights_once_per_datum_and_height(monkeypatch):
    """A second job on the same datum and height scans no box point;
    another height scans its own box, and a height over the budget is
    refused before any scan."""
    built = build_root_datum("A3", "adjoint")
    brd = BasedRootDatum(built.datum, built.simple_indices)  # nothing kept on it yet
    calls = []
    is_dominant = BasedRootDatum.is_dominant_coweight
    monkeypatch.setattr(BasedRootDatum, "is_dominant_coweight",
                        lambda self, w: calls.append(w) or is_dominant(self, w))
    first = quasisplit_cocharacter_data(brd, (0, 1), 3)
    assert len(calls) == 4**3
    assert quasisplit_cocharacter_data(brd, (0, 1), 3) == first
    assert quasisplit_cocharacter_data(brd, (0,), 3).orbits != first.orbits
    assert len(calls) == 4**3
    quasisplit_cocharacter_data(brd, (0, 1), 2)
    assert len(calls) == 4**3 + 3**3
    with pytest.raises(ValueError, match="budget"):
        quasisplit_cocharacter_data(brd, (0,), 100)
    assert len(calls) == 4**3 + 3**3 and 100 not in vars(brd)["_dominant"]


def test_invalid_rho_rejected():
    brd, out, _ = out_of("A2")
    with pytest.raises(ValueError):
        quasisplit_cocharacter_data(brd, (0, 99))


# --- inner-form invariant -------------------------------------------------

def test_inner_invariant_hamilton():
    brd = build_root_datum("A1", "adjoint")
    inv = build_inner_invariant(brd, -1, [-1])
    assert inv.pi1.invariant_factors == (2,)
    assert inv.elements() == [(0,), (1,)]
    assert inv.mu[(0,)].is_trivial()
    assert not inv.mu[(1,)].is_trivial()
    assert inv.parameters[(1,)] == Fraction(-1)
    alg = presented_algebra(inv, (1,))
    assert alg.presenting_pair() == (-1, Fraction(-1))
    assert not alg.is_split_quaternion()
    assert presented_algebra(inv, (0,)).is_split_quaternion()


def test_inner_invariant_split_assignment():
    brd = build_root_datum("A1", "adjoint")
    inv = build_inner_invariant(brd, 2, [2])
    assert inv.mu[(1,)] == BrauerClass(frozenset())
    assert presented_algebra(inv, (1,)).is_split_quaternion()


def test_inner_invariant_d4_two_generators():
    brd = build_root_datum("D4", "adjoint")
    inv = build_inner_invariant(brd, -1, [-1, 3])
    assert inv.pi1.invariant_factors == (2, 2)
    assert len(inv.mu) == 4
    # mu is additive: mu(1,1) = mu(1,0) + mu(0,1)
    assert inv.mu[(1, 1)] == inv.mu[(1, 0)] + inv.mu[(0, 1)]
    assert inv.parameters[(1, 1)] == Fraction(-3)


def test_odd_order_rejection():
    brd = build_root_datum("A2", "adjoint")  # pi1 = Z/3
    with pytest.raises(ValueError) as err:
        build_inner_invariant(brd, -1, [-1])
    assert "order violation" in str(err.value)
    # a split class on the odd generator is fine
    inv = build_inner_invariant(brd, -1, [2])
    assert all(cls.is_trivial() for cls in inv.mu.values())


def test_assignment_count_checked():
    brd = build_root_datum("D4", "adjoint")
    with pytest.raises(ValueError):
        build_inner_invariant(brd, -1, [-1])


def test_free_pi1_rejected():
    with pytest.raises(ValueError):
        build_inner_invariant(build_root_datum("T1"), -1, [])


def test_coweight_box_budget(monkeypatch):
    """A box above the budget is refused before any lattice work."""
    from galforms import classify

    def refuse(*args):
        raise AssertionError("coinvariants computed")

    brd = build_root_datum("E8", "adjoint")
    monkeypatch.setattr(classify, "_coinvariants", refuse)
    with pytest.raises(ValueError, match=f"budget of {classify.COWEIGHT_BOX_BUDGET}"):
        quasisplit_cocharacter_data(brd, (0,), height=40)


@pytest.mark.parametrize("label", ["A8", "B8", "C8", "D8", "E8"])
def test_default_height_is_within_the_coweight_budget(monkeypatch, label):
    """Every rank-8 type, both isogenies, at the default height passes the
    box count and reaches the lattice work."""
    from galforms import classify

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(classify, "_coinvariants", reached)
    for isogeny in ("simply_connected", "adjoint"):
        with pytest.raises(Reached):
            quasisplit_cocharacter_data(build_root_datum(label, isogeny), (0,))
