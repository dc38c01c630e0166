"""Quasi-split classification, cocharacter coinvariants, and the
inner-form invariant."""

from fractions import Fraction

import pytest

from galforms.classify import (
    build_inner_invariant,
    classify_quasisplit,
    quasisplit_cocharacter_data,
)
from galforms.exact_linalg import coinvariants, fixed_sublattice
from galforms.fields import BrauerClass
from galforms.groups import cyclic, direct_product, homomorphisms, symmetric
from galforms.root_datum import build_root_datum, outer_automorphisms
from oracles import coweight_orbits
from random_data import presented_algebra


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
    monkeypatch.setattr(classify, "coinvariants", refuse)
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

    monkeypatch.setattr(classify, "coinvariants", reached)
    for isogeny in ("simply_connected", "adjoint"):
        with pytest.raises(Reached):
            quasisplit_cocharacter_data(build_root_datum(label, isogeny), (0,))
