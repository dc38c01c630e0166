"""Finite groups by multiplication table."""

import time
from itertools import product

import pytest

from galforms import groups
from galforms.classify import classify_quasisplit
from galforms.cli import parse_group
from galforms.cohomology import GGroup
from galforms.groups import (
    FiniteGroup,
    cyclic,
    direct_product,
    homomorphisms,
    subgroup_closure,
    symmetric,
)
from galforms.root_datum import build_root_datum, outer_automorphisms
from oracles import one_cocycles_brute


def test_cyclic_basics():
    g = cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.inv(1) == 5


def test_symmetric_group():
    s3 = symmetric(3)
    assert s3.order == 6
    assert sorted(s3.element_order(x) for x in s3.elements()) == [1, 2, 2, 2, 3, 3]
    # conjugation preserves order
    for c in s3.elements():
        for a in s3.elements():
            assert s3.element_order(s3.conjugate(c, a)) == s3.element_order(a)


def test_direct_product():
    v4 = direct_product(cyclic(2), cyclic(2))
    assert v4.order == 4
    assert all(v4.element_order(x) in (1, 2) for x in v4.elements())


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])


def test_homomorphism_counts():
    # Hom(Z/2, Z/2) = 2, Hom(Z/3, S3) = 3, Hom(S3, Z/2) = 2
    assert len(homomorphisms(cyclic(2), cyclic(2))) == 2
    assert len(homomorphisms(cyclic(3), symmetric(3))) == 3
    assert len(homomorphisms(symmetric(3), cyclic(2))) == 2
    # Hom(S3, S3): 1 trivial + 3 sign-type + 6 automorphisms = 10
    assert len(homomorphisms(symmetric(3), symmetric(3))) == 10
    for h in homomorphisms(symmetric(3), symmetric(3)):
        s3 = symmetric(3)
        for a in s3.elements():
            for b in s3.elements():
                assert h[s3.table[a][b]] == s3.table[h[a]][h[b]]


def _homomorphisms_by_definition(g, h):
    """Every tuple of |h|^|g| images, in lexicographic order, that
    respects the multiplication tables."""
    n = g.order
    return [
        images
        for images in product(range(h.order), repeat=n)
        if all(images[g.table[a][b]] == h.table[images[a]][images[b]]
               for a in range(n) for b in range(n))
    ]


SMALL_GROUPS = {
    **{f"C{n}": cyclic(n) for n in range(1, 7)},
    "S3": symmetric(3),
    "C2xC2": direct_product(cyclic(2), cyclic(2)),
}


@pytest.mark.parametrize("source", SMALL_GROUPS)
def test_homomorphisms_match_the_definition(source):
    g = SMALL_GROUPS[source]
    for target, h in SMALL_GROUPS.items():
        assert homomorphisms(g, h) == _homomorphisms_by_definition(g, h), (source, target)


@pytest.mark.parametrize("source", ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2", "C2xC4",
                                    "C4xC2", "C2xC2xC2", "S3", "C3xC2"])
def test_homomorphisms_match_a_generator_blind_search(source):
    """A homomorphism is a 1-cocycle for the trivial action, so the
    exhaustive cocycle search, which never looks at generators of the
    source, lists Hom(g, h) too, in lexicographic order."""
    g = parse_group(source)
    for target in ("C1", "C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "C3xC2", "Out(D4)"):
        h = outer_automorphisms(build_root_datum("D4"))[0] if target == "Out(D4)" else parse_group(target)
        assert homomorphisms(g, h) == one_cocycles_brute(GGroup.trivial_action(g, h)), (source, target)


def test_homomorphisms_from_order_12_and_24():
    """Generator images make sources of order 12 and 24 cheap: the
    definition would try 6^12 and 6^24 tuples."""
    s3 = symmetric(3)
    for g, count in ((symmetric(4), 10), (direct_product(cyclic(2), cyclic(6)), 12)):
        start = time.perf_counter()
        homs = homomorphisms(g, s3)
        assert time.perf_counter() - start < 1
        assert len(homs) == count
        assert homs == sorted(set(homs))
        for images in homs:
            assert all(images[g.table[a][b]] == s3.table[images[a]][images[b]]
                       for a in g.elements() for b in g.elements())


def test_subgroup_closure():
    s3 = symmetric(3)
    three = next(x for x in s3.elements() if s3.element_order(x) == 3)
    assert len(subgroup_closure(s3, [three])) == 3
    assert len(subgroup_closure(s3, [])) == 1


def test_homomorphism_budget_refuses_before_enumerating(monkeypatch):
    """|H|^#gens above the budget is refused by a count: no candidate is
    extended.  C2^9 has 9 generators, so S6 would give 720^9."""
    from galforms import groups

    def refuse(*args):
        raise AssertionError("candidate extended")

    g = cyclic(2)
    for _ in range(8):
        g = direct_product(g, cyclic(2))
    monkeypatch.setattr(groups, "_extend", refuse)
    with pytest.raises(ValueError, match=f"budget of {groups.ENUMERATION_BUDGET}"):
        homomorphisms(g, symmetric(6))
    # one generator below the budget still enumerates
    with pytest.raises(AssertionError):
        homomorphisms(cyclic(5), symmetric(6))


def test_the_walk_drops_a_prefix_at_its_first_disagreeing_edge(monkeypatch):
    """C2^6 -> Out(D4): extending every one of the 6^6 tuples of generator
    images takes 46,656 extensions for the maps and as many for the
    classes; the walk extends each surviving prefix by one image, and for
    the classes only images that no conjugator fixing the prefix lowers."""
    extensions = []
    extend = groups._extend

    def counted(*args):
        extensions.append(args)
        return extend(*args)

    monkeypatch.setattr(groups, "_extend", counted)
    gamma, out = parse_group("C2xC2xC2xC2xC2xC2"), outer_automorphisms(build_root_datum("D4"))[0]
    assert len(classify_quasisplit(gamma, out)) == 64
    assert len(extensions) <= 500
    extensions.clear()
    assert len(homomorphisms(gamma, out)) == 190
    assert len(extensions) <= 2000


def test_homomorphisms_within_the_budget():
    # 24^3 generator images
    assert len(homomorphisms(symmetric(4), symmetric(4))) == 58

