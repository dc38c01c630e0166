"""Finite groups by multiplication table."""

import time
from itertools import product

import pytest

from galforms.groups import (
    FiniteGroup,
    cyclic,
    direct_product,
    homomorphisms,
    subgroup_closure,
    symmetric,
)


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


def test_homomorphisms_within_the_budget():
    # 24^3 generator images
    assert len(homomorphisms(symmetric(4), symmetric(4))) == 58

